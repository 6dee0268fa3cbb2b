#include "dock/energy.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace scidock::dock {

namespace {

mol::Vec3 root_center(const mol::PreparedLigand& ligand) {
  std::vector<mol::Vec3> pts;
  for (int i : ligand.torsions.root_atoms()) {
    pts.push_back(ligand.molecule.atom(i).pos);
  }
  if (pts.empty()) return ligand.molecule.center();
  return mol::centroid(pts);
}

}  // namespace

Ad4EnergyModel::Ad4EnergyModel(const GridMapSet& maps,
                               const mol::PreparedLigand& ligand,
                               Ad4Weights weights)
    : maps_(maps), ligand_(ligand), weights_(weights),
      tables_(Ad4PairTables::shared(weights)),
      reference_coords_(ligand.molecule.coordinates()),
      reference_center_(root_center(ligand)) {
  // Fused sampling assumes every map shares the set's box; AutoGrid
  // guarantees this, and the map-file round trip preserves it.
  SCIDOCK_ASSERT(maps_.electrostatic.box().npts == maps_.box.npts &&
                 maps_.desolvation.box().npts == maps_.box.npts);
  constexpr double kQasp = 0.01097;
  channels_.reserve(static_cast<std::size_t>(ligand.molecule.atom_count()));
  for (int i = 0; i < ligand.molecule.atom_count(); ++i) {
    const mol::Atom& a = ligand.molecule.atom(i);
    const GridMap* aff = maps_.affinity_for(a.ad_type);
    // Every ligand type must have a map, otherwise the GPF was wrong.
    SCIDOCK_REQUIRE(aff != nullptr,
                    "missing AutoGrid map for ligand atom type " +
                        std::string(mol::ad_type_name(a.ad_type)));
    const auto& pa = mol::ad_type_params(a.ad_type);
    channels_.push_back({aff, a.partial_charge,
                         pa.solpar + kQasp * std::abs(a.partial_charge)});
  }
  for (const auto& [i, j] : intramolecular_pairs(ligand.molecule)) {
    const mol::Atom& ai = ligand.molecule.atom(i);
    const mol::Atom& aj = ligand.molecule.atom(j);
    const auto& pi = mol::ad_type_params(ai.ad_type);
    const auto& pj = mol::ad_type_params(aj.ad_type);
    const double qi = ai.partial_charge;
    const double qj = aj.partial_charge;
    intra_pairs_.push_back(
        {i, j, ai.ad_type, aj.ad_type, qi, qj, qi * qj,
         (pi.solpar + kQasp * std::abs(qi)) * pj.volume +
             (pj.solpar + kQasp * std::abs(qj)) * pi.volume,
         tables_->vdw_row(ai.ad_type, aj.ad_type)});
  }
}

double Ad4EnergyModel::intermolecular(const std::vector<mol::Vec3>& coords) const {
  double e = 0.0;
  const std::size_t n = channels_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const AtomChannels& ch = channels_[i];
    // One cell/weight computation feeds all three maps (they share the
    // AutoGrid box), where the unfused path paid the origin/index math
    // three times per atom.
    const TrilinearSampler s(maps_.box, coords[i]);
    if (s.in_box()) {
      e += s.apply(*ch.affinity);
      e += ch.charge * s.apply(maps_.electrostatic);
      e += ch.solv * s.apply(maps_.desolvation);
    } else {
      e += GridMap::kOutOfBoxPenalty;
      e += ch.charge * GridMap::kOutOfBoxPenalty;
      e += ch.solv * GridMap::kOutOfBoxPenalty;
    }
  }
  return e;
}

double Ad4EnergyModel::intramolecular(const std::vector<mol::Vec3>& coords) const {
  double e = 0.0;
  const Ad4PairTables& t = *tables_;
  for (const IntraPair& p : intra_pairs_) {
    const double d2 = mol::distance_sq(coords[static_cast<std::size_t>(p.i)],
                                       coords[static_cast<std::size_t>(p.j)]);
    if (d2 < Ad4PairTables::cutoff_sq()) {
      e += t.vdw_hbond(p.ti, p.tj, d2) + p.qq * t.coulomb_factor(d2) +
           p.solv * t.desolv_gauss(d2);
    } else {
      // Intramolecular pairs in extended ligands exceed the table domain;
      // the analytic tail is cheap and already near zero out there.
      e += ad4_pair_energy(p.ti, p.qi, p.tj, p.qj, std::sqrt(d2), weights_);
    }
  }
  return e;
}

double Ad4EnergyModel::operator()(const DockPose& pose) const {
  ++evaluations_;
  const std::vector<mol::Vec3> coords = coords_for(pose);
  return intermolecular(coords) + intramolecular(coords);
}

void Ad4EnergyModel::pack_batch(const std::vector<DockPose>& poses) const {
  batch_.resize(static_cast<int>(poses.size()),
                ligand_.molecule.atom_count());
  for (int p = 0; p < static_cast<int>(poses.size()); ++p) {
    batch_.set_pose(p, coords_for(poses[static_cast<std::size_t>(p)]));
  }
  batch_.pad_tail();
}

void Ad4EnergyModel::intermolecular_batch(std::vector<double>& out) const {
  constexpr int W = PoseBatch::kLaneWidth;
  out.resize(static_cast<std::size_t>(batch_.pose_count()));
  for (int b = 0; b < batch_.lane_blocks(); ++b) {
    // Each lane is one pose: accumulating per atom in the scalar model's
    // order keeps every lane bit-equal to intermolecular() (the lanes
    // sampler reproduces TrilinearSampler, including the out-of-box
    // penalty blended per channel before the charge/solv factors).
    simd::f64x acc;
    for (int a = 0; a < batch_.atom_count(); ++a) {
      const AtomChannels& ch = channels_[static_cast<std::size_t>(a)];
      const TrilinearSamplerLanes s(maps_.box, batch_.x_plane(b, a),
                                    batch_.y_plane(b, a),
                                    batch_.z_plane(b, a));
      acc += s.apply(*ch.affinity);
      acc += simd::f64x(ch.charge) * s.apply(maps_.electrostatic);
      acc += simd::f64x(ch.solv) * s.apply(maps_.desolvation);
    }
    for (int l = 0; l < batch_.lanes_in_block(b); ++l) {
      out[static_cast<std::size_t>(b * W + l)] = acc.lane(l);
    }
  }
}

void Ad4EnergyModel::intramolecular_batch(std::vector<double>& out) const {
  constexpr int W = PoseBatch::kLaneWidth;
  out.resize(static_cast<std::size_t>(batch_.pose_count()));
  const Ad4PairTables& t = *tables_;
  const simd::f64x cutoff(Ad4PairTables::cutoff_sq());
  alignas(64) const double* rows[W];
  for (int b = 0; b < batch_.lane_blocks(); ++b) {
    simd::f64x acc;
    for (const IntraPair& p : intra_pairs_) {
      const simd::f64x dx = simd::f64x::load(batch_.x_plane(b, p.i)) -
                            simd::f64x::load(batch_.x_plane(b, p.j));
      const simd::f64x dy = simd::f64x::load(batch_.y_plane(b, p.i)) -
                            simd::f64x::load(batch_.y_plane(b, p.j));
      const simd::f64x dz = simd::f64x::load(batch_.z_plane(b, p.i)) -
                            simd::f64x::load(batch_.z_plane(b, p.j));
      // Same association as Vec3::dot, so the table-vs-tail branch below
      // sees the scalar path's d² bit for bit.
      const simd::f64x d2 = dx * dx + dy * dy + dz * dz;
      for (int l = 0; l < W; ++l) rows[l] = p.row;
      const simd::f64x inside = simd::less_than(d2, cutoff);
      if (simd::all(inside)) {
        acc += t.pair_energy_lanes(rows, simd::f64x(p.qq),
                                   simd::f64x(p.solv), d2);
        continue;
      }
      // Mixed block: evaluate the table on clamped lanes, then patch the
      // beyond-cutoff lanes with the scalar analytic tail (rare — only
      // extended ligand pairs leave the 8 Å domain).
      const simd::f64x lanes = t.pair_energy_lanes(
          rows, simd::f64x(p.qq), simd::f64x(p.solv), simd::min(d2, cutoff));
      alignas(64) double ev[W], d2v[W];
      lanes.store(ev);
      d2.store(d2v);
      for (int l = 0; l < W; ++l) {
        if (!(d2v[l] < Ad4PairTables::cutoff_sq())) {
          ev[l] = ad4_pair_energy(p.ti, p.qi, p.tj, p.qj, std::sqrt(d2v[l]),
                                  weights_);
        }
      }
      acc += simd::f64x::load(ev);
    }
    for (int l = 0; l < batch_.lanes_in_block(b); ++l) {
      out[static_cast<std::size_t>(b * W + l)] = acc.lane(l);
    }
  }
}

std::vector<double> Ad4EnergyModel::evaluate_batch(
    const std::vector<DockPose>& poses) const {
  if (poses.empty()) return {};
  evaluations_ += static_cast<long long>(poses.size());
  pack_batch(poses);
  std::vector<double> inter, intra;
  intermolecular_batch(inter);
  intramolecular_batch(intra);
  for (std::size_t i = 0; i < inter.size(); ++i) inter[i] += intra[i];
  return inter;
}

void Ad4EnergyModel::score_batch(const std::vector<DockPose>& poses,
                                 std::vector<double>* inter,
                                 std::vector<double>* intra) const {
  if (poses.empty()) {
    if (inter) inter->clear();
    if (intra) intra->clear();
    return;
  }
  pack_batch(poses);
  if (inter) intermolecular_batch(*inter);
  if (intra) intramolecular_batch(*intra);
}

double Ad4EnergyModel::feb(double inter) const {
  return inter + weights_.tors * static_cast<double>(ligand_.torsions.torsion_count());
}

std::vector<mol::Vec3> Ad4EnergyModel::coords_for(const DockPose& pose) const {
  return ligand_.torsions.apply(reference_coords_, pose.rigid, pose.torsions);
}

std::vector<mol::AdType> vina_map_types(const mol::Molecule& ligand) {
  std::vector<mol::AdType> types;
  for (const mol::Atom& a : ligand.atoms()) {
    if (!mol::vina_kind(a.ad_type).skip) types.push_back(a.ad_type);
  }
  std::sort(types.begin(), types.end());
  types.erase(std::unique(types.begin(), types.end()), types.end());
  return types;
}

GridBox vina_search_box(const GridBox& grid) {
  GridBox search;
  search.center = grid.center;
  const mol::Vec3 extent = grid.extent();
  const double sides[3] = {extent.x, extent.y, extent.z};
  for (int a = 0; a < 3; ++a) {
    // The 1e-9 absorbs the rounding of spacing * (npts - 1), so an extent
    // that is a whole number of conf steps after the margin stays whole.
    const double steps =
        std::floor((sides[a] - 2.0 * kVinaGridMargin) / search.spacing + 1e-9);
    search.npts[a] = std::max(2, static_cast<int>(steps) + 1);
  }
  return search;
}

bool vina_grid_covers(const GridBox& grid, const GridBox& search) {
  const mol::Aabb g = grid.bounds();
  const mol::Aabb s = search.bounds();
  const double m = kVinaGridMargin - 1e-6;
  return s.lo.x - g.lo.x >= m && s.lo.y - g.lo.y >= m && s.lo.z - g.lo.z >= m &&
         g.hi.x - s.hi.x >= m && g.hi.y - s.hi.y >= m && g.hi.z - s.hi.z >= m;
}

VinaEnergyModel::VinaEnergyModel(const mol::PreparedLigand& ligand,
                                 const GridBox& box, VinaWeights weights)
    : ligand_(ligand), box_(box), bounds_(box.bounds()), weights_(weights),
      tables_(VinaPairTables::shared(weights)),
      reference_coords_(ligand.molecule.coordinates()),
      reference_center_(root_center(ligand)) {
  for (const auto& [i, j] : intramolecular_pairs(ligand.molecule)) {
    if (mol::vina_kind(ligand.molecule.atom(i).ad_type).skip) continue;
    if (mol::vina_kind(ligand.molecule.atom(j).ad_type).skip) continue;
    intra_pairs_.push_back({i, j, tables_->row(ligand.molecule.atom(i).ad_type,
                                               ligand.molecule.atom(j).ad_type)});
  }
}

VinaEnergyModel::VinaEnergyModel(const mol::PreparedReceptor& receptor,
                                 const mol::PreparedLigand& ligand,
                                 const GridBox& box, VinaWeights weights)
    : VinaEnergyModel(ligand, box, weights) {
  neighbors_.emplace(receptor.molecule, 8.0);
  lig_rows_.resize(static_cast<std::size_t>(ligand.molecule.atom_count()) *
                   static_cast<std::size_t>(mol::kAdTypeCount));
  for (int i = 0; i < ligand.molecule.atom_count(); ++i) {
    for (int t = 0; t < mol::kAdTypeCount; ++t) {
      lig_rows_[static_cast<std::size_t>(i) * mol::kAdTypeCount +
                static_cast<std::size_t>(t)] =
          tables_->row(ligand.molecule.atom(i).ad_type,
                       static_cast<mol::AdType>(t));
    }
  }
  rec_types_.reserve(static_cast<std::size_t>(receptor.molecule.atom_count()));
  for (int ri = 0; ri < receptor.molecule.atom_count(); ++ri) {
    rec_types_.push_back(static_cast<int>(receptor.molecule.atom(ri).ad_type));
  }
}

VinaEnergyModel::VinaEnergyModel(const GridMapSet& maps,
                                 const mol::PreparedLigand& ligand,
                                 const GridBox& box)
    : VinaEnergyModel(ligand, box, VinaWeights{}) {
  // Inside the search box no atom may fall off the maps: the pull-back
  // is decided on the search box, so the map box must enclose it.
  SCIDOCK_REQUIRE(vina_grid_covers(maps.box, box),
                  "Vina maps do not cover the search box with the margin");
  maps_ = &maps;
  atom_maps_.reserve(static_cast<std::size_t>(ligand.molecule.atom_count()));
  for (const mol::Atom& a : ligand.molecule.atoms()) {
    const GridMap* map = nullptr;
    if (!mol::vina_kind(a.ad_type).skip) {
      map = maps.map_for(ScoringFunction::kVina, a.ad_type);
      SCIDOCK_REQUIRE(map != nullptr,
                      "missing Vina map for ligand atom type " +
                          std::string(mol::ad_type_name(a.ad_type)));
    }
    atom_maps_.push_back(map);
  }
}

double VinaEnergyModel::direct_term(int i, const mol::Vec3& p) const {
  constexpr int W = simd::f64x::kWidth;
  // Collect the atom's neighbour block (squared distances straight from
  // the cell list — the table is indexed by r², so no sqrt — plus the
  // per-hit LUT channel), pad to a lane multiple with r² = cutoff²
  // (pair_energy_lanes masks those lanes to the analytic zero), then
  // accumulate lane-parallel and reduce once per atom.
  d2_scratch_.clear();
  row_scratch_.clear();
  const double* const* rows_for_atom =
      lig_rows_.data() + static_cast<std::size_t>(i) * mol::kAdTypeCount;
  neighbors_->for_each_within(p, [&](int ri, double d2) {
    d2_scratch_.push_back(d2);
    row_scratch_.push_back(
        rows_for_atom[rec_types_[static_cast<std::size_t>(ri)]]);
  });
  while (d2_scratch_.size() % W != 0) {
    d2_scratch_.push_back(lut::kCutoffSq);
    row_scratch_.push_back(rows_for_atom[0]);
  }
  simd::f64x acc;
  for (std::size_t k = 0; k < d2_scratch_.size(); k += W) {
    acc += tables_->pair_energy_lanes(row_scratch_.data() + k,
                                      simd::f64x::load(d2_scratch_.data() + k));
  }
  return acc.hsum();
}

double VinaEnergyModel::intermolecular(const std::vector<mol::Vec3>& coords) const {
  double e = 0.0;
  for (int i = 0; i < ligand_.molecule.atom_count(); ++i) {
    const mol::Vec3& p = coords[static_cast<std::size_t>(i)];
    // Vina confines the search to the box: out-of-box atoms incur a steep
    // harmonic pull-back, mirroring its boundary handling.
    if (!bounds_.contains(p)) {
      e += 10.0 * mol::distance_sq(p, box_.center);
      continue;
    }
    e += maps_ != nullptr ? grid_term(i, p) : direct_term(i, p);
  }
  return e;
}

double VinaEnergyModel::intramolecular(const std::vector<mol::Vec3>& coords) const {
  double e = 0.0;
  for (const VinaIntraPair& p : intra_pairs_) {
    const double d2 = mol::distance_sq(coords[static_cast<std::size_t>(p.i)],
                                       coords[static_cast<std::size_t>(p.j)]);
    if (d2 < lut::kCutoffSq) e += lut::interpolate(p.row, d2);
  }
  return e;
}

double VinaEnergyModel::operator()(const DockPose& pose) const {
  ++evaluations_;
  const std::vector<mol::Vec3> coords = coords_for(pose);
  return intermolecular(coords) + intramolecular(coords);
}

void VinaEnergyModel::intramolecular_batch(std::vector<double>& out) const {
  constexpr int W = PoseBatch::kLaneWidth;
  out.resize(static_cast<std::size_t>(batch_.pose_count()));
  alignas(64) const double* rows[W];
  for (int b = 0; b < batch_.lane_blocks(); ++b) {
    simd::f64x acc;
    for (const VinaIntraPair& p : intra_pairs_) {
      const simd::f64x dx = simd::f64x::load(batch_.x_plane(b, p.i)) -
                            simd::f64x::load(batch_.x_plane(b, p.j));
      const simd::f64x dy = simd::f64x::load(batch_.y_plane(b, p.i)) -
                            simd::f64x::load(batch_.y_plane(b, p.j));
      const simd::f64x dz = simd::f64x::load(batch_.z_plane(b, p.i)) -
                            simd::f64x::load(batch_.z_plane(b, p.j));
      const simd::f64x d2 = dx * dx + dy * dy + dz * dz;
      for (int l = 0; l < W; ++l) rows[l] = p.row;
      acc += tables_->pair_energy_lanes(rows, d2);
    }
    for (int l = 0; l < batch_.lanes_in_block(b); ++l) {
      out[static_cast<std::size_t>(b * W + l)] = acc.lane(l);
    }
  }
}

void VinaEnergyModel::intermolecular_grid_batch(std::vector<double>& out) const {
  constexpr int W = PoseBatch::kLaneWidth;
  out.resize(static_cast<std::size_t>(batch_.pose_count()));
  const simd::f64x cx(box_.center.x), cy(box_.center.y), cz(box_.center.z);
  for (int b = 0; b < batch_.lane_blocks(); ++b) {
    // Each lane is one pose, accumulated per atom in intermolecular()'s
    // order: lanes inside the search box sample the atom's map, the rest
    // take the same harmonic pull-back, so each lane is bit-equal to the
    // pose-at-a-time path.
    simd::f64x acc;
    for (int a = 0; a < batch_.atom_count(); ++a) {
      const double* xs = batch_.x_plane(b, a);
      const double* ys = batch_.y_plane(b, a);
      const double* zs = batch_.z_plane(b, a);
      alignas(64) double inside[W];
      bool any_in = false;
      bool all_in = true;
      for (int l = 0; l < W; ++l) {
        const bool in = bounds_.contains({xs[l], ys[l], zs[l]});
        inside[l] = simd::mask_value(in);
        any_in = any_in || in;
        all_in = all_in && in;
      }
      simd::f64x value;
      const GridMap* map = atom_maps_[static_cast<std::size_t>(a)];
      if (any_in && map != nullptr) {
        value = TrilinearSamplerLanes(maps_->box, xs, ys, zs).apply(*map);
      }
      if (!all_in) {
        const simd::f64x dx = simd::f64x::load(xs) - cx;
        const simd::f64x dy = simd::f64x::load(ys) - cy;
        const simd::f64x dz = simd::f64x::load(zs) - cz;
        const simd::f64x pull = simd::f64x(10.0) * (dx * dx + dy * dy + dz * dz);
        value = simd::blend(simd::f64x::load(inside), value, pull);
      }
      acc += value;
    }
    for (int l = 0; l < batch_.lanes_in_block(b); ++l) {
      out[static_cast<std::size_t>(b * W + l)] = acc.lane(l);
    }
  }
}

std::vector<double> VinaEnergyModel::evaluate_batch(
    const std::vector<DockPose>& poses) const {
  if (poses.empty()) return {};
  evaluations_ += static_cast<long long>(poses.size());
  std::vector<double> inter, intra;
  score_batch(poses, &inter, &intra);
  for (std::size_t i = 0; i < inter.size(); ++i) inter[i] += intra[i];
  return inter;
}

void VinaEnergyModel::score_batch(const std::vector<DockPose>& poses,
                                  std::vector<double>* inter,
                                  std::vector<double>* intra) const {
  if (poses.empty()) {
    if (inter) inter->clear();
    if (intra) intra->clear();
    return;
  }
  batch_.resize(static_cast<int>(poses.size()),
                ligand_.molecule.atom_count());
  // The direct intermolecular term vectorizes within a pose (over
  // neighbour blocks, whose population differs per pose), so it runs per
  // pose on the coordinates that fill the SoA batch; the grid term and
  // the fixed-topology intramolecular pair loop lane-parallelize across
  // poses.
  const bool direct_inter = inter != nullptr && maps_ == nullptr;
  if (direct_inter) inter->resize(poses.size());
  for (int p = 0; p < static_cast<int>(poses.size()); ++p) {
    const std::vector<mol::Vec3> coords =
        coords_for(poses[static_cast<std::size_t>(p)]);
    batch_.set_pose(p, coords);
    if (direct_inter) {
      (*inter)[static_cast<std::size_t>(p)] = intermolecular(coords);
    }
  }
  batch_.pad_tail();
  if (inter && !direct_inter) intermolecular_grid_batch(*inter);
  if (intra) intramolecular_batch(*intra);
}

double VinaEnergyModel::feb(double inter) const {
  return vina_affinity(inter, ligand_.torsions.torsion_count(), weights_);
}

std::vector<mol::Vec3> VinaEnergyModel::coords_for(const DockPose& pose) const {
  return ligand_.torsions.apply(reference_coords_, pose.rigid, pose.torsions);
}

}  // namespace scidock::dock
