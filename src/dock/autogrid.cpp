#include "dock/autogrid.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace scidock::dock {

GridMapCalculator::GridMapCalculator(const mol::Molecule& receptor,
                                     AutogridOptions opts)
    : receptor_(receptor), opts_(opts),
      tables_(Ad4PairTables::shared(opts.weights)),
      vina_tables_(VinaPairTables::shared(VinaWeights{})),
      neighbors_(receptor, opts.cutoff) {
  SCIDOCK_ASSERT_MSG(receptor.perceived(), "prepare the receptor before AutoGrid");
  // The LUT domain ends at lut::kCutoff; a wider neighbour cutoff would
  // hand the interpolator out-of-domain squared distances.
  SCIDOCK_ASSERT_MSG(opts.cutoff <= lut::kCutoff,
                     "AutoGrid cutoff exceeds the energy-LUT domain");
  const int n = receptor.atom_count();
  charge_.reserve(static_cast<std::size_t>(n));
  volume_.reserve(static_cast<std::size_t>(n));
  type_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const mol::Atom& a = receptor.atom(i);
    charge_.push_back(a.partial_charge);
    volume_.push_back(mol::ad_type_params(a.ad_type).volume);
    type_.push_back(a.ad_type);
  }
}

GridMapSet GridMapCalculator::calculate(
    const GridBox& box, const std::vector<mol::AdType>& ligand_types,
    ThreadPool* pool) const {
  GridMapSet set = GridMapSet::shaped(box, ligand_types);
  std::vector<std::size_t> slots(ligand_types.size());
  for (std::size_t t = 0; t < slots.size(); ++t) slots[t] = t;
  calculate_into(set, /*electrostatic_and_desolvation=*/true, slots, {}, pool);
  return set;
}

void GridMapCalculator::calculate_into(GridMapSet& set,
                                       bool electrostatic_and_desolvation,
                                       const std::vector<std::size_t>& slots,
                                       const std::vector<std::size_t>& vina_slots,
                                       ThreadPool* pool) const {
  const GridBox& box = set.box;
  // The channels of this sweep and the map each one fills, allocated
  // here so unbuilt channels of a lazily built set cost no memory.
  std::vector<GridMap*> out;
  if (electrostatic_and_desolvation) {
    set.electrostatic = GridMap(box, "e");
    set.desolvation = GridMap(box, "d");
    out.push_back(&set.electrostatic);
    out.push_back(&set.desolvation);
  }
  // Per channel after e/d: its ligand type and whether it is a Vina map.
  std::vector<mol::AdType> types;
  std::vector<bool> is_vina;
  for (std::size_t slot : slots) {
    auto& [type, map] = set.affinity.at(slot);
    map = GridMap(box, std::string(mol::ad_type_name(type)));
    out.push_back(&map);
    types.push_back(type);
    is_vina.push_back(false);
  }
  for (std::size_t slot : vina_slots) {
    auto& [type, map] = set.vina.at(slot);
    map = GridMap(box, "vina." + std::string(mol::ad_type_name(type)));
    out.push_back(&map);
    types.push_back(type);
    is_vina.push_back(true);
  }
  if (out.empty()) return;

  // The sweep's LUT channels, interleaved by bin in one table per
  // receptor atom type present: with e/d requested, channel 0 is the
  // Coulomb channel (factor = atom charge) and channel 1 the desolvation
  // Gaussian (factor = atom volume); then the per-ligand-type AD4 vdW rows
  // and Vina pair rows (factor = 1). Every table shares the LUT
  // resolution, so a hit computes one bin from its squared distance and
  // reads two adjacent bin rows (a cache line or two) for all of its
  // channels. Each channel accumulates on its own, so any subset of
  // channels is bit-equal to the same channels of a full sweep.
  const std::size_t natoms = type_.size();
  const std::size_t ned = electrostatic_and_desolvation ? 2 : 0;
  const std::size_t nchan = out.size();
  const std::size_t stride = static_cast<std::size_t>(lut::kEntries + 1) * nchan;
  std::array<std::size_t, mol::kAdTypeCount> table_of{};
  std::array<bool, mol::kAdTypeCount> present{};
  std::vector<double> table;
  for (mol::AdType rt : type_) {
    const auto r = static_cast<std::size_t>(rt);
    if (present[r]) continue;
    present[r] = true;
    table_of[r] = table.size();
    table.resize(table.size() + stride);
    double* dst = table.data() + table_of[r];
    for (std::size_t c = 0; c < nchan; ++c) {
      const double* src =
          c < ned          ? (c == 0 ? tables_->coulomb_channel()
                                     : tables_->desolv_channel())
          : is_vina[c - ned] ? vina_tables_->row(types[c - ned], rt)
                             : tables_->vdw_row(types[c - ned], rt);
      for (int bin = 0; bin <= lut::kEntries; ++bin) {
        dst[static_cast<std::size_t>(bin) * nchan + c] = src[bin];
      }
    }
  }
  std::vector<const double*> atom_table(natoms);
  std::vector<double> factors(natoms * nchan, 1.0);
  for (std::size_t a = 0; a < natoms; ++a) {
    atom_table[a] = table.data() + table_of[static_cast<std::size_t>(type_[a])];
    if (electrostatic_and_desolvation) {
      factors[a * nchan + 0] = charge_[a];
      // Receptor-side volume term only; the ligand atom's solvation
      // parameter (solpar_i + qasp*|q_i|) multiplies in at sample time
      // (AD4 map semantics; the product is O(0.01) per contact).
      factors[a * nchan + 1] = volume_[a];
    }
  }

  const mol::Vec3 origin = box.origin();

  // Racer (RC004) reduction identity: one key per (map set, channel,
  // slab), deterministic across runs (never an address) and independent
  // of which sweep built the channel, so lazily built sets key the same
  // slots whatever the schedule split their channels into.
  std::vector<std::uint64_t> racer_keys;
  if (racer::enabled()) {
    std::uint64_t h = 1469598103934665603ULL;
    const auto fold = [&h](std::uint64_t v) {
      h = (h ^ v) * 1099511628211ULL;
    };
    fold(std::bit_cast<std::uint64_t>(origin.x));
    fold(std::bit_cast<std::uint64_t>(origin.y));
    fold(std::bit_cast<std::uint64_t>(origin.z));
    fold(std::bit_cast<std::uint64_t>(box.spacing));
    fold(static_cast<std::uint64_t>(box.npts[0]));
    fold(static_cast<std::uint64_t>(box.npts[1]));
    fold(static_cast<std::uint64_t>(box.npts[2]));
    fold(natoms);
    for (std::size_t a = 0; a < natoms; ++a) {
      fold(std::bit_cast<std::uint64_t>(charge_[a]));
    }
    for (std::size_t c = 0; c < nchan; ++c) {
      // e = 0, d = 1, affinity type t = 2 + t, Vina type t = 2 + n + t.
      const std::uint64_t channel =
          c < ned ? c
                  : 2 + static_cast<std::uint64_t>(types[c - ned]) +
                        (is_vina[c - ned] ? mol::kAdTypeCount : 0);
      racer_keys.push_back((h ^ channel) * 1099511628211ULL);
    }
  }

  // One z-slab: every write lands in the slab's own index range of each
  // map, so slabs compute independently and the result is bit-identical
  // across thread counts.
  const auto slab = [&](std::size_t slab_iz) {
    const int iz = static_cast<int>(slab_iz);
    const int nx = box.npts[0];
    // One accumulator block per point of an x row.
    std::vector<double> acc(static_cast<std::size_t>(nx) * nchan);
    for (int iy = 0; iy < box.npts[1]; ++iy) {
      std::fill(acc.begin(), acc.end(), 0.0);
      neighbors_.for_each_within_row(
          origin.x, box.spacing, nx, origin.y + iy * box.spacing,
          origin.z + iz * box.spacing, [&](int ix, int ai, double d2) {
            const auto a = static_cast<std::size_t>(ai);
            // One (bin, fraction) computation serves every channel, with
            // the arithmetic of lut::interpolate, so each channel's
            // per-atom sum is bit-identical to a per-channel lookup.
            constexpr double kInvStep = lut::kEntries / lut::kCutoffSq;
            const double x = d2 * kInvStep;
            const int bin = std::min(static_cast<int>(x), lut::kEntries - 1);
            const double t = x - static_cast<double>(bin);
            const double* lo = atom_table[a] + static_cast<std::size_t>(bin) * nchan;
            const double* hi = lo + nchan;
            const double* factor = factors.data() + a * nchan;
            double* point = acc.data() + static_cast<std::size_t>(ix) * nchan;
            for (std::size_t c = 0; c < nchan; ++c) {
              point[c] += factor[c] * (lo[c] + (hi[c] - lo[c]) * t);
            }
          });
      for (int ix = 0; ix < nx; ++ix) {
        const double* point = acc.data() + static_cast<std::size_t>(ix) * nchan;
        for (std::size_t c = 0; c < nchan; ++c) {
          out[c]->at(ix, iy, iz) = static_cast<float>(point[c]);
        }
      }
    }

    // Racer determinism digest: each channel's slab content, keyed by
    // (map-set identity, channel, iz). If a SIMD or threading change
    // makes any slab's bits depend on the schedule, comparing snapshots
    // across thread counts yields an RC004 naming this reduction and slab.
    if (racer::enabled()) {
      for (std::size_t c = 0; c < nchan; ++c) {
        std::uint64_t h = 1469598103934665603ULL;
        for (int iy = 0; iy < box.npts[1]; ++iy) {
          for (int ix = 0; ix < box.npts[0]; ++ix) {
            h = (h ^ std::bit_cast<std::uint32_t>(out[c]->at(ix, iy, iz))) *
                1099511628211ULL;
          }
        }
        racer::on_reduction(
            "dock.autogrid.slab_merge",
            racer_keys[c] ^ (0x9e3779b97f4a7c15ULL * (slab_iz + 1)), h);
      }
    }
  };

  const auto timed_slab = [&](std::size_t iz) {
    if (!opts_.slab_observer) {
      slab(iz);
      return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    slab(iz);
    opts_.slab_observer(
        static_cast<int>(iz),
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  };

  const auto nz = static_cast<std::size_t>(box.npts[2]);
  if (pool != nullptr && pool->thread_count() > 1 && nz > 1) {
    // A couple of chunks per worker balances load (outer slabs see fewer
    // receptor atoms) without paying one dispatch per slab.
    const std::size_t grain =
        std::max<std::size_t>(1, nz / (pool->thread_count() * 4));
    pool->parallel_for(nz, timed_slab, grain);
  } else {
    for (std::size_t iz = 0; iz < nz; ++iz) timed_slab(iz);
  }
  if (opts_.sweep_observer) opts_.sweep_observer(static_cast<int>(nchan));
}

std::string GridParameterFile::to_text() const {
  std::string out;
  out += strformat("npts %d %d %d\n", box.npts[0] - 1, box.npts[1] - 1,
                   box.npts[2] - 1);
  out += "gridfld receptor.maps.fld\n";
  out += strformat("spacing %.4f\n", box.spacing);
  std::string types;
  for (mol::AdType t : ligand_types) {
    if (!types.empty()) types += ' ';
    types += std::string(mol::ad_type_name(t));
  }
  out += "ligand_types " + types + "\n";
  out += "receptor " + receptor_file + "\n";
  out += strformat("gridcenter %.3f %.3f %.3f\n", box.center.x, box.center.y,
                   box.center.z);
  for (mol::AdType t : ligand_types) {
    out += "map receptor." + std::string(mol::ad_type_name(t)) + ".map\n";
  }
  out += "elecmap receptor.e.map\ndsolvmap receptor.d.map\n";
  out += "dielectric -0.1465\n";
  return out;
}

GridParameterFile GridParameterFile::parse(std::string_view text) {
  GridParameterFile gpf;
  std::istringstream in{std::string(text)};
  std::string line;
  bool saw_npts = false;
  while (std::getline(in, line)) {
    const auto fields = split_ws(line);
    if (fields.empty() || fields[0][0] == '#') continue;
    if (fields[0] == "npts" && fields.size() >= 4) {
      gpf.box.npts = {static_cast<int>(parse_int(fields[1], "gpf npts")) + 1,
                      static_cast<int>(parse_int(fields[2], "gpf npts")) + 1,
                      static_cast<int>(parse_int(fields[3], "gpf npts")) + 1};
      saw_npts = true;
    } else if (fields[0] == "spacing" && fields.size() >= 2) {
      gpf.box.spacing = parse_double(fields[1], "gpf spacing");
    } else if (fields[0] == "gridcenter" && fields.size() >= 4) {
      gpf.box.center = {parse_double(fields[1], "gpf center"),
                        parse_double(fields[2], "gpf center"),
                        parse_double(fields[3], "gpf center")};
    } else if (fields[0] == "ligand_types") {
      for (std::size_t i = 1; i < fields.size(); ++i) {
        const auto t = mol::ad_type_from_name(fields[i]);
        if (!t) throw ParseError("GPF", "unknown ligand type " + fields[i]);
        gpf.ligand_types.push_back(*t);
      }
    } else if (fields[0] == "receptor" && fields.size() >= 2) {
      gpf.receptor_file = fields[1];
    }
  }
  if (!saw_npts) throw ParseError("GPF", "missing npts record");
  return gpf;
}

GridParameterFile make_gpf(const mol::Molecule& receptor,
                           const mol::Molecule& ligand, double box_padding,
                           double spacing) {
  GridParameterFile gpf;
  const double half_extent =
      std::max(ligand.radius_of_gyration() * 2.0 + box_padding, 8.0);
  gpf.box = GridBox::around(receptor.center(), half_extent, spacing);
  {
    mol::Molecule lig = ligand;
    lig.perceive();
    gpf.ligand_types = lig.ad_types_present();
  }
  gpf.receptor_file = receptor.name() + ".pdbqt";
  gpf.ligand_file = ligand.name() + ".pdbqt";
  return gpf;
}

GridParameterFile make_screening_gpf(const mol::Molecule& receptor,
                                     const mol::Molecule& ligand,
                                     double box_padding, double spacing,
                                     double min_half_extent, double quantum) {
  GridParameterFile gpf = make_gpf(receptor, ligand, box_padding, spacing);
  double half_extent =
      std::max(ligand.radius_of_gyration() * 2.0 + box_padding, 8.0);
  // Canonicalise: floor + round up to the quantum so every drug-like
  // ligand of a campaign lands on the same box for a given receptor.
  half_extent = std::max(half_extent, min_half_extent);
  half_extent = std::ceil(half_extent / quantum) * quantum;
  gpf.box = GridBox::around(receptor.center(), half_extent, spacing);
  gpf.ligand_types = screening_ligand_types();
  return gpf;
}

const std::vector<mol::AdType>& screening_ligand_types() {
  static const std::vector<mol::AdType> types = [] {
    std::vector<mol::AdType> out;
    for (int i = 0; i < mol::kAdTypeCount; ++i) {
      const auto t = static_cast<mol::AdType>(i);
      if (mol::ad_type_params(t).supported) out.push_back(t);
    }
    return out;
  }();
  return types;
}

}  // namespace scidock::dock
