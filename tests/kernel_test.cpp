// Kernel-equivalence suite (ctest -L kernels): the docking hot-path
// rewrite of DESIGN.md §10 must not change results.
//   - radial LUTs track the analytic scoring terms within a documented
//     tolerance (and exactly reproduce clamp/cutoff behaviour);
//   - fused trilinear sampling is bit-identical to per-map sampling;
//   - the lane-parallel SIMD kernels (lane_bins/interpolate, batched
//     pair terms, TrilinearSamplerLanes) match their scalar references
//     per lane, and the batched pose evaluation (PoseBatch +
//     evaluate_batch/score_batch) matches pose-at-a-time evaluation;
//   - AutoGrid maps are bit-identical across thread counts, and a sweep
//     over a subset of channels (or an extension sweep) is bit-equal to
//     the all-types sweep;
//   - the dense neighbour list visits exactly what the hashed cell scan
//     visited, in the same order;
//   - lazily built map sets compute each channel once per key, propagate
//     exceptions, build nothing for Vina-routed receptors, and leave
//     pipeline outputs (FEB/RMSD, map files) bit-identical to cache-off
//     and eager runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "data/generator.hpp"
#include "data/table2.hpp"
#include "dock/autodock4.hpp"
#include "dock/autogrid.hpp"
#include "dock/conformation.hpp"
#include "dock/energy.hpp"
#include "dock/energy_lut.hpp"
#include "dock/grid.hpp"
#include "dock/scoring.hpp"
#include "dock/vina.hpp"
#include "mol/prepare.hpp"
#include "obs/obs.hpp"
#include "scidock/experiment.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace scidock::dock {
namespace {

using mol::AdType;

// Documented LUT accuracy bound (energy_lut.hpp): interpolation against
// the analytic path stays within 2e-3 kcal/mol absolute or 0.5% relative,
// whichever is looser. The GA/MC search acts on energy differences an
// order of magnitude above this.
bool within_tolerance(double lut, double analytic) {
  const double err = std::abs(lut - analytic);
  return err <= 2e-3 || err <= 5e-3 * std::abs(analytic);
}

// Grid-sampled Vina intermolecular energy against direct scoring at the
// same pose: an absolute floor plus 5% of the direct value (the steep
// overlap repulsion is where trilinear interpolation between nodes errs
// most). Reported energies never carry this error: each chain's best pose
// is rescored directly.
constexpr double kVinaGridTolerance = 0.5;

TEST(EnergyLut, Ad4PairEnergyMatchesAnalytic) {
  const Ad4Weights w;
  const auto tables = Ad4PairTables::shared(w);
  const struct {
    AdType ti, tj;
    double qi, qj;
  } pairs[] = {
      {AdType::C, AdType::C, 0.1, -0.2},    // plain vdW
      {AdType::C, AdType::OA, 0.2, -0.35},  // polar contact
      {AdType::HD, AdType::OA, 0.16, -0.4}, // H-bond 12-10 well
      {AdType::N, AdType::HD, -0.3, 0.16},
      {AdType::SA, AdType::S, -0.1, 0.05},
      {AdType::A, AdType::NA, 0.0, -0.25},
  };
  double max_err = 0.0;
  for (const auto& p : pairs) {
    for (double r = 0.1; r <= 8.0; r += 0.0103) {
      const double analytic = ad4_pair_energy(p.ti, p.qi, p.tj, p.qj, r, w);
      const double lut = tables->pair_energy(p.ti, p.qi, p.tj, p.qj, r * r);
      EXPECT_TRUE(within_tolerance(lut, analytic))
          << mol::ad_type_name(p.ti) << "-" << mol::ad_type_name(p.tj)
          << " at r=" << r << ": lut=" << lut << " analytic=" << analytic;
      max_err = std::max(max_err, std::abs(lut - analytic));
    }
  }
  EXPECT_GT(max_err, 0.0);  // the table really is an approximation
}

TEST(EnergyLut, Ad4AnalyticTailBeyondCutoff) {
  const Ad4Weights w;
  const auto tables = Ad4PairTables::shared(w);
  // Intramolecular pairs in extended ligands exceed 8 Å; past the table
  // domain the LUT object falls back to the exact analytic path. Radii
  // chosen so sqrt(r * r) == r exactly.
  for (double r : {8.0, 10.0, 16.0, 40.0}) {
    EXPECT_DOUBLE_EQ(tables->pair_energy(AdType::C, 0.2, AdType::OA, -0.3, r * r),
                     ad4_pair_energy(AdType::C, 0.2, AdType::OA, -0.3, r, w));
  }
}

TEST(EnergyLut, Ad4SubClampRegionConstant) {
  const Ad4Weights w;
  const auto tables = Ad4PairTables::shared(w);
  // The analytic path clamps r at 0.5 Å; the table reproduces the
  // constant plateau exactly (all samples below 0.25 Å² share r = 0.5).
  const double at_clamp = ad4_pair_energy(AdType::C, 0.3, AdType::C, 0.3, 0.5, w);
  for (double r2 : {0.0, 0.04, 0.12, 0.2}) {
    EXPECT_NEAR(tables->pair_energy(AdType::C, 0.3, AdType::C, 0.3, r2),
                at_clamp, 1e-12);
  }
}

TEST(EnergyLut, VinaPairEnergyMatchesAnalytic) {
  const VinaWeights w;
  const auto tables = VinaPairTables::shared(w);
  const std::pair<AdType, AdType> pairs[] = {
      {AdType::C, AdType::C},   {AdType::C, AdType::A},
      {AdType::OA, AdType::NA}, {AdType::OA, AdType::Mg},
      {AdType::Cl, AdType::Br}, {AdType::H, AdType::C},  // skip pair: 0
  };
  for (const auto& [ti, tj] : pairs) {
    for (double r = 0.3; r <= 8.5; r += 0.0107) {
      const double analytic = vina_pair_energy(ti, tj, r, w);
      const double lut = tables->pair_energy(ti, tj, r * r);
      // The last bin blends the truncation step at the 8 Å cutoff, so
      // allow the step magnitude there; elsewhere the standard bound
      // (the relative term covers the steep sub-overlap repulsion).
      const double err = std::abs(lut - analytic);
      EXPECT_TRUE(err <= (r > 7.9 ? 6e-3 : 2e-3) ||
                  err <= 5e-3 * std::abs(analytic))
          << mol::ad_type_name(ti) << "-" << mol::ad_type_name(tj)
          << " at r=" << r << ": lut=" << lut << " analytic=" << analytic;
    }
  }
  EXPECT_DOUBLE_EQ(tables->pair_energy(AdType::C, AdType::C, 64.0), 0.0);
  EXPECT_DOUBLE_EQ(tables->pair_energy(AdType::C, AdType::C, 100.0), 0.0);
}

TEST(EnergyLut, SharedRegistryReturnsSameTables) {
  const Ad4Weights w;
  EXPECT_EQ(Ad4PairTables::shared(w).get(), Ad4PairTables::shared(w).get());
  Ad4Weights other = w;
  other.vdw *= 2.0;
  EXPECT_NE(Ad4PairTables::shared(w).get(), Ad4PairTables::shared(other).get());
  const VinaWeights vw;
  EXPECT_EQ(VinaPairTables::shared(vw).get(), VinaPairTables::shared(vw).get());
}

// ------------------------------------------------------- fused sampling

TEST(TrilinearSampler, BitIdenticalToPerMapSample) {
  const GridBox box = GridBox::around({1.0, -2.0, 3.0}, 6.0, 0.5);
  Rng rng(11);
  GridMap a(box, "A"), b(box, "e"), c(box, "d");
  for (auto* m : {&a, &b, &c}) {
    for (float& v : m->values()) v = static_cast<float>(rng.uniform(-10.0, 10.0));
  }
  for (int i = 0; i < 500; ++i) {
    const mol::Vec3 p{rng.uniform(-3.0, 5.0), rng.uniform(-6.0, 2.0),
                      rng.uniform(-1.0, 7.0)};
    const TrilinearSampler s(box, p);
    ASSERT_TRUE(s.in_box());
    // One cell/weight computation, applied to three maps, must equal the
    // unfused per-map path bit for bit.
    EXPECT_DOUBLE_EQ(s.apply(a), a.sample(p));
    EXPECT_DOUBLE_EQ(s.apply(b), b.sample(p));
    EXPECT_DOUBLE_EQ(s.apply(c), c.sample(p));
  }
  const TrilinearSampler outside(box, {100, 100, 100});
  EXPECT_FALSE(outside.in_box());
}

// ---------------------------------------------------- lane-parallel kernels
//
// The SIMD kernels use the same interpolation association as the scalar
// path (a + (b - a) * t, no FMA), so on the portable build every lane is
// bit-equal to the scalar reference. The bounds below leave headroom for
// FMA contraction under -march=native builds only.

constexpr int kLanes = simd::f64x::kWidth;

void expect_lane_near(double lane, double scalar, const char* what, int l) {
  EXPECT_NEAR(lane, scalar, 1e-10 * (1.0 + std::abs(scalar)))
      << what << " lane " << l;
}

TEST(SimdKernels, LaneBinsInterpolateMatchesScalar) {
  // A synthetic channel with curvature so interpolation actually blends.
  std::vector<double> samples(lut::kEntries + 1);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double x = static_cast<double>(i) / lut::kEntries;
    samples[i] = std::sin(7.0 * x) / (0.05 + x);
  }
  Rng rng(23);
  for (int rep = 0; rep < 200; ++rep) {
    double r2[kLanes];
    for (double& v : r2) v = rng.uniform(0.0, lut::kCutoffSq);
    if (rep == 0) {
      r2[0] = 0.0;                  // first bin
      r2[kLanes - 1] = lut::kCutoffSq;  // top-bin clamp lane
    }
    const lut::LaneBins bins = lut::lane_bins(simd::f64x::load(r2));
    const simd::f64x shared = lut::interpolate(samples.data(), bins);
    const double* rows[kLanes];
    for (const double*& row : rows) row = samples.data();
    const simd::f64x per_row = lut::interpolate_rows(rows, bins);
    for (int l = 0; l < kLanes; ++l) {
      const double scalar = lut::interpolate(samples.data(), r2[l]);
      expect_lane_near(shared.lane(l), scalar, "shared-channel", l);
      expect_lane_near(per_row.lane(l), scalar, "per-row", l);
    }
  }
}

TEST(SimdKernels, Ad4PairEnergyLanesMatchesScalarComposition) {
  const Ad4Weights w;
  const auto tables = Ad4PairTables::shared(w);
  const AdType types[] = {AdType::C, AdType::OA, AdType::HD, AdType::N};
  Rng rng(29);
  for (int rep = 0; rep < 200; ++rep) {
    const double* rows[kLanes];
    double qq[kLanes], solv[kLanes], r2[kLanes];
    for (int l = 0; l < kLanes; ++l) {
      const AdType ti = types[rng.below(4)];
      const AdType tj = types[rng.below(4)];
      rows[l] = tables->vdw_row(ti, tj);
      qq[l] = rng.uniform(-0.2, 0.2);
      solv[l] = rng.uniform(-0.05, 0.05);
      r2[l] = rng.uniform(0.0, lut::kCutoffSq);
    }
    const simd::f64x e = tables->pair_energy_lanes(
        rows, simd::f64x::load(qq), simd::f64x::load(solv),
        simd::f64x::load(r2));
    for (int l = 0; l < kLanes; ++l) {
      // Same hoisted factors fed through the scalar LUT kernels.
      const double scalar = lut::interpolate(rows[l], r2[l]) +
                            qq[l] * tables->coulomb_factor(r2[l]) +
                            solv[l] * tables->desolv_gauss(r2[l]);
      expect_lane_near(e.lane(l), scalar, "ad4 pair", l);
    }
  }
}

TEST(SimdKernels, VinaPairEnergyLanesMatchesScalarAndMasksCutoff) {
  const VinaWeights w;
  const auto tables = VinaPairTables::shared(w);
  const AdType types[] = {AdType::C, AdType::A, AdType::OA, AdType::NA};
  Rng rng(31);
  for (int rep = 0; rep < 200; ++rep) {
    const double* rows[kLanes];
    AdType ti[kLanes], tj[kLanes];
    double r2[kLanes];
    for (int l = 0; l < kLanes; ++l) {
      ti[l] = types[rng.below(4)];
      tj[l] = types[rng.below(4)];
      rows[l] = tables->row(ti[l], tj[l]);
      // Past-cutoff lanes (the neighbour-block tail padding) mixed in
      // with in-domain ones: the kernel must mask them to exactly zero.
      r2[l] = rng.uniform(0.0, 1.5 * lut::kCutoffSq);
    }
    if (rep == 0) r2[0] = lut::kCutoffSq;  // boundary is already outside
    const simd::f64x e = tables->pair_energy_lanes(rows, simd::f64x::load(r2));
    for (int l = 0; l < kLanes; ++l) {
      const double scalar = tables->pair_energy(ti[l], tj[l], r2[l]);
      if (r2[l] >= lut::kCutoffSq) {
        EXPECT_EQ(e.lane(l), 0.0) << "lane " << l;
      } else {
        expect_lane_near(e.lane(l), scalar, "vina pair", l);
      }
    }
  }
}

TEST(SimdKernels, TrilinearSamplerLanesMatchesScalarSampler) {
  const GridBox box = GridBox::around({1.0, -2.0, 3.0}, 6.0, 0.5);
  Rng rng(37);
  GridMap a(box, "A"), b(box, "e");
  for (auto* m : {&a, &b}) {
    for (float& v : m->values()) v = static_cast<float>(rng.uniform(-10.0, 10.0));
  }
  for (int rep = 0; rep < 200; ++rep) {
    double xs[kLanes], ys[kLanes], zs[kLanes];
    for (int l = 0; l < kLanes; ++l) {
      xs[l] = rng.uniform(-3.0, 5.0);
      ys[l] = rng.uniform(-6.0, 2.0);
      zs[l] = rng.uniform(-1.0, 7.0);
    }
    if (rep % 3 == 0) xs[kLanes - 1] = 100.0;  // out-of-box penalty lane
    const TrilinearSamplerLanes lanes(box, xs, ys, zs);
    const simd::f64x va = lanes.apply(a);
    const simd::f64x vb = lanes.apply(b);
    for (int l = 0; l < kLanes; ++l) {
      const TrilinearSampler scalar(box, {xs[l], ys[l], zs[l]});
      if (!scalar.in_box()) {
        EXPECT_EQ(va.lane(l), GridMap::kOutOfBoxPenalty) << "lane " << l;
        EXPECT_EQ(vb.lane(l), GridMap::kOutOfBoxPenalty) << "lane " << l;
        continue;
      }
      // The lane ctor reproduces the scalar boundary decisions and weight
      // computation exactly, so in-box lanes are bit-equal per map.
      EXPECT_DOUBLE_EQ(va.lane(l), scalar.apply(a)) << "lane " << l;
      EXPECT_DOUBLE_EQ(vb.lane(l), scalar.apply(b)) << "lane " << l;
    }
  }
}

// ------------------------------------------------------ parallel AutoGrid

data::GeneratorOptions tiny() {
  data::GeneratorOptions o;
  o.min_residues = 10;
  o.max_residues = 14;
  o.min_ligand_atoms = 8;
  o.max_ligand_atoms = 12;
  o.hg_fraction = 0.0;
  return o;
}

TEST(ParallelAutogrid, BitIdenticalAcrossThreadCounts) {
  const mol::PreparedReceptor rec =
      mol::prepare_receptor(data::make_receptor("1KER", tiny()));
  const GridMapCalculator calc(rec.molecule);
  const GridBox box = GridBox::around(rec.molecule.center(), 7.0, 0.6);
  const std::vector<AdType> types = {AdType::C, AdType::OA, AdType::HD,
                                     AdType::N};
  const GridMapSet serial = calc.calculate(box, types);
  for (std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const GridMapSet parallel = calc.calculate(box, types, &pool);
    EXPECT_EQ(parallel.electrostatic.values(), serial.electrostatic.values())
        << threads << " threads";
    EXPECT_EQ(parallel.desolvation.values(), serial.desolvation.values());
    ASSERT_EQ(parallel.affinity.size(), serial.affinity.size());
    for (std::size_t t = 0; t < serial.affinity.size(); ++t) {
      EXPECT_EQ(parallel.affinity[t].second.values(),
                serial.affinity[t].second.values())
          << "type " << mol::ad_type_name(serial.affinity[t].first) << ", "
          << threads << " threads";
    }
  }
}

TEST(ParallelAutogrid, SlabObserverFiresOncePerSlab) {
  const mol::PreparedReceptor rec =
      mol::prepare_receptor(data::make_receptor("1OBS", tiny()));
  AutogridOptions opts;
  std::atomic<int> slabs{0};
  std::atomic<bool> negative{false};
  opts.slab_observer = [&](int iz, double seconds) {
    (void)iz;
    slabs.fetch_add(1);
    if (seconds < 0.0) negative.store(true);
  };
  const GridMapCalculator calc(rec.molecule, opts);
  const GridBox box = GridBox::around(rec.molecule.center(), 6.0, 0.75);
  ThreadPool pool(4);
  calc.calculate(box, {AdType::C}, &pool);
  EXPECT_EQ(slabs.load(), box.npts[2]);
  EXPECT_FALSE(negative.load());
}

// ------------------------------------------------- channel-subset sweeps

void expect_same_channel(const GridMap& got, const GridMap& want,
                         const std::string& what) {
  ASSERT_FALSE(got.values().empty()) << what << " was not computed";
  EXPECT_EQ(got.values(), want.values()) << what;
}

TEST(LazyAutogrid, ChannelSubsetSweepsAreBitEqualToAllTypes) {
  const mol::PreparedReceptor rec =
      mol::prepare_receptor(data::make_receptor("1KER", tiny()));
  const GridMapCalculator calc(rec.molecule);
  const GridBox box = GridBox::around(rec.molecule.center(), 7.0, 0.6);
  // Five types: an odd channel count, so lane padding differs between the
  // full sweep (7 channels) and the subsets below.
  const std::vector<AdType> types = {AdType::C, AdType::OA, AdType::HD,
                                     AdType::N, AdType::SA};
  const GridMapSet full = calc.calculate(box, types);

  // A subset without e/d computes exactly the asked-for slots.
  GridMapSet subset = GridMapSet::shaped(box, types);
  calc.calculate_into(subset, /*electrostatic_and_desolvation=*/false, {1, 3}, {});
  EXPECT_TRUE(subset.electrostatic.values().empty());
  EXPECT_EQ(subset.affinity_for(AdType::C), nullptr);
  EXPECT_EQ(subset.affinity_for(AdType::HD), nullptr);
  expect_same_channel(subset.affinity[1].second, full.affinity[1].second, "OA");
  expect_same_channel(subset.affinity[3].second, full.affinity[3].second, "N");

  // e/d plus one type, then an extension sweep for the rest (one of them
  // on a pool): the union is the all-types sweep, bit for bit.
  GridMapSet lazy = GridMapSet::shaped(box, types);
  calc.calculate_into(lazy, true, {2}, {});
  ThreadPool pool(3);
  calc.calculate_into(lazy, false, {0, 1, 3, 4}, {}, &pool);
  expect_same_channel(lazy.electrostatic, full.electrostatic, "e");
  expect_same_channel(lazy.desolvation, full.desolvation, "d");
  for (std::size_t t = 0; t < types.size(); ++t) {
    expect_same_channel(lazy.affinity[t].second, full.affinity[t].second,
                        std::string(mol::ad_type_name(types[t])));
  }
}

// Vina channels ride the same sweep: a subset of the Vina family, alone
// or fused with AD4 channels, is bit-equal to the all-types Vina sweep.
TEST(LazyAutogrid, VinaChannelSubsetsAreBitEqualToAllTypes) {
  const mol::PreparedReceptor rec =
      mol::prepare_receptor(data::make_receptor("1KER", tiny()));
  const GridMapCalculator calc(rec.molecule);
  const GridBox box = GridBox::around(rec.molecule.center(), 7.0, 0.6);
  const std::vector<AdType> types = {AdType::C, AdType::OA, AdType::A,
                                     AdType::N, AdType::SA};
  GridMapSet full = GridMapSet::shaped(box, types);
  calc.calculate_into(full, false, {}, {0, 1, 2, 3, 4});
  EXPECT_TRUE(full.electrostatic.values().empty());
  EXPECT_EQ(full.affinity_for(AdType::C), nullptr);

  GridMapSet subset = GridMapSet::shaped(box, types);
  calc.calculate_into(subset, false, {}, {1, 3});
  EXPECT_EQ(subset.map_for(ScoringFunction::kVina, AdType::C), nullptr);
  expect_same_channel(subset.vina[1].second, full.vina[1].second, "vina OA");
  expect_same_channel(subset.vina[3].second, full.vina[3].second, "vina N");

  // Fused with e/d and an AD4 channel, then extended on a pool: every
  // Vina channel still equals the Vina-only sweep, bit for bit.
  const GridMapSet ad4 = calc.calculate(box, types);
  GridMapSet mixed = GridMapSet::shaped(box, types);
  calc.calculate_into(mixed, true, {2}, {0, 4});
  ThreadPool pool(3);
  calc.calculate_into(mixed, false, {}, {1, 2, 3}, &pool);
  for (std::size_t t = 0; t < types.size(); ++t) {
    expect_same_channel(mixed.vina[t].second, full.vina[t].second,
                        "vina " + std::string(mol::ad_type_name(types[t])));
  }
  expect_same_channel(mixed.affinity[2].second, ad4.affinity[2].second, "A");
  expect_same_channel(mixed.electrostatic, ad4.electrostatic, "e");
}

// ---------------------------------------------------- dense neighbour list

/// The pre-CSR cell list, written out: the 27 cells around the query in
/// (dx, dy, dz) order, each cell's atoms in ascending index.
std::vector<std::pair<int, double>> reference_scan(const mol::Molecule& m,
                                                   double cutoff,
                                                   const mol::Vec3& p) {
  const auto cell = [&](const mol::Vec3& q) {
    return std::array<long long, 3>{
        static_cast<long long>(std::floor(q.x / cutoff)),
        static_cast<long long>(std::floor(q.y / cutoff)),
        static_cast<long long>(std::floor(q.z / cutoff))};
  };
  const auto c = cell(p);
  std::vector<std::pair<int, double>> out;
  for (long long dx = -1; dx <= 1; ++dx)
    for (long long dy = -1; dy <= 1; ++dy)
      for (long long dz = -1; dz <= 1; ++dz)
        for (int i = 0; i < m.atom_count(); ++i) {
          const auto a = cell(m.atom(i).pos);
          if (a[0] != c[0] + dx || a[1] != c[1] + dy || a[2] != c[2] + dz) {
            continue;
          }
          const double d2 = mol::distance_sq(m.atom(i).pos, p);
          if (d2 <= cutoff * cutoff) out.emplace_back(i, d2);
        }
  return out;
}

std::vector<std::pair<int, double>> dense_scan(const NeighborList& list,
                                               const mol::Vec3& p) {
  std::vector<std::pair<int, double>> out;
  list.for_each_within(p, [&](int i, double d2) { out.emplace_back(i, d2); });
  return out;
}

TEST(DenseNeighborList, SameCallbacksAsReferenceCellOrderScan) {
  const mol::PreparedReceptor rec =
      mol::prepare_receptor(data::make_receptor("1AIM", tiny()));
  const mol::Molecule& m = rec.molecule;
  const double cutoff = 8.0;
  const NeighborList list(m, cutoff);
  ASSERT_EQ(list.atom_count(), m.atom_count());

  mol::Vec3 lo = m.atom(0).pos, hi = lo;
  for (const mol::Atom& a : m.atoms()) {
    lo = {std::min(lo.x, a.pos.x), std::min(lo.y, a.pos.y),
          std::min(lo.z, a.pos.z)};
    hi = {std::max(hi.x, a.pos.x), std::max(hi.y, a.pos.y),
          std::max(hi.z, a.pos.z)};
  }
  std::vector<mol::Vec3> points;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {  // inside the receptor's bounds
    points.push_back({lo.x + rng.uniform() * (hi.x - lo.x),
                      lo.y + rng.uniform() * (hi.y - lo.y),
                      lo.z + rng.uniform() * (hi.z - lo.z)});
  }
  for (const mol::Atom& a : m.atoms()) points.push_back(a.pos);  // on atoms
  // On the edge: the bounds' corners, one cutoff beyond them (the last
  // cells whose 27-neighbourhood still touches the grid), and exact cell
  // boundaries.
  for (double f : {0.0, 1.0}) {
    for (double pad : {0.0, cutoff, cutoff + 1e-9, 2.0 * cutoff}) {
      const double s = f == 0.0 ? -pad : pad;
      points.push_back({(f == 0.0 ? lo.x : hi.x) + s,
                        (f == 0.0 ? lo.y : hi.y) + s,
                        (f == 0.0 ? lo.z : hi.z) + s});
      points.push_back({(f == 0.0 ? lo.x : hi.x) + s, 0.5 * (lo.y + hi.y),
                        0.5 * (lo.z + hi.z)});
    }
  }
  points.push_back({std::floor(lo.x / cutoff) * cutoff,
                    std::floor(lo.y / cutoff) * cutoff,
                    std::ceil(hi.z / cutoff) * cutoff});
  // Far outside.
  points.push_back({1.0e4, 0.0, 0.0});
  points.push_back({-1.0e6, -1.0e6, -1.0e6});
  points.push_back({0.5 * (lo.x + hi.x), 1.0e9, 0.5 * (lo.z + hi.z)});

  std::size_t hits = 0;
  for (const mol::Vec3& p : points) {
    const auto want = reference_scan(m, cutoff, p);
    EXPECT_EQ(dense_scan(list, p), want)
        << "at (" << p.x << ", " << p.y << ", " << p.z << ")";
    hits += want.size();
  }
  EXPECT_GT(hits, 0u);

  // An empty receptor has no neighbours anywhere.
  const mol::Molecule empty("empty");
  const NeighborList none(empty, cutoff);
  EXPECT_EQ(none.atom_count(), 0);
  for (const mol::Vec3& p : {mol::Vec3{0, 0, 0}, mol::Vec3{-4, 3, 1e5}}) {
    EXPECT_TRUE(dense_scan(none, p).empty());
  }
}

TEST(DenseNeighborList, RowQueryMatchesPerPointQueries) {
  const mol::PreparedReceptor rec =
      mol::prepare_receptor(data::make_receptor("1AIM", tiny()));
  const NeighborList list(rec.molecule, 8.0);
  // Rows through, along the edge of and far outside the receptor, with
  // spacings that put many or few points in one cell.
  const GridBox box = GridBox::around(rec.molecule.center(), 16.0, 0.55);
  const mol::Vec3 o = box.origin();
  std::size_t hits = 0;
  for (double dx : {0.375, 0.55, 3.0}) {
    for (double y : {o.y - 9.0, o.y, rec.molecule.center().y, o.y + 40.0}) {
      for (double z : {o.z - 30.0, o.z + 0.5, rec.molecule.center().z}) {
        const int n = 97;
        std::vector<std::tuple<int, int, double>> row, points;
        list.for_each_within_row(o.x - 10.0, dx, n, y, z,
                                 [&](int ix, int i, double d2) {
                                   row.emplace_back(ix, i, d2);
                                 });
        for (int ix = 0; ix < n; ++ix) {
          list.for_each_within({o.x - 10.0 + ix * dx, y, z},
                               [&](int i, double d2) {
                                 points.emplace_back(ix, i, d2);
                               });
        }
        EXPECT_EQ(row, points) << "dx " << dx << " y " << y << " z " << z;
        hits += points.size();
      }
    }
  }
  EXPECT_GT(hits, 0u);
}

// --------------------------------------------------- batched pose scoring

/// Random poses over the model box, with a couple translated far outside
/// so the out-of-box penalty lanes are exercised, and an odd count so the
/// PoseBatch tail padding is exercised.
template <typename Model>
std::vector<DockPose> make_poses(const GridBox& box, const Model& model,
                                 int torsion_count, int n, Rng& rng) {
  std::vector<DockPose> poses;
  for (int i = 0; i < n; ++i) {
    poses.push_back(
        DockPose::random(box, model.reference_center(), torsion_count, rng));
  }
  poses[static_cast<std::size_t>(n) - 1].rigid.translation +=
      mol::Vec3{300.0, 0.0, 0.0};
  return poses;
}

TEST(BatchedScoring, Ad4EvaluateBatchMatchesPoseAtATime) {
  const auto opts = tiny();
  const mol::PreparedReceptor rec =
      mol::prepare_receptor(data::make_receptor("1AIM", opts));
  const mol::PreparedLigand lig =
      mol::prepare_ligand(data::make_ligand("042", opts));
  const GridBox box = GridBox::around(rec.molecule.center(), 9.0, 0.75);
  GridMapCalculator calc(rec.molecule);
  mol::Molecule typed = lig.molecule;
  typed.perceive();
  const GridMapSet maps = calc.calculate(box, typed.ad_types_present());
  const Ad4EnergyModel model(maps, lig);
  Rng rng(41);
  // Odd, non-lane-multiple counts: 1 (all-padding block), 7 and W+1.
  for (int n : {1, 7, simd::f64x::kWidth + 1}) {
    const auto poses =
        make_poses(box, model, lig.torsions.torsion_count(), n, rng);
    const auto batched = model.evaluate_batch(poses);
    ASSERT_EQ(batched.size(), poses.size());
    std::vector<double> inter, intra;
    model.score_batch(poses, &inter, &intra);
    for (std::size_t p = 0; p < poses.size(); ++p) {
      const auto coords = model.coords_for(poses[p]);
      const double scalar_inter = model.intermolecular(coords);
      const double scalar_intra = model.intramolecular(coords);
      EXPECT_TRUE(within_tolerance(batched[p], scalar_inter + scalar_intra))
          << "pose " << p << " of " << n << ": batched=" << batched[p]
          << " scalar=" << scalar_inter + scalar_intra;
      EXPECT_TRUE(within_tolerance(inter[p], scalar_inter)) << "pose " << p;
      EXPECT_TRUE(within_tolerance(intra[p], scalar_intra)) << "pose " << p;
      // operator() must agree with its batched counterpart too.
      EXPECT_TRUE(within_tolerance(batched[p], model(poses[p])));
    }
  }
}

TEST(BatchedScoring, VinaEvaluateBatchMatchesPoseAtATime) {
  const auto opts = tiny();
  const mol::PreparedReceptor rec =
      mol::prepare_receptor(data::make_receptor("1AIM", opts));
  const mol::PreparedLigand lig =
      mol::prepare_ligand(data::make_ligand("074", opts));
  const GridBox box = GridBox::around(rec.molecule.center(), 9.0, 0.75);
  const VinaEnergyModel model(rec, lig, box);
  Rng rng(43);
  for (int n : {1, 7, simd::f64x::kWidth + 1}) {
    const auto poses =
        make_poses(box, model, lig.torsions.torsion_count(), n, rng);
    const auto batched = model.evaluate_batch(poses);
    ASSERT_EQ(batched.size(), poses.size());
    std::vector<double> inter, intra;
    model.score_batch(poses, &inter, &intra);
    for (std::size_t p = 0; p < poses.size(); ++p) {
      const auto coords = model.coords_for(poses[p]);
      EXPECT_TRUE(within_tolerance(inter[p], model.intermolecular(coords)))
          << "pose " << p;
      EXPECT_TRUE(within_tolerance(intra[p], model.intramolecular(coords)))
          << "pose " << p;
      EXPECT_TRUE(within_tolerance(batched[p], model(poses[p])))
          << "pose " << p << " of " << n;
    }
  }
}

/// A Vina grid model over a tiny receptor, on the maps VinaEngine::dock
/// builds.
struct VinaGridFixture {
  mol::PreparedReceptor rec =
      mol::prepare_receptor(data::make_receptor("1AIM", tiny()));
  mol::PreparedLigand lig = mol::prepare_ligand(data::make_ligand("074", tiny()));
  GridBox search = GridBox::around(rec.molecule.center(), 9.0, 0.375);
  GridMapSet maps = compute_vina_maps(rec.molecule, lig.molecule, search);
};

TEST(BatchedScoring, VinaGridEvaluateBatchMatchesPoseAtATime) {
  const VinaGridFixture fx;
  const VinaEnergyModel model(fx.maps, fx.lig, fx.search);
  Rng rng(53);
  for (int n : {1, 7, simd::f64x::kWidth + 1}) {
    // make_poses moves the last pose 300 Å out: its lanes take the
    // harmonic pull-back next to in-box lanes of the same block.
    const auto poses =
        make_poses(fx.search, model, fx.lig.torsions.torsion_count(), n, rng);
    const auto batched = model.evaluate_batch(poses);
    ASSERT_EQ(batched.size(), poses.size());
    std::vector<double> inter, intra;
    model.score_batch(poses, &inter, &intra);
    for (std::size_t p = 0; p < poses.size(); ++p) {
      const auto coords = model.coords_for(poses[p]);
      const double scalar_inter = model.intermolecular(coords);
      EXPECT_TRUE(within_tolerance(inter[p], scalar_inter))
          << "pose " << p << " of " << n << ": batched=" << inter[p]
          << " scalar=" << scalar_inter;
      EXPECT_TRUE(within_tolerance(intra[p], model.intramolecular(coords)))
          << "pose " << p;
      EXPECT_TRUE(within_tolerance(batched[p], model(poses[p])))
          << "pose " << p << " of " << n;
    }
    EXPECT_GT(inter.back(), 1e5) << "the far pose must be pulled back";
  }
}

// The grid form samples what the direct form sums: at fixed poses the two
// intermolecular energies agree within the interpolation error of the
// map spacing. Out-of-box atoms take the identical pull-back.
TEST(VinaGrid, SampledEnergyTracksDirectScoring) {
  const VinaGridFixture fx;
  const VinaEnergyModel grid(fx.maps, fx.lig, fx.search);
  const VinaEnergyModel direct(fx.rec, fx.lig, fx.search);
  // Poses a search would visit: the best of several local searches from
  // random starts, scored by the direct model (so the grid is not judged
  // on poses it chose).
  Rng rng(59);
  int compared = 0;
  for (int i = 0; i < 12; ++i) {
    DockPose pose = DockPose::random(fx.search, direct.reference_center(),
                                     fx.lig.torsions.torsion_count(), rng);
    double e = 0.0;
    pose = solis_wets(pose, direct, rng, 60, e, 0.5);
    const auto coords = direct.coords_for(pose);
    const double d = direct.intermolecular(coords);
    const double g = grid.intermolecular(coords);
    EXPECT_LE(std::abs(g - d), kVinaGridTolerance + 0.05 * std::abs(d))
        << "pose " << i << ": grid=" << g << " direct=" << d;
    ++compared;
  }
  EXPECT_EQ(compared, 12);
  // A pose far outside: both forms are the same harmonic sum.
  DockPose far;
  far.torsions.assign(
      static_cast<std::size_t>(fx.lig.torsions.torsion_count()), 0.0);
  far.rigid.translation = mol::Vec3{40.0, 0.0, 0.0};
  const auto coords = direct.coords_for(far);
  EXPECT_EQ(grid.intermolecular(coords), direct.intermolecular(coords));
}

TEST(VinaGrid, MapsMustCoverTheSearchBoxWithTheMargin) {
  const VinaGridFixture fx;
  // The map box of the fixture leaves one spacing per side.
  EXPECT_TRUE(vina_grid_covers(fx.maps.box, fx.search));
  GridBox wide = fx.search;
  wide.npts = fx.maps.box.npts;  // the map box itself: no margin
  EXPECT_FALSE(vina_grid_covers(fx.maps.box, wide));
  EXPECT_THROW(VinaEnergyModel(fx.maps, fx.lig, wide), Error);
  // The conf-file box derived from a screening GPF box keeps the margin.
  for (double half : {12.0, 16.0, 20.0, 24.0}) {
    const GridBox gpf = GridBox::around({1.0, 2.0, 3.0}, half, 0.55);
    const GridBox conf = vina_search_box(gpf);
    EXPECT_TRUE(vina_grid_covers(gpf, conf)) << half;
    EXPECT_DOUBLE_EQ(conf.spacing, GridBox{}.spacing);
    for (int a = 0; a < 3; ++a) {
      // Largest such box: one more conf step would break the margin.
      GridBox bigger = conf;
      bigger.npts[a] += 2;
      EXPECT_FALSE(vina_grid_covers(gpf, bigger)) << half << " axis " << a;
    }
  }
}

TEST(BatchedScoring, EvaluationCountingMatchesScalarDiscipline) {
  const auto opts = tiny();
  const mol::PreparedReceptor rec =
      mol::prepare_receptor(data::make_receptor("1AIM", opts));
  const mol::PreparedLigand lig =
      mol::prepare_ligand(data::make_ligand("0E6", opts));
  const GridBox box = GridBox::around(rec.molecule.center(), 9.0, 0.75);
  const VinaEnergyModel model(rec, lig, box);
  Rng rng(47);
  const auto poses =
      make_poses(box, model, lig.torsions.torsion_count(), 5, rng);
  EXPECT_EQ(model.evaluations(), 0);
  model.evaluate_batch(poses);  // search path: one count per pose
  EXPECT_EQ(model.evaluations(), 5);
  std::vector<double> inter, intra;
  model.score_batch(poses, &inter, &intra);  // reporting path: no counts
  EXPECT_EQ(model.evaluations(), 5);
}

// --------------------------------------------- single-precision maps

/// AD4 intermolecular energy of `coords` from map nodes summed and kept in
/// double: the AutoGrid node sum written out per corner, interpolated with
/// TrilinearSampler's weights and association.
double double_precision_ad4_inter(const mol::Molecule& receptor,
                                  const mol::PreparedLigand& lig,
                                  const GridBox& box,
                                  const std::vector<mol::Vec3>& coords) {
  const auto tables = Ad4PairTables::shared(Ad4Weights{});
  const mol::Vec3 o = box.origin();
  double e = 0.0;
  for (int i = 0; i < lig.molecule.atom_count(); ++i) {
    const mol::Atom& atom = lig.molecule.atom(i);
    const mol::Vec3& p = coords[static_cast<std::size_t>(i)];
    const double fx = (p.x - o.x) / box.spacing;
    const double fy = (p.y - o.y) / box.spacing;
    const double fz = (p.z - o.z) / box.spacing;
    const double solv = mol::ad_type_params(atom.ad_type).solpar +
                        0.01097 * std::abs(atom.partial_charge);
    if (fx < 0 || fy < 0 || fz < 0 || fx > box.npts[0] - 1 ||
        fy > box.npts[1] - 1 || fz > box.npts[2] - 1) {
      e += GridMap::kOutOfBoxPenalty * (1.0 + atom.partial_charge + solv);
      continue;
    }
    const int ix = std::min(static_cast<int>(fx), box.npts[0] - 2);
    const int iy = std::min(static_cast<int>(fy), box.npts[1] - 2);
    const int iz = std::min(static_cast<int>(fz), box.npts[2] - 2);
    // node[c][k]: channel c (affinity, e, d) at corner k = dx + 2dy + 4dz.
    double node[3][8] = {};
    for (int k = 0; k < 8; ++k) {
      const mol::Vec3 q{o.x + (ix + (k & 1)) * box.spacing,
                        o.y + (iy + ((k >> 1) & 1)) * box.spacing,
                        o.z + (iz + ((k >> 2) & 1)) * box.spacing};
      for (const mol::Atom& r : receptor.atoms()) {
        const double d2 = mol::distance_sq(q, r.pos);
        if (d2 > lut::kCutoffSq) continue;
        node[0][k] += lut::interpolate(tables->vdw_row(atom.ad_type, r.ad_type), d2);
        node[1][k] += r.partial_charge * tables->coulomb_factor(d2);
        node[2][k] += mol::ad_type_params(r.ad_type).volume * tables->desolv_gauss(d2);
      }
    }
    const double tx = fx - ix, ty = fy - iy, tz = fz - iz;
    const auto lerp = [](double a, double b, double t) { return a + (b - a) * t; };
    double v[3];
    for (int c = 0; c < 3; ++c) {
      const double* n = node[c];
      v[c] = lerp(lerp(lerp(n[0], n[1], tx), lerp(n[2], n[3], tx), ty),
                  lerp(lerp(n[4], n[5], tx), lerp(n[6], n[7], tx), ty), tz);
    }
    e += v[0];
    e += atom.partial_charge * v[1];
    e += solv * v[2];
  }
  return e;
}

// Maps are stored in single precision, as AutoDock 4 keeps them: at
// docked poses the AD4 intermolecular energy stays within 1e-3 kcal/mol
// of the same maps kept in double.
TEST(SinglePrecisionMaps, Ad4EnergyWithinOneMilliKcalOfDouble) {
  const auto opts = tiny();
  const mol::PreparedReceptor rec =
      mol::prepare_receptor(data::make_receptor("1AIM", opts));
  int compared = 0;
  for (const char* code : {"042", "074", "0E6"}) {
    const mol::PreparedLigand lig =
        mol::prepare_ligand(data::make_ligand(code, opts));
    const GridBox box = GridBox::around(rec.molecule.center(), 9.0, 0.55);
    mol::Molecule typed = lig.molecule;
    typed.perceive();
    const GridMapSet maps =
        GridMapCalculator(rec.molecule).calculate(box, typed.ad_types_present());
    const Ad4EnergyModel model(maps, lig);
    DockingParameterFile dpf;
    dpf.ga_runs = 3;
    dpf.ga_pop_size = 16;
    dpf.ga_num_evals = 1500;
    dpf.ga_num_generations = 30;
    dpf.sw_max_its = 30;
    Rng rng(61);
    const DockingResult result =
        Autodock4Engine(dpf).dock_with_maps(maps, lig, rng);
    for (const Conformation& conf : result.conformations) {
      const double want =
          double_precision_ad4_inter(rec.molecule, lig, box, conf.coords);
      EXPECT_NEAR(model.intermolecular(conf.coords), want, 1e-3)
          << code << " run " << conf.run;
      ++compared;
    }
  }
  EXPECT_GE(compared, 3);
}

// ----------------------------------------------------- screening GPF

TEST(ScreeningGpf, CanonicalAcrossLigands) {
  const auto opts = tiny();
  const mol::Molecule rec = data::make_receptor("1CAN", opts);
  GridParameterFile first;
  bool have_first = false;
  for (const char* code : {"042", "074", "0E6"}) {
    const GridParameterFile gpf =
        make_screening_gpf(rec, data::make_ligand(code, opts), 4.0, 0.55);
    if (!have_first) {
      first = gpf;
      have_first = true;
      continue;
    }
    // Same receptor, any drug-like ligand: identical box and type set —
    // the property the grid-map cache keys on.
    EXPECT_EQ(gpf.box.npts, first.box.npts);
    EXPECT_DOUBLE_EQ(gpf.box.center.x, first.box.center.x);
    EXPECT_EQ(gpf.ligand_types, first.ligand_types);
  }
  EXPECT_EQ(first.ligand_types, screening_ligand_types());
  EXPECT_GE(first.ligand_types.size(), 15u);
}

}  // namespace
}  // namespace scidock::dock

// -------------------------------------------------- single-flight cache

namespace scidock::core {
namespace {

constexpr auto kAd4 = dock::ScoringFunction::kAd4;
constexpr auto kVina = dock::ScoringFunction::kVina;

/// A small prepared receptor and a coarse box around it: a map-set
/// handle over it builds in milliseconds.
struct HandleFixture {
  std::shared_ptr<const mol::PreparedReceptor> receptor =
      std::make_shared<const mol::PreparedReceptor>(
          mol::prepare_receptor(data::make_receptor("1KER", dock::tiny())));
  dock::GridBox box =
      dock::GridBox::around(receptor->molecule.center(), 4.0, 0.8);
  std::vector<mol::AdType> types = {mol::AdType::C, mol::AdType::OA,
                                    mol::AdType::HD, mol::AdType::N};
};

TEST(SingleFlightCache, ComputesOncePerKeyUnderContention) {
  const HandleFixture fx;
  ArtifactCache cache;
  std::atomic<int> sweeps{0};
  dock::AutogridOptions opts;
  opts.sweep_observer = [&](int) { sweeps.fetch_add(1); };
  std::atomic<int> hits{0}, misses{0}, waits{0};
  std::vector<std::thread> threads;
  std::vector<ArtifactCache::MapsPtr> results(8);
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] {
      auto maps = cache.resolve_maps("k", fx.receptor, fx.box, fx.types);
      const CacheOutcome outcome =
          maps->require(kAd4, {mol::AdType::C, mol::AdType::OA}, opts);
      results[static_cast<std::size_t>(i)] = maps;
      switch (outcome) {
        case CacheOutcome::kHit: hits.fetch_add(1); break;
        case CacheOutcome::kMiss: misses.fetch_add(1); break;
        case CacheOutcome::kInflightWait: waits.fetch_add(1); break;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(sweeps.load(), 1);
  EXPECT_EQ(misses.load(), 1);
  EXPECT_EQ(hits.load() + waits.load(), 7);
  for (const auto& r : results) EXPECT_EQ(r.get(), results[0].get());
  // e, d, C and OA; HD and N were never asked for.
  EXPECT_EQ(results[0]->channels_built(), 4);
  EXPECT_EQ(results[0]->maps().affinity_for(mol::AdType::HD), nullptr);
}

TEST(SingleFlightCache, DistinctKeysComputeIndependently) {
  const HandleFixture fx;
  ArtifactCache cache;
  const auto a = cache.resolve_maps("a", fx.receptor, fx.box, fx.types);
  const auto b = cache.resolve_maps("b", fx.receptor, fx.box, fx.types);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.resolve_maps("a", fx.receptor, fx.box, fx.types).get(),
            a.get());
  EXPECT_EQ(a->require(kAd4, {mol::AdType::C}), CacheOutcome::kMiss);
  EXPECT_EQ(b->require(kAd4, {mol::AdType::C}), CacheOutcome::kMiss);
  EXPECT_EQ(a->require(kAd4, {mol::AdType::C}), CacheOutcome::kHit);
  // Extending a set builds only the new channel, not e and d again.
  EXPECT_EQ(a->require(kAd4, {mol::AdType::C, mol::AdType::N}), CacheOutcome::kMiss);
  EXPECT_EQ(a->channels_built(), 4);
  EXPECT_EQ(b->channels_built(), 3);
  EXPECT_EQ(cache.grid_channels_built(), 7);
  // A type outside the GPF's set is an error, not a silent empty map.
  EXPECT_THROW(a->require(kAd4, {mol::AdType::S}), Error);
}

TEST(SingleFlightCache, ExceptionErasesFlightSoRetryRecomputes) {
  const HandleFixture fx;
  ArtifactCache cache;
  const auto maps = cache.resolve_maps("k", fx.receptor, fx.box, fx.types);
  dock::AutogridOptions faulty;
  faulty.slab_observer = [](int, double) {
    throw std::runtime_error("vfs fault");
  };
  EXPECT_THROW(maps->require(kAd4, {mol::AdType::C}, faulty), std::runtime_error);
  // The failed sweep's channels are free again: a retry builds them.
  EXPECT_EQ(maps->channels_built(), 0);
  EXPECT_EQ(maps->require(kAd4, {mol::AdType::C}), CacheOutcome::kMiss);
  EXPECT_EQ(maps->channels_built(), 3);
  EXPECT_NE(maps->maps().affinity_for(mol::AdType::C), nullptr);
}

TEST(SingleFlightCache, VinaRequireThatThrowsFreesItsChannels) {
  const HandleFixture fx;
  ArtifactCache cache;
  const auto maps = cache.resolve_maps("k", fx.receptor, fx.box, fx.types);
  dock::AutogridOptions faulty;
  faulty.slab_observer = [](int, double) {
    throw std::runtime_error("vfs fault");
  };
  const std::vector<mol::AdType> heavy = {mol::AdType::C, mol::AdType::N};
  EXPECT_THROW(maps->require(kVina, heavy, faulty),
               std::runtime_error);
  EXPECT_EQ(maps->channels_built(), 0);
  EXPECT_EQ(maps->maps().map_for(kVina, mol::AdType::C),
            nullptr);
  // The retry rebuilds exactly the two Vina channels, and no e/d.
  EXPECT_EQ(maps->require(kVina, heavy),
            CacheOutcome::kMiss);
  EXPECT_EQ(maps->channels_built(), 2);
  EXPECT_NE(maps->maps().map_for(kVina, mol::AdType::N),
            nullptr);
  EXPECT_TRUE(maps->maps().electrostatic.values().empty());
  EXPECT_EQ(maps->require(kVina, {mol::AdType::C}),
            CacheOutcome::kHit);
  // The AD4 family is separate: its first require still misses.
  EXPECT_EQ(maps->require(kAd4, {mol::AdType::C}),
            CacheOutcome::kMiss);
  EXPECT_EQ(maps->channels_built(), 5);
}

TEST(SingleFlightCache, AliasSharesTheSameSet) {
  const HandleFixture fx;
  ArtifactCache cache;
  const auto maps =
      cache.resolve_maps("canonical", fx.receptor, fx.box, fx.types);
  cache.alias_maps("/exp/autogrid/p1/receptor", maps);
  cache.alias_maps("/exp/autogrid/p2/receptor", maps);
  EXPECT_EQ(cache.maps("/exp/autogrid/p1/receptor").get(), maps.get());
  EXPECT_EQ(cache.maps("/exp/autogrid/p2/receptor").get(), maps.get());
  EXPECT_EQ(cache.maps("unknown"), nullptr);
  // Resolving builds nothing; aliases do not count a set twice.
  EXPECT_EQ(cache.grid_channels_built(), 0);
  maps->require(kAd4, {mol::AdType::OA});
  EXPECT_EQ(cache.grid_channels_built(), 3);
}

// ------------------------------------------- pipeline-level equivalence

std::vector<std::string> some_receptors(int n) {
  const auto& all = data::table2_receptors();
  return {all.begin(), all.begin() + n};
}

struct RunArtifacts {
  std::map<std::string, std::pair<std::string, std::string>> feb_rmsd;  ///< by pair
  std::map<std::string, std::string> autogrid_files;  ///< path -> content
};

RunArtifacts collect(Experiment& exp, const wf::NativeReport& report) {
  RunArtifacts out;
  for (const auto& t : report.output.tuples()) {
    out.feb_rmsd[t.require("pair")] = {t.require("feb"), t.require("rmsd")};
  }
  for (const auto& f : exp.fs->list("/")) {
    if (f.path.find("/autogrid/") != std::string::npos) {
      out.autogrid_files[f.path] = exp.fs->read(f.path);
    }
  }
  return out;
}

TEST(GridMapReuse, Table3OutputsIdenticalAcrossCacheAndThreads) {
  ScidockOptions opts;
  opts.dataset = dock::tiny();  // namespace-qualified helper above
  opts.write_map_files = true;

  // Baseline: cache off, single thread.
  opts.reuse_grid_maps = false;
  auto base_exp =
      make_experiment(some_receptors(2), {"042", "074", "0E6"}, 0, opts);
  const wf::NativeReport base_report = run_native(base_exp, 1, "base");
  const RunArtifacts base = collect(base_exp, base_report);
  ASSERT_EQ(base.feb_rmsd.size(), 6u);
  ASSERT_FALSE(base.autogrid_files.empty());

  // Cache on, multiple threads: FEB/RMSD (the Table 3 columns) and every
  // AutoGrid artifact must be byte-identical.
  opts.reuse_grid_maps = true;
  for (int threads : {1, 4}) {
    auto exp =
        make_experiment(some_receptors(2), {"042", "074", "0E6"}, 0, opts);
    const wf::NativeReport report =
        run_native(exp, threads, "reuse" + std::to_string(threads));
    const RunArtifacts got = collect(exp, report);
    EXPECT_EQ(got.feb_rmsd, base.feb_rmsd) << threads << " threads";
    EXPECT_EQ(got.autogrid_files, base.autogrid_files) << threads << " threads";
  }
}

TEST(GridMapReuse, CacheCountersReconcileAndHit) {
  ScidockOptions opts;
  opts.dataset = dock::tiny();
  opts.engine_mode = EngineMode::ForceAd4;
  opts.reuse_grid_maps = true;
  auto exp = make_experiment(some_receptors(2), {"042", "074", "0E6"}, 0, opts);
  obs::MetricsRegistry metrics;
  const wf::NativeReport report =
      run_native(exp, 4, "reuse-metrics", obs::Observability{nullptr, &metrics});
  ASSERT_EQ(report.output.tuples().size(), 6u);
  const long long hits = metrics.counter_value(obs::kCacheGridmapsHits);
  const long long misses = metrics.counter_value(obs::kCacheGridmapsMisses);
  const long long waits =
      metrics.counter_value(obs::kCacheGridmapsInflightWaits);
  // 6 AD4 activations over 2 receptors: each receptor's first docking
  // builds (a miss), and later ones hit, wait, or extend the set with
  // their ligand's new types (a miss again).
  EXPECT_EQ(hits + misses + waits, 6);
  EXPECT_GE(misses, 2);
  // One sweep per miss, and every (receptor, channel) built exactly once.
  EXPECT_EQ(metrics.counter_value(obs::kKernelAutogridMapsets), misses);
  EXPECT_EQ(metrics.counter_value(obs::kKernelAutogridChannels),
            exp.cache->grid_channels_built());
  EXPECT_GT(exp.cache->grid_channels_built(), 0);
  // Slab counter and histogram observe from the same callback.
  EXPECT_EQ(metrics.counter_value(obs::kKernelAutogridSlabs),
            metrics.histogram_count(obs::kKernelAutogridSlabSeconds));
  EXPECT_GT(metrics.counter_value(obs::kKernelAutogridSlabs), 0);
}

// Lazy map sets (write_map_files=false: AD4 builds only its ligands'
// channels) give the same Table 3 columns as the eager AutoGrid that
// builds and writes every GPF type, with the cache on or off and at 1 or
// 4 threads.
TEST(GridMapReuse, LazyFebRmsdEqualEagerAcrossCacheAndThreads) {
  ScidockOptions opts;
  opts.dataset = dock::tiny();
  opts.engine_mode = EngineMode::ForceAd4;
  opts.write_map_files = true;
  opts.reuse_grid_maps = false;
  auto eager_exp =
      make_experiment(some_receptors(2), {"042", "074", "0E6"}, 0, opts);
  const RunArtifacts eager =
      collect(eager_exp, run_native(eager_exp, 1, "eager"));
  ASSERT_EQ(eager.feb_rmsd.size(), 6u);

  opts.write_map_files = false;
  for (bool reuse : {false, true}) {
    for (int threads : {1, 4}) {
      opts.reuse_grid_maps = reuse;
      auto exp =
          make_experiment(some_receptors(2), {"042", "074", "0E6"}, 0, opts);
      const RunArtifacts lazy = collect(exp, run_native(exp, threads, "lazy"));
      EXPECT_EQ(lazy.feb_rmsd, eager.feb_rmsd)
          << "reuse " << reuse << ", " << threads << " threads";
      // Lazy sets hold only the docked ligands' types: fewer channels
      // than the eager run's every-type sets.
      EXPECT_LT(exp.cache->grid_channels_built(),
                eager_exp.cache->grid_channels_built());
    }
  }
}

// In the paper's adaptive mode each receptor builds only its engine's
// channel family: AD4 receptors e, d and affinity maps, Vina receptors
// Vina maps only.
TEST(GridMapReuse, EachReceptorBuildsOnlyItsEnginesChannelFamily) {
  ScidockOptions opts;
  opts.dataset = dock::tiny();
  opts.engine_mode = EngineMode::Adaptive;
  opts.vina_exhaustiveness = 1;
  opts.vina_steps_per_chain = 8;
  // Two receptors of each route, by the generator's size routing.
  std::set<std::string> vina_receptors, ad4_receptors;
  const int threshold = data::vina_size_threshold(opts.dataset);
  for (const std::string& code : data::table2_receptors()) {
    auto& group = data::receptor_residue_count(code, opts.dataset) > threshold
                      ? vina_receptors
                      : ad4_receptors;
    if (group.size() < 2) group.insert(code);
  }
  ASSERT_EQ(vina_receptors.size(), 2u);
  ASSERT_EQ(ad4_receptors.size(), 2u);
  std::vector<std::string> receptors(ad4_receptors.begin(), ad4_receptors.end());
  receptors.insert(receptors.end(), vina_receptors.begin(), vina_receptors.end());
  auto exp = make_experiment(receptors, {"042", "074"}, 0, opts);
  for (const wf::Tuple& t : exp.pairs.tuples()) {
    ASSERT_EQ(t.require("engine") == "vina",
              vina_receptors.count(t.require("receptor")) == 1);
  }
  obs::MetricsRegistry metrics;
  const wf::NativeReport report =
      run_native(exp, 2, "auto-lazy", obs::Observability{nullptr, &metrics});
  ASSERT_EQ(report.output.size(), exp.pairs.size());

  const auto built = [](const dock::GridMapSet& set, dock::ScoringFunction f) {
    int n = 0;
    for (const auto& [type, map] : set.family(f)) n += map.values().empty() ? 0 : 1;
    return n;
  };
  for (const wf::Tuple& t : exp.pairs.tuples()) {
    const auto maps = exp.cache->maps(exp.options.expdir + "/autogrid/" +
                                      t.require("pair") + "/receptor");
    ASSERT_NE(maps, nullptr) << t.require("pair");
    const dock::GridMapSet& set = maps->maps();
    if (vina_receptors.count(t.require("receptor")) != 0) {
      EXPECT_GE(built(set, kVina), 1) << t.require("pair");
      EXPECT_EQ(built(set, kAd4), 0) << t.require("pair");
      EXPECT_TRUE(set.electrostatic.values().empty()) << t.require("pair");
      EXPECT_EQ(maps->channels_built(), built(set, kVina));
    } else {
      EXPECT_GE(maps->channels_built(), 3) << t.require("pair");
      EXPECT_EQ(built(set, kVina), 0) << t.require("pair");
    }
  }
  // Every channel was built once, and every docking activation reported
  // one cache outcome.
  EXPECT_EQ(metrics.counter_value(obs::kKernelAutogridChannels),
            exp.cache->grid_channels_built());
  EXPECT_EQ(metrics.counter_value(obs::kCacheGridmapsHits) +
                metrics.counter_value(obs::kCacheGridmapsMisses) +
                metrics.counter_value(obs::kCacheGridmapsInflightWaits),
            static_cast<long long>(exp.pairs.size()));
}

// Vina searches on shared lazily built maps: the Table 3 columns do not
// depend on whether pairs share a set or on the thread count, in the
// paper's adaptive mode and with Vina forced.
TEST(GridMapReuse, FebRmsdIdenticalAcrossCacheAndThreadsInAutoAndVinaModes) {
  for (EngineMode mode : {EngineMode::Adaptive, EngineMode::ForceVina}) {
    ScidockOptions opts;
    opts.dataset = dock::tiny();
    opts.engine_mode = mode;
    opts.vina_exhaustiveness = 2;
    opts.vina_steps_per_chain = 10;
    // Two Vina-routed receptors and one AD4 one, by the size routing.
    std::vector<std::string> receptors;
    int vina = 0, ad4 = 0;
    const int threshold = data::vina_size_threshold(opts.dataset);
    for (const std::string& code : data::table2_receptors()) {
      const bool to_vina =
          data::receptor_residue_count(code, opts.dataset) > threshold;
      if (to_vina ? vina < 2 : ad4 < 1) {
        receptors.push_back(code);
        ++(to_vina ? vina : ad4);
      }
    }
    std::optional<RunArtifacts> base;
    for (bool reuse : {false, true}) {
      for (int threads : {1, 4}) {
        opts.reuse_grid_maps = reuse;
        auto exp = make_experiment(receptors, {"042", "074", "0E6"}, 0, opts);
        const RunArtifacts got = collect(exp, run_native(exp, threads, "vina"));
        ASSERT_EQ(got.feb_rmsd.size(), 9u);
        if (!base) {
          base = got;
          continue;
        }
        EXPECT_EQ(got.feb_rmsd, base->feb_rmsd)
            << "mode " << static_cast<int>(mode) << ", reuse " << reuse
            << ", " << threads << " threads";
      }
    }
  }
}

}  // namespace
}  // namespace scidock::core
