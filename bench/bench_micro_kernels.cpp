// Micro-kernel benchmarks (google-benchmark): the hot paths underneath
// the workflow — grid generation, energy evaluation, neighbour queries,
// torsion application, parsers and the SQL engine.
//
// After the google-benchmark tables, main() runs the kernel perf report:
// timed analytic-vs-LUT comparisons, scalar-vs-SIMD batched kernels,
// serial-vs-parallel AutoGrid and the grid-map-reuse pipeline A/B, written
// to BENCH_kernels.json with the acceptance gates enforced (LUT >= 3x on
// the AD4 pair kernel; batched AD4 pair term and batched trilinear
// sampling >= 2x over scalar on a wide-SIMD build, non-regression
// within timing noise otherwise;
// >= 30% lower AutoGrid time at 8 threads; grid-map reuse >= 30% less
// map-building time, one map set per receptor and each (receptor,
// channel) built once, with counters reconciled against PROV-Wf by the
// chaos InvariantChecker). It also reports, ungated, Vina grid-sampled
// versus direct ns/eval and one AutoGrid sweep at 1, 3 and 9 channels.
//
// Knobs: SCIDOCK_KERNEL_RECEPTORS / SCIDOCK_KERNEL_LIGANDS shrink the
// pipeline A/B workload for smoke runs.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "chaos/invariants.hpp"
#include "data/generator.hpp"
#include "data/table2.hpp"
#include "dock/autogrid.hpp"
#include "dock/energy_lut.hpp"
#include "util/aligned.hpp"
#include "util/simd.hpp"
#include "mol/charges.hpp"
#include "dock/energy.hpp"
#include "dock/vina.hpp"
#include "mol/io_pdb.hpp"
#include "mol/io_pdbqt.hpp"
#include "mol/prepare.hpp"
#include "obs/obs.hpp"
#include "scidock/analysis.hpp"
#include "scidock/experiment.hpp"
#include "scidock/scidock.hpp"
#include "sql/engine.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "wf/spec.hpp"
#include "xml/xml.hpp"

namespace {

using namespace scidock;

data::GeneratorOptions bench_opts() {
  data::GeneratorOptions o;
  o.min_residues = 24;
  o.max_residues = 48;
  o.hg_fraction = 0.0;
  return o;
}

struct DockFixture {
  mol::PreparedReceptor receptor;
  mol::PreparedLigand ligand;
  dock::GridBox box;

  static const DockFixture& get() {
    static const DockFixture fixture = [] {
      const auto opts = bench_opts();
      mol::PreparedReceptor rec =
          mol::prepare_receptor(data::make_receptor("2HHN", opts));
      mol::PreparedLigand lig = mol::prepare_ligand(data::make_ligand("0E6"));
      dock::GridBox box =
          dock::GridBox::around(rec.molecule.center(), 10.0, 0.55);
      return DockFixture{std::move(rec), std::move(lig), box};
    }();
    return fixture;
  }
};

void BM_AutogridMapGeneration(benchmark::State& state) {
  const DockFixture& fx = DockFixture::get();
  const dock::GridMapCalculator calc(fx.receptor.molecule);
  mol::Molecule lig = fx.ligand.molecule;
  lig.perceive();
  const auto types = lig.ad_types_present();
  for (auto _ : state) {
    benchmark::DoNotOptimize(calc.calculate(fx.box, types));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fx.box.total_points()));
}
BENCHMARK(BM_AutogridMapGeneration)->Unit(benchmark::kMillisecond);

void BM_Ad4GridEnergyEvaluation(benchmark::State& state) {
  const DockFixture& fx = DockFixture::get();
  const dock::GridMapCalculator calc(fx.receptor.molecule);
  mol::Molecule lig = fx.ligand.molecule;
  lig.perceive();
  const dock::GridMapSet maps = calc.calculate(fx.box, lig.ad_types_present());
  const dock::Ad4EnergyModel model(maps, fx.ligand);
  Rng rng(1);
  dock::DockPose pose = dock::DockPose::random(
      fx.box, model.reference_center(), fx.ligand.torsions.torsion_count(), rng);
  for (auto _ : state) {
    pose.mutate(0.1, 0.05, 0.1, rng);
    benchmark::DoNotOptimize(model(pose));
  }
}
BENCHMARK(BM_Ad4GridEnergyEvaluation)->Unit(benchmark::kMicrosecond);

void BM_VinaDirectEnergyEvaluation(benchmark::State& state) {
  const DockFixture& fx = DockFixture::get();
  const dock::VinaEnergyModel model(fx.receptor, fx.ligand, fx.box);
  Rng rng(1);
  dock::DockPose pose = dock::DockPose::random(
      fx.box, model.reference_center(), fx.ligand.torsions.torsion_count(), rng);
  for (auto _ : state) {
    pose.mutate(0.1, 0.05, 0.1, rng);
    benchmark::DoNotOptimize(model(pose));
  }
}
BENCHMARK(BM_VinaDirectEnergyEvaluation)->Unit(benchmark::kMicrosecond);

void BM_NeighborListQuery(benchmark::State& state) {
  const DockFixture& fx = DockFixture::get();
  const dock::NeighborList nl(fx.receptor.molecule, 8.0);
  Rng rng(2);
  double acc = 0.0;
  for (auto _ : state) {
    const mol::Vec3 q{rng.uniform(-10, 10), rng.uniform(-10, 10),
                      rng.uniform(-10, 10)};
    nl.for_each_within(q, [&acc](int, double d2) { acc += d2; });
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_NeighborListQuery);

void BM_TorsionTreeApply(benchmark::State& state) {
  const DockFixture& fx = DockFixture::get();
  const auto ref = fx.ligand.molecule.coordinates();
  Rng rng(3);
  dock::DockPose pose = dock::DockPose::random(
      fx.box, {0, 0, 0}, fx.ligand.torsions.torsion_count(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.ligand.torsions.apply(ref, pose.rigid, pose.torsions));
  }
}
BENCHMARK(BM_TorsionTreeApply);

void BM_PdbParse(benchmark::State& state) {
  const std::string text = mol::write_pdb(data::make_receptor("1HUC", bench_opts()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mol::read_pdb(text, "1HUC"));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_PdbParse)->Unit(benchmark::kMicrosecond);

void BM_PdbqtLigandRoundTrip(benchmark::State& state) {
  const DockFixture& fx = DockFixture::get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mol::read_pdbqt(fx.ligand.pdbqt));
  }
}
BENCHMARK(BM_PdbqtLigandRoundTrip);

void BM_GasteigerCharges(benchmark::State& state) {
  const mol::Molecule lig = data::make_ligand("042");
  for (auto _ : state) {
    mol::Molecule copy = lig;
    mol::assign_gasteiger_charges(copy);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_GasteigerCharges);

void BM_XmlSpecParse(benchmark::State& state) {
  const std::string xml = wf::save_spec(core::scidock_workflow_def());
  for (auto _ : state) {
    benchmark::DoNotOptimize(wf::load_spec(xml));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(xml.size()));
}
BENCHMARK(BM_XmlSpecParse);

void BM_SqlQuery1OverProvenance(benchmark::State& state) {
  // A provenance store with ~7k activation rows, as after a 1k-pair run.
  prov::ProvenanceStore store;
  const long long wkfid = store.begin_workflow("SciDock", "", "/x/", 0.0);
  Rng rng(7);
  std::vector<long long> actids;
  for (const char* tag : {"babel", "prepligand", "prepreceptor", "gpfprep",
                          "autogrid", "dockfilter", "autodock4"}) {
    actids.push_back(store.register_activity(wkfid, tag, "./cmd", "MAP"));
  }
  double t = 0.0;
  for (int i = 0; i < 7000; ++i) {
    const long long id = store.begin_activation(
        actids[static_cast<std::size_t>(i) % actids.size()], wkfid, t, 1, "p");
    t += rng.uniform(0.5, 3.0);
    store.end_activation(id, t, prov::kStatusFinished, 0, 1);
  }
  const std::string query = core::query1(wkfid);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.query(query));
  }
}
BENCHMARK(BM_SqlQuery1OverProvenance)->Unit(benchmark::kMillisecond);

void BM_SolisWetsLocalSearch(benchmark::State& state) {
  const DockFixture& fx = DockFixture::get();
  const dock::VinaEnergyModel model(fx.receptor, fx.ligand, fx.box);
  Rng rng(5);
  for (auto _ : state) {
    dock::DockPose pose = dock::DockPose::random(
        fx.box, model.reference_center(), fx.ligand.torsions.torsion_count(),
        rng);
    double energy = 0.0;
    benchmark::DoNotOptimize(dock::solis_wets(pose, model, rng, 30, energy));
  }
}
BENCHMARK(BM_SolisWetsLocalSearch)->Unit(benchmark::kMicrosecond);

// ------------------------------------------------------------------
// Kernel perf report (BENCH_kernels.json) with acceptance gates.
// ------------------------------------------------------------------

/// Wall-time `body` (which evaluates `evals_per_rep` kernel calls),
/// growing the repetition count until the measurement window is long
/// enough to trust, and keeping the *minimum* per-rep time across
/// windows (cancels scheduler noise on shared machines).
template <typename F>
double ns_per_eval(std::size_t evals_per_rep, F&& body) {
  using clock = std::chrono::steady_clock;
  body();  // warm-up (touch tables, fault pages)
  long long reps = 1;
  double best_s = 1e300;
  for (int window = 0; window < 64; ++window) {
    const auto t0 = clock::now();
    for (long long r = 0; r < reps; ++r) body();
    const double s =
        std::chrono::duration<double>(clock::now() - t0).count();
    if (s < 0.02) {
      reps *= 4;
      continue;
    }
    best_s = std::min(best_s, s / static_cast<double>(reps));
    if (window >= 2 && best_s < 1e299) break;
  }
  return best_s * 1e9 / static_cast<double>(evals_per_rep);
}

/// Interleaved variant for ratio gates: alternates measurement windows
/// across the competing bodies round-robin, keeping each body's minimum
/// per-rep time — so frequency drift or a noisy co-tenant slows every
/// competitor in the same windows instead of skewing the ratio that the
/// gate checks.
std::vector<double> interleaved_ns_per_eval(
    std::size_t evals_per_rep,
    const std::vector<std::function<void()>>& bodies) {
  using clock = std::chrono::steady_clock;
  const std::size_t n = bodies.size();
  std::vector<long long> reps(n, 1);
  std::vector<double> best(n, 1e300);
  for (const auto& body : bodies) body();  // warm-up
  for (int round = 0; round < 64; ++round) {
    bool settled = true;
    for (std::size_t i = 0; i < n; ++i) {
      const auto t0 = clock::now();
      for (long long r = 0; r < reps[i]; ++r) bodies[i]();
      const double s =
          std::chrono::duration<double>(clock::now() - t0).count();
      if (s < 0.02) {
        reps[i] *= 4;
        settled = false;
        continue;
      }
      best[i] = std::min(best[i], s / static_cast<double>(reps[i]));
    }
    if (round >= 3 && settled) break;
  }
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = best[i] * 1e9 / static_cast<double>(evals_per_rep);
  }
  return out;
}

struct PairSample {
  mol::AdType ti, tj;
  double qi, qj;
  double r2;
};

std::vector<PairSample> make_pair_samples() {
  const auto& types = dock::screening_ligand_types();
  Rng rng(17);
  std::vector<PairSample> samples(4096);
  for (PairSample& s : samples) {
    s.ti = types[rng.below(types.size())];
    s.tj = types[rng.below(types.size())];
    s.qi = rng.uniform(-0.5, 0.5);
    s.qj = rng.uniform(-0.5, 0.5);
    const double r = rng.uniform(1.0, 8.0);
    s.r2 = r * r;
  }
  return samples;
}

int run_kernel_report() {
  using scidock::bench::env_int;
  bench::print_header("SciDock bench: docking kernels",
                      "perf_opt acceptance: LUT >= 3x, SIMD batch >= 2x "
                      "(wide) / no regression, AutoGrid -30% @ 8t, reuse "
                      "-30% map-building time, each (receptor, channel) "
                      "built once");
  int failures = 0;
  const auto gate = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::printf("GATE FAILED: %s\n", what);
      ++failures;
    }
  };

  // ---- pairwise scoring: analytic vs radial LUT -------------------
  const auto samples = make_pair_samples();
  const dock::Ad4Weights ad4_w;
  const auto ad4_tables = dock::Ad4PairTables::shared(ad4_w);
  // The SIMD gates assume real vector width + hardware FMA; narrower
  // backends (2-lane SSE2/NEON, forced scalar) must simply not regress.
  // The batched trilinear sampler is genuinely break-even at 2 lanes
  // (per-lane corner gathers eat the lerp savings), so the non-wide
  // gate carries a 10% allowance for timer noise — it catches real
  // regressions, not scheduler jitter on loaded machines.
  const double simd_threshold = scidock::simd::wide_backend() ? 2.0 : 0.9;
  constexpr int W = scidock::simd::f64x::kWidth;
  const std::size_t nsamp = samples.size();  // 4096: a lane multiple
  std::vector<const double*> batch_rows(nsamp);
  util::aligned_vector<double> batch_qq(nsamp), batch_solv(nsamp),
      batch_r2(nsamp);
  for (std::size_t i = 0; i < nsamp; ++i) {
    const PairSample& s = samples[i];
    batch_rows[i] = ad4_tables->vdw_row(s.ti, s.tj);
    batch_qq[i] = s.qi * s.qj;
    constexpr double kQasp = 0.01097;
    const auto& pi = mol::ad_type_params(s.ti);
    const auto& pj = mol::ad_type_params(s.tj);
    batch_solv[i] = (pi.solpar + kQasp * std::abs(s.qi)) * pj.volume +
                    (pj.solpar + kQasp * std::abs(s.qj)) * pi.volume;
    batch_r2[i] = s.r2;
  }
  // Analytic vs scalar LUT vs batched LUT, interleaved: both gates below
  // are *ratios* of these three.
  const std::vector<double> ad4_ns = interleaved_ns_per_eval(
      samples.size(),
      {[&] {
         double acc = 0.0;
         for (const PairSample& s : samples) {
           acc += dock::ad4_pair_energy(s.ti, s.qi, s.tj, s.qj,
                                        std::sqrt(s.r2), ad4_w);
         }
         benchmark::DoNotOptimize(acc);
       },
       [&] {
         double acc = 0.0;
         for (const PairSample& s : samples) {
           acc += ad4_tables->pair_energy(s.ti, s.qi, s.tj, s.qj, s.r2);
         }
         benchmark::DoNotOptimize(acc);
       },
       [&] {
         scidock::simd::f64x acc;
         for (std::size_t i = 0; i < nsamp; i += W) {
           acc += ad4_tables->pair_energy_lanes(
               batch_rows.data() + i,
               scidock::simd::f64x::load(batch_qq.data() + i),
               scidock::simd::f64x::load(batch_solv.data() + i),
               scidock::simd::f64x::load(batch_r2.data() + i));
         }
         benchmark::DoNotOptimize(acc.hsum());
       }});
  const double ad4_analytic_ns = ad4_ns[0];
  const double ad4_lut_ns = ad4_ns[1];
  const double ad4_batch_ns = ad4_ns[2];
  const double ad4_speedup = ad4_analytic_ns / ad4_lut_ns;
  bench::print_compare("AD4 pair kernel ns/eval",
                       strformat("%.1f analytic", ad4_analytic_ns),
                       strformat("%.1f LUT (%.1fx)", ad4_lut_ns, ad4_speedup));
  gate(ad4_speedup >= 3.0, "AD4 LUT must be >= 3x faster than analytic");

  // ---- batched (SoA/SIMD) pair term vs the scalar LUT path --------
  const double ad4_batch_speedup = ad4_lut_ns / ad4_batch_ns;
  bench::print_compare(
      "AD4 batched pair ns/eval",
      strformat("%.1f scalar LUT", ad4_lut_ns),
      strformat("%.1f %s x%d (%.1fx)", ad4_batch_ns,
                scidock::simd::backend_name(), W, ad4_batch_speedup));
  gate(ad4_batch_speedup >= simd_threshold,
       scidock::simd::wide_backend()
           ? "batched AD4 pair term must be >= 2x the scalar LUT path"
           : "batched AD4 pair term must not regress vs the scalar LUT path");

  const dock::VinaWeights vina_w;
  const auto vina_tables = dock::VinaPairTables::shared(vina_w);
  const double vina_analytic_ns = ns_per_eval(samples.size(), [&] {
    double acc = 0.0;
    for (const PairSample& s : samples) {
      acc += dock::vina_pair_energy(s.ti, s.tj, std::sqrt(s.r2), vina_w);
    }
    benchmark::DoNotOptimize(acc);
  });
  const double vina_lut_ns = ns_per_eval(samples.size(), [&] {
    double acc = 0.0;
    for (const PairSample& s : samples) {
      acc += vina_tables->pair_energy(s.ti, s.tj, s.r2);
    }
    benchmark::DoNotOptimize(acc);
  });
  bench::print_compare(
      "Vina pair kernel ns/eval", strformat("%.1f analytic", vina_analytic_ns),
      strformat("%.1f LUT (%.1fx)", vina_lut_ns,
                vina_analytic_ns / vina_lut_ns));

  // ---- fused trilinear sampling vs three separate samples ---------
  const DockFixture& fx = DockFixture::get();
  const dock::GridMapCalculator fx_calc(fx.receptor.molecule);
  mol::Molecule fx_lig = fx.ligand.molecule;
  fx_lig.perceive();
  const dock::GridMapSet fused_maps =
      fx_calc.calculate(fx.box, fx_lig.ad_types_present());
  const dock::GridMap& m0 = fused_maps.affinity[0].second;
  std::vector<mol::Vec3> points;
  {
    Rng rng(23);
    const mol::Aabb b = fx.box.bounds();
    for (int i = 0; i < 2048; ++i) {
      points.push_back({rng.uniform(b.lo.x, b.hi.x), rng.uniform(b.lo.y, b.hi.y),
                        rng.uniform(b.lo.z, b.hi.z)});
    }
  }
  const std::size_t npts = points.size();  // 2048: a lane multiple
  util::aligned_vector<double> pxs(npts), pys(npts), pzs(npts);
  for (std::size_t i = 0; i < npts; ++i) {
    pxs[i] = points[i].x;
    pys[i] = points[i].y;
    pzs[i] = points[i].z;
  }
  // Separate vs fused vs batched sampling, interleaved for the ratio
  // gates (same reasoning as the AD4 trio above).
  const std::vector<double> sample3_ns = interleaved_ns_per_eval(
      points.size(),
      {[&] {
         double acc = 0.0;
         for (const mol::Vec3& p : points) {
           acc += m0.sample(p) + fused_maps.electrostatic.sample(p) +
                  fused_maps.desolvation.sample(p);
         }
         benchmark::DoNotOptimize(acc);
       },
       [&] {
         double acc = 0.0;
         for (const mol::Vec3& p : points) {
           const dock::TrilinearSampler s(fx.box, p);
           if (s.in_box()) {
             acc += s.apply(m0) + s.apply(fused_maps.electrostatic) +
                    s.apply(fused_maps.desolvation);
           }
         }
         benchmark::DoNotOptimize(acc);
       },
       [&] {
         scidock::simd::f64x acc;
         for (std::size_t i = 0; i < npts; i += W) {
           const dock::TrilinearSamplerLanes s(fx.box, pxs.data() + i,
                                               pys.data() + i, pzs.data() + i);
           acc += s.apply(m0) + s.apply(fused_maps.electrostatic) +
                  s.apply(fused_maps.desolvation);
         }
         benchmark::DoNotOptimize(acc.hsum());
       }});
  const double unfused_ns = sample3_ns[0];
  const double fused_ns = sample3_ns[1];
  const double sample3_batch_ns = sample3_ns[2];
  bench::print_compare("3-map sampling ns/point",
                       strformat("%.1f separate", unfused_ns),
                       strformat("%.1f fused (%.1fx)", fused_ns,
                                 unfused_ns / fused_ns));

  // ---- batched trilinear sampling vs the fused scalar sampler -----
  const double sample3_batch_speedup = fused_ns / sample3_batch_ns;
  bench::print_compare(
      "3-map batched ns/point", strformat("%.1f fused scalar", fused_ns),
      strformat("%.1f %s x%d (%.1fx)", sample3_batch_ns,
                scidock::simd::backend_name(), W, sample3_batch_speedup));
  gate(sample3_batch_speedup >= simd_threshold,
       scidock::simd::wide_backend()
           ? "batched trilinear sampling must be >= 2x the fused scalar path"
           : "batched trilinear sampling must not regress vs fused scalar");

  // ---- AutoGrid: serial vs 8-thread z-slab fan-out ----------------
  const auto time_autogrid = [&](ThreadPool* pool) {
    using clock = std::chrono::steady_clock;
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = clock::now();
      benchmark::DoNotOptimize(
          fx_calc.calculate(fx.box, dock::screening_ligand_types(), pool));
      best = std::min(
          best, std::chrono::duration<double>(clock::now() - t0).count());
    }
    return best;
  };
  const double autogrid_serial_s = time_autogrid(nullptr);
  ThreadPool pool8(8);
  const double autogrid_8t_s = time_autogrid(&pool8);
  bench::print_compare(
      "AutoGrid map set (19 types)",
      strformat("%.0f ms serial", autogrid_serial_s * 1e3),
      strformat("%.0f ms @ 8 threads (%.1fx)", autogrid_8t_s * 1e3,
                autogrid_serial_s / autogrid_8t_s));
  // The z-slab fan-out can only show a wall-clock win on real cores.
  if (std::thread::hardware_concurrency() > 1) {
    gate(autogrid_8t_s <= 0.7 * autogrid_serial_s,
         "8-thread AutoGrid must be >= 30% faster than serial");
  } else {
    std::printf("(parallel AutoGrid gate skipped: single-core machine)\n");
  }

  // ---- Vina: grid-sampled vs direct evaluation --------------------
  // The search scores through the ligand's Vina maps; each chain's best
  // pose is rescored directly. Same poses, interleaved.
  const dock::GridMapSet vina_maps =
      dock::compute_vina_maps(fx.receptor.molecule, fx.ligand.molecule, fx.box);
  const dock::VinaEnergyModel vina_grid(vina_maps, fx.ligand, fx.box);
  const dock::VinaEnergyModel vina_direct(fx.receptor, fx.ligand, fx.box);
  std::vector<dock::DockPose> vina_poses;
  {
    Rng rng(29);
    for (int i = 0; i < 64; ++i) {
      vina_poses.push_back(dock::DockPose::random(
          fx.box, vina_direct.reference_center(),
          fx.ligand.torsions.torsion_count(), rng));
    }
  }
  const auto score_all = [&vina_poses](const dock::VinaEnergyModel& model) {
    double acc = 0.0;
    for (const dock::DockPose& pose : vina_poses) acc += model(pose);
    benchmark::DoNotOptimize(acc);
  };
  const std::vector<double> vina_ns = interleaved_ns_per_eval(
      vina_poses.size(), {[&] { score_all(vina_direct); },
                          [&] { score_all(vina_grid); }});
  bench::print_compare("Vina energy ns/eval",
                       strformat("%.0f direct", vina_ns[0]),
                       strformat("%.0f grid (%.1fx)", vina_ns[1],
                                 vina_ns[0] / vina_ns[1]));

  // ---- one AutoGrid sweep at 1, 3 and 9 channels ------------------
  // A sweep walks each grid point's receptor neighbours once and
  // accumulates every channel per hit. A line through the three costs
  // splits it into the walk (intercept) and per-channel work (slope).
  const std::vector<mol::AdType> nine_types(
      dock::screening_ligand_types().begin(),
      dock::screening_ligand_types().begin() + 9);
  const int sweep_channels[3] = {1, 3, 9};
  double sweep_ms[3];
  for (int k = 0; k < 3; ++k) {
    std::vector<std::size_t> slots(static_cast<std::size_t>(sweep_channels[k]));
    for (std::size_t s = 0; s < slots.size(); ++s) slots[s] = s;
    const double ns = ns_per_eval(1, [&] {
      dock::GridMapSet set = dock::GridMapSet::shaped(fx.box, nine_types);
      fx_calc.calculate_into(set, /*electrostatic_and_desolvation=*/false,
                             slots, {});
      benchmark::DoNotOptimize(set);
    });
    sweep_ms[k] = ns * 1e-6;
  }
  double mean_n = 0.0, mean_t = 0.0;
  for (int k = 0; k < 3; ++k) {
    mean_n += sweep_channels[k] / 3.0;
    mean_t += sweep_ms[k] / 3.0;
  }
  double sxy = 0.0, sxx = 0.0;
  for (int k = 0; k < 3; ++k) {
    sxy += (sweep_channels[k] - mean_n) * (sweep_ms[k] - mean_t);
    sxx += (sweep_channels[k] - mean_n) * (sweep_channels[k] - mean_n);
  }
  const double sweep_ms_per_channel = sxy / sxx;
  const double sweep_walk_ms = mean_t - sweep_ms_per_channel * mean_n;
  bench::print_compare(
      "AutoGrid sweep ms at 1/3/9 channels",
      strformat("%.1f/%.1f/%.1f", sweep_ms[0], sweep_ms[1], sweep_ms[2]),
      strformat("walk %.1f + %.2f per channel", sweep_walk_ms,
                sweep_ms_per_channel));

  // ---- pipeline A/B: grid-map reuse off vs on ---------------------
  // Small structures so the default 10 x 42 campaign stays quick; the
  // reuse machinery (canonical GPF -> shared lazily built map set) is
  // identical.
  core::ScidockOptions popts;
  popts.dataset.min_residues = 12;
  popts.dataset.max_residues = 30;
  popts.dataset.min_ligand_atoms = 8;
  popts.dataset.max_ligand_atoms = 14;
  popts.dataset.hg_fraction = 0.0;
  popts.ad4_params = {.ga_runs = 1, .ga_pop_size = 10, .ga_num_evals = 300,
                      .ga_num_generations = 10, .sw_max_its = 15};
  popts.vina_exhaustiveness = 1;
  popts.vina_steps_per_chain = 8;
  popts.grid_spacing = 0.8;  // coarser maps keep the reuse-off run quick
  const auto& all_receptors = data::table2_receptors();
  const auto& all_ligands = data::table2_ligands();
  const auto n_receptors = static_cast<std::size_t>(std::min(
      env_int("SCIDOCK_KERNEL_RECEPTORS", 10),
      static_cast<int>(all_receptors.size())));
  const auto n_ligands = static_cast<std::size_t>(
      std::min(env_int("SCIDOCK_KERNEL_LIGANDS", 42),
               static_cast<int>(all_ligands.size())));
  const std::vector<std::string> receptors(
      all_receptors.begin(),
      all_receptors.begin() + static_cast<std::ptrdiff_t>(n_receptors));
  const std::vector<std::string> ligands(
      all_ligands.begin(),
      all_ligands.begin() + static_cast<std::ptrdiff_t>(n_ligands));
  const int threads = 8;

  // One executor round, replicating core::run_native but keeping the
  // executor options so the chaos checker can reconcile the run. Map
  // sets are built by the AD4 activations, so the reuse A/B compares
  // map-building time: the summed autogrid-slab seconds.
  struct PipelineRun {
    std::size_t pairs = 0;
    std::size_t receptors = 0;       ///< distinct receptors screened
    std::size_t ad4_receptors = 0;   ///< receptors routed to AD4
    std::size_t map_sets_built = 0;  ///< distinct handles with any channel
    int channels_distinct = 0;       ///< channels held by those handles
    long long channels_built = 0;    ///< channels the sweeps computed
    double build_s = 0.0;            ///< summed slab seconds
    bool reconciled = false;
  };
  const auto run = [&](bool reuse, obs::MetricsRegistry& metrics) {
    core::ScidockOptions o = popts;
    o.reuse_grid_maps = reuse;
    auto exp = core::make_experiment(receptors, ligands, 0, o);
    PipelineRun r;
    r.pairs = exp.pairs.size();
    wf::NativeExecutorOptions xopts;
    xopts.threads = threads;
    xopts.expdir = o.expdir;
    xopts.obs = obs::Observability{nullptr, &metrics};
    exp.prov->set_metrics(&metrics);
    wf::NativeExecutor executor(exp.pipeline, *exp.fs, *exp.prov, xopts);
    const wf::NativeReport report = executor.run(exp.pairs, "kernel-bench");
    exp.prov->set_metrics(nullptr);

    std::set<std::string> screened, ad4_receptors;
    std::set<core::ArtifactCache::MapsPtr> built_sets;
    for (const wf::Tuple& t : exp.pairs.tuples()) {
      screened.insert(t.require("receptor"));
      if (t.require("engine") == "ad4") ad4_receptors.insert(t.require("receptor"));
      const auto maps = exp.cache->maps(o.expdir + "/autogrid/" +
                                        t.require("pair") + "/receptor");
      if (maps != nullptr && maps->channels_built() > 0) built_sets.insert(maps);
    }
    r.receptors = screened.size();
    r.ad4_receptors = ad4_receptors.size();
    r.map_sets_built = built_sets.size();
    r.channels_distinct = exp.cache->grid_channels_built();
    r.channels_built = metrics.counter_value(obs::kKernelAutogridChannels);
    r.build_s = metrics.histogram(obs::kKernelAutogridSlabSeconds).sum();

    chaos::InvariantChecker checker;
    const chaos::RunSummary summary = chaos::summarize(report, xopts, r.pairs);
    checker.check_metrics(summary, metrics, *exp.prov, "kernel-bench");
    if (!checker.ok()) std::printf("%s\n", checker.to_string().c_str());
    r.reconciled = checker.ok() &&
                   report.output.size() +
                           static_cast<std::size_t>(report.tuples_lost) ==
                       r.pairs;
    return r;
  };

  obs::MetricsRegistry off_metrics;
  const PipelineRun off = run(false, off_metrics);
  obs::MetricsRegistry metrics;
  const PipelineRun on = run(true, metrics);
  const std::size_t input_tuples = on.pairs;
  const long long hits = metrics.counter_value(obs::kCacheGridmapsHits);
  const long long misses = metrics.counter_value(obs::kCacheGridmapsMisses);
  const long long waits =
      metrics.counter_value(obs::kCacheGridmapsInflightWaits);
  const long long outcomes = hits + misses + waits;
  const double hit_rate =
      outcomes > 0
          ? 100.0 * static_cast<double>(hits + waits) /
                static_cast<double>(outcomes)
          : 0.0;
  const double stage_off = off.build_s;
  const double stage_on = on.build_s;
  const double reduction_pct = 100.0 * (1.0 - stage_on / stage_off);
  std::printf("\npipeline A/B: %zu pairs, %d threads\n", input_tuples,
              threads);
  bench::print_compare("map-building seconds (slabs)",
                       strformat("%.2f reuse off", stage_off),
                       strformat("%.2f reuse on (-%.0f%%)", stage_on,
                                 reduction_pct));
  bench::print_compare(
      "grid-map cache", strformat("%lld docking lookups", outcomes),
      strformat("%lld hit / %lld miss / %lld wait (%.1f%% hit rate)", hits,
                misses, waits, hit_rate));
  bench::print_compare(
      "channels built",
      strformat("%lld reuse off", off.channels_built),
      strformat("%lld reuse on, %d distinct, %zu map sets for %zu "
                "receptors (%zu AD4)",
                on.channels_built, on.channels_distinct, on.map_sets_built,
                on.receptors, on.ad4_receptors));
  gate(reduction_pct >= 30.0,
       "grid-map reuse must cut map-building time by >= 30%");
  // Map sets are built lazily, per channel, by the docking activations:
  // one per receptor (AD4 receptors build the AD4 family, Vina receptors
  // the Vina family), and each (receptor, channel) exactly once. A ligand
  // with a type its receptor's set lacks extends the set (another miss),
  // so the old per-activation "(pairs - receptors) / pairs" hit rate is
  // no longer what reuse attains; the per-channel count below is the
  // exact form of that gate.
  gate(outcomes > 0 && on.map_sets_built == on.receptors,
       "exactly one map set built per receptor");
  gate(on.channels_built > 0 &&
           on.channels_built == static_cast<long long>(on.channels_distinct),
       "each (receptor, channel) built exactly once");
  gate(on.reconciled && off.reconciled,
       "cache counters must reconcile with PROV-Wf");

  const std::string path = bench::write_bench_json(
      "kernels",
      {{"simd_backend",
        std::string("\"") + scidock::simd::backend_name() + "\""},
       {"simd_lane_width", strformat("%d", W)},
       {"ad4_pair_ns_analytic", strformat("%.2f", ad4_analytic_ns)},
       {"ad4_pair_ns_lut", strformat("%.2f", ad4_lut_ns)},
       {"ad4_pair_speedup", strformat("%.2f", ad4_speedup)},
       {"ad4_pair_ns_batch", strformat("%.2f", ad4_batch_ns)},
       {"ad4_pair_batch_speedup", strformat("%.2f", ad4_batch_speedup)},
       {"vina_pair_ns_analytic", strformat("%.2f", vina_analytic_ns)},
       {"vina_pair_ns_lut", strformat("%.2f", vina_lut_ns)},
       {"sample3_ns_separate", strformat("%.2f", unfused_ns)},
       {"sample3_ns_fused", strformat("%.2f", fused_ns)},
       {"sample3_ns_batch", strformat("%.2f", sample3_batch_ns)},
       {"sample3_batch_speedup", strformat("%.2f", sample3_batch_speedup)},
       {"autogrid_ms_serial", strformat("%.2f", autogrid_serial_s * 1e3)},
       {"autogrid_ms_8t", strformat("%.2f", autogrid_8t_s * 1e3)},
       {"autogrid_parallel_speedup",
        strformat("%.2f", autogrid_serial_s / autogrid_8t_s)},
       {"vina_energy_ns_direct", strformat("%.1f", vina_ns[0])},
       {"vina_energy_ns_grid", strformat("%.1f", vina_ns[1])},
       {"vina_grid_speedup", strformat("%.2f", vina_ns[0] / vina_ns[1])},
       {"sweep_ms_1_channel", strformat("%.2f", sweep_ms[0])},
       {"sweep_ms_3_channels", strformat("%.2f", sweep_ms[1])},
       {"sweep_ms_9_channels", strformat("%.2f", sweep_ms[2])},
       {"sweep_walk_ms", strformat("%.2f", sweep_walk_ms)},
       {"sweep_ms_per_channel", strformat("%.3f", sweep_ms_per_channel)},
       {"pipeline_pairs", strformat("%zu", input_tuples)},
       {"pipeline_map_build_s_reuse_off", strformat("%.3f", stage_off)},
       {"pipeline_map_build_s_reuse_on", strformat("%.3f", stage_on)},
       {"map_build_reduction_pct", strformat("%.1f", reduction_pct)},
       {"channels_built_reuse_off", strformat("%lld", off.channels_built)},
       {"channels_built_reuse_on", strformat("%lld", on.channels_built)},
       {"map_sets_built", strformat("%zu", on.map_sets_built)},
       {"receptors", strformat("%zu", on.receptors)},
       {"ad4_receptors", strformat("%zu", on.ad4_receptors)},
       {"cache_hits", strformat("%lld", hits)},
       {"cache_misses", strformat("%lld", misses)},
       {"cache_inflight_waits", strformat("%lld", waits)},
       {"cache_hit_rate_pct", strformat("%.2f", hit_rate)}});
  if (path.empty()) {
    std::printf("GATE FAILED: could not write BENCH_kernels.json\n");
    ++failures;
  } else {
    std::printf("\nwrote %s\n", path.c_str());
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_kernel_report();
}
