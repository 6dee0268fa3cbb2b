#include "scidock/scidock.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <unordered_map>

#include "dock/autodock4.hpp"
#include "dock/autogrid.hpp"
#include "dock/dlg.hpp"
#include "dock/energy.hpp"
#include "dock/vina.hpp"
#include "mol/io_mol2.hpp"
#include "mol/io_pdb.hpp"
#include "mol/io_pdbqt.hpp"
#include "mol/io_sdf.hpp"
#include "mol/prepare.hpp"
#include "scidock/analysis.hpp"
#include "util/error.hpp"
#include "util/thread_annotations.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace scidock::core {

using wf::ActivationContext;
using wf::Stage;
using wf::Tuple;

std::shared_ptr<const mol::PreparedLigand> ArtifactCache::ligand(
    const std::string& key) {
  MutexLock lock(mutex_);
  const auto it = ligands_.find(key);
  return it == ligands_.end() ? nullptr : it->second;
}

void ArtifactCache::put_ligand(const std::string& key, mol::PreparedLigand value) {
  MutexLock lock(mutex_);
  ligands_[key] = std::make_shared<mol::PreparedLigand>(std::move(value));
}

std::shared_ptr<const mol::PreparedReceptor> ArtifactCache::receptor(
    const std::string& key) {
  MutexLock lock(mutex_);
  const auto it = receptors_.find(key);
  return it == receptors_.end() ? nullptr : it->second;
}

void ArtifactCache::put_receptor(const std::string& key,
                                 mol::PreparedReceptor value) {
  MutexLock lock(mutex_);
  receptors_[key] = std::make_shared<mol::PreparedReceptor>(std::move(value));
}

ArtifactCache::MapsPtr ArtifactCache::maps(const std::string& key) {
  MutexLock lock(mutex_);
  const auto it = maps_.find(key);
  return it == maps_.end() ? nullptr : it->second;
}

ArtifactCache::MapsPtr ArtifactCache::resolve_maps(
    const std::string& key,
    std::shared_ptr<const mol::PreparedReceptor> receptor,
    const dock::GridBox& box, const std::vector<mol::AdType>& types) {
  MutexLock lock(mutex_);
  MapsPtr& slot = maps_[key];
  if (!slot) slot = std::make_shared<GridMaps>(std::move(receptor), box, types);
  return slot;
}

void ArtifactCache::alias_maps(const std::string& key, MapsPtr value) {
  MutexLock lock(mutex_);
  maps_[key] = std::move(value);
}

int ArtifactCache::grid_channels_built() {
  std::vector<MapsPtr> handles;
  {
    MutexLock lock(mutex_);
    for (const auto& [key, handle] : maps_) handles.push_back(handle);
  }
  std::sort(handles.begin(), handles.end());
  handles.erase(std::unique(handles.begin(), handles.end()), handles.end());
  int built = 0;
  for (const MapsPtr& handle : handles) built += handle->channels_built();
  return built;
}

GridMaps::GridMaps(std::shared_ptr<const mol::PreparedReceptor> receptor,
                   const dock::GridBox& box,
                   const std::vector<mol::AdType>& types)
    : receptor_(std::move(receptor)),
      set_(dock::GridMapSet::shaped(box, types)) {
  SCIDOCK_REQUIRE(receptor_ != nullptr, "grid maps need a prepared receptor");
  MutexLock lock(mutex_);
  flights_.resize(1 + 2 * types.size());
}

CacheOutcome GridMaps::require(dock::ScoringFunction function,
                               const std::vector<mol::AdType>& types,
                               const dock::AutogridOptions& options) {
  const bool ad4 = function == dock::ScoringFunction::kAd4;
  const std::size_t ntypes = set_.affinity.size();
  const std::size_t family_base = ad4 ? 1 : 1 + ntypes;
  std::vector<std::size_t> wanted;
  if (ad4) wanted.push_back(0);
  for (mol::AdType t : types) {
    std::size_t slot = 0;
    while (slot < ntypes && set_.affinity[slot].first != t) ++slot;
    SCIDOCK_REQUIRE(slot < ntypes, "the GPF has no map for ligand atom type " +
                                       std::string(mol::ad_type_name(t)));
    wanted.push_back(family_base + slot);
  }
  std::sort(wanted.begin(), wanted.end());
  wanted.erase(std::unique(wanted.begin(), wanted.end()), wanted.end());

  // Claim every unbuilt channel for one sweep of our own; remember the
  // other sweeps whose channels we read, and whether any is in flight.
  std::shared_ptr<Flight> mine;
  std::vector<std::size_t> claimed;
  std::vector<std::pair<std::shared_ptr<Flight>, bool>> others;  // in flight?
  {
    MutexLock lock(mutex_);
    for (std::size_t ch : wanted) {
      std::shared_ptr<Flight>& flight = flights_[ch];
      if (flight == nullptr) {
        if (mine == nullptr) {
          mine = std::make_shared<Flight>();
#if SCIDOCK_LOCKDEP_ENABLED
          mine->owner_pool = lockdep::current_pool();
#endif
        }
        flight = mine;
        claimed.push_back(ch);
      } else if (std::none_of(others.begin(), others.end(),
                              [&](const auto& o) { return o.first == flight; })) {
        const bool in_flight = flight->future.wait_for(std::chrono::seconds(0)) !=
                               std::future_status::ready;
        others.emplace_back(flight, in_flight);
      }
    }
  }

  CacheOutcome outcome = CacheOutcome::kHit;
  if (mine != nullptr) {
    try {
      bool with_ed = false;
      std::vector<std::size_t> slots, vina_slots;
      for (std::size_t ch : claimed) {
        if (ch == 0) {
          with_ed = true;
        } else if (ch <= ntypes) {
          slots.push_back(ch - 1);
        } else {
          vina_slots.push_back(ch - 1 - ntypes);
        }
      }
      dock::GridMapCalculator(receptor_->molecule, options)
          .calculate_into(set_, with_ed, slots, vina_slots);
      outcome = CacheOutcome::kMiss;
      // Everything the sweep wrote happens-before any caller that gets
      // the future: release on the flight, acquire after future.get().
      racer::on_hb_release(mine.get(), "scidock.gridmaps.single_flight");
      mine->done.set_value();
    } catch (...) {
      // Drop the partial maps while the channels are still ours. Callers
      // already holding the future see the exception; freeing the
      // channels lets the executor's retry (or a later tuple) rebuild.
      for (std::size_t ch : claimed) {
        if (ch == 0) {
          set_.electrostatic = dock::GridMap();
          set_.desolvation = dock::GridMap();
        } else if (ch <= ntypes) {
          set_.affinity[ch - 1].second = dock::GridMap();
        } else {
          set_.vina[ch - 1 - ntypes].second = dock::GridMap();
        }
      }
      mine->done.set_exception(std::current_exception());
      MutexLock lock(mutex_);
      for (std::size_t ch : claimed) flights_[ch] = nullptr;
      throw;
    }
  }
  for (const auto& [flight, in_flight] : others) {
    if (in_flight) {
      if (mine == nullptr) outcome = CacheOutcome::kInflightWait;
#if SCIDOCK_LOCKDEP_ENABLED
      lockdep::on_blocking_wait("scidock.gridmaps.single_flight",
                                flight->owner_pool,
                                std::source_location::current());
#endif
    }
    flight->future.get();  // blocks on in-flight sweeps; rethrows
    racer::on_hb_acquire(flight.get(), "scidock.gridmaps.single_flight");
  }
  return outcome;
}

CacheOutcome GridMaps::require_all(const dock::AutogridOptions& options) {
  std::vector<mol::AdType> types;
  for (const auto& [type, map] : set_.affinity) types.push_back(type);
  return require(dock::ScoringFunction::kAd4, types, options);
}

int GridMaps::channels_built() {
  MutexLock lock(mutex_);
  int built = 0;
  for (std::size_t ch = 0; ch < flights_.size(); ++ch) {
    const std::shared_ptr<Flight>& flight = flights_[ch];
    if (flight != nullptr && flight->future.wait_for(std::chrono::seconds(0)) ==
                                 std::future_status::ready) {
      built += ch == 0 ? 2 : 1;
    }
  }
  return built;
}

std::shared_ptr<ArtifactCache> make_artifact_cache() {
  return std::make_shared<ArtifactCache>();
}

namespace {

/// Load a prepared ligand, via cache when possible.
std::shared_ptr<const mol::PreparedLigand> load_ligand(
    std::shared_ptr<ArtifactCache> cache, ActivationContext& ctx,
    const std::string& path) {
  if (auto hit = cache->ligand(path)) return hit;
  const std::string text = ctx.fs->read(path);
  mol::PdbqtModel model = mol::read_pdbqt(text);
  model.molecule.infer_bonds_from_geometry();
  model.molecule.perceive(/*retype=*/false);
  mol::PreparedLigand prepared{std::move(model.molecule), std::move(model.torsions),
                               text};
  cache->put_ligand(path, std::move(prepared));
  return cache->ligand(path);
}

std::shared_ptr<const mol::PreparedReceptor> load_receptor(
    std::shared_ptr<ArtifactCache> cache, ActivationContext& ctx,
    const std::string& path) {
  if (auto hit = cache->receptor(path)) return hit;
  const std::string text = ctx.fs->read(path);
  mol::PdbqtModel model = mol::read_pdbqt(text);
  model.molecule.infer_bonds_from_geometry();
  model.molecule.perceive(/*retype=*/false);
  cache->put_receptor(path, mol::PreparedReceptor{std::move(model.molecule), text});
  return cache->receptor(path);
}

double tuple_workload(const Tuple& t) { return t.get_double("workload", 1.0); }

bool tuple_hg(const Tuple& t) { return t.get("hg").value_or("0") == "1"; }

std::string pair_dir(const ScidockOptions& opts, const char* stage,
                     const Tuple& t) {
  return opts.expdir + "/" + stage + "/" + t.require("pair") + "/";
}

/// Canonical single-flight key: receptor identity + exact box geometry +
/// sorted type set. Tuples agreeing on all three share one map set.
std::string gridmaps_cache_key(const std::string& receptor_pdbqt,
                               const dock::GridParameterFile& gpf) {
  std::string key = receptor_pdbqt;
  key += strformat("|%d,%d,%d|%.6f|%.6f,%.6f,%.6f", gpf.box.npts[0],
                   gpf.box.npts[1], gpf.box.npts[2], gpf.box.spacing,
                   gpf.box.center.x, gpf.box.center.y, gpf.box.center.z);
  std::vector<std::string> names;
  names.reserve(gpf.ligand_types.size());
  for (mol::AdType t : gpf.ligand_types) {
    names.emplace_back(mol::ad_type_name(t));
  }
  std::sort(names.begin(), names.end());
  for (const std::string& n : names) key += "|" + n;
  return key;
}

/// AutoGrid options for a sweep run by this activation. Kernel
/// observability: per-slab counter/histogram plus a trace span per slab,
/// so the trace shows the AutoGrid fan-out shape; the map-set and channel
/// counters are bumped per sweep, when it happens (a sweep whose
/// activation later fails still happened).
dock::AutogridOptions autogrid_options(const ActivationContext& ctx) {
  dock::AutogridOptions agopts;
  obs::MetricsRegistry* metrics = ctx.obs.metrics;
  obs::TraceRecorder* trace = ctx.obs.trace;
  if (metrics == nullptr && trace == nullptr) return agopts;
  obs::Counter* slabs = nullptr;
  obs::HistogramMetric* slab_seconds = nullptr;
  if (metrics != nullptr) {
    slabs = &metrics->counter(obs::kKernelAutogridSlabs);
    slab_seconds = &metrics->histogram(obs::kKernelAutogridSlabSeconds);
  }
  agopts.slab_observer = [slabs, slab_seconds, trace](int iz, double seconds) {
    if (slabs != nullptr) slabs->inc();
    if (slab_seconds != nullptr) slab_seconds->observe(seconds);
    if (trace != nullptr) {
      const double dur_us = seconds * 1e6;
      trace->complete_span("autogrid-slab", "kernel", trace->now_us() - dur_us,
                           dur_us, obs::current_thread_id(),
                           {{"iz", std::to_string(iz)}});
    }
  };
  agopts.sweep_observer = [metrics](int channels) {
    if (metrics == nullptr) return;
    metrics->counter(obs::kKernelAutogridMapsets).inc();
    metrics->counter(obs::kKernelAutogridChannels).inc(channels);
  };
  return agopts;
}

/// Count a docking activation's map-set outcome. Called last, after every
/// output landed: a faulted activation (chaos VFS writes) reruns and
/// counts only once, when it FINISHES — the invariant the PROV-Wf
/// reconciliation checks.
void count_cache_outcome(const ActivationContext& ctx, CacheOutcome outcome) {
  if (ctx.obs.metrics == nullptr) return;
  const char* name = outcome == CacheOutcome::kHit ? obs::kCacheGridmapsHits
                     : outcome == CacheOutcome::kMiss
                         ? obs::kCacheGridmapsMisses
                         : obs::kCacheGridmapsInflightWaits;
  ctx.obs.metrics->counter(name).inc();
}

}  // namespace

wf::Pipeline build_scidock_pipeline(const ScidockOptions& opts,
                                    std::shared_ptr<ArtifactCache> cache) {
  if (!cache) cache = make_artifact_cache();
  wf::Pipeline pipeline;
  const ScidockOptions o = opts;  // captured by value in every lambda

  // ---- 1. babel: SDF -> MOL2 ----
  pipeline.add_stage(Stage{
      kBabel, wf::AlgebraicOp::Map,
      [o](const Tuple& in, ActivationContext& ctx) {
        const std::string sdf = ctx.fs->read(in.require("ligand_file"));
        mol::Molecule lig = mol::read_sdf(sdf, in.require("ligand"));
        const std::string out_path =
            pair_dir(o, kBabel, in) + in.require("ligand") + ".mol2";
        ctx.emit_file(out_path, mol::write_mol2(lig));
        Tuple out = in;
        out.set("ligand_mol2", out_path);
        return std::vector<Tuple>{out};
      },
      nullptr, tuple_workload, nullptr});

  // ---- 2. prepare_ligand4 analog: MOL2 -> ligand PDBQT ----
  pipeline.add_stage(Stage{
      kPrepLigand, wf::AlgebraicOp::Map,
      [o, cache](const Tuple& in, ActivationContext& ctx) {
        mol::Molecule lig =
            mol::read_mol2(ctx.fs->read(in.require("ligand_mol2")),
                           in.require("ligand"));
        mol::PreparedLigand prepared = mol::prepare_ligand(std::move(lig));
        const std::string out_path =
            pair_dir(o, kPrepLigand, in) + in.require("ligand") + ".pdbqt";
        ctx.emit_file(out_path, prepared.pdbqt);
        ctx.emit_value("TORSDOF", prepared.torsions.torsion_count());
        cache->put_ligand(out_path, std::move(prepared));
        Tuple out = in;
        out.set("ligand_pdbqt", out_path);
        return std::vector<Tuple>{out};
      },
      nullptr, tuple_workload, nullptr});

  // ---- 3. prepare_receptor4 analog: PDB -> rigid PDBQT ----
  pipeline.add_stage(Stage{
      kPrepReceptor, wf::AlgebraicOp::Map,
      [o, cache](const Tuple& in, ActivationContext& ctx) {
        // One receptor file serves many pairs; keep a single canonical
        // PDBQT per receptor rather than one per pair.
        const std::string out_path =
            o.expdir + "/" + kPrepReceptor + "/" + in.require("receptor") + ".pdbqt";
        if (!cache->receptor(out_path)) {
          mol::Molecule rec =
              mol::read_pdb(ctx.fs->read(in.require("receptor_file")),
                            in.require("receptor"));
          mol::PreparedReceptor prepared = mol::prepare_receptor(std::move(rec));
          ctx.emit_file(out_path, prepared.pdbqt);
          cache->put_receptor(out_path, std::move(prepared));
        }
        Tuple out = in;
        out.set("receptor_pdbqt", out_path);
        return std::vector<Tuple>{out};
      },
      nullptr, tuple_workload, tuple_hg});

  // ---- 4. GPF preparation ----
  pipeline.add_stage(Stage{
      kGpfPrep, wf::AlgebraicOp::Map,
      [o, cache](const Tuple& in, ActivationContext& ctx) {
        const auto rec = load_receptor(cache, ctx, in.require("receptor_pdbqt"));
        const auto lig =
            load_ligand(cache, ctx, in.require("ligand_pdbqt"));
        // The screening GPF canonicalises the box (floored + quantised
        // half-extent) and widens the type set to every supported type,
        // so all ligands of one receptor share one GPF — the property
        // grid-map reuse keys on. Applied regardless of reuse_grid_maps
        // so cache on/off produce identical files.
        dock::GridParameterFile gpf =
            dock::make_screening_gpf(rec->molecule, lig->molecule,
                                     /*box_padding=*/4.0, o.grid_spacing);
        const std::string out_path = pair_dir(o, kGpfPrep, in) + "grid.gpf";
        ctx.emit_file(out_path, gpf.to_text());
        Tuple out = in;
        out.set("gpf_file", out_path);
        return std::vector<Tuple>{out};
      },
      nullptr, tuple_workload, nullptr});

  // ---- 5. AutoGrid ----
  pipeline.add_stage(Stage{
      kAutogrid, wf::AlgebraicOp::Map,
      [o, cache](const Tuple& in, ActivationContext& ctx) {
        const std::string gpf_path = in.require("gpf_file");
        const dock::GridParameterFile gpf =
            dock::GridParameterFile::parse(ctx.fs->read(gpf_path));
        const auto rec = load_receptor(cache, ctx, in.require("receptor_pdbqt"));

        // The map set is a handle built on first use: the AD4 activations
        // build the channels their ligands read (DESIGN.md §10), so this
        // activation computes nothing unless the map files are outputs.
        ArtifactCache::MapsPtr maps =
            o.reuse_grid_maps
                ? cache->resolve_maps(
                      gridmaps_cache_key(in.require("receptor_pdbqt"), gpf),
                      rec, gpf.box, gpf.ligand_types)
                : std::make_shared<GridMaps>(rec, gpf.box, gpf.ligand_types);
        if (o.write_map_files) {
          maps->require_all(autogrid_options(ctx));
        }

        const std::string prefix = pair_dir(o, kAutogrid, in) + "receptor";
        // The field file always lands on the shared FS (it is what the DPF
        // references); the bulky per-type maps only when asked.
        const dock::GridMapSet& set = maps->maps();
        std::string fld = strformat(
            "# scidock maps field file\nspacing %.4f\nnmaps %d\n",
            gpf.box.spacing, set.file_count());
        for (const auto& [type, map] : set.affinity) {
          fld += "map receptor." + std::string(mol::ad_type_name(type)) + ".map\n";
          if (o.write_map_files) {
            ctx.emit_file(prefix + "." + std::string(mol::ad_type_name(type)) + ".map",
                          map.to_map_file());
          }
        }
        if (o.write_map_files) {
          ctx.emit_file(prefix + ".e.map", set.electrostatic.to_map_file());
          ctx.emit_file(prefix + ".d.map", set.desolvation.to_map_file());
        }
        ctx.emit_file(prefix + ".maps.fld", fld);
        // The AD4 stage looks maps up by the per-pair prefix it reads from
        // the DPF; alias that name to the shared handle (no copy).
        cache->alias_maps(prefix, std::move(maps));
        Tuple out = in;
        out.set("maps_prefix", prefix);
        return std::vector<Tuple>{out};
      },
      nullptr, tuple_workload, nullptr});

  // ---- 6. docking filter: size-based engine routing ----
  const EngineMode mode = o.engine_mode;
  pipeline.add_stage(Stage{
      kDockFilter, wf::AlgebraicOp::Filter,
      [o, mode](const Tuple& in, ActivationContext&) {
        Tuple out = in;
        std::string engine;
        switch (mode) {
          case EngineMode::ForceAd4: engine = "ad4"; break;
          case EngineMode::ForceVina: engine = "vina"; break;
          case EngineMode::Adaptive: {
            const int residues = static_cast<int>(
                parse_int(in.require("residues"), "residues"));
            engine = residues > data::vina_size_threshold(o.dataset) ? "vina"
                                                                     : "ad4";
            break;
          }
        }
        out.set("engine", engine);
        return std::vector<Tuple>{out};
      },
      [](const Tuple& t) {
        return t.require("engine") == "vina" ? std::string(kConfPrep)
                                             : std::string(kDpfPrep);
      },
      tuple_workload, nullptr});

  // ---- 7a. DPF preparation (AD4 path) ----
  pipeline.add_stage(Stage{
      kDpfPrep, wf::AlgebraicOp::Map,
      [o](const Tuple& in, ActivationContext& ctx) {
        dock::DockingParameterFile dpf = o.ad4_params;
        dpf.ligand_file = in.require("ligand_pdbqt");
        dpf.receptor_maps_prefix = in.require("maps_prefix");
        dpf.seed = fnv1a64(in.require("pair")) & 0x7fffffffffffffffULL;
        const std::string out_path = pair_dir(o, kDpfPrep, in) + "dock.dpf";
        ctx.emit_file(out_path, dpf.to_text());
        Tuple out = in;
        out.set("dpf_file", out_path);
        return std::vector<Tuple>{out};
      },
      [](const Tuple&) { return std::string(kAutodock4); },
      tuple_workload, nullptr});

  // ---- 7b. Vina configuration (Vina path) ----
  pipeline.add_stage(Stage{
      kConfPrep, wf::AlgebraicOp::Map,
      [o](const Tuple& in, ActivationContext& ctx) {
        const dock::GridParameterFile gpf =
            dock::GridParameterFile::parse(ctx.fs->read(in.require("gpf_file")));
        dock::VinaConfig cfg;
        cfg.receptor_file = in.require("receptor_pdbqt");
        cfg.ligand_file = in.require("ligand_pdbqt");
        // The search box sits inside the GPF box, whose map set the Vina
        // activation samples, with a margin (DESIGN.md §10).
        cfg.box = dock::vina_search_box(gpf.box);
        cfg.exhaustiveness = o.vina_exhaustiveness;
        cfg.seed = fnv1a64(in.require("pair")) & 0x7fffffffffffffffULL;
        const std::string out_path = pair_dir(o, kConfPrep, in) + "conf.txt";
        ctx.emit_file(out_path, cfg.to_text());
        Tuple out = in;
        out.set("conf_file", out_path);
        return std::vector<Tuple>{out};
      },
      [](const Tuple&) { return std::string(kAutodockVina); },
      tuple_workload, nullptr});

  // ---- 8a. AutoDock 4 ----
  pipeline.add_stage(Stage{
      kAutodock4, wf::AlgebraicOp::Map,
      [o, cache](const Tuple& in, ActivationContext& ctx) {
        const dock::DockingParameterFile dpf =
            dock::DockingParameterFile::parse(ctx.fs->read(in.require("dpf_file")));
        const auto lig = load_ligand(cache, ctx, dpf.ligand_file);
        const auto maps = cache->maps(dpf.receptor_maps_prefix);
        SCIDOCK_REQUIRE(maps != nullptr,
                        "AutoGrid maps not found for " + dpf.receptor_maps_prefix);
        // Build (or wait for) the channels this ligand reads.
        const CacheOutcome outcome =
            maps->require(dock::ScoringFunction::kAd4,
                          lig->molecule.ad_types_present(), autogrid_options(ctx));
        dock::Autodock4Engine engine(dpf);
        Rng rng(dpf.seed);
        dock::DockingResult result =
            engine.dock_with_maps(maps->maps(), *lig, rng);
        result.receptor_name = in.require("receptor");

        const std::string out_path =
            pair_dir(o, kAutodock4, in) +
            in.require("ligand") + "_" + in.require("receptor") + ".dlg";
        ctx.emit_file(out_path, dock::write_dlg(result));
        const double feb = result.empty() ? 0.0 : result.best().feb;
        // AD4's RMSD table is measured against the input reference frame.
        const double rmsd = result.mean_rmsd();
        // Racer determinism digest: the per-pair score is a slot in the
        // campaign-wide FEB reduction — any schedule- or thread-count-
        // dependence in the bit pattern is an RC004 with this pair named.
        racer::on_reduction("dock.score.feb",
                            fnv1a64(in.require("pair")) ^ fnv1a64(kAutodock4),
                            std::bit_cast<std::uint64_t>(feb) +
                                0x9e3779b97f4a7c15ULL *
                                    std::bit_cast<std::uint64_t>(rmsd));
        ctx.emit_value("FEB", feb, "kcal/mol");
        ctx.emit_value("RMSD", rmsd, "A");
        count_cache_outcome(ctx, outcome);
        Tuple out = in;
        out.set("dlg_file", out_path);
        out.set("feb", strformat("%.4f", feb));
        out.set("rmsd", strformat("%.4f", rmsd));
        return std::vector<Tuple>{out};
      },
      [](const Tuple&) { return std::string(wf::kEndOfPipeline); },
      tuple_workload, nullptr});

  // ---- 8b. AutoDock Vina ----
  pipeline.add_stage(Stage{
      kAutodockVina, wf::AlgebraicOp::Map,
      [o, cache](const Tuple& in, ActivationContext& ctx) {
        const dock::VinaConfig cfg =
            dock::VinaConfig::parse(ctx.fs->read(in.require("conf_file")));
        const auto rec = load_receptor(cache, ctx, cfg.receptor_file);
        const auto lig = load_ligand(cache, ctx, cfg.ligand_file);
        const auto maps = cache->maps(in.require("maps_prefix"));
        SCIDOCK_REQUIRE(maps != nullptr,
                        "AutoGrid maps not found for " + in.require("maps_prefix"));
        // Build (or wait for) the Vina maps of this ligand's heavy types.
        const CacheOutcome outcome =
            maps->require(dock::ScoringFunction::kVina,
                          dock::vina_map_types(lig->molecule), autogrid_options(ctx));
        dock::VinaEngine engine(cfg);
        engine.steps_per_chain = o.vina_steps_per_chain;
        Rng rng(cfg.seed);
        dock::DockingResult result =
            engine.dock_with_maps(maps->maps(), *rec, *lig, cfg.box, rng);

        const std::string out_path =
            pair_dir(o, kAutodockVina, in) +
            in.require("ligand") + "_" + in.require("receptor") + ".log";
        ctx.emit_file(out_path, dock::write_vina_log(result));
        // Vina also writes the docked conformations back as PDBQT models
        // ("a new version of the PDBQT file with the binding information").
        if (!result.empty()) {
          ctx.emit_file(pair_dir(o, kAutodockVina, in) +
                            in.require("ligand") + "_" +
                            in.require("receptor") + "_out.pdbqt",
                        dock::write_poses_pdbqt(*lig, result));
        }
        const double feb = result.empty() ? 0.0 : result.best().feb;
        // Vina's mode table reports distances *between modes*, not against
        // the reference frame; the extractor therefore records the mean
        // displacement from the best mode (this is why Table 3's Vina RMSD
        // column is an order of magnitude below AD4's).
        double rmsd = 0.0;
        if (result.conformations.size() > 1) {
          for (std::size_t i = 1; i < result.conformations.size(); ++i) {
            rmsd += mol::rmsd(result.conformations[i].coords,
                              result.conformations[0].coords);
          }
          rmsd /= static_cast<double>(result.conformations.size() - 1);
        }
        racer::on_reduction("dock.score.feb",
                            fnv1a64(in.require("pair")) ^ fnv1a64(kAutodockVina),
                            std::bit_cast<std::uint64_t>(feb) +
                                0x9e3779b97f4a7c15ULL *
                                    std::bit_cast<std::uint64_t>(rmsd));
        ctx.emit_value("FEB", feb, "kcal/mol");
        ctx.emit_value("RMSD", rmsd, "A");
        count_cache_outcome(ctx, outcome);
        Tuple out = in;
        out.set("dlg_file", out_path);
        out.set("feb", strformat("%.4f", feb));
        out.set("rmsd", strformat("%.4f", rmsd));
        return std::vector<Tuple>{out};
      },
      [](const Tuple&) { return std::string(wf::kEndOfPipeline); },
      tuple_workload, nullptr});

  std::vector<std::string> schema;
  for (const RelationField& f : output_relation_schema()) schema.push_back(f.name);
  pipeline.set_output_schema(std::move(schema));
  return pipeline;
}

wf::WorkflowDef scidock_workflow_def(const ScidockOptions& opts) {
  wf::WorkflowDef def;
  def.tag = "SciDock";
  def.description = "Docking";
  def.exec_tag = "scidock";
  def.expdir = opts.expdir + "/";
  def.database.server = "ec2-50-17-107-164.compute-1.amazonaws.com";

  const char* tags[] = {kBabel, kPrepLigand, kPrepReceptor, kGpfPrep,
                        kAutogrid, kDockFilter, kDpfPrep, kConfPrep,
                        kAutodock4, kAutodockVina};
  int rel = 0;
  for (const char* tag : tags) {
    wf::ActivityDef act;
    act.tag = tag;
    act.op = std::string(tag) == kDockFilter ? wf::AlgebraicOp::Filter
                                             : wf::AlgebraicOp::Map;
    act.template_dir = def.expdir + "template_" + tag + "/";
    act.activation_command = "./experiment.cmd";
    act.relations.push_back(wf::RelationDef{
        "rel_in_" + std::to_string(rel), "input_" + std::to_string(rel) + ".txt",
        true});
    act.relations.push_back(wf::RelationDef{
        "rel_in_" + std::to_string(rel + 1),
        "output_" + std::to_string(rel) + ".txt", false});
    def.activities.push_back(std::move(act));
    ++rel;
  }
  return def;
}

}  // namespace scidock::core
