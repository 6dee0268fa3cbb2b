#pragma once

/// \file scidock.hpp
/// The SciDock workflow itself: the paper's eight activities implemented
/// over the mol/dock libraries and bound into a wf::Pipeline, plus the
/// Figure 2 XML definition.
///
/// Activity map (paper Figure 1):
///   1 babel         — SDF -> MOL2 conversion
///   2 prepligand    — MOL2 -> ligand PDBQT (charges, types, torsion tree)
///   3 prepreceptor  — PDB -> rigid receptor PDBQT (hangs on Hg upstream)
///   4 gpfprep       — grid parameter file from the PDBQT pair
///   5 autogrid      — coordinate/affinity maps
///   6 dockfilter    — size-based routing: AD4 (small) vs Vina (large)
///   7a dpfprep      — AD4 docking parameter file
///   7b confprep     — Vina configuration file
///   8a autodock4    — LGA docking over the maps, .dlg output
///   8b autodockvina — MC docking, Vina log output

#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/generator.hpp"
#include "dock/autogrid.hpp"
#include "dock/dpf.hpp"
#include "dock/grid.hpp"
#include "mol/prepare.hpp"
#include "util/thread_annotations.hpp"
#include "wf/pipeline.hpp"
#include "wf/workflow.hpp"

namespace scidock::core {

/// Which docking program handles each pair (paper §V.B scenarios).
enum class EngineMode {
  Adaptive,   ///< activity 6 routes by receptor size (SciDock's design)
  ForceAd4,   ///< Scenario I: the whole set through AutoDock 4
  ForceVina,  ///< Scenario II: the whole set through Vina
};

struct ScidockOptions {
  data::GeneratorOptions dataset{};
  EngineMode engine_mode = EngineMode::Adaptive;

  /// Search effort — defaults are deliberately small so native runs of
  /// hundreds of pairs finish in seconds; raise for higher-quality poses.
  dock::DockingParameterFile ad4_params{
      .ga_runs = 2, .ga_pop_size = 24, .ga_num_evals = 3000,
      .ga_num_generations = 60, .sw_max_its = 50};
  int vina_exhaustiveness = 3;
  int vina_steps_per_chain = 40;

  double grid_spacing = 0.55;   ///< Å; AutoGrid's default 0.375 is slower
  bool write_map_files = false; ///< also serialise .map files to the VFS
  /// Grid-map reuse (DESIGN.md §10): AutoGrid activations sharing a
  /// (receptor, box, type-set) key share one lazily built map set, and
  /// each of its channels is computed once. Off gives every pair its own
  /// set, as the paper's original workflow does; outputs are
  /// bit-identical either way.
  bool reuse_grid_maps = true;
  std::string expdir = "/root/exp_SciDock";
};

/// How a GridMaps::require call was satisfied. An AutoDock 4 or Vina
/// activation reports exactly one outcome, so summed over a run:
///   hits + misses + inflight_waits
///       == finished autodock4 + autodockvina activations.
enum class CacheOutcome {
  kHit,           ///< every channel asked for was already built
  kMiss,          ///< this caller built at least one channel
  kInflightWait,  ///< built nothing, but waited on another caller's sweep
};

/// One receptor/box's grid-map set, built on first use, channel by
/// channel (DESIGN.md §10). A channel is keyed by (scoring function,
/// ligand type). The AutoGrid activation only resolves the handle; each
/// docking activation require()s the channels its engine reads for its
/// ligand. A receptor routed to one engine therefore builds only that
/// engine's family, and a set holds only the types its docked ligands
/// use. Thread-safe.
class GridMaps {
 public:
  GridMaps(std::shared_ptr<const mol::PreparedReceptor> receptor,
           const dock::GridBox& box, const std::vector<mol::AdType>& types);

  /// Make sure the channels `function` reads for `types` are built: for
  /// kAd4 the electrostatic and desolvation maps and the affinity maps of
  /// `types`, for kVina the Vina maps of `types`. The missing ones are
  /// computed in one fused sweep with `options`; e and d come in the
  /// set's first AD4 sweep only. Single-flight per channel: a channel
  /// another caller is building is waited on, not rebuilt. If the sweep
  /// throws, its channels go back to unbuilt (a retry rebuilds them) and
  /// every caller waiting on them sees the exception. A type without a
  /// slot in the set is an error.
  CacheOutcome require(dock::ScoringFunction function,
                       const std::vector<mol::AdType>& types,
                       const dock::AutogridOptions& options = {});
  /// require() every AD4 channel of the set (the real AutoGrid's output).
  CacheOutcome require_all(const dock::AutogridOptions& options = {});

  /// The map set: box, one slot per type in each family, e and d. Only
  /// channels a completed require() covered hold values; read no other.
  const dock::GridMapSet& maps() const { return set_; }

  /// Channels built so far (e and d count one each).
  int channels_built();

 private:
  /// One sweep's handoff: the builder fulfils `done` once its channels
  /// are written; callers needing any of them block on `future`.
  struct Flight {
    std::promise<void> done;
    std::shared_future<void> future = done.get_future().share();
#if SCIDOCK_LOCKDEP_ENABLED
    /// ThreadPool the builder was a worker of (nullptr outside any pool);
    /// lets lockdep flag waiters from the same pool (DESIGN.md §11).
    const void* owner_pool = nullptr;
#endif
  };

  const std::shared_ptr<const mol::PreparedReceptor> receptor_;
  /// Unbuilt affinity maps stay empty; a sweep writes only its own
  /// channels, so concurrent sweeps over disjoint channels never touch
  /// the same map.
  dock::GridMapSet set_;
  Mutex mutex_{"scidock.gridmaps"};
  /// Channel 0 is e and d, channel 1 + s the affinity slot s and channel
  /// 1 + n + s the Vina slot s (n types): the sweep that builds (or
  /// built) it, nullptr while unbuilt.
  std::vector<std::shared_ptr<Flight>> flights_ SCIDOCK_GUARDED_BY(mutex_);
};

/// Shared in-process cache of expensive intermediates (prepared
/// structures and grid-map handles), keyed by file path. Plays the role
/// of a VM-local scratch cache over the shared filesystem. Thread-safe;
/// shared_ptr values so readers keep entries alive without copying.
class ArtifactCache {
 public:
  using MapsPtr = std::shared_ptr<GridMaps>;

  std::shared_ptr<const mol::PreparedLigand> ligand(const std::string& key);
  void put_ligand(const std::string& key, mol::PreparedLigand value);
  std::shared_ptr<const mol::PreparedReceptor> receptor(const std::string& key);
  void put_receptor(const std::string& key, mol::PreparedReceptor value);

  /// The map-set handle registered under `key` (a canonical key or an
  /// alias), or nullptr.
  MapsPtr maps(const std::string& key);
  /// The handle under `key`, registering a fresh one over (receptor, box,
  /// types) when there is none. Builds nothing.
  MapsPtr resolve_maps(const std::string& key,
                       std::shared_ptr<const mol::PreparedReceptor> receptor,
                       const dock::GridBox& box,
                       const std::vector<mol::AdType>& types);
  /// Register an additional name for an existing handle (the AutoGrid
  /// stage aliases its per-pair maps_prefix to the shared canonical set).
  void alias_maps(const std::string& key, MapsPtr value);
  /// Channels built over all distinct handles (e and d count one each).
  int grid_channels_built();

 private:
  Mutex mutex_{"scidock.cache"};
  std::unordered_map<std::string, std::shared_ptr<const mol::PreparedLigand>>
      ligands_ SCIDOCK_GUARDED_BY(mutex_);
  std::unordered_map<std::string, std::shared_ptr<const mol::PreparedReceptor>>
      receptors_ SCIDOCK_GUARDED_BY(mutex_);
  std::unordered_map<std::string, MapsPtr> maps_ SCIDOCK_GUARDED_BY(mutex_);
};

/// Build the runnable pipeline: all stages with native implementations,
/// routing, per-tuple workload scaling and the Hg hazard predicate. The
/// returned pipeline references `cache` and `opts` by value internally.
wf::Pipeline build_scidock_pipeline(const ScidockOptions& opts,
                                    std::shared_ptr<ArtifactCache> cache = nullptr);

std::shared_ptr<ArtifactCache> make_artifact_cache();

/// The static workflow definition matching the Figure 2 XML specification
/// (round-trips through wf::save_spec / wf::load_spec).
wf::WorkflowDef scidock_workflow_def(const ScidockOptions& opts = {});

/// Stage tags, exposed for benches/tests.
inline constexpr const char* kBabel = "babel";
inline constexpr const char* kPrepLigand = "prepligand";
inline constexpr const char* kPrepReceptor = "prepreceptor";
inline constexpr const char* kGpfPrep = "gpfprep";
inline constexpr const char* kAutogrid = "autogrid";
inline constexpr const char* kDockFilter = "dockfilter";
inline constexpr const char* kDpfPrep = "dpfprep";
inline constexpr const char* kConfPrep = "confprep";
inline constexpr const char* kAutodock4 = "autodock4";
inline constexpr const char* kAutodockVina = "autodockvina";

}  // namespace scidock::core
