#pragma once

/// \file vina.hpp
/// AutoDock Vina analog (Trott & Olson 2010): iterated-local-search
/// Monte Carlo with Metropolis acceptance and Solis-Wets refinement,
/// scored by the Vina empirical function. As in Vina 1.1.2 the search
/// samples precomputed per-type grid maps, and each chain's best pose is
/// rescored once by direct pairwise evaluation, so the reported affinity
/// is the exact Vina function of the reported pose. Independent chains
/// ("exhaustiveness") optionally run on a thread pool — Vina's headline
/// multithreading.

#include "dock/dpf.hpp"
#include "dock/engine.hpp"

namespace scidock::dock {

/// The Vina map of every type in vina_map_types(ligand), in one sweep,
/// over `search` grown by one grid point per side: the maps dock()
/// searches on.
GridMapSet compute_vina_maps(const mol::Molecule& receptor,
                             const mol::Molecule& ligand,
                             const GridBox& search);

class VinaEngine : public DockingEngine {
 public:
  explicit VinaEngine(VinaConfig config = {});

  std::string name() const override { return "Vina"; }

  /// compute_vina_maps for the ligand, then dock_with_maps.
  DockingResult dock(const mol::PreparedReceptor& receptor,
                     const mol::PreparedLigand& ligand, const GridBox& box,
                     Rng& rng) override;

  /// Search inside `box` on maps that already hold the Vina map of every
  /// type in vina_map_types(ligand) and cover the box (vina_grid_covers);
  /// `receptor` is read only to rescore the chains' best poses directly.
  DockingResult dock_with_maps(const GridMapSet& maps,
                               const mol::PreparedReceptor& receptor,
                               const mol::PreparedLigand& ligand,
                               const GridBox& box, Rng& rng);

  const VinaConfig& config() const { return config_; }

  /// Monte-Carlo steps per chain; exposed for tests/benches that need
  /// fast runs.
  int steps_per_chain = 200;
  /// Number of worker threads for the exhaustiveness chains (1 = serial).
  int threads = 1;

 private:
  VinaConfig config_;
};

/// Redocking refinement (paper SS V.D: top interactions "should be refined
/// and reinforced using alternative approaches, such as ... redocking"):
/// restart the search from a previously docked pose inside a tighter box
/// around it, at higher local-search effort. Only the pose's coordinates
/// are needed (e.g. read back from an `_out.pdbqt`): the search restarts
/// from the pose's centroid and re-derives orientation and torsions, so
/// the refined FEB can land on either side of the screening value — a
/// hit that survives refinement is "reinforced" in the paper's sense.
/// Scores by direct evaluation: one refinement builds no maps.
DockingResult redock(const mol::PreparedReceptor& receptor,
                     const mol::PreparedLigand& ligand,
                     const Conformation& pose, Rng& rng,
                     double box_half_extent = 6.0, int refinement_steps = 400);

}  // namespace scidock::dock
