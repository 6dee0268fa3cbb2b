#pragma once

/// \file energy.hpp
/// Energy models binding a (receptor, ligand) pair to a scalar objective
/// over DockPose. AD4 scores through precomputed grid maps; Vina scores
/// through its own per-type grid maps, or by direct pairwise evaluation
/// through a neighbour list (rescoring and redocking).

#include <memory>
#include <optional>
#include <vector>

#include "dock/autogrid.hpp"
#include "dock/conformation.hpp"
#include "dock/energy_lut.hpp"
#include "dock/grid.hpp"
#include "dock/pose_batch.hpp"
#include "dock/scoring.hpp"
#include "mol/prepare.hpp"
#include "util/aligned.hpp"

namespace scidock::dock {

/// AD4 grid-based objective. Holds references: the maps and ligand must
/// outlive the model.
class Ad4EnergyModel {
 public:
  Ad4EnergyModel(const GridMapSet& maps, const mol::PreparedLigand& ligand,
                 Ad4Weights weights = {});

  /// Receptor-ligand energy of explicit coordinates (map interpolation).
  double intermolecular(const std::vector<mol::Vec3>& coords) const;
  /// Ligand internal energy (pairwise, torsion-dependent).
  double intramolecular(const std::vector<mol::Vec3>& coords) const;

  /// Objective on a pose; also counts one energy evaluation.
  double operator()(const DockPose& pose) const;

  /// Batched objective through the SoA/SIMD path: applies the torsion
  /// tree per pose, packs a PoseBatch (kWidth poses per lane block) and
  /// evaluates the grid-sampling and intra-pair kernels lane-parallel.
  /// Counts one energy evaluation per pose. Lane-for-lane equivalent to
  /// operator() within the documented kernel tolerance (exact on backends
  /// without FMA contraction).
  std::vector<double> evaluate_batch(const std::vector<DockPose>& poses) const;

  /// Batched scoring with the inter/intra split the engines report.
  /// Does not count evaluations (reporting path, not search path).
  void score_batch(const std::vector<DockPose>& poses,
                   std::vector<double>* inter, std::vector<double>* intra) const;

  /// Reported FEB: best intermolecular + torsional entropy penalty
  /// (AD4's DeltaG = inter + tors * N_tors; intra cancels in the bound/
  /// unbound difference under the rigid-receptor approximation).
  double feb(double inter) const;

  std::vector<mol::Vec3> coords_for(const DockPose& pose) const;
  long long evaluations() const { return evaluations_; }
  const mol::Vec3& reference_center() const { return reference_center_; }

 private:
  /// Per-atom channel pointers and charge/solvation factors, precomputed
  /// once so the fused inner loop reads three maps through one
  /// TrilinearSampler without per-evaluation type lookups.
  struct AtomChannels {
    const GridMap* affinity;
    double charge;  ///< partial charge (electrostatic map factor)
    double solv;    ///< solpar + kQasp * |q| (desolvation map factor)
  };
  /// Intramolecular pair with everything distance-independent hoisted.
  struct IntraPair {
    int i, j;
    mol::AdType ti, tj;
    double qi, qj;
    double qq;    ///< qi * qj (Coulomb factor)
    double solv;  ///< symmetric solvation cross term
    const double* row;  ///< the pair's vdW/H-bond LUT channel
  };

  /// Apply the torsion tree per pose and repack into the SoA scratch.
  void pack_batch(const std::vector<DockPose>& poses) const;
  void intermolecular_batch(std::vector<double>& out) const;
  void intramolecular_batch(std::vector<double>& out) const;

  const GridMapSet& maps_;
  const mol::PreparedLigand& ligand_;
  Ad4Weights weights_;
  std::shared_ptr<const Ad4PairTables> tables_;
  std::vector<mol::Vec3> reference_coords_;
  mol::Vec3 reference_center_{};
  std::vector<AtomChannels> channels_;
  std::vector<IntraPair> intra_pairs_;
  mutable PoseBatch batch_;  ///< reused SoA scratch (same discipline as
                             ///< evaluations_: one model per thread)
  mutable long long evaluations_ = 0;
};

/// Margin, per side, by which a Vina map box encloses the search box, so
/// every atom inside the search box samples a full interpolation cell.
inline constexpr double kVinaGridMargin = 0.1;

/// The ligand atom types Vina maps are needed for: the non-hydrogen types
/// present (hydrogens carry no Vina terms). Sorted, no duplicates.
std::vector<mol::AdType> vina_map_types(const mol::Molecule& ligand);

/// The conf-file search box for maps over `grid`: the same centre, and on
/// each axis the largest extent in whole steps of the conf spacing (the
/// spacing VinaConfig::parse gives a box) that leaves kVinaGridMargin
/// per side.
GridBox vina_search_box(const GridBox& grid);

/// True when `grid` contains `search` with kVinaGridMargin on every side
/// (up to 1e-6 Å of rounding).
bool vina_grid_covers(const GridBox& grid, const GridBox& search);

/// Vina objective. The receptor-ligand term comes either from direct
/// pairwise evaluation over a neighbour list, or from the per-type Vina
/// maps of a GridMapSet sampled trilinearly, as Vina 1.1.2 searches on
/// its precomputed grid cache. Both forms pull atoms outside the search
/// box back with the same harmonic penalty, decided on the search box.
class VinaEnergyModel {
 public:
  /// Direct evaluation. Holds references: receptor-derived state is
  /// copied, the ligand must outlive the model.
  VinaEnergyModel(const mol::PreparedReceptor& receptor,
                  const mol::PreparedLigand& ligand, const GridBox& box,
                  VinaWeights weights = {});
  /// Grid evaluation over `maps`, which must hold the Vina map of every
  /// type in vina_map_types(ligand) over a box that vina_grid_covers()
  /// `box`. The maps carry the default Vina weights, so the model uses
  /// them too. The maps and ligand must outlive the model.
  VinaEnergyModel(const GridMapSet& maps, const mol::PreparedLigand& ligand,
                  const GridBox& box);

  double intermolecular(const std::vector<mol::Vec3>& coords) const;
  double intramolecular(const std::vector<mol::Vec3>& coords) const;
  double operator()(const DockPose& pose) const;

  /// Batched objective (see Ad4EnergyModel::evaluate_batch). The
  /// intramolecular term lane-parallelizes across poses, and so does the
  /// grid form of the intermolecular term; the direct form vectorizes over
  /// each atom's neighbour block instead. Equivalent to operator() within
  /// the documented kernel tolerance. Counts one energy evaluation per
  /// pose.
  std::vector<double> evaluate_batch(const std::vector<DockPose>& poses) const;

  /// Batched inter/intra scoring without touching the evaluation count.
  void score_batch(const std::vector<DockPose>& poses,
                   std::vector<double>* inter, std::vector<double>* intra) const;

  /// Vina's reported affinity from the best intermolecular energy.
  double feb(double inter) const;

  std::vector<mol::Vec3> coords_for(const DockPose& pose) const;
  long long evaluations() const { return evaluations_; }
  const mol::Vec3& reference_center() const { return reference_center_; }

 private:
  /// Intramolecular pair with the LUT channel hoisted: the type pair is
  /// fixed per pair, so the row pointer is resolved once at construction.
  struct VinaIntraPair {
    int i, j;
    const double* row;
  };

  /// The state both forms share (ligand, search box, intra pairs).
  VinaEnergyModel(const mol::PreparedLigand& ligand, const GridBox& box,
                  VinaWeights weights);

  /// Receptor-ligand term of ligand atom `i` inside the search box.
  double direct_term(int i, const mol::Vec3& p) const;
  double grid_term(int i, const mol::Vec3& p) const {
    const GridMap* map = atom_maps_[static_cast<std::size_t>(i)];
    if (map == nullptr) return 0.0;
    const TrilinearSampler s(maps_->box, p);
    return s.in_box() ? s.apply(*map) : GridMap::kOutOfBoxPenalty;
  }
  void intermolecular_grid_batch(std::vector<double>& out) const;
  void intramolecular_batch(std::vector<double>& out) const;

  const mol::PreparedLigand& ligand_;
  GridBox box_;
  mol::Aabb bounds_;  ///< box_.bounds(), hoisted out of the atom loop
  VinaWeights weights_;
  std::shared_ptr<const VinaPairTables> tables_;
  std::vector<mol::Vec3> reference_coords_;
  mol::Vec3 reference_center_{};
  /// Skip-type pairs (hydrogens) contribute zero at every distance, so
  /// they are pruned at construction rather than tested per evaluation.
  std::vector<VinaIntraPair> intra_pairs_;

  /// Grid form: the map set, and per ligand atom the Vina map of its
  /// type (nullptr for hydrogens). Null/empty in the direct form.
  const GridMapSet* maps_ = nullptr;
  std::vector<const GridMap*> atom_maps_;

  /// Direct form: the receptor neighbour list, and per ligand atom its
  /// LUT channel by receptor type (lig_rows_[a * kAdTypeCount + t] is the
  /// (ligand type of a, t) row), so the neighbour loop resolves a channel
  /// with one indexed load.
  std::optional<NeighborList> neighbors_;
  std::vector<const double*> lig_rows_;
  std::vector<int> rec_types_;  ///< receptor atom AdType as int, hoisted
  /// Neighbour-block scratch for the vectorized direct term: the (r²,
  /// channel) pairs of one ligand atom, padded to a lane multiple.
  mutable util::aligned_vector<double> d2_scratch_;
  mutable std::vector<const double*> row_scratch_;

  mutable PoseBatch batch_;     ///< reused SoA scratch (one model per thread)
  mutable long long evaluations_ = 0;
};

}  // namespace scidock::dock
