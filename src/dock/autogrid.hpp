#pragma once

/// \file autogrid.hpp
/// Grid-map generation — SciDock activity 5 (AutoGrid 4 analog).
///
/// For every ligand atom type present, the calculator samples the summed
/// receptor interaction on each grid point: a type-specific vdW/H-bond
/// affinity map, a unit-charge electrostatic map and a desolvation map.
/// AutoDock 4 then scores poses by trilinear interpolation into these maps.
/// The same sweep fills Vina's per-type maps (the full Vina pair term of a
/// probe atom), which the Vina search samples the same way.
///
/// The per-point kernel reads the radial LUTs (energy_lut.hpp) indexed by
/// squared distance, and the z-slab loop optionally fans out over a
/// ThreadPool. Each slab writes a disjoint range of every map, so the
/// result is bit-identical for any thread count. A sweep may compute any
/// subset of a map set's channels (calculate_into), which is how lazily
/// built map sets add only the types their ligands use.

#include <functional>

#include "dock/energy_lut.hpp"
#include "dock/grid.hpp"
#include "dock/scoring.hpp"
#include "mol/molecule.hpp"

namespace scidock {

class ThreadPool;

namespace dock {

struct AutogridOptions {
  double cutoff = 8.0;  ///< Å interaction cutoff (AutoGrid's NBC)
  Ad4Weights weights{};
  /// Called after each z-slab finishes with (slab index, wall seconds).
  /// Invoked from pool workers when calculate() runs parallel, so it must
  /// be thread-safe; the scidock AutoGrid stage installs one that feeds
  /// the obs metrics/trace layer.
  std::function<void(int iz, double seconds)> slab_observer;
  /// Called once after each sweep completes, with the number of channels
  /// it computed (e and d count one each).
  std::function<void(int channels)> sweep_observer;
};

class GridMapCalculator {
 public:
  /// `receptor` must be prepared (typed + charged).
  GridMapCalculator(const mol::Molecule& receptor, AutogridOptions opts = {});

  /// Compute maps over `box` for the given ligand atom types. With a
  /// `pool`, z-slabs are chunked across its workers; per-slab writes are
  /// disjoint, so output is bit-identical to the serial path.
  GridMapSet calculate(const GridBox& box,
                       const std::vector<mol::AdType>& ligand_types,
                       ThreadPool* pool = nullptr) const;

  /// Compute a subset of the channels of `set` (shaped by
  /// GridMapSet::shaped) in one fused sweep: the electrostatic and
  /// desolvation maps when `electrostatic_and_desolvation`, the AD4
  /// affinity maps at `slots` (indices into set.affinity) and the Vina
  /// maps at `vina_slots` (indices into set.vina). Only those maps are
  /// written, each allocated here; every channel accumulates on its own,
  /// so a subset is bit-equal to the same maps of the all-types sweep of
  /// its family. Concurrent calls on one set are safe when their channels
  /// are disjoint.
  void calculate_into(GridMapSet& set, bool electrostatic_and_desolvation,
                      const std::vector<std::size_t>& slots,
                      const std::vector<std::size_t>& vina_slots,
                      ThreadPool* pool = nullptr) const;

 private:
  const mol::Molecule& receptor_;
  AutogridOptions opts_;
  std::shared_ptr<const Ad4PairTables> tables_;
  std::shared_ptr<const VinaPairTables> vina_tables_;
  NeighborList neighbors_;
  /// Receptor-side factors hoisted out of the per-point kernel, indexed
  /// by atom: partial charge (electrostatic map) and the type's volume
  /// (desolvation map).
  std::vector<double> charge_;
  std::vector<double> volume_;
  std::vector<mol::AdType> type_;
};

/// The Grid Parameter File (activity 4 output): the text AutoGrid consumes.
/// Mirrors the real GPF keywords the paper's workflow templates carry.
struct GridParameterFile {
  GridBox box;
  std::vector<mol::AdType> ligand_types;
  std::string receptor_file;
  std::string ligand_file;

  std::string to_text() const;
  static GridParameterFile parse(std::string_view text);
};

/// Activity 4: derive the GPF from a prepared receptor + ligand pair.
/// The box is centred on the receptor's binding pocket (approximated by
/// the receptor centroid) and sized to the ligand's gyration radius.
GridParameterFile make_gpf(const mol::Molecule& receptor,
                           const mol::Molecule& ligand,
                           double box_padding = 6.0, double spacing = 0.375);

/// Screening-campaign variant of make_gpf: the box half-extent is raised
/// to at least `min_half_extent` and rounded up to a multiple of
/// `quantum`, and the type set covers every supported AutoDock type. Any
/// drug-like ligand of the campaign then maps to the *same* GPF for a
/// given receptor, which is what makes receptor-level grid-map reuse
/// (core::ArtifactCache::resolve_maps) hit across ligands.
GridParameterFile make_screening_gpf(const mol::Molecule& receptor,
                                     const mol::Molecule& ligand,
                                     double box_padding = 6.0,
                                     double spacing = 0.375,
                                     double min_half_extent = 12.0,
                                     double quantum = 4.0);

/// All supported AutoDock types (the screening GPF's ligand_types).
const std::vector<mol::AdType>& screening_ligand_types();

}  // namespace dock
}  // namespace scidock
