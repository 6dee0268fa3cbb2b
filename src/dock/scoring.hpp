#pragma once

/// \file scoring.hpp
/// The two empirical scoring functions: AutoDock 4's free-energy model
/// (Huey et al. 2007 weights) and Vina's (Trott & Olson 2010), plus the
/// receptor neighbour list both engines use for direct evaluation.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "mol/atom_typing.hpp"
#include "mol/geometry.hpp"
#include "mol/molecule.hpp"

namespace scidock::dock {

/// Distance-dependent dielectric of Mehler & Solmajer (AD4's electrostatic
/// screening model).
double mehler_solmajer_dielectric(double r);

// ---------------------------------------------------------------------
// AutoDock 4 terms
// ---------------------------------------------------------------------

/// AD4.1 free-energy weights.
struct Ad4Weights {
  double vdw = 0.1662;
  double hbond = 0.1209;
  double estat = 0.1406;
  double desolv = 0.1322;
  double tors = 0.2983;  ///< kcal/mol per torsional degree of freedom
};

/// Pairwise AD4 interaction between two typed atoms at distance r (Å):
/// LJ 12-6 (or 12-10 hydrogen bond), screened Coulomb and Gaussian-weighted
/// desolvation. Charges in e units. Energies kcal/mol, pre-weighting
/// applied (i.e. this returns the weighted sum the engine adds up).
double ad4_pair_energy(mol::AdType ti, double qi, mol::AdType tj, double qj,
                       double r, const Ad4Weights& w = {});

/// Smoothed/clamped LJ-like well used for both the pairwise and grid paths;
/// exposed for tests.
double ad4_vdw_hbond(mol::AdType ti, mol::AdType tj, double r,
                     const Ad4Weights& w);

// ---------------------------------------------------------------------
// Vina terms
// ---------------------------------------------------------------------

struct VinaWeights {
  double gauss1 = -0.035579;
  double gauss2 = -0.005156;
  double repulsion = 0.840245;
  double hydrophobic = -0.035069;
  double hbond = -0.587439;
  double rot = 0.05846;  ///< torsion-count penalty in the FEB conversion
};

/// Vina pairwise term on the *surface distance*
/// d = r - (radius_i + radius_j); atoms with `skip` (hydrogens) contribute 0.
double vina_pair_energy(mol::AdType ti, mol::AdType tj, double r,
                        const VinaWeights& w = {});

/// Vina's conversion from raw intermolecular energy to reported affinity:
/// E / (1 + w_rot * N_rot).
double vina_affinity(double intermolecular_energy, int n_rot,
                     const VinaWeights& w = {});

// ---------------------------------------------------------------------
// Receptor neighbour list
// ---------------------------------------------------------------------

/// Immutable cell list over receptor atoms supporting fixed-radius
/// neighbour queries; shared by AutoGrid map generation and Vina's direct
/// evaluation. Cell edge equals the query cutoff so a 27-cell scan is
/// sufficient. The cells form a dense CSR grid over the receptor's cell
/// bounds: a query indexes its 27 cells directly (no hashing) and skips
/// the ones outside the bounds. Cells are visited in (dx, dy, dz) order
/// and atoms in ascending index within a cell, so every caller's
/// accumulation order is fixed.
class NeighborList {
 public:
  NeighborList(const mol::Molecule& receptor, double cutoff);

  double cutoff() const { return cutoff_; }

  /// Invoke `fn(atom_index, distance_sq)` for every receptor atom within
  /// the cutoff of `p`.
  template <typename F>
  void for_each_within(const mol::Vec3& p, F&& fn) const {
    // Cell coordinates relative to the grid's first cell, in doubles
    // until the range check so a far-away point cannot overflow the cast.
    const double fx = std::floor(p.x / cutoff_) - lo_[0];
    const double fy = std::floor(p.y / cutoff_) - lo_[1];
    const double fz = std::floor(p.z / cutoff_) - lo_[2];
    if (fx < -1.0 || fy < -1.0 || fz < -1.0 || fx > dims_[0] ||
        fy > dims_[1] || fz > dims_[2]) {
      return;  // no cell of the 27 lies inside the grid
    }
    visit_cells(static_cast<int>(fx), static_cast<int>(fy),
                static_cast<int>(fz), [&](int idx) {
                  const double d2 = mol::distance_sq(
                      positions_[static_cast<std::size_t>(idx)], p);
                  if (d2 <= cutoff_sq_) fn(idx, d2);
                });
  }

  /// Row query for grid sweeps: for each ix in [0, n), the point
  /// p = {x0 + ix * dx, y, z}. Calls `fn(ix, atom_index, distance_sq)`
  /// with, for every ix in turn, exactly the sequence for_each_within(p)
  /// produces. Consecutive points in one cell share one scan of their 27
  /// cells, kept to the atoms within the cutoff of the points' span, so
  /// each point tests a few dozen candidates instead of every atom of
  /// the 27 cells.
  template <typename F>
  void for_each_within_row(double x0, double dx, int n, double y, double z,
                           F&& fn) const {
    const double fy = std::floor(y / cutoff_) - lo_[1];
    const double fz = std::floor(z / cutoff_) - lo_[2];
    if (fy < -1.0 || fz < -1.0 || fy > dims_[1] || fz > dims_[2]) return;
    const int cy = static_cast<int>(fy);
    const int cz = static_cast<int>(fz);
    std::vector<int> candidates;
    int ix = 0;
    while (ix < n) {
      const double fx = std::floor((x0 + ix * dx) / cutoff_) - lo_[0];
      int end = ix + 1;
      while (end < n && std::floor((x0 + end * dx) / cutoff_) - lo_[0] == fx) {
        ++end;
      }
      if (fx >= -1.0 && fx <= dims_[0]) {
        // The run's points span [xa, xb] on the row; an atom farther than
        // the cutoff from that segment fails every point's test, so
        // dropping it leaves each point's sequence unchanged. The slack
        // keeps rounding from dropping an atom at the boundary.
        const double xa = x0 + ix * dx;
        const double xb = x0 + (end - 1) * dx;
        const double bound = cutoff_sq_ * (1.0 + 1e-12) + 1e-12;
        candidates.clear();
        const int cx = static_cast<int>(fx);
        visit_cells(cx, cy, cz, [&](int idx) {
          const mol::Vec3& a = positions_[static_cast<std::size_t>(idx)];
          const double ex = a.x < xa ? xa - a.x : a.x > xb ? a.x - xb : 0.0;
          const double ey = a.y - y;
          const double ez = a.z - z;
          if (ex * ex + ey * ey + ez * ez <= bound) candidates.push_back(idx);
        });
        for (int k = ix; k < end; ++k) {
          const mol::Vec3 p{x0 + k * dx, y, z};
          for (int idx : candidates) {
            const double d2 =
                mol::distance_sq(positions_[static_cast<std::size_t>(idx)], p);
            if (d2 <= cutoff_sq_) fn(k, idx, d2);
          }
        }
      }
      ix = end;
    }
  }

  int atom_count() const { return static_cast<int>(positions_.size()); }

 private:
  /// Every atom of the up to 27 in-grid cells around cell (cx, cy, cz)
  /// (grid-relative), in (dx, dy, dz) order, ascending within a cell.
  template <typename F>
  void visit_cells(int cx, int cy, int cz, F&& fn) const {
    for (int x = cx - 1; x <= cx + 1; ++x) {
      if (x < 0 || x >= dims_[0]) continue;
      for (int y = cy - 1; y <= cy + 1; ++y) {
        if (y < 0 || y >= dims_[1]) continue;
        const std::size_t row =
            (static_cast<std::size_t>(x) * static_cast<std::size_t>(dims_[1]) +
             static_cast<std::size_t>(y)) *
            static_cast<std::size_t>(dims_[2]);
        for (int z = cz - 1; z <= cz + 1; ++z) {
          if (z < 0 || z >= dims_[2]) continue;
          const std::size_t cell = row + static_cast<std::size_t>(z);
          for (std::size_t k = cell_start_[cell]; k < cell_start_[cell + 1];
               ++k) {
            fn(cell_atoms_[k]);
          }
        }
      }
    }
  }

  double cutoff_;
  double cutoff_sq_;
  std::vector<mol::Vec3> positions_;
  double lo_[3] = {0.0, 0.0, 0.0};  ///< floor(coord / cutoff) of cell 0
  int dims_[3] = {0, 0, 0};         ///< cells per axis (0 when empty)
  /// CSR: the atoms of cell c are cell_atoms_[cell_start_[c] ..
  /// cell_start_[c + 1]), ascending; cells are x-major, z fastest.
  std::vector<std::size_t> cell_start_;
  std::vector<int> cell_atoms_;
};

/// Ligand intramolecular pair list: atom pairs separated by >= 3 bonds,
/// whose internal energy changes with torsion angles.
std::vector<std::pair<int, int>> intramolecular_pairs(const mol::Molecule& ligand);

}  // namespace scidock::dock
