#pragma once

/// \file grid.hpp
/// Affinity-grid primitives: the search box, a trilinearly-interpolated
/// scalar field, and the per-atom-type map set AutoGrid produces
/// (SciDock activity 5).

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "mol/atom_typing.hpp"
#include "mol/geometry.hpp"
#include "util/aligned.hpp"
#include "util/simd.hpp"

namespace scidock::dock {

/// The docking search box: centre + integer point counts + spacing, the
/// same parameterisation as AutoGrid's GPF `npts`/`spacing`/`gridcenter`.
struct GridBox {
  mol::Vec3 center{};
  std::array<int, 3> npts{40, 40, 40};  ///< points per axis (>= 2)
  double spacing = 0.375;               ///< Å between points

  mol::Vec3 origin() const {
    return {center.x - spacing * (npts[0] - 1) / 2.0,
            center.y - spacing * (npts[1] - 1) / 2.0,
            center.z - spacing * (npts[2] - 1) / 2.0};
  }
  mol::Vec3 extent() const {
    return {spacing * (npts[0] - 1), spacing * (npts[1] - 1),
            spacing * (npts[2] - 1)};
  }
  mol::Aabb bounds() const {
    const mol::Vec3 o = origin();
    return {o, o + extent()};
  }
  bool contains(const mol::Vec3& p) const { return bounds().contains(p); }
  std::size_t total_points() const {
    return static_cast<std::size_t>(npts[0]) * static_cast<std::size_t>(npts[1]) *
           static_cast<std::size_t>(npts[2]);
  }

  /// Box sized to enclose a ligand search volume around `center` with
  /// `padding` Å on each side, clamped to the given spacing.
  static GridBox around(const mol::Vec3& center, double half_extent,
                        double spacing = 0.375);
};

/// One scalar field over the box. Storage is x-fastest (AutoGrid order)
/// and single precision, as AutoDock 4 keeps its maps: a map value is an
/// interpolation node, read once per sample and widened to double, and
/// every sum over map values stays in double.
class GridMap {
 public:
  GridMap() = default;
  GridMap(GridBox box, std::string label);

  const GridBox& box() const { return box_; }
  const std::string& label() const { return label_; }

  float& at(int ix, int iy, int iz);
  float at(int ix, int iy, int iz) const;

  /// Trilinear interpolation; positions outside the box are clamped to a
  /// large penalty (AutoDock treats out-of-box as forbidden).
  double sample(const mol::Vec3& p) const;

  /// Value returned for out-of-box samples.
  static constexpr double kOutOfBoxPenalty = 1.0e5;

  /// Unchecked linear-index access for the fused sampling hot path. The
  /// caller (TrilinearSampler) validated the cell against the box once;
  /// per-corner `SCIDOCK_ASSERT`s stay out of the inner loop.
  double value_unchecked(std::size_t linear) const { return values_[linear]; }

  /// Storage is cache-line aligned (util::aligned_vector) so lane-width
  /// SIMD loads in the batched samplers never straddle cache lines.
  util::aligned_vector<float>& values() { return values_; }
  const util::aligned_vector<float>& values() const { return values_; }

  /// Serialise in (abbreviated) AutoGrid .map format: header + one value
  /// per line. parse() round-trips.
  std::string to_map_file() const;
  static GridMap from_map_file(std::string_view text);

 private:
  std::size_t index(int ix, int iy, int iz) const;

  GridBox box_;
  std::string label_;
  util::aligned_vector<float> values_;
};

/// Trilinear cell + weights for one position in one box, computed once and
/// applied to any number of maps sharing that box — the fused sampling
/// path: AD4 reads the affinity, electrostatic and desolvation maps per
/// atom, so fusing saves two thirds of the origin/index math.
///
/// apply() reproduces GridMap::sample() bit for bit (same corner loads,
/// same lerp association); GridMap::sample() itself delegates here.
class TrilinearSampler {
 public:
  TrilinearSampler(const GridBox& box, const mol::Vec3& p);

  bool in_box() const { return in_box_; }

  /// Interpolate `map` at the constructor position. Contract: `map`
  /// shares the constructor box (same npts/spacing/origin) and the
  /// position was in the box; unchecked in the inner loop.
  double apply(const GridMap& map) const {
    auto lerp = [](double a, double b, double t) { return a + (b - a) * t; };
    const std::size_t b = base_;
    const double c00 =
        lerp(map.value_unchecked(b), map.value_unchecked(b + 1), tx_);
    const double c10 = lerp(map.value_unchecked(b + sy_),
                            map.value_unchecked(b + sy_ + 1), tx_);
    const double c01 = lerp(map.value_unchecked(b + sz_),
                            map.value_unchecked(b + sz_ + 1), tx_);
    const double c11 = lerp(map.value_unchecked(b + sy_ + sz_),
                            map.value_unchecked(b + sy_ + sz_ + 1), tx_);
    return lerp(lerp(c00, c10, ty_), lerp(c01, c11, ty_), tz_);
  }

 private:
  std::size_t base_ = 0;
  std::size_t sy_ = 0;  ///< +1 in y: npts[0]
  std::size_t sz_ = 0;  ///< +1 in z: npts[0] * npts[1]
  double tx_ = 0.0;
  double ty_ = 0.0;
  double tz_ = 0.0;
  bool in_box_ = false;
};

/// Lane-parallel fused sampling: one trilinear cell/weight computation for
/// simd::f64x::kWidth positions at once (SoA x/y/z planes, one lane per
/// pose in a PoseBatch), applied to any number of maps sharing the box.
/// The cell math — including the spacing division, so in/out-of-box
/// decisions match exactly — and the nested-lerp blend reproduce
/// TrilinearSampler lane for lane; only the corner loads stay per-lane
/// (the cells differ across poses), as four paired loads of adjacent
/// nodes (simd::gather_float_pairs). Out-of-box lanes read cell 0
/// with zero weights and apply() blends in kOutOfBoxPenalty, mirroring the
/// scalar model's penalty accumulation.
class TrilinearSamplerLanes {
 public:
  /// `xs`/`ys`/`zs` each hold kWidth coordinates (padding lanes allowed:
  /// they compute like any other lane and callers ignore the results).
  TrilinearSamplerLanes(const GridBox& box, const double* xs,
                        const double* ys, const double* zs);

  /// All-false when every lane fell outside the box (callers can skip the
  /// corner loads entirely and add the penalty channel-wise).
  bool any_in_box() const { return any_in_box_; }
  bool all_in_box() const { return all_in_box_; }
  simd::f64x in_box_mask() const { return in_mask_; }

  /// Interpolate `map` across the lanes; out-of-box lanes yield
  /// GridMap::kOutOfBoxPenalty. Same contract as TrilinearSampler::apply:
  /// the map must share the constructor box.
  simd::f64x apply(const GridMap& map) const {
    const float* g = map.values().data();
    const auto lerp = [](simd::f64x a, simd::f64x b, simd::f64x t) {
      return a + (b - a) * t;  // scalar association, no FMA: bit-stable
    };
    // Each x-edge of the cell is two adjacent nodes: one paired load per
    // lane and edge.
    const auto edge = [&](std::size_t offset) {
      simd::f64x lo, hi;
      simd::gather_float_pairs(g + offset, base_, lo, hi);
      return lerp(lo, hi, tx_);
    };
    const simd::f64x c00 = edge(0);
    const simd::f64x c10 = edge(sy_);
    const simd::f64x c01 = edge(sz_);
    const simd::f64x c11 = edge(sy_ + sz_);
    const simd::f64x interpolated =
        lerp(lerp(c00, c10, ty_), lerp(c01, c11, ty_), tz_);
    return simd::blend(in_mask_, interpolated,
                       simd::f64x(GridMap::kOutOfBoxPenalty));
  }

 private:
  std::size_t base_[simd::f64x::kWidth] = {};
  std::size_t sy_ = 0;
  std::size_t sz_ = 0;
  simd::f64x tx_, ty_, tz_;
  simd::f64x in_mask_;
  bool any_in_box_ = false;
  bool all_in_box_ = false;
};

/// The scoring function a grid channel serves. A map set holds one
/// channel family per function: AD4 affinity maps plus the shared
/// electrostatic and desolvation maps, and Vina's per-type maps (the
/// complete pairwise Vina term of a probe atom of that type, as Vina
/// 1.1.2 precomputes its grid cache).
enum class ScoringFunction { kAd4, kVina };

/// The full AutoGrid output for one receptor/box: one AD4 affinity map
/// per ligand atom type plus electrostatic and desolvation maps, and one
/// Vina map per ligand atom type.
struct GridMapSet {
  GridBox box;
  std::vector<std::pair<mol::AdType, GridMap>> affinity;  ///< AD4, per type
  GridMap electrostatic;
  GridMap desolvation;
  std::vector<std::pair<mol::AdType, GridMap>> vina;  ///< Vina, per type

  /// A set over `box` with one (empty) slot per type, in order, in each
  /// family; GridMapCalculator::calculate_into fills the maps.
  static GridMapSet shaped(const GridBox& box,
                           const std::vector<mol::AdType>& types);

  /// The slots of one family (affinity for kAd4, vina for kVina).
  std::vector<std::pair<mol::AdType, GridMap>>& family(ScoringFunction f) {
    return f == ScoringFunction::kAd4 ? affinity : vina;
  }
  const std::vector<std::pair<mol::AdType, GridMap>>& family(
      ScoringFunction f) const {
    return f == ScoringFunction::kAd4 ? affinity : vina;
  }

  /// The map of type `t` in family `f`, or nullptr when the set has no
  /// slot for `t` or the slot was never computed.
  const GridMap* map_for(ScoringFunction f, mol::AdType t) const;
  const GridMap* affinity_for(mol::AdType t) const {
    return map_for(ScoringFunction::kAd4, t);
  }
  /// Number of files the real AutoGrid would emit (atom maps + e + d +
  /// field + xyz), used by the provenance file accounting. Vina maps are
  /// an in-memory grid cache and are never written.
  int file_count() const { return static_cast<int>(affinity.size()) + 4; }
};

}  // namespace scidock::dock
