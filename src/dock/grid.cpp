#include "dock/grid.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace scidock::dock {

GridBox GridBox::around(const mol::Vec3& center, double half_extent,
                        double spacing) {
  SCIDOCK_ASSERT(half_extent > 0 && spacing > 0);
  GridBox box;
  box.center = center;
  box.spacing = spacing;
  const int n = std::max(2, static_cast<int>(std::ceil(2.0 * half_extent / spacing)) + 1);
  box.npts = {n, n, n};
  return box;
}

GridMap::GridMap(GridBox box, std::string label)
    : box_(box), label_(std::move(label)), values_(box.total_points(), 0.0f) {
  SCIDOCK_ASSERT(box.npts[0] >= 2 && box.npts[1] >= 2 && box.npts[2] >= 2);
}

std::size_t GridMap::index(int ix, int iy, int iz) const {
  SCIDOCK_ASSERT(ix >= 0 && ix < box_.npts[0]);
  SCIDOCK_ASSERT(iy >= 0 && iy < box_.npts[1]);
  SCIDOCK_ASSERT(iz >= 0 && iz < box_.npts[2]);
  return static_cast<std::size_t>(ix) +
         static_cast<std::size_t>(box_.npts[0]) *
             (static_cast<std::size_t>(iy) +
              static_cast<std::size_t>(box_.npts[1]) * static_cast<std::size_t>(iz));
}

float& GridMap::at(int ix, int iy, int iz) { return values_[index(ix, iy, iz)]; }

float GridMap::at(int ix, int iy, int iz) const { return values_[index(ix, iy, iz)]; }

double GridMap::sample(const mol::Vec3& p) const {
  const TrilinearSampler s(box_, p);
  return s.in_box() ? s.apply(*this) : kOutOfBoxPenalty;
}

TrilinearSampler::TrilinearSampler(const GridBox& box, const mol::Vec3& p) {
  SCIDOCK_ASSERT(box.npts[0] >= 2 && box.npts[1] >= 2 && box.npts[2] >= 2);
  const mol::Vec3 o = box.origin();
  const double fx = (p.x - o.x) / box.spacing;
  const double fy = (p.y - o.y) / box.spacing;
  const double fz = (p.z - o.z) / box.spacing;
  if (fx < 0 || fy < 0 || fz < 0 || fx > box.npts[0] - 1 ||
      fy > box.npts[1] - 1 || fz > box.npts[2] - 1) {
    return;  // in_box_ stays false
  }
  const int ix = std::min(static_cast<int>(fx), box.npts[0] - 2);
  const int iy = std::min(static_cast<int>(fy), box.npts[1] - 2);
  const int iz = std::min(static_cast<int>(fz), box.npts[2] - 2);
  tx_ = fx - ix;
  ty_ = fy - iy;
  tz_ = fz - iz;
  sy_ = static_cast<std::size_t>(box.npts[0]);
  sz_ = sy_ * static_cast<std::size_t>(box.npts[1]);
  base_ = static_cast<std::size_t>(ix) +
          sy_ * static_cast<std::size_t>(iy) +
          sz_ * static_cast<std::size_t>(iz);
  in_box_ = true;
}

TrilinearSamplerLanes::TrilinearSamplerLanes(const GridBox& box,
                                             const double* xs,
                                             const double* ys,
                                             const double* zs) {
  SCIDOCK_ASSERT(box.npts[0] >= 2 && box.npts[1] >= 2 && box.npts[2] >= 2);
  constexpr int W = simd::f64x::kWidth;
  const mol::Vec3 o = box.origin();
  const simd::f64x spacing(box.spacing);
  // Same division as the scalar sampler: per-lane IEEE division keeps the
  // in/out-of-box boundary decisions bit-identical to TrilinearSampler.
  const simd::f64x fx = (simd::f64x::load(xs) - simd::f64x(o.x)) / spacing;
  const simd::f64x fy = (simd::f64x::load(ys) - simd::f64x(o.y)) / spacing;
  const simd::f64x fz = (simd::f64x::load(zs) - simd::f64x(o.z)) / spacing;

  sy_ = static_cast<std::size_t>(box.npts[0]);
  sz_ = sy_ * static_cast<std::size_t>(box.npts[1]);

  alignas(64) double fxa[W], fya[W], fza[W];
  fx.store(fxa);
  fy.store(fya);
  fz.store(fza);
  alignas(64) double txa[W], tya[W], tza[W], mask[W];
  bool all_in = true;
  for (int l = 0; l < W; ++l) {
    const bool in = !(fxa[l] < 0 || fya[l] < 0 || fza[l] < 0 ||
                      fxa[l] > box.npts[0] - 1 || fya[l] > box.npts[1] - 1 ||
                      fza[l] > box.npts[2] - 1);
    mask[l] = simd::mask_value(in);
    if (!in) {
      // Out-of-box lane: read cell 0 with zero weights (valid memory, no
      // branches in apply); the mask blends the penalty in afterwards.
      base_[l] = 0;
      txa[l] = tya[l] = tza[l] = 0.0;
      all_in = false;
      continue;
    }
    const int ix = std::min(static_cast<int>(fxa[l]), box.npts[0] - 2);
    const int iy = std::min(static_cast<int>(fya[l]), box.npts[1] - 2);
    const int iz = std::min(static_cast<int>(fza[l]), box.npts[2] - 2);
    txa[l] = fxa[l] - ix;
    tya[l] = fya[l] - iy;
    tza[l] = fza[l] - iz;
    base_[l] = static_cast<std::size_t>(ix) +
               sy_ * static_cast<std::size_t>(iy) +
               sz_ * static_cast<std::size_t>(iz);
    any_in_box_ = true;
  }
  tx_ = simd::f64x::load(txa);
  ty_ = simd::f64x::load(tya);
  tz_ = simd::f64x::load(tza);
  in_mask_ = simd::f64x::load(mask);
  all_in_box_ = all_in;
}

std::string GridMap::to_map_file() const {
  std::string out;
  out += "GRID_PARAMETER_FILE scidock.gpf\n";
  out += "GRID_DATA_FILE scidock.maps.fld\n";
  out += "MACROMOLECULE receptor.pdbqt\n";
  out += strformat("LABEL %s\n", label_.c_str());
  out += strformat("SPACING %.4f\n", box_.spacing);
  out += strformat("NELEMENTS %d %d %d\n", box_.npts[0] - 1, box_.npts[1] - 1,
                   box_.npts[2] - 1);
  out += strformat("CENTER %.3f %.3f %.3f\n", box_.center.x, box_.center.y,
                   box_.center.z);
  for (float v : values_) out += strformat("%.4f\n", static_cast<double>(v));
  return out;
}

GridMap GridMap::from_map_file(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string line;
  GridBox box;
  std::string label;
  std::vector<double> values;
  while (std::getline(in, line)) {
    const auto fields = split_ws(line);
    if (fields.empty()) continue;
    if (fields[0] == "LABEL" && fields.size() >= 2) {
      label = fields[1];
    } else if (fields[0] == "SPACING" && fields.size() >= 2) {
      box.spacing = parse_double(fields[1], "map SPACING");
    } else if (fields[0] == "NELEMENTS" && fields.size() >= 4) {
      box.npts = {static_cast<int>(parse_int(fields[1], "map nx")) + 1,
                  static_cast<int>(parse_int(fields[2], "map ny")) + 1,
                  static_cast<int>(parse_int(fields[3], "map nz")) + 1};
    } else if (fields[0] == "CENTER" && fields.size() >= 4) {
      box.center = {parse_double(fields[1], "map cx"),
                    parse_double(fields[2], "map cy"),
                    parse_double(fields[3], "map cz")};
    } else if (fields.size() == 1 &&
               (std::isdigit(static_cast<unsigned char>(fields[0][0])) ||
                fields[0][0] == '-' || fields[0][0] == '+')) {
      values.push_back(parse_double(fields[0], "map value"));
    }
  }
  GridMap map(box, label);
  if (values.size() != map.values().size()) {
    throw ParseError("map", strformat("expected %zu grid values, found %zu",
                                      map.values().size(), values.size()));
  }
  map.values().assign(values.begin(), values.end());
  return map;
}

GridMapSet GridMapSet::shaped(const GridBox& box,
                              const std::vector<mol::AdType>& types) {
  GridMapSet set;
  set.box = box;
  set.affinity.reserve(types.size());
  set.vina.reserve(types.size());
  for (mol::AdType t : types) {
    set.affinity.emplace_back(t, GridMap());
    set.vina.emplace_back(t, GridMap());
  }
  return set;
}

const GridMap* GridMapSet::map_for(ScoringFunction f, mol::AdType t) const {
  for (const auto& [type, map] : family(f)) {
    if (type == t) return map.values().empty() ? nullptr : &map;
  }
  return nullptr;
}

}  // namespace scidock::dock
