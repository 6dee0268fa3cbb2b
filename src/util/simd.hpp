#pragma once

/// \file simd.hpp
/// Portable fixed-width SIMD wrappers for the docking inner loops
/// (DESIGN.md §13).
///
/// One backend is selected at compile time and fixes the lane width for
/// the whole build:
///
///   AVX2   f64x = 4 lanes, f32x = 8 lanes   (needs -mavx2 / -march=native)
///   SSE2   f64x = 2 lanes, f32x = 4 lanes   (x86-64 baseline: the default)
///   NEON   f64x = 2 lanes, f32x = 4 lanes   (aarch64)
///   scalar f64x = 4 lanes, f32x = 4 lanes   (plain arrays + loops)
///
/// Defining SCIDOCK_SIMD_FORCE_SCALAR (cmake -DSCIDOCK_SIMD_SCALAR=ON)
/// overrides detection and builds the scalar backend on any host — the
/// reference implementation the kernel-equivalence suite compares the
/// native backend against, and the build CI runs as its own leg.
///
/// Semantics the kernels rely on:
///   - load/store are unaligned-safe; batch buffers use util::aligned_vector
///     so hot-loop accesses never straddle cache lines, but tails and tests
///     may hand in arbitrary pointers.
///   - fmadd(a, b, c) = a * b + c contracts to a hardware FMA where the
///     backend has one (AVX2+FMA) and is the separately-rounded mul+add
///     everywhere else. Kernels that must stay bit-identical to the scalar
///     path under the default build avoid fmadd in favour of +/*.
///   - blend(mask, a, b) selects a where the mask lane is true; masks come
///     from less_than/greater_equal and are full-width lane masks, so NaN
///     comparisons are false exactly like the scalar operators.
///   - gather(base, idx) is per-lane indexed loads from one base pointer
///     (no hardware gather: on every µarch we target the load ports beat
///     vgatherdpd for the 2-4 lane counts used here).

#include <cmath>
#include <cstddef>
#include <cstdint>

#if defined(SCIDOCK_SIMD_FORCE_SCALAR)
#define SCIDOCK_SIMD_SCALAR_BACKEND 1
#elif defined(__AVX2__)
#include <immintrin.h>
#define SCIDOCK_SIMD_AVX2_BACKEND 1
#elif defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>
#define SCIDOCK_SIMD_SSE2_BACKEND 1
#elif defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>
#define SCIDOCK_SIMD_NEON_BACKEND 1
#else
#define SCIDOCK_SIMD_SCALAR_BACKEND 1
#endif

namespace scidock::simd {

/// Human-readable backend tag, reported by tests and BENCH_kernels.json so
/// a perf number is never read without knowing the lane width behind it.
constexpr const char* backend_name() {
#if defined(SCIDOCK_SIMD_AVX2_BACKEND)
  return "avx2";
#elif defined(SCIDOCK_SIMD_SSE2_BACKEND)
  return "sse2";
#elif defined(SCIDOCK_SIMD_NEON_BACKEND)
  return "neon";
#else
  return "scalar";
#endif
}

constexpr bool forced_scalar() {
#if defined(SCIDOCK_SIMD_FORCE_SCALAR)
  return true;
#else
  return false;
#endif
}

/// True when the backend issues real vector instructions wider than one
/// lane with hardware FMA — the configuration the >=2x bench gates assume.
constexpr bool wide_backend() {
#if defined(SCIDOCK_SIMD_AVX2_BACKEND)
  return true;
#else
  return false;
#endif
}

// =====================================================================
// f64x — native-width packed doubles
// =====================================================================

#if defined(SCIDOCK_SIMD_AVX2_BACKEND)

struct f64x {
  static constexpr int kWidth = 4;
  __m256d v;

  f64x() : v(_mm256_setzero_pd()) {}
  explicit f64x(double broadcast) : v(_mm256_set1_pd(broadcast)) {}
  explicit f64x(__m256d raw) : v(raw) {}

  static f64x load(const double* p) { return f64x(_mm256_loadu_pd(p)); }
  void store(double* p) const { _mm256_storeu_pd(p, v); }

  f64x operator+(f64x o) const { return f64x(_mm256_add_pd(v, o.v)); }
  f64x operator-(f64x o) const { return f64x(_mm256_sub_pd(v, o.v)); }
  f64x operator*(f64x o) const { return f64x(_mm256_mul_pd(v, o.v)); }
  f64x operator/(f64x o) const { return f64x(_mm256_div_pd(v, o.v)); }
  f64x& operator+=(f64x o) { v = _mm256_add_pd(v, o.v); return *this; }

  double lane(int i) const {
    alignas(32) double tmp[kWidth];
    _mm256_store_pd(tmp, v);
    return tmp[i];
  }
  double hsum() const {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d s = _mm_add_pd(lo, hi);
    return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
  }
};

inline f64x min(f64x a, f64x b) { return f64x(_mm256_min_pd(a.v, b.v)); }
inline f64x max(f64x a, f64x b) { return f64x(_mm256_max_pd(a.v, b.v)); }
inline f64x sqrt(f64x a) { return f64x(_mm256_sqrt_pd(a.v)); }
inline f64x fmadd(f64x a, f64x b, f64x c) {
#if defined(__FMA__)
  return f64x(_mm256_fmadd_pd(a.v, b.v, c.v));
#else
  return a * b + c;
#endif
}
inline f64x less_than(f64x a, f64x b) {
  return f64x(_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ));
}
inline f64x greater_equal(f64x a, f64x b) {
  return f64x(_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ));
}
inline f64x blend(f64x mask, f64x a, f64x b) {
  return f64x(_mm256_blendv_pd(b.v, a.v, mask.v));
}
inline bool any(f64x mask) { return _mm256_movemask_pd(mask.v) != 0; }
inline bool all(f64x mask) {
  return _mm256_movemask_pd(mask.v) == (1 << f64x::kWidth) - 1;
}

#elif defined(SCIDOCK_SIMD_SSE2_BACKEND)

struct f64x {
  static constexpr int kWidth = 2;
  __m128d v;

  f64x() : v(_mm_setzero_pd()) {}
  explicit f64x(double broadcast) : v(_mm_set1_pd(broadcast)) {}
  explicit f64x(__m128d raw) : v(raw) {}

  static f64x load(const double* p) { return f64x(_mm_loadu_pd(p)); }
  void store(double* p) const { _mm_storeu_pd(p, v); }

  f64x operator+(f64x o) const { return f64x(_mm_add_pd(v, o.v)); }
  f64x operator-(f64x o) const { return f64x(_mm_sub_pd(v, o.v)); }
  f64x operator*(f64x o) const { return f64x(_mm_mul_pd(v, o.v)); }
  f64x operator/(f64x o) const { return f64x(_mm_div_pd(v, o.v)); }
  f64x& operator+=(f64x o) { v = _mm_add_pd(v, o.v); return *this; }

  double lane(int i) const {
    alignas(16) double tmp[kWidth];
    _mm_store_pd(tmp, v);
    return tmp[i];
  }
  double hsum() const {
    return _mm_cvtsd_f64(_mm_add_sd(v, _mm_unpackhi_pd(v, v)));
  }
};

inline f64x min(f64x a, f64x b) { return f64x(_mm_min_pd(a.v, b.v)); }
inline f64x max(f64x a, f64x b) { return f64x(_mm_max_pd(a.v, b.v)); }
inline f64x sqrt(f64x a) { return f64x(_mm_sqrt_pd(a.v)); }
inline f64x fmadd(f64x a, f64x b, f64x c) { return a * b + c; }
inline f64x less_than(f64x a, f64x b) { return f64x(_mm_cmplt_pd(a.v, b.v)); }
inline f64x greater_equal(f64x a, f64x b) {
  return f64x(_mm_cmpge_pd(a.v, b.v));
}
inline f64x blend(f64x mask, f64x a, f64x b) {
  // SSE2 has no blendv: (mask & a) | (~mask & b).
  return f64x(_mm_or_pd(_mm_and_pd(mask.v, a.v), _mm_andnot_pd(mask.v, b.v)));
}
inline bool any(f64x mask) { return _mm_movemask_pd(mask.v) != 0; }
inline bool all(f64x mask) {
  return _mm_movemask_pd(mask.v) == (1 << f64x::kWidth) - 1;
}

#elif defined(SCIDOCK_SIMD_NEON_BACKEND)

struct f64x {
  static constexpr int kWidth = 2;
  float64x2_t v;

  f64x() : v(vdupq_n_f64(0.0)) {}
  explicit f64x(double broadcast) : v(vdupq_n_f64(broadcast)) {}
  explicit f64x(float64x2_t raw) : v(raw) {}

  static f64x load(const double* p) { return f64x(vld1q_f64(p)); }
  void store(double* p) const { vst1q_f64(p, v); }

  f64x operator+(f64x o) const { return f64x(vaddq_f64(v, o.v)); }
  f64x operator-(f64x o) const { return f64x(vsubq_f64(v, o.v)); }
  f64x operator*(f64x o) const { return f64x(vmulq_f64(v, o.v)); }
  f64x operator/(f64x o) const { return f64x(vdivq_f64(v, o.v)); }
  f64x& operator+=(f64x o) { v = vaddq_f64(v, o.v); return *this; }

  double lane(int i) const {
    double tmp[kWidth];
    vst1q_f64(tmp, v);
    return tmp[i];
  }
  double hsum() const { return vaddvq_f64(v); }
};

inline f64x min(f64x a, f64x b) { return f64x(vminq_f64(a.v, b.v)); }
inline f64x max(f64x a, f64x b) { return f64x(vmaxq_f64(a.v, b.v)); }
inline f64x sqrt(f64x a) { return f64x(vsqrtq_f64(a.v)); }
inline f64x fmadd(f64x a, f64x b, f64x c) {
  return f64x(vfmaq_f64(c.v, a.v, b.v));
}
inline f64x less_than(f64x a, f64x b) {
  return f64x(vreinterpretq_f64_u64(vcltq_f64(a.v, b.v)));
}
inline f64x greater_equal(f64x a, f64x b) {
  return f64x(vreinterpretq_f64_u64(vcgeq_f64(a.v, b.v)));
}
inline f64x blend(f64x mask, f64x a, f64x b) {
  return f64x(vbslq_f64(vreinterpretq_u64_f64(mask.v), a.v, b.v));
}
inline bool any(f64x mask) {
  return (vgetq_lane_u64(vreinterpretq_u64_f64(mask.v), 0) |
          vgetq_lane_u64(vreinterpretq_u64_f64(mask.v), 1)) != 0;
}
inline bool all(f64x mask) {
  return (vgetq_lane_u64(vreinterpretq_u64_f64(mask.v), 0) &
          vgetq_lane_u64(vreinterpretq_u64_f64(mask.v), 1)) ==
         ~std::uint64_t{0};
}

#else  // scalar reference backend

struct f64x {
  // Width 4 on purpose: the batch layouts, tails and reduction trees the
  // wide backends exercise are reproduced exactly, just with plain loops.
  static constexpr int kWidth = 4;
  double v[kWidth];

  f64x() : v{0.0, 0.0, 0.0, 0.0} {}
  explicit f64x(double broadcast) {
    for (double& x : v) x = broadcast;
  }

  static f64x load(const double* p) {
    f64x r;
    for (int i = 0; i < kWidth; ++i) r.v[i] = p[i];
    return r;
  }
  void store(double* p) const {
    for (int i = 0; i < kWidth; ++i) p[i] = v[i];
  }

  f64x operator+(f64x o) const {
    f64x r;
    for (int i = 0; i < kWidth; ++i) r.v[i] = v[i] + o.v[i];
    return r;
  }
  f64x operator-(f64x o) const {
    f64x r;
    for (int i = 0; i < kWidth; ++i) r.v[i] = v[i] - o.v[i];
    return r;
  }
  f64x operator*(f64x o) const {
    f64x r;
    for (int i = 0; i < kWidth; ++i) r.v[i] = v[i] * o.v[i];
    return r;
  }
  f64x operator/(f64x o) const {
    f64x r;
    for (int i = 0; i < kWidth; ++i) r.v[i] = v[i] / o.v[i];
    return r;
  }
  f64x& operator+=(f64x o) {
    for (int i = 0; i < kWidth; ++i) v[i] += o.v[i];
    return *this;
  }

  double lane(int i) const { return v[i]; }
  double hsum() const {
    // Pairwise like the wide backends: (l0 + l2) + (l1 + l3).
    return (v[0] + v[2]) + (v[1] + v[3]);
  }
};

namespace detail {
inline double mask_bits(bool b) {
  const std::uint64_t bits = b ? ~std::uint64_t{0} : 0;
  double d;
  __builtin_memcpy(&d, &bits, sizeof d);
  return d;
}
inline bool mask_lane(double d) {
  std::uint64_t bits;
  __builtin_memcpy(&bits, &d, sizeof bits);
  return bits != 0;
}
}  // namespace detail

inline f64x min(f64x a, f64x b) {
  f64x r;
  for (int i = 0; i < f64x::kWidth; ++i)
    r.v[i] = a.v[i] < b.v[i] ? a.v[i] : b.v[i];
  return r;
}
inline f64x max(f64x a, f64x b) {
  f64x r;
  for (int i = 0; i < f64x::kWidth; ++i)
    r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
  return r;
}
inline f64x sqrt(f64x a) {
  f64x r;
  for (int i = 0; i < f64x::kWidth; ++i) r.v[i] = std::sqrt(a.v[i]);
  return r;
}
inline f64x fmadd(f64x a, f64x b, f64x c) { return a * b + c; }
inline f64x less_than(f64x a, f64x b) {
  f64x r;
  for (int i = 0; i < f64x::kWidth; ++i)
    r.v[i] = detail::mask_bits(a.v[i] < b.v[i]);
  return r;
}
inline f64x greater_equal(f64x a, f64x b) {
  f64x r;
  for (int i = 0; i < f64x::kWidth; ++i)
    r.v[i] = detail::mask_bits(a.v[i] >= b.v[i]);
  return r;
}
inline f64x blend(f64x mask, f64x a, f64x b) {
  f64x r;
  for (int i = 0; i < f64x::kWidth; ++i)
    r.v[i] = detail::mask_lane(mask.v[i]) ? a.v[i] : b.v[i];
  return r;
}
inline bool any(f64x mask) {
  for (int i = 0; i < f64x::kWidth; ++i)
    if (detail::mask_lane(mask.v[i])) return true;
  return false;
}
inline bool all(f64x mask) {
  for (int i = 0; i < f64x::kWidth; ++i)
    if (!detail::mask_lane(mask.v[i])) return false;
  return true;
}

#endif  // backend selection (f64x)

/// All-ones (true) / all-zero (false) lane value for hand-built masks fed
/// to blend(): the scalar counterpart of less_than/greater_equal lanes.
inline double mask_value(bool b) {
  const std::uint64_t bits = b ? ~std::uint64_t{0} : 0;
  double d;
  __builtin_memcpy(&d, &bits, sizeof d);
  return d;
}

/// Per-lane indexed loads from one base pointer (see file comment).
inline f64x gather(const double* base, const std::int32_t* idx) {
  alignas(64) double tmp[f64x::kWidth];
  for (int i = 0; i < f64x::kWidth; ++i) tmp[i] = base[idx[i]];
  return f64x::load(tmp);
}

/// Per-lane loads of two adjacent floats, widened to double: lane i of
/// `first` is base[idx[i]] and lane i of `second` is base[idx[i] + 1].
/// Widening is exact, so this equals the per-element scalar loads; the x86
/// backends load each pair in one 64-bit move and widen two or four lanes
/// per instruction (single-precision grid maps, grid.hpp).
inline void gather_float_pairs(const float* base, const std::size_t* idx,
                               f64x& first, f64x& second) {
#if defined(SCIDOCK_SIMD_AVX2_BACKEND) || defined(SCIDOCK_SIMD_SSE2_BACKEND)
  const auto pair = [base](std::size_t i) {
    return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(base + i));
  };
#if defined(SCIDOCK_SIMD_AVX2_BACKEND)
  const __m128 p01 = _mm_castsi128_ps(_mm_unpacklo_epi64(pair(idx[0]), pair(idx[1])));
  const __m128 p23 = _mm_castsi128_ps(_mm_unpacklo_epi64(pair(idx[2]), pair(idx[3])));
  first = f64x(_mm256_cvtps_pd(_mm_shuffle_ps(p01, p23, _MM_SHUFFLE(2, 0, 2, 0))));
  second = f64x(_mm256_cvtps_pd(_mm_shuffle_ps(p01, p23, _MM_SHUFFLE(3, 1, 3, 1))));
#else
  const __m128d p0 = _mm_cvtps_pd(_mm_castsi128_ps(pair(idx[0])));
  const __m128d p1 = _mm_cvtps_pd(_mm_castsi128_ps(pair(idx[1])));
  first = f64x(_mm_unpacklo_pd(p0, p1));
  second = f64x(_mm_unpackhi_pd(p0, p1));
#endif
#else
  alignas(64) double a[f64x::kWidth], b[f64x::kWidth];
  for (int i = 0; i < f64x::kWidth; ++i) {
    a[i] = base[idx[i]];
    b[i] = base[idx[i] + 1];
  }
  first = f64x::load(a);
  second = f64x::load(b);
#endif
}

/// Truncate each lane toward zero into int32 slots (LUT bin indices; the
/// kernels guarantee non-negative in-range inputs).
inline void truncate_to_int(f64x x, std::int32_t* out) {
  alignas(64) double tmp[f64x::kWidth];
  x.store(tmp);
  for (int i = 0; i < f64x::kWidth; ++i)
    out[i] = static_cast<std::int32_t>(tmp[i]);
}

// =====================================================================
// f32x — native-width packed floats (provided for completeness; the
// docking kernels are double-precision throughout)
// =====================================================================

#if defined(SCIDOCK_SIMD_AVX2_BACKEND)

struct f32x {
  static constexpr int kWidth = 8;
  __m256 v;

  f32x() : v(_mm256_setzero_ps()) {}
  explicit f32x(float broadcast) : v(_mm256_set1_ps(broadcast)) {}
  explicit f32x(__m256 raw) : v(raw) {}

  static f32x load(const float* p) { return f32x(_mm256_loadu_ps(p)); }
  void store(float* p) const { _mm256_storeu_ps(p, v); }

  f32x operator+(f32x o) const { return f32x(_mm256_add_ps(v, o.v)); }
  f32x operator-(f32x o) const { return f32x(_mm256_sub_ps(v, o.v)); }
  f32x operator*(f32x o) const { return f32x(_mm256_mul_ps(v, o.v)); }
  f32x operator/(f32x o) const { return f32x(_mm256_div_ps(v, o.v)); }
  f32x& operator+=(f32x o) { v = _mm256_add_ps(v, o.v); return *this; }

  float lane(int i) const {
    alignas(32) float tmp[kWidth];
    _mm256_store_ps(tmp, v);
    return tmp[i];
  }
  float hsum() const {
    alignas(32) float tmp[kWidth];
    _mm256_store_ps(tmp, v);
    return ((tmp[0] + tmp[4]) + (tmp[1] + tmp[5])) +
           ((tmp[2] + tmp[6]) + (tmp[3] + tmp[7]));
  }
};

inline f32x fmadd(f32x a, f32x b, f32x c) {
#if defined(__FMA__)
  return f32x(_mm256_fmadd_ps(a.v, b.v, c.v));
#else
  return a * b + c;
#endif
}

#elif defined(SCIDOCK_SIMD_SSE2_BACKEND)

struct f32x {
  static constexpr int kWidth = 4;
  __m128 v;

  f32x() : v(_mm_setzero_ps()) {}
  explicit f32x(float broadcast) : v(_mm_set1_ps(broadcast)) {}
  explicit f32x(__m128 raw) : v(raw) {}

  static f32x load(const float* p) { return f32x(_mm_loadu_ps(p)); }
  void store(float* p) const { _mm_storeu_ps(p, v); }

  f32x operator+(f32x o) const { return f32x(_mm_add_ps(v, o.v)); }
  f32x operator-(f32x o) const { return f32x(_mm_sub_ps(v, o.v)); }
  f32x operator*(f32x o) const { return f32x(_mm_mul_ps(v, o.v)); }
  f32x operator/(f32x o) const { return f32x(_mm_div_ps(v, o.v)); }
  f32x& operator+=(f32x o) { v = _mm_add_ps(v, o.v); return *this; }

  float lane(int i) const {
    alignas(16) float tmp[kWidth];
    _mm_store_ps(tmp, v);
    return tmp[i];
  }
  float hsum() const {
    alignas(16) float tmp[kWidth];
    _mm_store_ps(tmp, v);
    return (tmp[0] + tmp[2]) + (tmp[1] + tmp[3]);
  }
};

inline f32x fmadd(f32x a, f32x b, f32x c) { return a * b + c; }

#elif defined(SCIDOCK_SIMD_NEON_BACKEND)

struct f32x {
  static constexpr int kWidth = 4;
  float32x4_t v;

  f32x() : v(vdupq_n_f32(0.0f)) {}
  explicit f32x(float broadcast) : v(vdupq_n_f32(broadcast)) {}
  explicit f32x(float32x4_t raw) : v(raw) {}

  static f32x load(const float* p) { return f32x(vld1q_f32(p)); }
  void store(float* p) const { vst1q_f32(p, v); }

  f32x operator+(f32x o) const { return f32x(vaddq_f32(v, o.v)); }
  f32x operator-(f32x o) const { return f32x(vsubq_f32(v, o.v)); }
  f32x operator*(f32x o) const { return f32x(vmulq_f32(v, o.v)); }
  f32x operator/(f32x o) const { return f32x(vdivq_f32(v, o.v)); }
  f32x& operator+=(f32x o) { v = vaddq_f32(v, o.v); return *this; }

  float lane(int i) const {
    float tmp[kWidth];
    vst1q_f32(tmp, v);
    return tmp[i];
  }
  float hsum() const { return vaddvq_f32(v); }
};

inline f32x fmadd(f32x a, f32x b, f32x c) {
  return f32x(vfmaq_f32(c.v, a.v, b.v));
}

#else  // scalar

struct f32x {
  static constexpr int kWidth = 4;
  float v[kWidth];

  f32x() : v{0.0f, 0.0f, 0.0f, 0.0f} {}
  explicit f32x(float broadcast) {
    for (float& x : v) x = broadcast;
  }

  static f32x load(const float* p) {
    f32x r;
    for (int i = 0; i < kWidth; ++i) r.v[i] = p[i];
    return r;
  }
  void store(float* p) const {
    for (int i = 0; i < kWidth; ++i) p[i] = v[i];
  }

  f32x operator+(f32x o) const {
    f32x r;
    for (int i = 0; i < kWidth; ++i) r.v[i] = v[i] + o.v[i];
    return r;
  }
  f32x operator-(f32x o) const {
    f32x r;
    for (int i = 0; i < kWidth; ++i) r.v[i] = v[i] - o.v[i];
    return r;
  }
  f32x operator*(f32x o) const {
    f32x r;
    for (int i = 0; i < kWidth; ++i) r.v[i] = v[i] * o.v[i];
    return r;
  }
  f32x operator/(f32x o) const {
    f32x r;
    for (int i = 0; i < kWidth; ++i) r.v[i] = v[i] / o.v[i];
    return r;
  }
  f32x& operator+=(f32x o) {
    for (int i = 0; i < kWidth; ++i) v[i] += o.v[i];
    return *this;
  }

  float lane(int i) const { return v[i]; }
  float hsum() const { return (v[0] + v[2]) + (v[1] + v[3]); }
};

inline f32x fmadd(f32x a, f32x b, f32x c) { return a * b + c; }

#endif  // backend selection (f32x)

}  // namespace scidock::simd
