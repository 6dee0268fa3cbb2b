// Exhaustive lane-op unit tests for the portable SIMD wrappers
// (util/simd.hpp). Runs under whichever backend the build selected —
// ci/check.sh runs the suite under both the native backend and the
// forced-scalar reference build (-DSCIDOCK_SIMD_SCALAR=ON), so every
// backend's load/store/arithmetic/mask/gather semantics are pinned to the
// same expectations (ctest -L kernels).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "util/aligned.hpp"
#include "util/simd.hpp"

namespace scidock::simd {
namespace {

constexpr int W = f64x::kWidth;

std::vector<double> lanes_of(f64x v) {
  std::vector<double> out(W);
  v.store(out.data());
  return out;
}

TEST(SimdBackend, NameAndWidthAreConsistent) {
  const std::string name = backend_name();
  EXPECT_TRUE(name == "avx2" || name == "sse2" || name == "neon" ||
              name == "scalar")
      << name;
  if (name == "avx2" || name == "scalar") {
    EXPECT_EQ(f64x::kWidth, 4);
  } else {
    EXPECT_EQ(f64x::kWidth, 2);
  }
  if (forced_scalar()) {
    EXPECT_EQ(name, "scalar");
  }
  if (wide_backend()) {
    EXPECT_EQ(name, "avx2");
  }
  EXPECT_GE(f32x::kWidth, f64x::kWidth);
}

TEST(SimdF64, DefaultConstructorIsZero) {
  for (double l : lanes_of(f64x())) EXPECT_EQ(l, 0.0);
}

TEST(SimdF64, BroadcastFillsEveryLane) {
  for (double l : lanes_of(f64x(-3.25))) EXPECT_EQ(l, -3.25);
}

TEST(SimdF64, LoadStoreRoundTripsAlignedAndUnaligned) {
  // An aligned buffer with a deliberate odd offset exercises the
  // unaligned-tail contract: load/store must accept any pointer.
  util::aligned_vector<double> buf(2 * W + 1);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = 0.5 * static_cast<double>(i) - 3.0;
  }
  for (std::size_t off : {std::size_t{0}, std::size_t{1}, std::size_t{W + 1}}) {
    const f64x v = f64x::load(buf.data() + off);
    for (int l = 0; l < W; ++l) {
      EXPECT_EQ(v.lane(l), buf[off + static_cast<std::size_t>(l)]) << off;
    }
    std::vector<double> out(static_cast<std::size_t>(W) + 1, -1.0);
    v.store(out.data() + 1);  // unaligned store target
    for (int l = 0; l < W; ++l) {
      EXPECT_EQ(out[static_cast<std::size_t>(l) + 1],
                buf[off + static_cast<std::size_t>(l)]);
    }
    EXPECT_EQ(out[0], -1.0);  // no write below the pointer
  }
}

TEST(SimdF64, LanewiseArithmeticMatchesScalar) {
  double a_in[4] = {1.5, -2.0, 0.25, 1e8};
  double b_in[4] = {-0.5, 4.0, 0.125, 3.0};
  const f64x a = f64x::load(a_in);
  const f64x b = f64x::load(b_in);
  for (int l = 0; l < W; ++l) {
    EXPECT_EQ((a + b).lane(l), a_in[l] + b_in[l]);
    EXPECT_EQ((a - b).lane(l), a_in[l] - b_in[l]);
    EXPECT_EQ((a * b).lane(l), a_in[l] * b_in[l]);
    EXPECT_EQ((a / b).lane(l), a_in[l] / b_in[l]);
  }
  f64x acc = a;
  acc += b;
  for (int l = 0; l < W; ++l) EXPECT_EQ(acc.lane(l), a_in[l] + b_in[l]);
}

TEST(SimdF64, MinMaxSqrtPerLane) {
  double a_in[4] = {1.0, -2.0, 9.0, 0.0};
  double b_in[4] = {2.0, -3.0, 4.0, 0.0};
  const f64x a = f64x::load(a_in);
  const f64x b = f64x::load(b_in);
  for (int l = 0; l < W; ++l) {
    EXPECT_EQ(min(a, b).lane(l), std::min(a_in[l], b_in[l]));
    EXPECT_EQ(max(a, b).lane(l), std::max(a_in[l], b_in[l]));
    EXPECT_EQ(sqrt(max(a, f64x())).lane(l),
              std::sqrt(std::max(a_in[l], 0.0)));
  }
}

TEST(SimdF64, FmaddIsMulAddWithinOneUlp) {
  double a_in[4] = {1.25, -3.5, 1e3, 0.0};
  double b_in[4] = {2.5, 0.5, 1e-3, 7.0};
  double c_in[4] = {-1.0, 2.0, 4.0, 1.0};
  const f64x r = fmadd(f64x::load(a_in), f64x::load(b_in), f64x::load(c_in));
  for (int l = 0; l < W; ++l) {
    // Contracted (single-rounding) and separate mul+add may differ by at
    // most one rounding of the product term.
    const double expect = a_in[l] * b_in[l] + c_in[l];
    EXPECT_NEAR(r.lane(l), expect, 1e-12 * (1.0 + std::abs(expect)));
  }
}

TEST(SimdF64, HsumIsThePairwiseReduction) {
  double in[4] = {1.0, 10.0, 100.0, 1000.0};
  const f64x v = f64x::load(in);
  if (W == 2) {
    EXPECT_EQ(v.hsum(), in[0] + in[1]);
  } else {
    EXPECT_EQ(v.hsum(), (in[0] + in[2]) + (in[1] + in[3]));
  }
}

TEST(SimdF64, ComparisonMasksAreFullWidth) {
  double a_in[4] = {1.0, 5.0, 3.0, 3.0};
  double b_in[4] = {2.0, 4.0, 3.0, -1.0};
  const f64x lt = less_than(f64x::load(a_in), f64x::load(b_in));
  const f64x ge = greater_equal(f64x::load(a_in), f64x::load(b_in));
  for (int l = 0; l < W; ++l) {
    std::uint64_t lt_bits = 0, ge_bits = 0;
    const double lt_lane = lt.lane(l), ge_lane = ge.lane(l);
    std::memcpy(&lt_bits, &lt_lane, sizeof lt_bits);
    std::memcpy(&ge_bits, &ge_lane, sizeof ge_bits);
    EXPECT_EQ(lt_bits, a_in[l] < b_in[l] ? ~std::uint64_t{0} : 0) << l;
    EXPECT_EQ(ge_bits, a_in[l] >= b_in[l] ? ~std::uint64_t{0} : 0) << l;
  }
}

TEST(SimdF64, BlendSelectsPerLane) {
  double a_in[4] = {1.0, 2.0, 3.0, 4.0};
  double b_in[4] = {-1.0, -2.0, -3.0, -4.0};
  double m_in[4];
  for (int l = 0; l < W; ++l) m_in[l] = mask_value(l % 2 == 0);
  const f64x r =
      blend(f64x::load(m_in), f64x::load(a_in), f64x::load(b_in));
  for (int l = 0; l < W; ++l) {
    EXPECT_EQ(r.lane(l), l % 2 == 0 ? a_in[l] : b_in[l]);
  }
}

TEST(SimdF64, AnyAllOverHandBuiltMasks) {
  double none[4], some[4], every[4];
  for (int l = 0; l < W; ++l) {
    none[l] = mask_value(false);
    some[l] = mask_value(l == W - 1);
    every[l] = mask_value(true);
  }
  EXPECT_FALSE(any(f64x::load(none)));
  EXPECT_FALSE(all(f64x::load(none)));
  EXPECT_TRUE(any(f64x::load(some)));
  EXPECT_FALSE(all(f64x::load(some)));
  EXPECT_TRUE(any(f64x::load(every)));
  EXPECT_TRUE(all(f64x::load(every)));
}

TEST(SimdF64, NanPropagatesThroughArithmeticAndFailsComparisons) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  double a_in[4] = {nan, 1.0, nan, 2.0};
  double b_in[4] = {1.0, nan, nan, 2.0};
  const f64x a = f64x::load(a_in);
  const f64x b = f64x::load(b_in);
  for (int l = 0; l < W; ++l) {
    const bool has_nan = std::isnan(a_in[l]) || std::isnan(b_in[l]);
    EXPECT_EQ(std::isnan((a + b).lane(l)), has_nan) << l;
    EXPECT_EQ(std::isnan((a * b).lane(l)), has_nan) << l;
  }
  // IEEE: every ordered comparison with a NaN operand is false, exactly
  // like the scalar operators — blend() must then take the fallback.
  const f64x lt = less_than(a, b);
  const f64x ge = greater_equal(a, b);
  for (int l = 0; l < W; ++l) {
    if (std::isnan(a_in[l]) || std::isnan(b_in[l])) {
      std::uint64_t bits = 1;
      const double lane = lt.lane(l);
      std::memcpy(&bits, &lane, sizeof bits);
      EXPECT_EQ(bits, 0u) << l;
      const double glane = ge.lane(l);
      std::memcpy(&bits, &glane, sizeof bits);
      EXPECT_EQ(bits, 0u) << l;
    }
  }
  const f64x fallback = blend(lt, f64x(1.0), f64x(-1.0));
  for (int l = 0; l < W; ++l) {
    if (std::isnan(a_in[l]) || std::isnan(b_in[l])) {
      EXPECT_EQ(fallback.lane(l), -1.0) << l;
    }
  }
}

TEST(SimdF64, GatherReadsPerLaneIndices) {
  std::vector<double> table(64);
  for (std::size_t i = 0; i < table.size(); ++i) {
    table[i] = static_cast<double>(i) * 1.5;
  }
  std::int32_t idx[4] = {0, 63, 17, 4};
  const f64x g = gather(table.data(), idx);
  for (int l = 0; l < W; ++l) {
    EXPECT_EQ(g.lane(l), table[static_cast<std::size_t>(idx[l])]);
  }
}

TEST(SimdF64, GatherFloatPairsWidensAdjacentFloatsPerLane) {
  // Odd offsets too: a pair need not be 8-byte aligned.
  std::vector<float> table(64);
  for (std::size_t i = 0; i < table.size(); ++i) {
    table[i] = static_cast<float>(i) * 0.1f - 3.0f;
  }
  const std::size_t idx[4] = {0, 62, 17, 5};
  f64x first, second;
  gather_float_pairs(table.data(), idx, first, second);
  for (int l = 0; l < W; ++l) {
    EXPECT_EQ(first.lane(l), static_cast<double>(table[idx[l]])) << l;
    EXPECT_EQ(second.lane(l), static_cast<double>(table[idx[l] + 1])) << l;
  }
}

TEST(SimdF64, TruncateToIntRoundsTowardZero) {
  double in[4] = {0.0, 2.9, 4095.999, 17.0};
  std::int32_t out[4] = {-1, -1, -1, -1};
  truncate_to_int(f64x::load(in), out);
  for (int l = 0; l < W; ++l) {
    EXPECT_EQ(out[l], static_cast<std::int32_t>(in[l])) << l;
  }
}

TEST(SimdF32, CoreOpsMatchScalar) {
  constexpr int WF = f32x::kWidth;
  std::vector<float> a_in(static_cast<std::size_t>(WF)),
      b_in(static_cast<std::size_t>(WF));
  for (int l = 0; l < WF; ++l) {
    a_in[static_cast<std::size_t>(l)] = 0.5f * static_cast<float>(l) - 1.0f;
    b_in[static_cast<std::size_t>(l)] = 2.0f - static_cast<float>(l);
  }
  const f32x a = f32x::load(a_in.data());
  const f32x b = f32x::load(b_in.data());
  float expect_sum = 0.0f;
  for (int l = 0; l < WF; ++l) {
    const auto i = static_cast<std::size_t>(l);
    EXPECT_EQ((a + b).lane(l), a_in[i] + b_in[i]);
    EXPECT_EQ((a - b).lane(l), a_in[i] - b_in[i]);
    EXPECT_EQ((a * b).lane(l), a_in[i] * b_in[i]);
    EXPECT_NEAR(fmadd(a, b, a).lane(l), a_in[i] * b_in[i] + a_in[i], 1e-5f);
    expect_sum += a_in[i];
  }
  EXPECT_NEAR(a.hsum(), expect_sum, 1e-5f);
  std::vector<float> out(static_cast<std::size_t>(WF), -9.0f);
  a.store(out.data());
  EXPECT_EQ(out, a_in);
}

}  // namespace
}  // namespace scidock::simd
