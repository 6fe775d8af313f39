#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/heavy_hitters.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/size_encoding.h"
#include "common/status.h"
#include "common/string_util.h"

namespace shark {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("x");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

Status UseAssignOrReturn(int v, int* out) {
  SHARK_ASSIGN_OR_RETURN(*out, ParsePositive(v));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(7, &out).ok());
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(UseAssignOrReturn(-1, &out).ok());
}

// ---------------------------------------------------------------------------
// String utilities
// ---------------------------------------------------------------------------

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = SplitString("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, JoinRoundTrip) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(JoinStrings(parts, "|"), "x|y|z");
}

TEST(StringUtilTest, CaseHelpers) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToUpper("group"), "GROUP");
  EXPECT_TRUE(EqualsIgnoreCase("WHERE", "where"));
  EXPECT_FALSE(EqualsIgnoreCase("WHERE", "were"));
}

TEST(StringUtilTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace("   "), "");
}

TEST(StringUtilTest, ParseInt64) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("-123", &v));
  EXPECT_EQ(v, -123);
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("", &v));
}

TEST(StringUtilTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_FALSE(ParseDouble("3.25abc", &v));
}

TEST(StringUtilTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(1536), "1.5 KB");
}

// ---------------------------------------------------------------------------
// Hashing / Random
// ---------------------------------------------------------------------------

TEST(HashTest, DeterministicAcrossCalls) {
  EXPECT_EQ(HashBytes("shark"), HashBytes("shark"));
  EXPECT_NE(HashBytes("shark"), HashBytes("spark"));
  EXPECT_EQ(HashInt64(12345), HashInt64(12345));
  EXPECT_NE(HashInt64(12345), HashInt64(12346));
}

TEST(HashTest, NegativeZeroDoubleNormalized) {
  EXPECT_EQ(HashDouble(0.0), HashDouble(-0.0));
}

TEST(RandomTest, DeterministicGivenSeed) {
  Random a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RandomTest, UniformInRange) {
  Random r(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, DoubleInUnitInterval) {
  Random r(2);
  for (int i = 0; i < 1000; ++i) {
    double v = r.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RandomTest, ZipfSkewsTowardSmallRanks) {
  Random r(3);
  int low = 0;
  const int kTrials = 10000;
  for (int i = 0; i < kTrials; ++i) {
    if (r.Zipf(1000, 1.2) < 10) ++low;
  }
  // With s=1.2 the first 10 ranks should dominate well beyond uniform (1%).
  EXPECT_GT(low, kTrials / 10);
}

// ---------------------------------------------------------------------------
// Size encoding (§3.1: <=10% error, 1 byte, up to 32 GB)
// ---------------------------------------------------------------------------

TEST(SizeEncodingTest, ZeroIsExact) {
  EXPECT_EQ(SizeEncoding::Encode(0), 0);
  EXPECT_EQ(SizeEncoding::Decode(0), 0u);
}

TEST(SizeEncodingTest, MaxSaturates) {
  EXPECT_EQ(SizeEncoding::Encode(SizeEncoding::kMaxSize), 255);
  EXPECT_EQ(SizeEncoding::Encode(SizeEncoding::kMaxSize * 2), 255);
}

class SizeEncodingErrorTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SizeEncodingErrorTest, RelativeErrorWithinTenPercent) {
  uint64_t size = GetParam();
  uint64_t decoded = SizeEncoding::Decode(SizeEncoding::Encode(size));
  double rel = std::abs(static_cast<double>(decoded) - static_cast<double>(size)) /
               static_cast<double>(size);
  EXPECT_LE(rel, 0.10) << "size=" << size << " decoded=" << decoded;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SizeEncodingErrorTest,
    ::testing::Values(1ULL, 2ULL, 10ULL, 100ULL, 4096ULL, 1000000ULL,
                      123456789ULL, 1ULL << 30, 5ULL * (1ULL << 30),
                      31ULL * (1ULL << 30)));

TEST(SizeEncodingTest, MonotoneNonDecreasing) {
  uint64_t prev = 0;
  for (uint64_t s = 1; s < (1ULL << 35); s = s * 3 / 2 + 1) {
    uint64_t d = SizeEncoding::Decode(SizeEncoding::Encode(s));
    EXPECT_GE(d, prev / 2);  // decoded values grow with input
    prev = d;
  }
}

TEST(SizeEncodingTest, CodeZeroOneBoundary) {
  // Code 0 is reserved for exactly zero; the smallest nonzero size must get
  // a nonzero code (a 1-byte output reported as "nothing" would make PDE
  // treat a populated bucket as empty).
  EXPECT_EQ(SizeEncoding::Encode(1), 1);
  EXPECT_EQ(SizeEncoding::Decode(1), 1u);
  for (uint64_t s : {1ULL, 2ULL, 3ULL, 7ULL}) {
    EXPECT_GT(SizeEncoding::Encode(s), 0) << "size=" << s;
    EXPECT_GT(SizeEncoding::Decode(SizeEncoding::Encode(s)), 0u)
        << "size=" << s;
  }
}

TEST(SizeEncodingTest, DecodeMonotoneAcrossCodes) {
  // Property over the whole code space: decode never decreases, and once the
  // ~10% geometric steps outgrow integer rounding (a few tens of bytes) each
  // code maps to a distinct size — ordering is preserved and large buckets
  // stay distinguishable.
  uint64_t prev = SizeEncoding::Decode(0);
  EXPECT_EQ(prev, 0u);
  for (int code = 1; code <= 255; ++code) {
    uint64_t d = SizeEncoding::Decode(static_cast<uint8_t>(code));
    EXPECT_GE(d, prev) << "code=" << code;
    if (prev >= 64) {
      EXPECT_GT(d, prev) << "code=" << code;
    }
    prev = d;
  }
  EXPECT_LE(prev, SizeEncoding::kMaxSize + SizeEncoding::kMaxSize / 10);
}

// The log/exp formula the encoding is defined by; Encode and Decode are
// table lookups that must reproduce it bit for bit.
const double kFormulaLogBase =
    std::log(static_cast<double>(SizeEncoding::kMaxSize)) / 254.0;

uint8_t FormulaEncode(uint64_t bytes) {
  if (bytes == 0) return 0;
  if (bytes >= SizeEncoding::kMaxSize) return 255;
  double code = std::log(static_cast<double>(bytes)) / kFormulaLogBase + 1.0;
  long rounded = std::lround(code);
  if (rounded < 1) rounded = 1;
  if (rounded > 255) rounded = 255;
  return static_cast<uint8_t>(rounded);
}

uint64_t FormulaDecode(uint8_t code) {
  if (code == 0) return 0;
  double v = std::exp(kFormulaLogBase * static_cast<double>(code - 1));
  return static_cast<uint64_t>(std::llround(v));
}

TEST(SizeEncodingTest, TablesMatchFormula) {
  for (int code = 0; code <= 255; ++code) {
    const auto c = static_cast<uint8_t>(code);
    EXPECT_EQ(SizeEncoding::Decode(c), FormulaDecode(c)) << "code=" << code;
  }
  // Each code's first size (the smallest size the formula gives that code or
  // more) and the size just below it: the places a threshold table can be
  // off by one.
  for (int k = 1; k <= 255; ++k) {
    uint64_t lo = 1, hi = SizeEncoding::kMaxSize;
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      if (FormulaEncode(mid) >= k) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    EXPECT_EQ(SizeEncoding::Encode(lo), FormulaEncode(lo)) << "size=" << lo;
    EXPECT_EQ(SizeEncoding::Encode(lo - 1), FormulaEncode(lo - 1))
        << "size=" << lo - 1;
  }
  // Consecutive small sizes, then a sweep uniform in log-size up to twice
  // the saturation point.
  for (uint64_t s = 0; s < 2'000'000; ++s) {
    ASSERT_EQ(SizeEncoding::Encode(s), FormulaEncode(s)) << "size=" << s;
  }
  Random rng(27);
  for (int i = 0; i < 1'000'000; ++i) {
    const uint64_t s = rng.Uniform(uint64_t{1} << (1 + rng.Uniform(36)));
    ASSERT_EQ(SizeEncoding::Encode(s), FormulaEncode(s)) << "size=" << s;
  }
}

TEST(SizeEncodingTest, EncodeMonotoneInSize) {
  // Encode never decreases as the size grows (random adjacent pairs).
  Random rng(2024);
  for (int i = 0; i < 2000; ++i) {
    uint64_t a = rng.Uniform(2 * SizeEncoding::kMaxSize);
    uint64_t b = rng.Uniform(2 * SizeEncoding::kMaxSize);
    if (a > b) std::swap(a, b);
    EXPECT_LE(SizeEncoding::Encode(a), SizeEncoding::Encode(b))
        << "a=" << a << " b=" << b;
  }
}

TEST(SizeEncodingTest, RandomSizesWithinTenPercent) {
  // The paper's guarantee, checked on random sizes across the full range:
  // round-trip relative error <= 10% for every value in (0, kMaxSize].
  Random rng(7);
  for (int i = 0; i < 5000; ++i) {
    // Log-uniform draw so small sizes are exercised as densely as large.
    double exponent =
        rng.NextDouble() * std::log2(static_cast<double>(SizeEncoding::kMaxSize));
    auto size = static_cast<uint64_t>(std::pow(2.0, exponent));
    if (size == 0) size = 1;
    if (size > SizeEncoding::kMaxSize) size = SizeEncoding::kMaxSize;
    uint64_t decoded = SizeEncoding::Decode(SizeEncoding::Encode(size));
    double rel =
        std::abs(static_cast<double>(decoded) - static_cast<double>(size)) /
        static_cast<double>(size);
    EXPECT_LE(rel, 0.10) << "size=" << size << " decoded=" << decoded;
  }
}

TEST(SizeEncodingTest, ClampAboveMaxIsLossyButBounded) {
  // Sizes above kMaxSize saturate at code 255 and decode to ~kMaxSize —
  // never to something larger than the representable range.
  for (uint64_t over : {SizeEncoding::kMaxSize + 1, 2 * SizeEncoding::kMaxSize,
                        100 * SizeEncoding::kMaxSize}) {
    EXPECT_EQ(SizeEncoding::Encode(over), 255);
    uint64_t decoded = SizeEncoding::Decode(255);
    EXPECT_GE(decoded, SizeEncoding::kMaxSize - SizeEncoding::kMaxSize / 10);
    EXPECT_LE(decoded, SizeEncoding::kMaxSize + SizeEncoding::kMaxSize / 10);
  }
}

// ---------------------------------------------------------------------------
// Approximate histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, ExactWhileSmall) {
  ApproxHistogram h(16);
  for (int i = 1; i <= 10; ++i) h.Add(i);
  EXPECT_EQ(h.total_count(), 10u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  EXPECT_NEAR(h.EstimateRank(5.0), 5.0, 0.01);
}

TEST(HistogramTest, QuantileOnUniformData) {
  ApproxHistogram h(64);
  for (int i = 0; i < 10000; ++i) h.Add(static_cast<double>(i));
  EXPECT_NEAR(h.EstimateQuantile(0.5), 5000.0, 500.0);
  EXPECT_NEAR(h.EstimateQuantile(0.9), 9000.0, 500.0);
}

TEST(HistogramTest, RangeCountOnUniformData) {
  ApproxHistogram h(64);
  for (int i = 0; i < 10000; ++i) h.Add(static_cast<double>(i));
  double c = h.EstimateRangeCount(2500.0, 7500.0);
  EXPECT_NEAR(c, 5000.0, 500.0);
}

TEST(HistogramTest, ExpandsToOutOfRangeValues) {
  ApproxHistogram h(8);
  for (int i = 0; i < 100; ++i) h.Add(static_cast<double>(i));
  h.Add(1e6);  // far outside initial range
  EXPECT_EQ(h.total_count(), 101u);
  EXPECT_DOUBLE_EQ(h.max(), 1e6);
  EXPECT_GT(h.EstimateRank(1e7), 100.0);
}

TEST(HistogramTest, MergePreservesTotalCount) {
  ApproxHistogram a(32), b(32);
  for (int i = 0; i < 500; ++i) a.Add(static_cast<double>(i));
  for (int i = 500; i < 1000; ++i) b.Add(static_cast<double>(i));
  a.Merge(b);
  EXPECT_EQ(a.total_count(), 1000u);
  EXPECT_NEAR(a.EstimateQuantile(0.5), 500.0, 120.0);
}

// ---------------------------------------------------------------------------
// Heavy hitters (SpaceSaving)
// ---------------------------------------------------------------------------

TEST(HeavyHittersTest, FindsTrueHeavyHitter) {
  HeavyHitters hh(8);
  Random r(4);
  // Key 7 appears 50% of the time among 1000 distinct keys.
  for (int i = 0; i < 20000; ++i) {
    hh.Add(i % 2 == 0 ? 7 : r.Uniform(1000) + 100);
  }
  auto top = hh.TopK(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].key, 7u);
  EXPECT_GE(hh.LowerBound(7), 9000u);
}

TEST(HeavyHittersTest, CountUpperBoundNeverUnderestimatesTracked) {
  HeavyHitters hh(4);
  for (int i = 0; i < 100; ++i) hh.Add(1);
  for (int i = 0; i < 5; ++i) hh.Add(static_cast<uint64_t>(i + 10));
  auto top = hh.TopK(4);
  bool found = false;
  for (const auto& e : top) {
    if (e.key == 1) {
      found = true;
      EXPECT_GE(e.count, 100u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(HeavyHittersTest, MergeAccumulates) {
  HeavyHitters a(8), b(8);
  for (int i = 0; i < 100; ++i) a.Add(42);
  for (int i = 0; i < 200; ++i) b.Add(42);
  a.Merge(b);
  EXPECT_EQ(a.total_count(), 300u);
  EXPECT_GE(a.LowerBound(42), 300u);
}

TEST(HeavyHittersTest, CapacityBounded) {
  HeavyHitters hh(16);
  for (uint64_t i = 0; i < 10000; ++i) hh.Add(i);
  EXPECT_LE(hh.size(), 16u);
  EXPECT_EQ(hh.total_count(), 10000u);
}

}  // namespace
}  // namespace shark
