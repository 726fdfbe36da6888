// Unit tests for src/common: strings, bits, rng, histogram, file I/O.
#include <gtest/gtest.h>

#include <filesystem>
#include <ostream>
#include <random>
#include <set>
#include <vector>

#include "common/bits.h"
#include "common/error.h"
#include "common/fileio.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/strings.h"
#include "scratch_path.h"

namespace chaser {
namespace {

// ---- strings ---------------------------------------------------------------

TEST(Strings, StrFormatBasic) {
  EXPECT_EQ(StrFormat("x=%d y=%s", 7, "ok"), "x=7 y=ok");
  EXPECT_EQ(StrFormat("%%"), "%");
  EXPECT_EQ(StrFormat("empty%s", ""), "empty");
}

TEST(Strings, StrFormatLongOutput) {
  const std::string big(5000, 'a');
  EXPECT_EQ(StrFormat("%s", big.c_str()).size(), 5000u);
}

TEST(Strings, SplitWhitespace) {
  EXPECT_EQ(SplitWhitespace("  a  b\tc \n d "),
            (std::vector<std::string>{"a", "b", "c", "d"}));
  EXPECT_TRUE(SplitWhitespace("").empty());
  EXPECT_TRUE(SplitWhitespace("   \t\n").empty());
}

TEST(Strings, SplitKeepsEmptyTokens) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(Strings, Hex64) {
  EXPECT_EQ(Hex64(0), "0x0000000000000000");
  EXPECT_EQ(Hex64(0x400000), "0x0000000000400000");
  EXPECT_EQ(Hex64(~0ull), "0xffffffffffffffff");
}

TEST(Strings, ParseU64Decimal) {
  std::uint64_t v = 0;
  ASSERT_TRUE(ParseU64("12345", &v));
  EXPECT_EQ(v, 12345u);
}

TEST(Strings, ParseU64Hex) {
  std::uint64_t v = 0;
  ASSERT_TRUE(ParseU64("0xff", &v));
  EXPECT_EQ(v, 255u);
}

TEST(Strings, ParseU64Rejects) {
  std::uint64_t v = 0;
  EXPECT_FALSE(ParseU64("", &v));
  EXPECT_FALSE(ParseU64("12x", &v));
  EXPECT_FALSE(ParseU64("abc", &v));
}

TEST(Strings, ParseDouble) {
  double d = 0;
  ASSERT_TRUE(ParseDouble("0.25", &d));
  EXPECT_DOUBLE_EQ(d, 0.25);
  ASSERT_TRUE(ParseDouble("1e-3", &d));
  EXPECT_DOUBLE_EQ(d, 1e-3);
  EXPECT_FALSE(ParseDouble("nanx1", &d));
  EXPECT_FALSE(ParseDouble("", &d));
}

TEST(Strings, StartsWithAndToLower) {
  EXPECT_TRUE(StartsWith("inject_fault", "inject"));
  EXPECT_FALSE(StartsWith("in", "inject"));
  EXPECT_EQ(ToLower("AbC-1"), "abc-1");
}

// ---- bits -------------------------------------------------------------------

TEST(Strings, JsonFindRawScalarKinds) {
  const std::string doc =
      "{\"n\": 42, \"f\": -1.5, \"b\": true, \"u\": null, "
      "\"s\": \"hi\", \"last\": 9}";
  std::string raw;
  ASSERT_TRUE(JsonFindRaw(doc, "n", &raw));
  EXPECT_EQ(raw, "42");
  ASSERT_TRUE(JsonFindRaw(doc, "f", &raw));
  EXPECT_EQ(raw, "-1.5");
  ASSERT_TRUE(JsonFindRaw(doc, "b", &raw));
  EXPECT_EQ(raw, "true");
  ASSERT_TRUE(JsonFindRaw(doc, "u", &raw));
  EXPECT_EQ(raw, "null");
  ASSERT_TRUE(JsonFindRaw(doc, "s", &raw));
  EXPECT_EQ(raw, "\"hi\"");
  ASSERT_TRUE(JsonFindRaw(doc, "last", &raw));  // value at document end
  EXPECT_EQ(raw, "9");
  EXPECT_FALSE(JsonFindRaw(doc, "missing", &raw));
}

TEST(Strings, JsonFindRawBalancedSubdocuments) {
  const std::string doc =
      "{\"shard\": {\"index\": 1, \"nested\": {\"deep\": [1, 2]}}, "
      "\"arr\": [{\"x\": \"}\"}, 2]}";
  std::string raw;
  ASSERT_TRUE(JsonFindRaw(doc, "shard", &raw));
  EXPECT_EQ(raw, "{\"index\": 1, \"nested\": {\"deep\": [1, 2]}}");
  // Braces inside string values must not unbalance the scan.
  ASSERT_TRUE(JsonFindRaw(doc, "arr", &raw));
  EXPECT_EQ(raw, "[{\"x\": \"}\"}, 2]");
}

TEST(Strings, JsonFindRawSkipsKeyLookalikeValues) {
  // "eta_s" first appears as a string VALUE; the lookup must keep going
  // until it finds it in key position.
  const std::string doc = "{\"note\": \"eta_s\", \"eta_s\": 3.5}";
  std::string raw;
  ASSERT_TRUE(JsonFindRaw(doc, "eta_s", &raw));
  EXPECT_EQ(raw, "3.5");
}

TEST(Strings, JsonFindStringDecodesEscapes) {
  const std::string doc =
      "{\"plain\": \"a b\", \"esc\": \"q\\\"q \\\\ n\\n\", \"num\": 7}";
  std::string s;
  ASSERT_TRUE(JsonFindString(doc, "plain", &s));
  EXPECT_EQ(s, "a b");
  ASSERT_TRUE(JsonFindString(doc, "esc", &s));
  EXPECT_EQ(s, "q\"q \\ n\n");
  EXPECT_FALSE(JsonFindString(doc, "num", &s)) << "numbers are not strings";
  EXPECT_FALSE(JsonFindString(doc, "missing", &s));
}

TEST(Strings, JsonFindNumberTreatsNullAsAbsent) {
  // The null-for-unknown contract: a null eta_s must read as "no number",
  // never as 0 (see obs/status.h and the fleet rollup).
  const std::string doc = "{\"eta_s\": null, \"rate\": 12.25}";
  double v = -1.0;
  EXPECT_FALSE(JsonFindNumber(doc, "eta_s", &v));
  ASSERT_TRUE(JsonFindNumber(doc, "rate", &v));
  EXPECT_DOUBLE_EQ(v, 12.25);
}

// ---- fileio ----------------------------------------------------------------

TEST(FileIo, ReadFileToStringRoundTrips) {
  const std::string path = testutil::ScratchPath("rt.bin");
  const std::string payload("a\0b\nc", 5);  // binary-safe
  WriteFileAtomic(path, payload);
  EXPECT_EQ(ReadFileToString(path), payload);
  std::filesystem::remove(path);
  EXPECT_THROW(ReadFileToString(path), ConfigError);
}

TEST(FileIo, StreamedWriteIsAtomic) {
  const std::string path = testutil::ScratchPath("atomic.csv");
  WriteFileAtomic(path,
                  [](std::ostream& out) { out << "a,b\n" << 12 << '\n'; });
  EXPECT_EQ(ReadFileToString(path), "a,b\n12\n");

  // A writer that throws midway leaves neither its temp file nor a changed
  // destination behind, and its exception reaches the caller.
  EXPECT_THROW(WriteFileAtomic(path,
                               [](std::ostream& out) {
                                 out << "partial";
                                 throw ConfigError("writer failed");
                               }),
               ConfigError);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(ReadFileToString(path), "a,b\n12\n");
  std::filesystem::remove(path);
}

TEST(Bits, FlipBit) {
  EXPECT_EQ(FlipBit(0, 0), 1u);
  EXPECT_EQ(FlipBit(1, 0), 0u);
  EXPECT_EQ(FlipBit(0, 63), 1ull << 63);
  EXPECT_EQ(FlipBit(0xff, 4), 0xefull);
}

TEST(Bits, RandomBitMaskHasExactPopcount) {
  Rng rng(1);
  for (unsigned n = 1; n <= 8; ++n) {
    const std::uint64_t m = RandomBitMask(rng, n, 64);
    EXPECT_EQ(PopCount(m), n);
  }
}

TEST(Bits, RandomBitMaskRespectsWidth) {
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t m = RandomBitMask(rng, 3, 8);
    EXPECT_EQ(m & ~0xffull, 0u) << Hex64(m);
    EXPECT_EQ(PopCount(m), 3u);
  }
}

TEST(Bits, RandomBitMaskClampsToWidth) {
  Rng rng(3);
  // Requesting more bits than the width can hold saturates at width.
  const std::uint64_t m = RandomBitMask(rng, 10, 4);
  EXPECT_EQ(m, 0xfull);
}

TEST(Bits, ByteAccessors) {
  const std::uint64_t v = 0x1122334455667788ull;
  EXPECT_EQ(ByteOf(v, 0), 0x88);
  EXPECT_EQ(ByteOf(v, 7), 0x11);
  EXPECT_EQ(WithByte(v, 0, 0xff), 0x11223344556677ffull);
  EXPECT_EQ(WithByte(v, 7, 0x00), 0x0022334455667788ull);
}

TEST(Bits, LowBytesMask) {
  EXPECT_EQ(LowBytesMask(1), 0xffull);
  EXPECT_EQ(LowBytesMask(4), 0xffffffffull);
  EXPECT_EQ(LowBytesMask(8), ~0ull);
}

TEST(Bits, SetBitPositions) {
  EXPECT_TRUE(SetBitPositions(0).empty());
  EXPECT_EQ(SetBitPositions(0b1010), (std::vector<unsigned>{1, 3}));
  EXPECT_EQ(SetBitPositions(1ull << 63), (std::vector<unsigned>{63}));
}

TEST(Bits, SaturatingAddU64) {
  EXPECT_EQ(SaturatingAddU64(2, 3), 5u);
  EXPECT_EQ(SaturatingAddU64(~0ull, 0), ~0ull);
  EXPECT_EQ(SaturatingAddU64(~0ull, 1), ~0ull);
  EXPECT_EQ(SaturatingAddU64(~0ull - 1, 1), ~0ull - 1 + 1);
  EXPECT_EQ(SaturatingAddU64(1ull << 63, 1ull << 63), ~0ull);
}

TEST(Bits, SaturatingMulU64) {
  EXPECT_EQ(SaturatingMulU64(6, 7), 42u);
  EXPECT_EQ(SaturatingMulU64(0, ~0ull), 0u);
  EXPECT_EQ(SaturatingMulU64(~0ull, 1), ~0ull);
  EXPECT_EQ(SaturatingMulU64(~0ull, 2), ~0ull);
  EXPECT_EQ(SaturatingMulU64(1ull << 32, 1ull << 32), ~0ull);
  // The watchdog-budget shape that used to wrap: a huge multiplier times a
  // realistic golden instruction count must clamp, not wrap small.
  EXPECT_EQ(SaturatingMulU64(~0ull / 2, 1'000'000), ~0ull);
}

// ---- rng -------------------------------------------------------------------

// The lazy Mt19937_64 promises std::mt19937_64's stream bit for bit; these
// compare it against the standard engine.

/// 1000 seeds: the edge cases, then splitmix64 outputs.
std::vector<std::uint64_t> ReferenceSeeds() {
  std::vector<std::uint64_t> seeds = {0, 1, 5489, 1ull << 63, ~0ull};
  std::uint64_t x = 0x243f6a8885a308d3ull;
  while (seeds.size() < 1000) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    seeds.push_back(z ^ (z >> 31));
  }
  return seeds;
}

/// Outputs per seed: past three twists of the 312-word state.
constexpr int kReferenceOutputs = 1000;

TEST(Rng, LazyEngineStreamIsStdMt19937_64) {
  static_assert(Mt19937_64::min() == std::mt19937_64::min());
  static_assert(Mt19937_64::max() == std::mt19937_64::max());
  std::uint64_t mismatches = 0;
  for (const std::uint64_t seed : ReferenceSeeds()) {
    Mt19937_64 lazy(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < kReferenceOutputs; ++i) {
      if (lazy() != ref()) {
        if (mismatches++ == 0) ADD_FAILURE() << "seed " << seed << ", output " << i;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  // The standard's own check: the 10000th output of a default-seeded engine.
  Mt19937_64 lazy(5489);
  for (int i = 1; i < 10000; ++i) lazy();
  EXPECT_EQ(lazy(), 9981545732273789042ull);
}

TEST(Rng, LazyEngineCopiesAndReseedsContinueTheStream) {
  const std::vector<std::uint64_t> seeds = ReferenceSeeds();
  // Copy points inside the first twist (part of the state not seeded yet),
  // at the block edges, and in later blocks.
  for (const int at : {0, 1, 2, 100, 154, 155, 156, 157, 311, 312, 313, 624, 900}) {
    for (std::size_t s = 0; s < 40; ++s) {
      Mt19937_64 lazy(seeds[s]);
      std::mt19937_64 ref(seeds[s]);
      for (int i = 0; i < at; ++i) {
        lazy();
        ref();
      }
      // Copy-construct, and copy-assign over an engine whose state words
      // all hold other values.
      Mt19937_64 constructed(lazy);
      Mt19937_64 assigned(seeds[s] + 1);
      for (int i = 0; i < 700; ++i) assigned();
      assigned = lazy;
      std::mt19937_64 ref_copy(ref);
      for (int i = 0; i < 700; ++i) {
        const std::uint64_t want = ref_copy();
        ASSERT_EQ(constructed(), want) << "copy at " << at << ", output " << i;
        ASSERT_EQ(assigned(), want) << "assigned at " << at << ", output " << i;
        ASSERT_EQ(lazy(), ref()) << "original after a copy at " << at;
      }
      // Reseeding mid-stream restarts the new seed's stream.
      lazy.seed(seeds[s + 500]);
      std::mt19937_64 reseeded(seeds[s + 500]);
      for (int i = 0; i < 700; ++i) {
        ASSERT_EQ(lazy(), reseeded()) << "reseed after " << at + 700;
      }
    }
  }
}

TEST(Rng, EveryMethodDrawsWhatStdMt19937_64Draws) {
  const std::vector<std::uint64_t> seeds = ReferenceSeeds();
  const std::vector<int> pool = {4, 8, 15, 16, 23, 42};
  for (std::size_t s = 0; s < 200; ++s) {
    Rng rng(seeds[s]);
    std::mt19937_64 ref(seeds[s]);
    if (s % 2 == 1) {
      // Half the seeds go through Reseed from a partly drawn stream.
      rng.Fork();
      rng.Reseed(seeds[s]);
    }
    // ~1000 calls: well past the first twist on every path.
    for (std::uint64_t i = 0; i < 1000; ++i) {
      const std::uint64_t lo = i * 7919 % 1000;
      const std::uint64_t hi = lo + (i % 3 == 0 ? ~0ull / 3 : i * 104729);
      const double dlo = -static_cast<double>(i % 11);
      const double dhi = dlo + 0.5 + static_cast<double>(i % 5);
      const double p = static_cast<double>(i % 10) / 9.0;
      switch (i % 7) {
        case 0:
          ASSERT_EQ(rng.UniformU64(lo, hi),
                    std::uniform_int_distribution<std::uint64_t>(lo, hi)(ref));
          break;
        case 1:
          ASSERT_EQ(rng.Index(lo + 1),
                    std::uniform_int_distribution<std::uint64_t>(0, lo)(ref));
          break;
        case 2:
          ASSERT_EQ(rng.UniformDouble(),
                    std::uniform_real_distribution<double>(0.0, 1.0)(ref));
          break;
        case 3:
          ASSERT_EQ(rng.UniformDouble(dlo, dhi),
                    std::uniform_real_distribution<double>(dlo, dhi)(ref));
          break;
        case 4:
          ASSERT_EQ(rng.Bernoulli(p), std::bernoulli_distribution(p)(ref));
          break;
        case 5:
          ASSERT_EQ(rng.Pick(pool),
                    pool[std::uniform_int_distribution<std::uint64_t>(
                        0, pool.size() - 1)(ref)]);
          break;
        default:
          ASSERT_EQ(rng.Fork(), ref());
          break;
      }
    }
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformU64(0, 1000), b.UniformU64(0, 1000));
  }
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.UniformU64(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);  // all of 3, 4, 5 hit
}

TEST(Rng, IndexStaysInBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Index(7), 7u);
}

TEST(Rng, IndexZeroThrowsInsteadOfUnderflowing) {
  // Index(0) used to underflow to UniformU64(0, SIZE_MAX) and hand back a
  // garbage index into an empty container.
  Rng rng(8);
  EXPECT_THROW(rng.Index(0), ConfigError);
  EXPECT_THROW(rng.Pick(std::vector<int>{}), ConfigError);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughRate) {
  Rng rng(10);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ForkChangesStream) {
  Rng a(11);
  const std::uint64_t child_seed = a.Fork();
  Rng child(child_seed);
  // The child stream differs from the parent's continuation.
  bool differs = false;
  Rng parent_copy(11);
  (void)parent_copy.Fork();
  for (int i = 0; i < 10; ++i) {
    if (child.UniformU64(0, 1u << 30) != parent_copy.UniformU64(0, 1u << 30)) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, PickUniform) {
  Rng rng(12);
  const std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 100; ++i) {
    const int x = rng.Pick(v);
    EXPECT_TRUE(x == 10 || x == 20 || x == 30);
  }
}

// ---- histogram ----------------------------------------------------------------

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(10, 3);  // [0,10) [10,20) [20,30) + overflow
  h.Add(0);
  h.Add(9);
  h.Add(10);
  h.Add(25);
  h.Add(1000);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.overflow(), 1u);
}

TEST(Histogram, MinMaxMean) {
  Histogram h(100, 10);
  h.Add(10);
  h.Add(20);
  h.Add(30);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 30u);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(Histogram, EmptyIsSafe) {
  Histogram h(10, 4);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.ApproxQuantile(0.5), 0u);
  EXPECT_FALSE(h.Render("empty").empty());
}

TEST(Histogram, QuantileMonotone) {
  Histogram h(10, 100);
  for (std::uint64_t i = 0; i < 1000; ++i) h.Add(i % 500);
  EXPECT_LE(h.ApproxQuantile(0.1), h.ApproxQuantile(0.5));
  EXPECT_LE(h.ApproxQuantile(0.5), h.ApproxQuantile(0.9));
}

TEST(Histogram, RenderMentionsCounts) {
  Histogram h(10, 2);
  h.Add(5);
  const std::string r = h.Render("lbl");
  EXPECT_NE(r.find("lbl"), std::string::npos);
  EXPECT_NE(r.find("n=1"), std::string::npos);
}

TEST(Histogram, ZeroWidthBucketClamped) {
  Histogram h(0, 0);  // degenerate config must not divide by zero
  h.Add(3);
  EXPECT_EQ(h.count(), 1u);
}

TEST(Histogram, MinSeededFromFirstAdd) {
  // A stream whose samples are all > 0 must not report min() == 0 from the
  // zero-initialized member: the first Add seeds both extremes.
  Histogram h(10, 4);
  h.Add(7);
  EXPECT_EQ(h.min(), 7u);
  EXPECT_EQ(h.max(), 7u);
  h.Add(31);
  EXPECT_EQ(h.min(), 7u);
  EXPECT_EQ(h.max(), 31u);
  // A later zero still wins as the minimum.
  h.Add(0);
  EXPECT_EQ(h.min(), 0u);
}

TEST(Histogram, QuantileSaturatesInOverflowBucket) {
  Histogram h(10, 2);  // covers [0,20), everything else overflows
  h.Add(5);
  h.Add(100);
  h.Add(200);
  // q=0.9 -> rank 3 -> overflow bucket; the answer is the observed max,
  // not the last bucket's upper bound (20).
  EXPECT_EQ(h.ApproxQuantile(0.9), 200u);
  EXPECT_EQ(h.ApproxQuantile(1.0), 200u);
}

TEST(Histogram, QuantileClampedToObservedRange) {
  Histogram h(10, 4);
  h.Add(5);  // single sample in [0,10)
  // Bucket upper bound (10) overshoots the only sample; clamp to max().
  EXPECT_EQ(h.ApproxQuantile(0.5), 5u);
  EXPECT_EQ(h.ApproxQuantile(1.0), 5u);
  // q == 0 degenerates to rank 1 (the minimum's bucket).
  EXPECT_EQ(h.ApproxQuantile(0.0), 5u);
}

TEST(Histogram, QuantileZeroTracksMinBucket) {
  Histogram h(10, 10);
  h.Add(12);
  h.Add(47);
  h.Add(83);
  // Rank 1 resolves to the min's bucket [10,20); its upper bound is the
  // answer at bucket resolution.
  EXPECT_EQ(h.ApproxQuantile(0.0), 20u);
  // Rank 3 resolves to [80,90), capped at the observed max.
  EXPECT_EQ(h.ApproxQuantile(1.0), 83u);
}

}  // namespace
}  // namespace chaser
