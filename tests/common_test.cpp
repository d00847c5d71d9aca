// Tests for the common substrate: strong ids, Status/StatusOr, CRC-32C,
// deterministic RNG, simulated clock, formatting helpers.
#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/crc32c.hpp"
#include "common/hexdump.hpp"
#include "common/rng.hpp"
#include "common/sim_clock.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace rhsd {
namespace {

TEST(StrongId, DistinctTypesDoNotCompare) {
  const Lba lba(7);
  const Pba pba(7);
  EXPECT_EQ(lba.value(), pba.value());
  // Lba and Pba are different types; this is a compile-time property —
  // here we just document the accessor behaviour.
  EXPECT_EQ(lba, Lba(7));
  EXPECT_NE(lba, Lba(8));
}

TEST(StrongId, Arithmetic) {
  Lba a(10);
  EXPECT_EQ((a + 5).value(), 15u);
  EXPECT_EQ((a - 3).value(), 7u);
  EXPECT_EQ(Lba(20) - Lba(5), 15u);
  ++a;
  EXPECT_EQ(a.value(), 11u);
}

TEST(StrongId, Ordering) {
  EXPECT_LT(Lba(1), Lba(2));
  EXPECT_GE(Lba(5), Lba(5));
}

TEST(StrongId, Hashable) {
  std::set<Lba> lbas{Lba(3), Lba(1), Lba(3)};
  EXPECT_EQ(lbas.size(), 2u);
  EXPECT_EQ(std::hash<Lba>{}(Lba(42)), std::hash<Lba>{}(Lba(42)));
}

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  const Status s = NotFound("no such thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "no such thing");
  EXPECT_EQ(s.to_string(), "NOT_FOUND: no such thing");
}

// One owning pointer: null is OK, an error's code and message live in a
// heap block of its own.
static_assert(sizeof(Status) == sizeof(void*));

TEST(Status, ErrorCopyOutlivesItsSource) {
  std::optional<Status> source = Corruption("bad page");
  const Status copy = *source;
  source.reset();
  EXPECT_EQ(copy.code(), StatusCode::kCorruption);
  EXPECT_EQ(copy.message(), "bad page");
}

TEST(Status, CopyAssignOntoErrorAndOntoOk) {
  const Status error = NotFound("gone");
  Status onto_error = Aborted("old");
  onto_error = error;
  EXPECT_EQ(onto_error.code(), StatusCode::kNotFound);
  EXPECT_EQ(onto_error.message(), "gone");
  Status onto_ok;
  onto_ok = error;
  EXPECT_EQ(onto_ok.code(), StatusCode::kNotFound);
  EXPECT_EQ(onto_ok.message(), "gone");
  // And OK onto an error, and an error onto itself.
  onto_error = Status::Ok();
  EXPECT_TRUE(onto_error.ok());
  EXPECT_EQ(onto_error.message(), "");
  const Status& alias = onto_ok;
  onto_ok = alias;
  EXPECT_EQ(onto_ok.message(), "gone");
}

TEST(Status, OkCodeIsOkWithoutMessage) {
  const Status s(StatusCode::kOk, "ignored");
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, AllConstructorsProduceTheirCode) {
  EXPECT_EQ(InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(PermissionDenied("x").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v = NotFound("gone");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOr, ValueOnErrorThrowsCheckFailure) {
  StatusOr<int> v = NotFound("gone");
  EXPECT_THROW((void)v.value(), CheckFailure);
}

TEST(StatusOr, MoveOut) {
  StatusOr<std::string> v = std::string("payload");
  const std::string s = std::move(v).value();
  EXPECT_EQ(s, "payload");
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return InvalidArgument("odd");
  return x / 2;
}

Status UseMacros(int x, int* out) {
  RHSD_ASSIGN_OR_RETURN(const int h, Half(x));
  RHSD_RETURN_IF_ERROR(Status::Ok());
  *out = h;
  return Status::Ok();
}

TEST(StatusOr, Macros) {
  int out = 0;
  EXPECT_TRUE(UseMacros(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(UseMacros(7, &out).code(), StatusCode::kInvalidArgument);
}

TEST(Crc32c, KnownVectors) {
  // RFC 3720 test vector: 32 bytes of zeros.
  std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
  // 32 bytes of 0xFF.
  std::vector<std::uint8_t> ones(32, 0xFF);
  EXPECT_EQ(Crc32c(ones), 0x62A8AB43u);
  // Ascending 0..31.
  std::vector<std::uint8_t> asc(32);
  for (int i = 0; i < 32; ++i) asc[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(Crc32c(asc), 0x46DD794Eu);
}

TEST(Crc32c, EmptyIsZero) {
  EXPECT_EQ(Crc32c({}), 0u);
}

TEST(Crc32c, SeedChaining) {
  std::vector<std::uint8_t> data{1, 2, 3, 4, 5, 6, 7, 8};
  const std::uint32_t whole = Crc32c(data);
  const std::uint32_t part1 = Crc32c(std::span(data).subspan(0, 4));
  const std::uint32_t chained =
      Crc32c(std::span(data).subspan(4), part1);
  EXPECT_EQ(whole, chained);
}

TEST(Crc32c, SensitiveToSingleBitFlips) {
  std::vector<std::uint8_t> data(64, 0xAB);
  const std::uint32_t base = Crc32c(data);
  for (int byte : {0, 13, 63}) {
    for (int bit : {0, 5, 7}) {
      auto copy = data;
      copy[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(Crc32c(copy), base)
          << "flip at " << byte << ":" << bit << " not detected";
    }
  }
}

/// CRC-32C one bit at a time, straight from the reflected polynomial.
std::uint32_t Crc32cBitwise(std::span<const std::uint8_t> data,
                            std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (const std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32c, DifferentialSweepAgainstBitwise) {
  // Crc32c() (three interleaved hardware streams per 768-byte stride
  // where SSE4.2 exists) and Crc32cBytewise() against the bitwise
  // reference: lengths 0..9000 with the stride edges and a journal
  // page's 4,092 CRC'd bytes, unaligned starts, random seeds, and a
  // two-part chain through the seed argument.
  const std::uint64_t kEdges[] = {0,    1,    7,    8,    255,  256,
                                  767,  768,  769,  1535, 1536, 2304,
                                  4092, 4096, 8999, 9000};
  std::vector<std::uint8_t> buf(9000 + 64);
  const auto run_case = [&](std::uint64_t seed) {
    Rng draw(0xC5C32 + seed);
    const std::uint64_t len = seed < std::size(kEdges)
                                  ? kEdges[seed]
                                  : draw.next_below(9001);
    const std::uint64_t offset = draw.next_below(64);
    const auto crc_seed = static_cast<std::uint32_t>(draw.next());
    for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(draw.next());
    const std::span<const std::uint8_t> data(buf.data() + offset, len);
    const std::uint64_t cut = draw.next_below(len + 1);
    const std::uint32_t want = Crc32cBitwise(data, crc_seed);
    const std::string what = "RHSD_DIFF_SEED=" + std::to_string(seed) +
                             " (len=" + std::to_string(len) +
                             " offset=" + std::to_string(offset) +
                             " cut=" + std::to_string(cut) + ")";
    EXPECT_EQ(Crc32c(data, crc_seed), want) << what;
    EXPECT_EQ(Crc32cBytewise(data, crc_seed), want) << what;
    EXPECT_EQ(Crc32c(data.subspan(cut), Crc32c(data.first(cut), crc_seed)),
              want)
        << what << ": chained";
  };
  if (const char* env = std::getenv("RHSD_DIFF_SEED")) {
    run_case(std::strtoull(env, nullptr, 10));
    return;
  }
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    run_case(seed);
    if (HasFailure()) return;  // the failure names the seed to re-run
  }
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  // Different seed gives a different stream (overwhelmingly likely).
  Rng a2(123);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    any_diff |= (a2.next() != c.next());
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextInInclusiveRange) {
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t v = rng.next_in(10, 12);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 12u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);  // law of large numbers
}

TEST(Rng, BoolProbability) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.next_bool(0.25);
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
  EXPECT_FALSE(rng.next_bool(0.0));
  EXPECT_TRUE(rng.next_bool(1.0));
}

TEST(Rng, BoolThresholdMatchesNextBoolDrawForDraw) {
  // The precomputed-threshold form must agree with next_bool on every
  // draw (and consume the stream identically), including probabilities
  // that are exact multiples of 2^-53 and ones that are not.
  for (const double p : {0.25, 1.0 / 3.0, 0.001, 0x1.0p-53, 0.9999,
                         5e-7, 0.5}) {
    Rng a(99);
    Rng b(99);
    const std::uint64_t thr = Rng::bool_threshold(p);
    for (int i = 0; i < 20000; ++i) {
      ASSERT_EQ(a.next_bool(p), b.next_bool_at(thr)) << "p=" << p;
    }
    EXPECT_EQ(a.next(), b.next());  // identical stream position
  }
}

/// Rng::bernoulli_hits(threshold, n) against the scalar loop it must
/// equal: the same hit indices in the same order, appended after what
/// `hits` held, and the same generator state afterwards.  Returns the
/// number of hits; records a failure naming `what` on a mismatch.
std::uint64_t CheckBernoulliHits(std::uint64_t seed, std::uint64_t threshold,
                                 std::uint64_t n, const std::string& what) {
  Rng batched(seed);
  Rng scalar(seed);
  std::vector<std::uint64_t> got = {42};
  std::vector<std::uint64_t> want = {42};
  batched.bernoulli_hits(threshold, n, got);
  for (std::uint64_t i = 1; i <= n; ++i) {
    if (scalar.next_bool_at(threshold)) want.push_back(i);
  }
  EXPECT_TRUE(got == want) << what << ": " << got.size() - 1 << " hits, "
                           << want.size() - 1 << " expected";
  EXPECT_TRUE(batched == scalar) << what << ": generator state differs";
  return got.size() - 1;
}

TEST(Rng, BernoulliHitsMatchesScalarLoop) {
  // From empty calls up to the ~314k draws of a §5 PARA replay chunk
  // and beyond: the sizes around the 16-lane cut-off (16 *
  // kMinLaneBlock = 4096), one past a full lane pass, and 1,048,593 =
  // 2^20 + 2^16 + 17, two lane passes plus a scalar remainder.
  // Thresholds from never-hit to always-hit, including 2^53 and ~0,
  // which every draw meets and which overflow if shifted left by 11.
  const std::uint64_t thresholds[] = {0,
                                      1,
                                      Rng::bool_threshold(1.0 / 1024),
                                      Rng::bool_threshold(0.005),
                                      Rng::bool_threshold(0.5),
                                      (std::uint64_t{1} << 53) - 1,
                                      std::uint64_t{1} << 53,
                                      ~std::uint64_t{0}};
  const std::uint64_t sizes[] = {0,     1,     31,    4095,   4096,
                                 4097,  32768, 65537, 314092, 1048593};
  static_assert(16 * Rng::kMinLaneBlock == 4096);
  for (const std::uint64_t seed : {1ull, 7ull, 0xC0FFEEull}) {
    for (const std::uint64_t thr : thresholds) {
      for (const std::uint64_t n : sizes) {
        const std::uint64_t hits = CheckBernoulliHits(
            seed, thr, n,
            "seed=" + std::to_string(seed) + " thr=" + std::to_string(thr) +
                " n=" + std::to_string(n));
        // Non-vacuity: every long scan at p >= 1/1024 hits.
        if (n >= 32768 && thr >= Rng::bool_threshold(1.0 / 1024)) {
          EXPECT_GT(hits, 0u) << "thr=" << thr << " n=" << n;
        }
      }
    }
    if (HasFailure()) return;
  }
}

// Seeded randomized sweep over (generator seed, threshold, n <= 2^21)
// against the scalar loop.  A failure prints a one-line
// RHSD_DIFF_SEED=<n> repro; with that variable set, only that case runs.
TEST(Rng, BernoulliHitsDifferentialSweep) {
  const auto run_case = [](std::uint64_t seed) {
    Rng draw(0xD1FF + seed);
    const std::uint64_t gen_seed = draw.next();
    // n log-uniform up to 2^21, so the lane passes and the scalar tail
    // both vary; thresholds from p = 2^-20 to always-hit.
    const std::uint64_t n = draw.next_below(
        (std::uint64_t{1} << draw.next_in(0, 21)) + 1);
    std::uint64_t thr = 0;
    switch (draw.next_below(4)) {
      case 0: thr = std::uint64_t{1} << draw.next_in(33, 45); break;
      case 1: thr = draw.next_below(std::uint64_t{1} << 53); break;
      case 2: thr = draw.next(); break;  // mostly >= 2^53: every draw
      default: thr = Rng::bool_threshold(1.0 / 1024); break;
    }
    CheckBernoulliHits(gen_seed, thr, n,
                       "RHSD_DIFF_SEED=" + std::to_string(seed) +
                           " (thr=" + std::to_string(thr) +
                           " n=" + std::to_string(n) + ")");
    return n;
  };
  if (const char* env = std::getenv("RHSD_DIFF_SEED")) {
    run_case(std::strtoull(env, nullptr, 10));
    return;
  }
  std::uint64_t lane_calls = 0;
  for (std::uint64_t seed = 0; seed < 48; ++seed) {
    lane_calls += run_case(seed) >= 16 * Rng::kMinLaneBlock;
    if (HasFailure()) return;  // the failure names the seed to re-run
  }
  EXPECT_GT(lane_calls, 8u);  // the sweep reached the lane scan
}

TEST(Rng, AdvancePow2EqualsRepeatedNext) {
  for (const unsigned k : {0u, 1u, 5u, 12u, 20u}) {
    Rng jumped(0xABCD + k);
    Rng stepped(0xABCD + k);
    jumped.advance_pow2(k);
    for (std::uint64_t i = 0; i < (std::uint64_t{1} << k); ++i) {
      (void)stepped.next();
    }
    EXPECT_TRUE(jumped == stepped) << "k=" << k;
    EXPECT_EQ(jumped.next(), stepped.next()) << "k=" << k;
  }
}

TEST(Mix64, IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(1), Mix64(1));
  EXPECT_NE(Mix64(1), Mix64(2));
  // Adjacent inputs should differ in many bits (avalanche sanity).
  const int pop = std::popcount(Mix64(100) ^ Mix64(101));
  EXPECT_GT(pop, 16);
}

TEST(SimClock, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_EQ(clock.now_ns(), 0u);
  clock.advance_ns(1500);
  EXPECT_EQ(clock.now_ns(), 1500u);
  clock.advance_seconds(2.0);
  EXPECT_EQ(clock.now_ns(), 1500u + 2'000'000'000u);
  EXPECT_NEAR(clock.now_seconds(), 2.0000015, 1e-9);
}

TEST(Hexdump, FormatsAsciiGutter) {
  std::vector<std::uint8_t> data = {'H', 'i', 0x00, 0xFF};
  const std::string dump = Hexdump(data);
  EXPECT_NE(dump.find("48 69 00 ff"), std::string::npos);
  EXPECT_NE(dump.find("|Hi..|"), std::string::npos);
}

TEST(Hexdump, TruncatesAtMaxBytes) {
  std::vector<std::uint8_t> data(512, 0x41);
  const std::string dump = Hexdump(data, 32);
  EXPECT_NE(dump.find("more bytes"), std::string::npos);
}

TEST(HumanCount, Ranges) {
  EXPECT_EQ(HumanCount(42), "42");
  EXPECT_EQ(HumanCount(780e3), "780K");
  EXPECT_EQ(HumanCount(1.5e6), "1.5M");
  EXPECT_EQ(HumanCount(2.1e9), "2.1G");
}

TEST(Check, ThrowsWithContext) {
  try {
    RHSD_CHECK_MSG(1 == 2, "math broke: " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("math broke: 42"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace rhsd
