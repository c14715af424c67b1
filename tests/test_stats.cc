/**
 * @file
 * Unit tests for the StatsRegistry, the deterministic JSON
 * serialisation and its parser, and the counter-width regression
 * tests that drive more than 2^32 events through the accumulators
 * (all cycle/event counters must be uint64_t; saturating counters
 * must clamp, not wrap).
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "util/sat_counter.hh"
#include "util/stats.hh"
#include "util/stats_json.hh"

namespace psb
{
namespace
{

// ---------------------------------------------------------------- //
// Registry basics
// ---------------------------------------------------------------- //

TEST(StatsRegistry, ScalarAndRealReadLiveValues)
{
    StatsRegistry reg;
    uint64_t counter = 0;
    reg.addScalar("comp.events", &counter);
    reg.addReal("comp.rate", [&counter] { return double(counter) / 2.0; });

    counter = 10;
    auto snap = reg.snapshot();
    EXPECT_EQ(snap.at("comp.events").scalar, 10u);
    EXPECT_DOUBLE_EQ(snap.at("comp.rate").real, 5.0);

    // The registry holds readers, not copies: a later change (e.g. a
    // warm-up reset) is visible in the next snapshot.
    counter = 0;
    snap = reg.snapshot();
    EXPECT_EQ(snap.at("comp.events").scalar, 0u);
}

TEST(StatsRegistry, SnapshotIsSortedByPath)
{
    StatsRegistry reg;
    reg.addScalar("z.last", [] { return uint64_t(1); });
    reg.addScalar("a.first", [] { return uint64_t(2); });
    reg.addScalar("m.middle", [] { return uint64_t(3); });

    auto snap = reg.snapshot();
    std::vector<std::string> keys;
    for (const auto &[path, value] : snap) {
        (void)value;
        keys.push_back(path);
    }
    EXPECT_EQ(keys,
              (std::vector<std::string>{"a.first", "m.middle", "z.last"}));
}

TEST(StatsRegistryDeathTest, DuplicateRegistrationPanics)
{
    StatsRegistry reg;
    reg.addScalar("dup.path", [] { return uint64_t(0); });
    EXPECT_DEATH(reg.addScalar("dup.path", [] { return uint64_t(0); }),
                 "duplicate stat registration");
}

TEST(StatsRegistry, AverageExpandsToCountSumMean)
{
    StatsRegistry reg;
    Average avg;
    reg.addAverage("lat", &avg);
    avg.sample(4.0);
    avg.sample(8.0);

    auto snap = reg.snapshot();
    EXPECT_EQ(snap.at("lat.count").scalar, 2u);
    EXPECT_DOUBLE_EQ(snap.at("lat.sum").real, 12.0);
    EXPECT_DOUBLE_EQ(snap.at("lat.mean").real, 6.0);
}

TEST(StatsRegistry, HistogramExpandsToPaddedBuckets)
{
    StatsRegistry reg;
    Histogram hist(12);
    reg.addHistogram("h", &hist);
    hist.sample(3);
    hist.sample(3);
    hist.sample(100); // overflow

    auto snap = reg.snapshot();
    EXPECT_EQ(snap.at("h.bucket003").scalar, 2u);
    EXPECT_EQ(snap.at("h.bucket011").scalar, 0u);
    EXPECT_EQ(snap.at("h.overflow").scalar, 1u);
    EXPECT_EQ(snap.at("h.samples").scalar, 3u);
    // Zero-padding keeps lexicographic order numeric.
    EXPECT_TRUE(snap.count("h.bucket000"));
    EXPECT_FALSE(snap.count("h.bucket012"));
}

// ---------------------------------------------------------------- //
// JSON serialisation and parsing
// ---------------------------------------------------------------- //

TEST(StatsJson, DeterministicAndSorted)
{
    StatsRegistry reg;
    uint64_t big = 0xFFFFFFFFFFFFull;
    reg.addScalar("b.counter", &big);
    reg.addReal("a.ratio", [] { return 1.0 / 3.0; });

    std::string one = reg.toJson();
    std::string two = reg.toJson();
    EXPECT_EQ(one, two);
    EXPECT_LT(one.find("a.ratio"), one.find("b.counter"));
}

TEST(StatsJson, RoundTripsExactly)
{
    StatsRegistry reg;
    uint64_t counter = 1234567890123456789ull;
    reg.addScalar("x.counter", &counter);
    reg.addReal("x.third", [] { return 1.0 / 3.0; });
    reg.addReal("x.zero", [] { return 0.0; });

    std::map<std::string, ParsedStat> parsed;
    std::string error;
    ASSERT_TRUE(parseStatsJson(reg.toJson(), parsed, error)) << error;
    ASSERT_EQ(parsed.size(), 3u);
    EXPECT_EQ(parsed.at("x.counter").value,
              double(1234567890123456789ull));
    EXPECT_EQ(parsed.at("x.third").value, 1.0 / 3.0); // %.17g is exact
    EXPECT_EQ(parsed.at("x.zero").value, 0.0);
}

TEST(StatsJson, ParserRejectsMalformedInput)
{
    std::map<std::string, ParsedStat> parsed;
    std::string error;
    EXPECT_FALSE(parseStatsJson("", parsed, error));
    EXPECT_FALSE(parseStatsJson("{\"a\": }", parsed, error));
    EXPECT_FALSE(parseStatsJson("{\"a\": 1", parsed, error));
    EXPECT_FALSE(parseStatsJson("{\"a\": 1, \"a\": 2}", parsed, error));
    EXPECT_FALSE(parseStatsJson("{\"a\": 1} trailing garbage", parsed,
                                error));
    EXPECT_FALSE(parseStatsJson("{\"a\": \"1\"}", parsed, error));
    EXPECT_FALSE(parseStatsJson("[1]", parsed, error));
    EXPECT_TRUE(parseStatsJson("{}", parsed, error));
    EXPECT_TRUE(parsed.empty());
}

TEST(StatsJson, EmptyRegistrySerialises)
{
    StatsRegistry reg;
    std::map<std::string, ParsedStat> parsed;
    std::string error;
    ASSERT_TRUE(parseStatsJson(reg.toJson(), parsed, error)) << error;
    EXPECT_TRUE(parsed.empty());
}

// ---------------------------------------------------------------- //
// Counter widths: >2^32 events must neither wrap nor lose precision
// ---------------------------------------------------------------- //

TEST(CounterWidth, SatCounterSurvivesBeyond32BitEventCounts)
{
    // Drive > 2^32 increment events (in large deterministic steps so
    // the test stays fast) and confirm the counter clamps at its
    // ceiling rather than wrapping through a narrow intermediate.
    SatCounter counter(12);
    uint64_t events = 0;
    const uint32_t step = 1u << 20;
    while (events <= (uint64_t(1) << 32)) {
        counter.increment(step);
        events += step;
    }
    EXPECT_GT(events, uint64_t(1) << 32);
    EXPECT_EQ(counter.value(), 12u);
    EXPECT_TRUE(counter.saturated());

    // And the same off the floor.
    while (events <= (uint64_t(1) << 33)) {
        counter.decrement(step);
        events += step;
    }
    EXPECT_EQ(counter.value(), 0u);
}

TEST(CounterWidth, AverageCountsBeyond32Bits)
{
    Average avg;
    const uint64_t chunk = uint64_t(1) << 28;
    for (int i = 0; i < 20; ++i) // 20 * 2^28 = 5 * 2^30 > 2^32
        avg.sampleN(2.0, chunk);
    EXPECT_EQ(avg.count(), 20 * chunk);
    EXPECT_GT(avg.count(), uint64_t(1) << 32);
    EXPECT_DOUBLE_EQ(avg.mean(), 2.0);
}

// ---------------------------------------------------------------- //
// Histogram percentiles
// ---------------------------------------------------------------- //

TEST(HistogramPercentile, EmptyHistogramReturnsZero)
{
    Histogram hist(16);
    EXPECT_EQ(hist.percentile(0.0), 0u);
    EXPECT_EQ(hist.percentile(0.5), 0u);
    EXPECT_EQ(hist.percentile(1.0), 0u);
}

TEST(HistogramPercentile, KnownDistribution)
{
    // 100 samples: 50 at value 2, 40 at value 5, 10 at value 9.
    Histogram hist(16);
    hist.sampleN(2, 50);
    hist.sampleN(5, 40);
    hist.sampleN(9, 10);
    EXPECT_EQ(hist.percentile(0.50), 2u);
    EXPECT_EQ(hist.percentile(0.51), 5u);
    EXPECT_EQ(hist.percentile(0.90), 5u);
    EXPECT_EQ(hist.percentile(0.91), 9u);
    EXPECT_EQ(hist.percentile(0.99), 9u);
    // p == 0 still selects an observed sample (the smallest), and
    // p == 1 the largest.
    EXPECT_EQ(hist.percentile(0.0), 2u);
    EXPECT_EQ(hist.percentile(1.0), 9u);
}

TEST(HistogramPercentile, ClampsOutOfRangeP)
{
    Histogram hist(8);
    hist.sampleN(3, 10);
    EXPECT_EQ(hist.percentile(-0.5), 3u);
    EXPECT_EQ(hist.percentile(2.0), 3u);
}

TEST(HistogramPercentile, OverflowSamplesResolveToOverflowIndex)
{
    // Samples past the bucket range land in the overflow bucket; the
    // percentile can only say "at least numBuckets()".
    Histogram hist(4);
    hist.sampleN(1, 5);
    hist.sampleN(100, 5); // overflow (>= 4)
    EXPECT_EQ(hist.percentile(0.5), 1u);
    EXPECT_EQ(hist.percentile(0.99), hist.numBuckets());
    EXPECT_EQ(hist.percentile(1.0), hist.numBuckets());

    Histogram only_overflow(4);
    only_overflow.sampleN(1000, 3);
    EXPECT_EQ(only_overflow.percentile(0.5), only_overflow.numBuckets());
}

TEST(HistogramPercentile, SingleSample)
{
    Histogram hist(8);
    hist.sample(6);
    EXPECT_EQ(hist.percentile(0.0), 6u);
    EXPECT_EQ(hist.percentile(0.5), 6u);
    EXPECT_EQ(hist.percentile(1.0), 6u);
}

TEST(CounterWidth, HistogramTotalsBeyond32Bits)
{
    Histogram hist(4);
    const uint64_t chunk = uint64_t(1) << 30;
    for (int i = 0; i < 5; ++i)
        hist.sampleN(1, chunk);
    EXPECT_EQ(hist.total(), 5 * chunk);
    EXPECT_GT(hist.total(), uint64_t(1) << 32);
    EXPECT_EQ(hist.bucket(1), 5 * chunk);
}

TEST(CounterWidth, RegistryScalarsCarry64BitValues)
{
    StatsRegistry reg;
    uint64_t counter = (uint64_t(1) << 32) + 17;
    reg.addScalar("wide.counter", &counter);

    std::map<std::string, ParsedStat> parsed;
    std::string error;
    ASSERT_TRUE(parseStatsJson(reg.toJson(), parsed, error)) << error;
    EXPECT_EQ(parsed.at("wide.counter").raw, "4294967313");
}

} // namespace
} // namespace psb
