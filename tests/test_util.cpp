// Unit tests for hc_util: strings, Result, time formatting, RNG, tables,
// and the scheduler containers (IndexBitset, IntrusiveFifo, JobWindow).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <set>

#include "util/errors.hpp"
#include "util/histogram.hpp"
#include "util/index_bitset.hpp"
#include "util/intrusive_fifo.hpp"
#include "util/job_window.hpp"
#include "util/log.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/text_document.hpp"
#include "util/time_format.hpp"

namespace hc::util {
namespace {

// ---------- strings ----------

TEST(Strings, TrimRemovesSurroundingWhitespace) {
    EXPECT_EQ(trim("  abc  "), "abc");
    EXPECT_EQ(trim("\tabc\r\n"), "abc");
    EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, TrimEmptyAndAllSpace) {
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(Strings, SplitKeepsEmptyFields) {
    const auto parts = split("a,,b", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
}

TEST(Strings, SplitSingleField) {
    const auto parts = split("abc", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, SplitTrailingSeparatorYieldsEmptyTail) {
    const auto parts = split("a,b,", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[2], "");
}

TEST(Strings, SplitWsDropsEmptyFields) {
    const auto parts = split_ws("  a \t b\n c  ");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitLinesHandlesTrailingNewline) {
    const auto lines = split_lines("a\nb\n");
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[1], "b");
}

TEST(Strings, SplitLinesStripsCarriageReturns) {
    const auto lines = split_lines("a\r\nb\r\n");
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "a");
    EXPECT_EQ(lines[1], "b");
}

TEST(Strings, JoinWithSeparator) {
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Strings, ReplaceAllReplacesEveryOccurrence) {
    EXPECT_EQ(replace_all("aXbXc", "X", "-"), "a-b-c");
    EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");  // non-overlapping, left to right
    EXPECT_EQ(replace_all("abc", "x", "y"), "abc");
}

TEST(Strings, PadLeftAndRight) {
    EXPECT_EQ(pad_left("7", 4, '0'), "0007");
    EXPECT_EQ(pad_right("ab", 5), "ab   ");
    EXPECT_EQ(pad_left("long-already", 4), "long-already");
}

TEST(Strings, ParseUintAcceptsDigitsOnly) {
    EXPECT_EQ(parse_uint("0"), 0);
    EXPECT_EQ(parse_uint("0042"), 42);
    EXPECT_EQ(parse_uint(""), -1);
    EXPECT_EQ(parse_uint("12a"), -1);
    EXPECT_EQ(parse_uint("-3"), -1);
}

TEST(Strings, FormatFixed) {
    EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
    EXPECT_EQ(format_fixed(2.0, 0), "2");
}

// ---------- Result / Status ----------

TEST(Result, HoldsValue) {
    Result<int> r = 42;
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), 42);
    EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, HoldsError) {
    Result<int> r = Error{"boom", 3};
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().message, "boom");
    EXPECT_EQ(r.error_message(), "line 3: boom");
    EXPECT_EQ(r.value_or(7), 7);
}

TEST(Result, ValueOnErrorThrows) {
    Result<int> r = Error{"nope"};
    EXPECT_THROW((void)r.value(), PreconditionError);
}

TEST(Result, MapPropagatesError) {
    Result<int> err = Error{"bad"};
    auto mapped = err.map([](int v) { return v * 2; });
    EXPECT_FALSE(mapped.ok());
    Result<int> good = 21;
    EXPECT_EQ(good.map([](int v) { return v * 2; }).value(), 42);
}

TEST(Status, OkByDefault) {
    Status s;
    EXPECT_TRUE(s.ok());
    Status e = Error{"x"};
    EXPECT_FALSE(e.ok());
    EXPECT_EQ(e.error().message, "x");
}

// ---------- time formatting ----------

TEST(TimeFormat, PaperQtimeRendersExactly) {
    // Fig 8: "qtime = Fri Apr 16 17:55:40 2010"
    const std::int64_t t = civil_to_unix(2010, 4, 16, 17, 55, 40);
    EXPECT_EQ(format_pbs_time(t), "Fri Apr 16 17:55:40 2010");
}

TEST(TimeFormat, DetectorTimeRendersExactly) {
    // Fig 6: "time=2010 04 17 20 11 12"
    const std::int64_t t = civil_to_unix(2010, 4, 17, 20, 11, 12);
    EXPECT_EQ(format_detector_time(t), "2010 04 17 20 11 12");
}

TEST(TimeFormat, CivilRoundTrip) {
    const std::int64_t t = civil_to_unix(2012, 9, 24, 9, 30, 0);  // CLUSTER 2012 opening day
    const CivilTime c = unix_to_civil(t);
    EXPECT_EQ(c.year, 2012);
    EXPECT_EQ(c.month, 9);
    EXPECT_EQ(c.day, 24);
    EXPECT_EQ(c.hour, 9);
    EXPECT_EQ(c.weekday, 1);  // a Monday
}

TEST(TimeFormat, UnixEpochIsThursday) {
    const CivilTime c = unix_to_civil(0);
    EXPECT_EQ(c.year, 1970);
    EXPECT_EQ(c.weekday, 4);
}

TEST(TimeFormat, LeapYearFebruary) {
    const std::int64_t t = civil_to_unix(2012, 2, 29, 12, 0, 0);
    const CivilTime c = unix_to_civil(t);
    EXPECT_EQ(c.month, 2);
    EXPECT_EQ(c.day, 29);
}

TEST(TimeFormat, DefaultEpochIsApril16th2010) {
    const CivilTime c = unix_to_civil(default_sim_epoch());
    EXPECT_EQ(c.year, 2010);
    EXPECT_EQ(c.month, 4);
    EXPECT_EQ(c.day, 16);
    EXPECT_EQ(c.hour, 0);
}

TEST(TimeFormat, DurationFormatting) {
    EXPECT_EQ(format_duration(0), "00:00:00");
    EXPECT_EQ(format_duration(3661), "01:01:01");
    EXPECT_EQ(format_duration(90061), "1d 01:01:01");
    EXPECT_EQ(format_duration(-61), "-00:01:01");
}

// ---------- RNG ----------

TEST(Rng, DeterministicForSameSeed) {
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next_u64() == b.next_u64()) ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsIndependentAndStable) {
    Rng root(7);
    Rng f1 = root.fork("alpha");
    Rng f2 = Rng(7).fork("alpha");
    EXPECT_EQ(f1.next_u64(), f2.next_u64());
    Rng f3 = Rng(7).fork("beta");
    EXPECT_NE(Rng(7).fork("alpha").next_u64(), f3.next_u64());
}

TEST(Rng, UniformIntStaysInRange) {
    Rng rng(99);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniform_int(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
    }
}

TEST(Rng, UniformIntDegenerateRange) {
    Rng rng(5);
    EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
    Rng rng(42);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += rng.exponential(10.0);
    EXPECT_NEAR(sum / n, 10.0, 0.5);
}

TEST(Rng, ChanceBoundaries) {
    Rng rng(1);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, WeightedIndexRespectsWeights) {
    Rng rng(8);
    const double weights[] = {0.0, 1.0, 3.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 4000; ++i) ++counts[rng.weighted_index(weights)];
    EXPECT_EQ(counts[0], 0);
    EXPECT_GT(counts[2], counts[1]);  // 3:1 odds
}

TEST(Rng, WeightedIndexAllZeroThrows) {
    Rng rng(8);
    const double weights[] = {0.0, 0.0};
    EXPECT_THROW((void)rng.weighted_index(weights), PreconditionError);
}

TEST(Rng, LognormalMedianRoughlyCorrect) {
    Rng rng(77);
    std::vector<double> samples;
    for (int i = 0; i < 9999; ++i) samples.push_back(rng.lognormal_median(100.0, 0.5));
    std::sort(samples.begin(), samples.end());
    EXPECT_NEAR(samples[samples.size() / 2], 100.0, 10.0);
}

// ---------- histogram ----------

TEST(Histogram, CountsBucketsAndStats) {
    Histogram h(0, 10, 5);
    for (double v : {1.0, 1.5, 3.0, 9.0, 9.9}) h.add(v);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 9.9);
    EXPECT_NEAR(h.mean(), 4.88, 1e-9);
    const std::string render = h.render(10);
    // First bucket holds 2 samples, last holds 2.
    EXPECT_NE(render.find(" 2\n"), std::string::npos);
}

TEST(Histogram, ClampsOutOfRangeToEdges) {
    Histogram h(0, 10, 2);
    h.add(-5);
    h.add(50);
    EXPECT_EQ(h.count(), 2u);
    const std::string render = h.render(4);
    EXPECT_NE(render.find(" 1\n"), std::string::npos);  // one in each edge bucket
}

TEST(Histogram, PercentilesInterpolate) {
    Histogram h(0, 100, 10);
    for (int i = 1; i <= 100; ++i) h.add(i);
    EXPECT_NEAR(h.percentile(0.5), 50.5, 0.01);
    EXPECT_NEAR(h.percentile(0.95), 95.05, 0.1);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
}

TEST(Histogram, MergeEmptyIntoPopulatedIsNoOp) {
    Histogram h(0, 100, 10);
    for (int i = 1; i <= 100; ++i) h.add(i);
    const Histogram empty(0, 100, 10);
    h.merge(empty);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    EXPECT_NEAR(h.mean(), 50.5, 1e-9);
    // Percentiles stay stable: the empty side's zero min/max must not leak.
    EXPECT_NEAR(h.percentile(0.5), 50.5, 0.01);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
}

TEST(Histogram, MergePopulatedIntoEmptyCopiesEverything) {
    Histogram donor(0, 100, 10);
    for (int i = 1; i <= 100; ++i) donor.add(i);
    Histogram h(0, 100, 10);
    h.merge(donor);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    EXPECT_NEAR(h.percentile(0.5), 50.5, 0.01);
    EXPECT_NEAR(h.percentile(0.95), 95.05, 0.1);
    // Donor untouched.
    EXPECT_EQ(donor.count(), 100u);
    EXPECT_NEAR(donor.percentile(0.5), 50.5, 0.01);
}

TEST(Histogram, MergeCombinesDisjointRanges) {
    Histogram lowhalf(0, 100, 10);
    Histogram highhalf(0, 100, 10);
    for (int i = 1; i <= 50; ++i) lowhalf.add(i);
    for (int i = 51; i <= 100; ++i) highhalf.add(i);
    // Percentile query before merging forces a sort — merge must cope with a
    // sorted-then-appended sample buffer.
    EXPECT_NEAR(lowhalf.percentile(0.5), 25.5, 0.01);
    lowhalf.merge(highhalf);
    EXPECT_EQ(lowhalf.count(), 100u);
    EXPECT_DOUBLE_EQ(lowhalf.min(), 1.0);
    EXPECT_DOUBLE_EQ(lowhalf.max(), 100.0);
    EXPECT_NEAR(lowhalf.mean(), 50.5, 1e-9);
    EXPECT_NEAR(lowhalf.percentile(0.5), 50.5, 0.01);
}

TEST(Histogram, MergeRejectsBucketingMismatch) {
    Histogram a(0, 100, 10);
    Histogram b(0, 50, 10);
    Histogram c(0, 100, 20);
    EXPECT_THROW(a.merge(b), PreconditionError);
    EXPECT_THROW(a.merge(c), PreconditionError);
}

TEST(Histogram, Validation) {
    EXPECT_THROW(Histogram(5, 5, 3), PreconditionError);
    EXPECT_THROW(Histogram(0, 10, 0), PreconditionError);
    Histogram h(0, 1, 1);
    EXPECT_DOUBLE_EQ(h.percentile(1.5), 0.0);  // out-of-range p clamps, empty is safe
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

// ---------- logging ----------

TEST(Log, CaptureSinkReceivesRecords) {
    Logger logger;
    auto sink = std::make_shared<CaptureSink>();
    logger.add_sink([sink](const LogRecord& r) { (*sink)(r); });
    logger.set_clock([] { return 42; });
    logger.info("component", "hello");
    ASSERT_EQ(sink->records().size(), 1u);
    EXPECT_EQ(sink->records()[0].sim_time, 42);
    EXPECT_EQ(sink->records()[0].component, "component");
}

TEST(Log, MinLevelFiltersRecords) {
    Logger logger;
    auto sink = std::make_shared<CaptureSink>();
    logger.add_sink([sink](const LogRecord& r) { (*sink)(r); });
    logger.set_min_level(LogLevel::kWarn);
    logger.info("c", "dropped");
    logger.warn("c", "kept");
    ASSERT_EQ(sink->records().size(), 1u);
    EXPECT_EQ(sink->records()[0].message, "kept");
}

TEST(Log, EnabledNeedsLevelAndSink) {
    Logger logger;
    EXPECT_FALSE(logger.enabled(LogLevel::kError));  // no sink: every record drops
    logger.add_sink([](const LogRecord&) {});
    EXPECT_TRUE(logger.enabled(LogLevel::kInfo));
    EXPECT_FALSE(logger.enabled(LogLevel::kDebug));  // default min level is info
    logger.set_min_level(LogLevel::kTrace);
    EXPECT_TRUE(logger.enabled(LogLevel::kTrace));
    logger.clear_sinks();
    EXPECT_FALSE(logger.enabled(LogLevel::kError));
}

TEST(Log, FormatRecord) {
    LogRecord r{LogLevel::kError, 5, "pbs", "bad"};
    EXPECT_EQ(format_log_record(r), "[      5s] ERROR pbs: bad");
}

// ---------- index bitset ----------

/// Every member in ascending order, read through next().
std::vector<std::size_t> members(const IndexBitset& bits) {
    std::vector<std::size_t> out;
    for (std::size_t i = bits.next(0); i != IndexBitset::npos; i = bits.next(i + 1))
        out.push_back(i);
    return out;
}

TEST(IndexBitset, EmptySetHasNoMembers) {
    IndexBitset bits;
    EXPECT_EQ(bits.count(), 0u);
    EXPECT_EQ(bits.next(0), IndexBitset::npos);
    EXPECT_EQ(bits.next(1'000'000), IndexBitset::npos);
    EXPECT_FALSE(bits.test(0));
    bits.reset(12345);  // out of range: a no-op, not a write
    EXPECT_EQ(bits.count(), 0u);
}

TEST(IndexBitset, NextCrossesWordAndSummaryBoundaries) {
    IndexBitset bits;
    for (std::size_t i : {63u, 64u, 4095u, 4096u, 9000u}) bits.set(i);
    EXPECT_EQ(bits.count(), 5u);
    EXPECT_EQ(bits.next(0), 63u);
    EXPECT_EQ(bits.next(63), 63u);
    EXPECT_EQ(bits.next(64), 64u);   // first bit of the next word
    EXPECT_EQ(bits.next(65), 4095u); // last bit of the first summary word
    EXPECT_EQ(bits.next(4096), 4096u);
    EXPECT_EQ(bits.next(4097), 9000u);
    EXPECT_EQ(bits.next(9001), IndexBitset::npos);  // end of the set
    EXPECT_EQ(members(bits), (std::vector<std::size_t>{63, 64, 4095, 4096, 9000}));
}

TEST(IndexBitset, ResetClearsSummaryBit) {
    IndexBitset bits;
    bits.set(100);
    bits.set(5000);
    bits.reset(100);  // its word is now empty: next() must skip straight past it
    EXPECT_FALSE(bits.test(100));
    EXPECT_EQ(bits.next(0), 5000u);
    bits.reset(5000);
    EXPECT_EQ(bits.next(0), IndexBitset::npos);
    EXPECT_EQ(bits.count(), 0u);
    bits.set(100);
    bits.set(100);  // idempotent
    EXPECT_EQ(bits.count(), 1u);
    EXPECT_EQ(bits.next(0), 100u);
}

TEST(IndexBitset, RandomOpsMatchOrderedSetOracle) {
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        Rng rng(seed);
        IndexBitset bits;
        std::set<std::size_t> oracle;
        // Dense near the word/summary edges, sparse beyond them.
        const std::int64_t hi = seed % 2 == 0 ? 300 : 20'000;
        for (int step = 0; step < 4000; ++step) {
            const auto i = static_cast<std::size_t>(rng.uniform_int(0, hi));
            if (rng.chance(0.55)) {
                bits.set(i);
                oracle.insert(i);
            } else {
                bits.reset(i);
                oracle.erase(i);
            }
            const auto from = static_cast<std::size_t>(rng.uniform_int(0, hi + 70));
            const auto it = oracle.lower_bound(from);
            ASSERT_EQ(bits.next(from), it == oracle.end() ? IndexBitset::npos : *it)
                << "seed " << seed << " step " << step << " from " << from;
            ASSERT_EQ(bits.test(i), oracle.count(i) == 1);
            ASSERT_EQ(bits.count(), oracle.size());
        }
        EXPECT_EQ(members(bits), std::vector<std::size_t>(oracle.begin(), oracle.end()));
    }
}

// ---------- intrusive FIFO ----------

struct Item {
    int key = 0;
    FifoHook<Item> link;
};
using ItemFifo = IntrusiveFifo<Item, &Item::link, &Item::key>;

/// Keys head→tail, read through head()/next().
std::vector<int> walk(const ItemFifo& fifo) {
    std::vector<int> out;
    for (const Item* x = fifo.head(); x != nullptr; x = ItemFifo::next(*x)) out.push_back(x->key);
    return out;
}

TEST(IntrusiveFifo, PushInsertAndUnlinkKeepKeyOrder) {
    std::vector<Item> items(6);
    for (int i = 0; i < 6; ++i) items[static_cast<std::size_t>(i)].key = 10 * i;
    ItemFifo fifo;
    EXPECT_EQ(fifo.head(), nullptr);
    fifo.push_back(items[1]);
    fifo.push_back(items[3]);
    fifo.push_back(items[4]);
    fifo.insert_by_key(items[0]);  // before the head
    fifo.insert_by_key(items[2]);  // in the middle
    fifo.insert_by_key(items[5]);  // past the tail
    EXPECT_EQ(walk(fifo), (std::vector<int>{0, 10, 20, 30, 40, 50}));
    EXPECT_EQ(fifo.size(), 6u);
    EXPECT_NO_THROW(fifo.verify());

    fifo.unlink(items[0]);  // head
    fifo.unlink(items[5]);  // tail
    fifo.unlink(items[2]);  // middle
    EXPECT_EQ(fifo.unlinks(), 3u);
    fifo.unlink(items[2]);  // not linked: a no-op that does not bump the epoch
    EXPECT_EQ(fifo.unlinks(), 3u);
    EXPECT_FALSE(ItemFifo::linked(items[2]));
    EXPECT_TRUE(ItemFifo::linked(items[3]));
    EXPECT_EQ(walk(fifo), (std::vector<int>{10, 30, 40}));
    EXPECT_EQ(fifo.size(), 3u);
    EXPECT_NO_THROW(fifo.verify());
    EXPECT_THROW(fifo.push_back(items[3]), InvariantError);  // already linked
    EXPECT_THROW(fifo.insert_by_key(items[3]), InvariantError);
}

TEST(IntrusiveFifo, CopyIsUnlinkedAndRelinkRestoresOrder) {
    std::vector<Item> items(3);
    for (int i = 0; i < 3; ++i) items[static_cast<std::size_t>(i)].key = i + 1;
    ItemFifo fifo;
    for (Item& item : items) fifo.push_back(item);
    const std::vector<int> keys = fifo.keys();
    EXPECT_EQ(keys, (std::vector<int>{1, 2, 3}));

    const std::vector<Item> copies = items;  // a snapshot's deep copies
    for (const Item& copy : copies) EXPECT_FALSE(ItemFifo::linked(copy));
    std::vector<Item> restored = copies;
    ItemFifo again;
    again.relink(keys, [&](int key) { return &restored[static_cast<std::size_t>(key) - 1]; });
    EXPECT_EQ(walk(again), keys);
    EXPECT_NO_THROW(again.verify());
    // A key the lookup cannot find, or a repeated one, is a broken snapshot.
    for (const std::vector<int>& broken : {std::vector<int>{1, 9}, std::vector<int>{1, 1}}) {
        std::vector<Item> fresh = copies;
        ItemFifo other;
        EXPECT_THROW(other.relink(broken,
                                  [&](int key) -> Item* {
                                      return key <= 3 ? &fresh[static_cast<std::size_t>(key) - 1]
                                                      : nullptr;
                                  }),
                     InvariantError);
    }

    // A push_back that breaks key order is caught by verify().
    std::vector<Item> bad(2);
    bad[0].key = 5;
    bad[1].key = 4;
    ItemFifo unordered;
    unordered.push_back(bad[0]);
    unordered.push_back(bad[1]);
    EXPECT_THROW(unordered.verify(), InvariantError);
}

TEST(IntrusiveFifo, RandomOpsMatchListOracle) {
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        Rng rng(seed);
        std::vector<Item> items(seed % 2 == 0 ? 8 : 200);
        for (std::size_t i = 0; i < items.size(); ++i) items[i].key = static_cast<int>(3 * i);
        ItemFifo fifo;
        std::list<int> oracle;  // linked keys, ascending
        std::uint64_t unlinks = 0;
        std::uint64_t inserts = 0;
        for (int step = 0; step < 4000; ++step) {
            Item& item = items[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(items.size()) - 1))];
            const auto roll = rng.uniform_int(0, 99);
            if (roll < 50 && !ItemFifo::linked(item)) {
                // Append when the key tops the list, as a submit does;
                // otherwise insert at the arrival slot, as a requeue does.
                if (oracle.empty() || oracle.back() < item.key) {
                    fifo.push_back(item);
                } else {
                    fifo.insert_by_key(item);
                    ++inserts;
                }
                oracle.insert(std::find_if(oracle.begin(), oracle.end(),
                                           [&](int k) { return k > item.key; }),
                              item.key);
            } else if (roll < 90) {
                if (ItemFifo::linked(item)) {
                    oracle.remove(item.key);
                    ++unlinks;
                }
                fifo.unlink(item);
            } else {
                // Snapshot round trip: relink fresh copies from keys().
                std::vector<Item> copies = items;
                ItemFifo restored;
                restored.relink(fifo.keys(), [&](int key) {
                    return &copies[static_cast<std::size_t>(key / 3)];
                });
                ASSERT_EQ(walk(restored), std::vector<int>(oracle.begin(), oracle.end()))
                    << "relink, seed " << seed << " step " << step;
                ASSERT_NO_THROW(restored.verify());
            }
            ASSERT_EQ(walk(fifo), std::vector<int>(oracle.begin(), oracle.end()))
                << "seed " << seed << " step " << step;
            ASSERT_EQ(fifo.size(), oracle.size());
            ASSERT_EQ(fifo.unlinks(), unlinks);
            ASSERT_NO_THROW(fifo.verify()) << "seed " << seed << " step " << step;
        }
        EXPECT_GT(inserts, 100u) << "seed " << seed;
    }
}

// ---------- job window ----------

struct Rec {
    std::uint64_t key = 0;
    int payload = 0;
    bool ended = false;
};
using RecWindow = JobWindow<Rec, &Rec::key>;

bool rec_ended(const Rec& rec) { return rec.ended; }

/// Mark the record ended and retire it, as a scheduler's finish does.
void finish(RecWindow& window, std::uint64_t key) {
    window.find(key)->ended = true;
    window.retire(key);
}

std::vector<std::uint64_t> window_keys(const RecWindow& window) {
    std::vector<std::uint64_t> out;
    window.for_each([&out](const Rec& r) { out.push_back(r.key); });
    return out;
}

TEST(JobWindow, PushFindRetireAndPurge) {
    RecWindow window(100, /*retention=*/1);
    EXPECT_EQ(window.next_key(), 100u);
    for (std::uint64_t k = 100; k < 105; ++k)
        window.push(std::make_unique<Rec>(Rec{k, static_cast<int>(k)}));
    EXPECT_THROW(window.push(std::make_unique<Rec>(Rec{107, 0})), PreconditionError);
    EXPECT_EQ(window.next_key() - window.base(), 5u);
    EXPECT_EQ(window.find(102)->payload, 102);
    EXPECT_EQ(window.find(99), nullptr);   // below the base
    EXPECT_EQ(window.find(105), nullptr);  // never issued
    EXPECT_EQ(window.find(0), nullptr);

    finish(window, 101);
    finish(window, 100);
    finish(window, 103);
    EXPECT_EQ(window.purge(), 2u);  // 101 and 100 go, 103 stays retained
    EXPECT_EQ(window.find(100), nullptr);
    EXPECT_EQ(window.find(101), nullptr);
    EXPECT_EQ(window.base(), 102u);  // the two front holes were popped
    EXPECT_EQ(window.next_key() - window.base(), 3u);
    EXPECT_EQ(window_keys(window), (std::vector<std::uint64_t>{102, 103, 104}));
    EXPECT_NO_THROW(window.verify(rec_ended));

    window.retire(104);  // not marked ended: verify() objects
    EXPECT_THROW(window.verify(rec_ended), InvariantError);
    window.find(104)->ended = true;
    EXPECT_EQ(window.purge(), 1u);  // 103: a hole behind the live front
    EXPECT_EQ(window.base(), 102u);
    EXPECT_EQ(window.find(103), nullptr);
    EXPECT_EQ(window_keys(window), (std::vector<std::uint64_t>{102, 104}));
    EXPECT_NO_THROW(window.verify(rec_ended));

    // Retention 0 keeps everything: nothing is even queued for purging.
    RecWindow keep_all(1, /*retention=*/0);
    keep_all.push(std::make_unique<Rec>(Rec{1, 0}));
    finish(keep_all, 1);
    EXPECT_EQ(keep_all.purge(), 0u);
    EXPECT_NE(keep_all.find(1), nullptr);
    EXPECT_TRUE(keep_all.save().retired.empty());
}

TEST(JobWindow, RestoreRebuildsTheWindowAndChecksItsRange) {
    RecWindow window(1, /*retention=*/1);
    for (std::uint64_t k = 1; k <= 4; ++k) window.push(std::make_unique<Rec>(Rec{k, 0}));
    finish(window, 1);
    finish(window, 3);
    (void)window.purge();  // 1 purged, 3 retained
    RecWindow copy(1, /*retention=*/1);
    copy.restore(window.save());
    EXPECT_EQ(copy.base(), 2u);
    EXPECT_EQ(copy.next_key(), 5u);
    EXPECT_EQ(window_keys(copy), (std::vector<std::uint64_t>{2, 3, 4}));
    EXPECT_EQ(copy.save().retired, window.save().retired);
    EXPECT_NO_THROW(copy.verify(rec_ended));

    EXPECT_THROW(copy.restore({5, 4, {}, {}}), InvariantError);           // inverted window
    EXPECT_THROW(copy.restore({2, 5, {Rec{5, 0}}, {}}), InvariantError);  // job past it
    EXPECT_THROW(copy.restore({2, 5, {Rec{1, 0}}, {}}), InvariantError);  // job below it
    copy.restore({2, 5, {Rec{3, 0}}, {}});  // front slot 2 is a hole: verify() objects
    EXPECT_THROW(copy.verify(rec_ended), InvariantError);
}

TEST(JobWindow, RandomStreamsMatchMapOracle) {
    for (const std::size_t retention : {0u, 1u, 7u, 64u}) {
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            Rng rng(seed * 100 + retention);
            const std::uint64_t first = 1 + seed;
            RecWindow window(first, retention);
            std::map<std::uint64_t, int> oracle;  // unpurged records
            std::vector<std::uint64_t> live;      // not yet retired
            std::deque<std::uint64_t> retired;
            std::uint64_t next = first;
            std::uint64_t purged = 0;
            for (int step = 0; step < 3000; ++step) {
                if (live.empty() || rng.chance(0.52)) {
                    const int payload = static_cast<int>(rng.uniform_int(0, 1'000'000));
                    window.push(std::make_unique<Rec>(Rec{next, payload}));
                    oracle[next] = payload;
                    live.push_back(next++);
                } else {
                    // Finish a random live record; old ones linger now and then.
                    const auto i = static_cast<std::size_t>(
                        rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
                    const std::uint64_t key = live[i];
                    live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
                    finish(window, key);
                    if (retention > 0) retired.push_back(key);
                    std::size_t dropped = 0;
                    while (retired.size() > retention) {
                        oracle.erase(retired.front());
                        retired.pop_front();
                        ++dropped;
                    }
                    ASSERT_EQ(window.purge(), dropped);
                    purged += dropped;
                }
                const std::uint64_t base = oracle.empty() ? next : oracle.begin()->first;
                ASSERT_EQ(window.base(), base) << "retention " << retention << " seed " << seed
                                               << " step " << step;
                ASSERT_EQ(window.next_key(), next);
                ASSERT_EQ(window.save().retired, retired);
                for (const std::uint64_t key :
                     {base - 1, base, next - 1, next, next + 1,
                      static_cast<std::uint64_t>(rng.uniform_int(
                          0, static_cast<std::int64_t>(next) + 5))}) {
                    const auto it = oracle.find(key);
                    const Rec* rec = window.find(key);
                    ASSERT_EQ(rec != nullptr, it != oracle.end()) << "key " << key;
                    if (rec != nullptr) {
                        ASSERT_EQ(rec->payload, it->second);
                    }
                }
                ASSERT_NO_THROW(window.verify(rec_ended));
            }
            std::vector<std::uint64_t> keys;
            for (const auto& [key, payload] : oracle) keys.push_back(key);
            EXPECT_EQ(window_keys(window), keys);
            if (retention > 0) {
                EXPECT_GT(purged, 500u) << "retention " << retention;
            }
        }
    }
}

// ---------- table ----------

TEST(Table, RendersHeadersAndRows) {
    Table t({"a", "bb"});
    t.add_row({"1", "2"});
    const std::string out = t.render();
    EXPECT_NE(out.find("| a | bb |"), std::string::npos);
    EXPECT_NE(out.find("| 1 | 2  |"), std::string::npos);
}

TEST(Table, RightAlignment) {
    Table t({"n"});
    t.set_alignment({Align::kRight});
    t.add_row({"7"});
    t.add_row({"100"});
    const std::string out = t.render();
    EXPECT_NE(out.find("|   7 |"), std::string::npos);
}

TEST(Table, MismatchedRowThrows) {
    Table t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
}

TEST(Table, MarkdownRendering) {
    Table t({"x", "y"});
    t.add_row({"1", "2"});
    const std::string md = t.render_markdown();
    EXPECT_NE(md.find("| x | y |"), std::string::npos);
    EXPECT_NE(md.find("|---|---|"), std::string::npos);
}

// ---------- histogram edge cases ----------

TEST(Histogram, EmptyHistogramReportsZeros) {
    Histogram h(0, 100, 10);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.min(), 0.0);
    EXPECT_EQ(h.max(), 0.0);
    EXPECT_EQ(h.percentile(0.0), 0.0);
    EXPECT_EQ(h.percentile(0.5), 0.0);
    EXPECT_EQ(h.percentile(1.0), 0.0);
}

TEST(Histogram, PercentileClampsOutOfRangeP) {
    Histogram h(0, 100, 10);
    h.add(10);
    h.add(20);
    h.add(30);
    EXPECT_EQ(h.percentile(-0.5), 10.0);  // below 0 -> min
    EXPECT_EQ(h.percentile(2.0), 30.0);   // above 1 -> max
    EXPECT_EQ(h.percentile(std::nan("")), 10.0);
    EXPECT_EQ(h.percentile(0.5), 20.0);   // sane p still interpolates
}

TEST(Histogram, OutOfRangeSamplesClampToEdgeBuckets) {
    Histogram h(0, 10, 5);
    h.add(-1000);  // below lo
    h.add(1000);   // above hi
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.min(), -1000.0);
    EXPECT_EQ(h.max(), 1000.0);
    const std::string rendered = h.render();
    EXPECT_NE(rendered.find(" 1\n"), std::string::npos);  // one per edge bucket
}

TEST(Histogram, SingleSamplePercentiles) {
    Histogram h(0, 10, 5);
    h.add(7);
    EXPECT_EQ(h.percentile(0.0), 7.0);
    EXPECT_EQ(h.percentile(0.5), 7.0);
    EXPECT_EQ(h.percentile(1.0), 7.0);
    EXPECT_EQ(h.mean(), 7.0);
}


// ---------- TextDocument ----------

std::vector<TextDocument::Key> changed(const TextDocument& doc, std::uint64_t since) {
    std::vector<TextDocument::Key> keys;
    EXPECT_TRUE(doc.changed_since(since, keys));
    return keys;
}

TEST(TextDocument, ByteIdenticalSetIsANoOp) {
    TextDocument doc;
    doc.set(7, "node7\n");
    EXPECT_EQ(doc.version(), 1u);
    doc.set(7, std::string("node7\n"));
    EXPECT_EQ(doc.version(), 1u);  // no bump
    EXPECT_TRUE(changed(doc, 1).empty());  // no journal entry
    EXPECT_EQ(doc.stats().sets, 1u);
    doc.set(7, "node7 changed\n");
    EXPECT_EQ(doc.version(), 2u);
    EXPECT_EQ(changed(doc, 1), std::vector<TextDocument::Key>{7});
    // A new empty chunk is a change, an empty rewrite of it is not.
    doc.set(8, "");
    EXPECT_EQ(doc.version(), 3u);
    doc.set(8, "");
    EXPECT_EQ(doc.version(), 3u);
}

TEST(TextDocument, EraseIsJournaled) {
    TextDocument doc;
    doc.set(1, "a");
    doc.set(2, "bb");
    EXPECT_EQ(doc.total_bytes(), 3u);
    doc.erase(1);
    EXPECT_EQ(doc.version(), 3u);
    EXPECT_EQ(doc.find(1), nullptr);
    EXPECT_EQ(doc.size(), 1u);
    EXPECT_EQ(doc.total_bytes(), 2u);
    EXPECT_EQ(changed(doc, 2), std::vector<TextDocument::Key>{1});
    EXPECT_EQ(doc.stats().erases, 1u);
    doc.erase(1);  // absent: no-op
    doc.erase(99);
    EXPECT_EQ(doc.version(), 3u);
    EXPECT_EQ(doc.stats().erases, 1u);
}

TEST(TextDocument, ChangedSinceIsSortedAndDeduplicated) {
    TextDocument doc;
    doc.set(5, "e");
    doc.set(3, "c");
    doc.set(5, "E");
    doc.set(1, "a");
    doc.erase(3);
    EXPECT_EQ(changed(doc, 0), (std::vector<TextDocument::Key>{1, 3, 5}));
    EXPECT_EQ(changed(doc, 2), (std::vector<TextDocument::Key>{1, 3, 5}));  // versions 3, 4, 5
    EXPECT_EQ(changed(doc, 3), (std::vector<TextDocument::Key>{1, 3}));
    EXPECT_TRUE(changed(doc, doc.version()).empty());
}

TEST(TextDocument, ChangedSinceFailsOnceTheJournalIsTrimmedPastTheCursor) {
    TextDocument doc;
    doc.set(0, "x");
    const std::uint64_t cursor = doc.version();
    // One live chunk rewritten past the journal floor: the log is halved.
    for (int i = 0; i < 2'000; ++i) doc.set(0, i % 2 == 0 ? "y" : "x");
    EXPECT_GT(doc.stats().log_trims, 0u);
    std::vector<TextDocument::Key> keys{42};
    EXPECT_FALSE(doc.changed_since(cursor, keys));
    EXPECT_TRUE(keys.empty());
    // The journal still answers for its recent past.
    EXPECT_EQ(changed(doc, doc.version() - 1), std::vector<TextDocument::Key>{0});
}

TEST(TextDocument, TextIsMemoizedAndAssembledInKeyOrder) {
    TextDocument doc;
    doc.set(30, "c");
    doc.set(10, "a");
    doc.set(20, "b");
    EXPECT_EQ(doc.text(), "abc");
    const std::string* first = &doc.text();
    EXPECT_EQ(doc.text(), "abc");
    EXPECT_EQ(&doc.text(), first);
    EXPECT_EQ(doc.stats().assemblies, 1u);  // the second read was the memo
    doc.set(20, "b");                       // no-op write: still memoized
    EXPECT_EQ(doc.text(), "abc");
    EXPECT_EQ(doc.stats().assemblies, 1u);
    doc.erase(10);
    EXPECT_EQ(doc.text(), "bc");
    EXPECT_EQ(doc.stats().assemblies, 2u);
}

TEST(TextDocument, StringViewSetReusesChunkCapacity) {
    TextDocument doc;
    const std::string long_text(400, 'x');
    doc.set(3, long_text);
    const char* storage = doc.find(3)->text.data();
    const std::string shorter(100, 'y');
    doc.set(3, std::string_view(shorter));
    EXPECT_EQ(doc.find(3)->text, shorter);
    EXPECT_EQ(doc.find(3)->text.data(), storage);  // assigned in place
    doc.set(3, std::string(399, 'z'));
    EXPECT_EQ(doc.find(3)->text.data(), storage);
    EXPECT_EQ(doc.find(3)->stamp, doc.version());
    // An erased chunk's string goes back to the pool: the next new key
    // (a new job after a finished one) is written into it.
    doc.erase(3);
    doc.set(4, shorter);
    EXPECT_EQ(doc.find(4)->text, shorter);
    EXPECT_EQ(doc.find(4)->text.data(), storage);
}

TEST(TextDocument, KeysInAnyOrderMatchAMapModel) {
    // The slot window grows at both ends and drops emptied front slots;
    // contents, order and byte totals must match an ordered map throughout.
    TextDocument doc;
    std::map<TextDocument::Key, std::string> model;
    Rng rng(23);
    TextDocument::Key low = 50'000;
    for (int op = 0; op < 60'000; ++op) {
        if (op % 2'000 == 0) low += 3'000;  // the live range drifts upward
        const auto roll = rng.uniform_int(0, 99);
        TextDocument::Key key = low + static_cast<TextDocument::Key>(rng.uniform_int(0, 5'000));
        if (roll < 3) key = static_cast<TextDocument::Key>(rng.uniform_int(0, 80'000));  // strays
        if (roll < 55) {
            const std::string text = "k" + std::to_string(key) + "/" + std::to_string(op % 7) + "\n";
            doc.set(key, text);
            model[key] = text;
        } else {
            doc.erase(key);
            model.erase(key);
        }
        if (op % 5'000 == 0 || op == 59'999) {
            std::string want;
            std::size_t bytes = 0;
            for (const auto& [k, text] : model) {
                want += text;
                bytes += text.size();
                ASSERT_NE(doc.find(k), nullptr) << k;
                EXPECT_EQ(doc.find(k)->text, text);
            }
            EXPECT_EQ(doc.size(), model.size());
            EXPECT_EQ(doc.total_bytes(), bytes);
            EXPECT_EQ(doc.text(), want);
            std::vector<TextDocument::Key> keys;
            doc.for_each_chunk([&](TextDocument::Key k, const TextDocument::Chunk&) { keys.push_back(k); });
            ASSERT_EQ(keys.size(), model.size());
            EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
        }
    }
    // Emptied, the window re-anchors at the next key.
    for (const auto& [k, _] : model) doc.erase(k);
    EXPECT_EQ(doc.size(), 0u);
    EXPECT_EQ(doc.text(), "");
    doc.set(3, "three");
    doc.set(1'000'000, "million");
    EXPECT_EQ(doc.text(), "threemillion");
}

}  // namespace
}  // namespace hc::util
