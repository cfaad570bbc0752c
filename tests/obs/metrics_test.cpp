/**
 * Tests for the host-side metrics registry: exact concurrent counting,
 * histogram bucket semantics, snapshot determinism and capacity limits.
 */

#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace stackscope::obs {
namespace {

TEST(MetricsRegistry, ConcurrentIncrementsSumExactly)
{
    MetricsRegistry reg;
    Counter c = reg.counter("test.hits");
    constexpr int kThreads = 8;
    constexpr std::uint64_t kPerThread = 20'000;

    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([c]() mutable {
            for (std::uint64_t i = 0; i < kPerThread; ++i)
                c.inc();
        });
    }
    for (std::thread &w : workers)
        w.join();

    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_NE(snap.counter("test.hits"), nullptr);
    EXPECT_EQ(snap.counter("test.hits")->value, kThreads * kPerThread);
    EXPECT_EQ(snap.counterOr("test.hits"), kThreads * kPerThread);
    EXPECT_EQ(snap.counterOr("test.absent", 7), 7u);
}

TEST(MetricsRegistry, RegistrationDeduplicatesByName)
{
    MetricsRegistry reg;
    Counter a = reg.counter("shared.count");
    Counter b = reg.counter("shared.count");
    a.inc(3);
    b.inc(4);
    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(snap.counters[0].value, 7u);

    Gauge g1 = reg.gauge("shared.gauge");
    Gauge g2 = reg.gauge("shared.gauge");
    g1.set(1.5);
    EXPECT_DOUBLE_EQ(g2.get(), 1.5);
}

TEST(MetricsRegistry, DefaultConstructedHandlesAreNoOps)
{
    Counter c;
    Gauge g;
    Histogram h;
    c.inc();
    g.set(1.0);
    g.add(2.0);
    h.record(3.0);  // must not crash
    EXPECT_DOUBLE_EQ(g.get(), 0.0);
}

TEST(MetricsRegistry, HistogramBucketBoundariesAreInclusive)
{
    MetricsRegistry reg;
    Histogram h = reg.histogram("test.lat", {1.0, 10.0});
    // Bucket i counts v <= bounds[i]; above the last edge -> overflow.
    h.record(0.5);
    h.record(1.0);   // exactly on the first edge: bucket 0
    h.record(5.0);
    h.record(10.0);  // exactly on the last edge: bucket 1
    h.record(11.0);  // overflow

    const MetricsSnapshot snap = reg.snapshot();
    const HistogramValue *hv = snap.histogram("test.lat");
    ASSERT_NE(hv, nullptr);
    ASSERT_EQ(hv->bounds, (std::vector<double>{1.0, 10.0}));
    ASSERT_EQ(hv->counts.size(), 3u);
    EXPECT_EQ(hv->counts[0], 2u);
    EXPECT_EQ(hv->counts[1], 2u);
    EXPECT_EQ(hv->counts[2], 1u);
    EXPECT_EQ(hv->total, 5u);
    EXPECT_DOUBLE_EQ(hv->sum, 27.5);
}

TEST(MetricsRegistry, SnapshotIsSortedByNameAndMergesShards)
{
    MetricsRegistry reg;
    // Register out of order; touch each counter from its own thread so
    // the merge genuinely crosses shards.
    Counter z = reg.counter("zz.last");
    Counter a = reg.counter("aa.first");
    Counter m = reg.counter("mm.middle");
    std::thread t1([a]() mutable { a.inc(10); });
    std::thread t2([m]() mutable { m.inc(20); });
    t1.join();
    t2.join();
    z.inc(30);

    const MetricsSnapshot s1 = reg.snapshot();
    ASSERT_EQ(s1.counters.size(), 3u);
    EXPECT_EQ(s1.counters[0].name, "aa.first");
    EXPECT_EQ(s1.counters[1].name, "mm.middle");
    EXPECT_EQ(s1.counters[2].name, "zz.last");
    EXPECT_EQ(s1.counters[0].value, 10u);
    EXPECT_EQ(s1.counters[1].value, 20u);
    EXPECT_EQ(s1.counters[2].value, 30u);

    // Snapshots are idempotent: same shape, same values.
    const MetricsSnapshot s2 = reg.snapshot();
    ASSERT_EQ(s2.counters.size(), s1.counters.size());
    for (std::size_t i = 0; i < s1.counters.size(); ++i) {
        EXPECT_EQ(s2.counters[i].name, s1.counters[i].name);
        EXPECT_EQ(s2.counters[i].value, s1.counters[i].value);
    }
}

TEST(MetricsRegistry, HistogramSnapshotIsConsistentWhileRecording)
{
    // The serve daemon snapshots its latency histograms for /statusz
    // while pool workers are still recording. docs/observability.md
    // documents the consistency model this test pins down: a snapshot
    // may cut between two concurrent record() calls, but each bucket
    // count is monotone and `total` is derived from the counts, so
    // total == sum(counts) holds in every snapshot.
    MetricsRegistry reg;
    Histogram h = reg.histogram("test.live", {0.25, 0.5, 0.75});
    constexpr int kThreads = 4;
    constexpr int kPerThread = 50'000;
    std::atomic<bool> go{false};

    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([h, t, &go]() mutable {
            while (!go.load()) {
            }
            for (int i = 0; i < kPerThread; ++i)
                h.record(static_cast<double>((t + i) % 5) * 0.25);
        });
    }

    go.store(true);
    std::uint64_t last_total = 0;
    for (int probe = 0; probe < 200; ++probe) {
        const MetricsSnapshot snap = reg.snapshot();
        const HistogramValue *hv = snap.histogram("test.live");
        ASSERT_NE(hv, nullptr);
        std::uint64_t from_counts = 0;
        for (const std::uint64_t c : hv->counts)
            from_counts += c;
        ASSERT_EQ(hv->total, from_counts)
            << "snapshot total must equal the sum of its own buckets";
        ASSERT_GE(hv->total, last_total) << "totals must be monotone";
        last_total = hv->total;
    }
    for (std::thread &w : workers)
        w.join();

    const MetricsSnapshot final_snap = reg.snapshot();
    EXPECT_EQ(final_snap.histogram("test.live")->total,
              static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsHandles)
{
    MetricsRegistry reg;
    Counter c = reg.counter("test.count");
    Gauge g = reg.gauge("test.gauge");
    Histogram h = reg.histogram("test.hist", {1.0});
    c.inc(5);
    g.set(2.0);
    h.record(0.5);
    reg.reset();

    MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counterOr("test.count", 99), 0u);
    ASSERT_NE(snap.gauge("test.gauge"), nullptr);
    EXPECT_DOUBLE_EQ(snap.gauge("test.gauge")->value, 0.0);
    ASSERT_NE(snap.histogram("test.hist"), nullptr);
    EXPECT_EQ(snap.histogram("test.hist")->total, 0u);

    // Old handles still work after reset.
    c.inc();
    snap = reg.snapshot();
    EXPECT_EQ(snap.counterOr("test.count"), 1u);
}

TEST(MetricsRegistry, ExceedingCapacityThrowsInternal)
{
    MetricsRegistry reg;
    for (std::size_t i = 0; i < MetricsRegistry::kMaxCounters; ++i)
        reg.counter(std::to_string(i) + ".counter");
    try {
        reg.counter("one-too-many");
        FAIL() << "expected kInternal";
    } catch (const StackscopeError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kInternal);
    }
}

TEST(MetricsRegistry, GlobalRegistryCarriesSimulatorMetrics)
{
    // The process-wide registry is shared state; only check stable facts.
    MetricsRegistry &reg = MetricsRegistry::global();
    EXPECT_EQ(&reg, &MetricsRegistry::global());
    Counter c = reg.counter("test.global_probe");
    c.inc();
    EXPECT_GE(reg.snapshot().counterOr("test.global_probe"), 1u);
}

TEST(PeakRss, ReportsSomethingPlausible)
{
    const std::uint64_t rss = peakRssBytes();
    // On Linux this comes from /proc/self/status VmHWM; a running test
    // binary has to occupy at least a megabyte.
    EXPECT_GT(rss, 1u << 20);
}

}  // namespace
}  // namespace stackscope::obs
