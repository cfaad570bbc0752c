/**
 * @file
 * Low-overhead host-side metrics registry: monotonic counters, gauges and
 * fixed-bucket histograms describing the *simulator itself* (thread-pool
 * behaviour, simulation throughput, memory, validation activity).
 *
 * The paper's selling point is measurement that costs <1% of the thing it
 * measures (§V); the same bar applies to measuring the measurement tool.
 * Hot-path increments therefore touch only per-thread sharded storage —
 * one relaxed fetch_add on a cell no other thread writes — and all
 * cross-thread merging happens at snapshot() time, off the hot path.
 * Handles (Counter/Gauge/Histogram) are cheap value types safe to copy
 * and to use concurrently from any thread.
 *
 * Snapshots are deterministic in *shape*: metrics are emitted sorted by
 * name, so two snapshots of registries with the same metric set are
 * field-for-field comparable (the diff-report regression gate relies on
 * this). Values are measurements and vary run to run.
 */

#ifndef STACKSCOPE_OBS_METRICS_HPP
#define STACKSCOPE_OBS_METRICS_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace stackscope::obs {

class MetricsRegistry;

/** One merged counter in a snapshot. */
struct CounterValue
{
    std::string name;
    std::uint64_t value = 0;
};

/** One gauge in a snapshot. */
struct GaugeValue
{
    std::string name;
    double value = 0.0;
};

/** One merged histogram in a snapshot. */
struct HistogramValue
{
    std::string name;
    /** Inclusive upper bucket edges; an implicit +inf bucket follows. */
    std::vector<double> bounds;
    /** Per-bucket observation counts; size == bounds.size() + 1. */
    std::vector<std::uint64_t> counts;
    /** Total observations and their sum. */
    std::uint64_t total = 0;
    double sum = 0.0;
};

/** Point-in-time merge of every shard, sorted by metric name. */
struct MetricsSnapshot
{
    std::vector<CounterValue> counters;
    std::vector<GaugeValue> gauges;
    std::vector<HistogramValue> histograms;

    const CounterValue *counter(std::string_view name) const;
    const GaugeValue *gauge(std::string_view name) const;
    const HistogramValue *histogram(std::string_view name) const;

    /** Counter value by name, or @p fallback when absent. */
    std::uint64_t counterOr(std::string_view name,
                            std::uint64_t fallback = 0) const;
};

/** Monotonic counter handle. Default-constructed handles are no-ops. */
class Counter
{
  public:
    Counter() = default;

    inline void inc(std::uint64_t delta = 1);

  private:
    friend class MetricsRegistry;
    Counter(MetricsRegistry *reg, std::uint32_t id) : reg_(reg), id_(id) {}

    MetricsRegistry *reg_ = nullptr;
    std::uint32_t id_ = 0;
};

/** Last-writer-wins gauge handle. Default-constructed handles are no-ops. */
class Gauge
{
  public:
    Gauge() = default;

    inline void set(double value);
    void add(double delta);
    inline double get() const;

  private:
    friend class MetricsRegistry;
    explicit Gauge(std::atomic<double> *slot) : slot_(slot) {}

    std::atomic<double> *slot_ = nullptr;
};

/**
 * Fixed-bucket histogram handle. Bucket i counts observations
 * <= bounds[i] (first matching edge); values above the last edge land in
 * the implicit overflow bucket. Default-constructed handles are no-ops.
 */
class Histogram
{
  public:
    Histogram() = default;

    void record(double value);

  private:
    friend class MetricsRegistry;
    Histogram(MetricsRegistry *reg, std::uint32_t id, const double *bounds,
              std::size_t nbounds)
        : reg_(reg), id_(id), bounds_(bounds), nbounds_(nbounds)
    {
    }

    MetricsRegistry *reg_ = nullptr;
    std::uint32_t id_ = 0;
    const double *bounds_ = nullptr;
    std::size_t nbounds_ = 0;
};

/**
 * The registry. Registration (counter()/gauge()/histogram()) takes a lock
 * and deduplicates by name — registering the same name twice returns a
 * handle to the same metric, so independent subsystems (or repeated
 * ThreadPool instances) share one series. Increments never lock.
 *
 * Capacity is fixed (kMaxCounters/kMaxGauges/kMaxHistograms) so shards
 * can be flat atomic arrays; exceeding it throws StackscopeError
 * (kInternal) at registration time, never on the hot path.
 */
class MetricsRegistry
{
  public:
    static constexpr std::size_t kMaxCounters = 192;
    static constexpr std::size_t kMaxGauges = 64;
    static constexpr std::size_t kMaxHistograms = 24;
    static constexpr std::size_t kMaxBuckets = 16;

    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    Counter counter(std::string_view name);
    Gauge gauge(std::string_view name);
    /** @p bounds must be strictly increasing; at most kMaxBuckets edges. */
    Histogram histogram(std::string_view name, std::vector<double> bounds);

    /** Merge every thread's shard into one sorted snapshot. */
    MetricsSnapshot snapshot() const;

    /** Zero every counter, gauge and histogram cell (handles stay valid). */
    void reset();

    /** The process-wide registry every subsystem reports into. */
    static MetricsRegistry &global();

  private:
    friend class Counter;
    friend class Histogram;

    /** Cells for one thread: written by that thread, read at snapshot(). */
    struct Shard
    {
        std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
        std::array<std::atomic<std::uint64_t>,
                   kMaxHistograms *(kMaxBuckets + 1)>
            hist_counts{};
        std::array<std::atomic<double>, kMaxHistograms> hist_sums{};
    };

    struct HistogramDef
    {
        std::string name;
        std::vector<double> bounds;
    };

    struct GaugeSlot
    {
        std::string name;
        std::atomic<double> value{0.0};
    };

    /** One-entry per-thread shard cache: a thread hammers one registry
     *  at a time (the global one in production); switching registries
     *  (tests) just re-resolves through the slow path. */
    struct ShardCache
    {
        /** Zero-initialized (static storage); null = not yet resolved. */
        const MetricsRegistry *registry;
        Shard *shard;
    };
    inline static thread_local ShardCache tls_shard_cache_;

    /**
     * This thread's shard. Inline so a cache hit — the per-increment hot
     * path — is one TLS load and a compare, with no cross-TU call.
     */
    Shard &
    localShard()
    {
        if (tls_shard_cache_.registry == this) [[likely]]
            return *tls_shard_cache_.shard;
        return localShardSlow();
    }

    /** First touch per (thread, registry): allocate and cache the shard. */
    Shard &localShardSlow();

    mutable std::mutex mutex_;
    std::vector<std::string> counter_names_;
    std::vector<HistogramDef> histogram_defs_;
    /** deque: slots never move, so Gauge handles stay valid. */
    std::deque<GaugeSlot> gauges_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::unordered_map<std::thread::id, Shard *> shard_of_thread_;
};

// Hot-path handle operations, inline so an increment in a per-cycle loop
// costs a TLS hit plus one relaxed RMW (bench/overhead_accounting holds
// the combined metrics+logging budget under 2%).

inline void
Counter::inc(std::uint64_t delta)
{
    if (reg_ == nullptr)
        return;
    reg_->localShard().counters[id_].fetch_add(delta,
                                               std::memory_order_relaxed);
}

inline void
Gauge::set(double value)
{
    if (slot_ != nullptr)
        slot_->store(value, std::memory_order_relaxed);
}

inline double
Gauge::get() const
{
    return slot_ == nullptr ? 0.0
                            : slot_->load(std::memory_order_relaxed);
}

/**
 * Peak resident-set size of this process image in bytes (0 when unknown):
 * VmHWM on Linux, which starts afresh at execve, getrusage elsewhere.
 */
std::uint64_t peakRssBytes();

}  // namespace stackscope::obs

#endif  // STACKSCOPE_OBS_METRICS_HPP
