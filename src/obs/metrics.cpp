#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace stackscope::obs {

namespace {

template <typename T>
const T *
findByName(const std::vector<T> &sorted, std::string_view name)
{
    const auto it = std::lower_bound(
        sorted.begin(), sorted.end(), name,
        [](const T &entry, std::string_view n) { return entry.name < n; });
    if (it == sorted.end() || it->name != name)
        return nullptr;
    return &*it;
}

}  // namespace

const CounterValue *
MetricsSnapshot::counter(std::string_view name) const
{
    return findByName(counters, name);
}

const GaugeValue *
MetricsSnapshot::gauge(std::string_view name) const
{
    return findByName(gauges, name);
}

const HistogramValue *
MetricsSnapshot::histogram(std::string_view name) const
{
    return findByName(histograms, name);
}

std::uint64_t
MetricsSnapshot::counterOr(std::string_view name,
                           std::uint64_t fallback) const
{
    const CounterValue *c = counter(name);
    return c ? c->value : fallback;
}

void
Gauge::add(double delta)
{
    if (slot_ == nullptr)
        return;
    double cur = slot_->load(std::memory_order_relaxed);
    while (!slot_->compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
}

void
Histogram::record(double value)
{
    if (reg_ == nullptr)
        return;
    // Bucket i covers (bounds[i-1], bounds[i]]; the final implicit bucket
    // is (bounds[n-1], +inf).
    const std::size_t bucket = static_cast<std::size_t>(
        std::lower_bound(bounds_, bounds_ + nbounds_, value) - bounds_);
    MetricsRegistry::Shard &shard = reg_->localShard();
    shard
        .hist_counts[id_ * (MetricsRegistry::kMaxBuckets + 1) + bucket]
        .fetch_add(1, std::memory_order_relaxed);
    std::atomic<double> &sum = shard.hist_sums[id_];
    double cur = sum.load(std::memory_order_relaxed);
    while (!sum.compare_exchange_weak(cur, cur + value,
                                      std::memory_order_relaxed)) {
    }
}

MetricsRegistry::Shard &
MetricsRegistry::localShardSlow()
{
    std::lock_guard<std::mutex> lock(mutex_);
    Shard *&slot = shard_of_thread_[std::this_thread::get_id()];
    if (slot == nullptr) {
        shards_.push_back(std::make_unique<Shard>());
        slot = shards_.back().get();
    }
    tls_shard_cache_ = {this, slot};
    return *slot;
}

Counter
MetricsRegistry::counter(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < counter_names_.size(); ++i) {
        if (counter_names_[i] == name)
            return Counter(this, static_cast<std::uint32_t>(i));
    }
    if (counter_names_.size() >= kMaxCounters) {
        throw StackscopeError(ErrorCategory::kInternal,
                              "metrics registry counter capacity exceeded")
            .withContext("name", std::string(name))
            .withContext("capacity", std::to_string(kMaxCounters));
    }
    counter_names_.emplace_back(name);
    return Counter(this,
                   static_cast<std::uint32_t>(counter_names_.size() - 1));
}

Gauge
MetricsRegistry::gauge(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (GaugeSlot &slot : gauges_) {
        if (slot.name == name)
            return Gauge(&slot.value);
    }
    if (gauges_.size() >= kMaxGauges) {
        throw StackscopeError(ErrorCategory::kInternal,
                              "metrics registry gauge capacity exceeded")
            .withContext("name", std::string(name))
            .withContext("capacity", std::to_string(kMaxGauges));
    }
    gauges_.emplace_back();
    gauges_.back().name = std::string(name);
    return Gauge(&gauges_.back().value);
}

Histogram
MetricsRegistry::histogram(std::string_view name, std::vector<double> bounds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < histogram_defs_.size(); ++i) {
        if (histogram_defs_[i].name == name) {
            const HistogramDef &def = histogram_defs_[i];
            return Histogram(this, static_cast<std::uint32_t>(i),
                             def.bounds.data(), def.bounds.size());
        }
    }
    if (bounds.empty() || bounds.size() > kMaxBuckets ||
        !std::is_sorted(bounds.begin(), bounds.end()) ||
        std::adjacent_find(bounds.begin(), bounds.end()) != bounds.end()) {
        throw StackscopeError(
            ErrorCategory::kInternal,
            "histogram bounds must be 1..16 strictly increasing edges")
            .withContext("name", std::string(name));
    }
    if (histogram_defs_.size() >= kMaxHistograms) {
        throw StackscopeError(
            ErrorCategory::kInternal,
            "metrics registry histogram capacity exceeded")
            .withContext("name", std::string(name))
            .withContext("capacity", std::to_string(kMaxHistograms));
    }
    histogram_defs_.push_back({std::string(name), std::move(bounds)});
    const HistogramDef &def = histogram_defs_.back();
    return Histogram(this,
                     static_cast<std::uint32_t>(histogram_defs_.size() - 1),
                     def.bounds.data(), def.bounds.size());
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap;

    snap.counters.reserve(counter_names_.size());
    for (std::size_t i = 0; i < counter_names_.size(); ++i) {
        std::uint64_t total = 0;
        for (const auto &shard : shards_)
            total += shard->counters[i].load(std::memory_order_relaxed);
        snap.counters.push_back({counter_names_[i], total});
    }

    snap.gauges.reserve(gauges_.size());
    for (const GaugeSlot &slot : gauges_) {
        snap.gauges.push_back(
            {slot.name, slot.value.load(std::memory_order_relaxed)});
    }

    snap.histograms.reserve(histogram_defs_.size());
    for (std::size_t i = 0; i < histogram_defs_.size(); ++i) {
        const HistogramDef &def = histogram_defs_[i];
        HistogramValue hv;
        hv.name = def.name;
        hv.bounds = def.bounds;
        hv.counts.assign(def.bounds.size() + 1, 0);
        for (const auto &shard : shards_) {
            for (std::size_t b = 0; b < hv.counts.size(); ++b) {
                hv.counts[b] +=
                    shard->hist_counts[i * (kMaxBuckets + 1) + b].load(
                        std::memory_order_relaxed);
            }
            hv.sum +=
                shard->hist_sums[i].load(std::memory_order_relaxed);
        }
        for (const std::uint64_t c : hv.counts)
            hv.total += c;
        snap.histograms.push_back(std::move(hv));
    }

    const auto byName = [](const auto &a, const auto &b) {
        return a.name < b.name;
    };
    std::sort(snap.counters.begin(), snap.counters.end(), byName);
    std::sort(snap.gauges.begin(), snap.gauges.end(), byName);
    std::sort(snap.histograms.begin(), snap.histograms.end(), byName);
    return snap;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &shard : shards_) {
        for (auto &c : shard->counters)
            c.store(0, std::memory_order_relaxed);
        for (auto &c : shard->hist_counts)
            c.store(0, std::memory_order_relaxed);
        for (auto &s : shard->hist_sums)
            s.store(0.0, std::memory_order_relaxed);
    }
    for (GaugeSlot &slot : gauges_)
        slot.value.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

std::uint64_t
peakRssBytes()
{
#if defined(__linux__)
    // VmHWM starts afresh at execve, while getrusage's ru_maxrss keeps the
    // peak of the image that exec'd this one (a Python launcher, say).
    if (std::FILE *status = std::fopen("/proc/self/status", "r")) {
        char line[256];
        std::uint64_t kib = 0;
        while (std::fgets(line, sizeof line, status) != nullptr) {
            if (std::strncmp(line, "VmHWM:", 6) == 0) {
                kib = std::strtoull(line + 6, nullptr, 10);
                break;
            }
        }
        std::fclose(status);
        if (kib != 0)
            return kib * 1024;
    }
#endif
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB
#endif
#else
    return 0;
#endif
}

}  // namespace stackscope::obs
