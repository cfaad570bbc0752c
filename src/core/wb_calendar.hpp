/**
 * @file
 * Calendar queue for writeback completion events.
 *
 * Replaces the binary heap (`std::priority_queue<WbEvent>`) the writeback
 * stage used through PR 6. Completion times are dense, near-future and
 * monotonically consumed — exactly the access pattern a bucketed future
 * event wheel serves in O(1) per operation where a heap pays O(log n)
 * with pointer-chasing swaps per push/pop.
 *
 * Layout: `kNumBuckets` (power of two) buckets, event with completion
 * cycle `done` lives in bucket `done & (kNumBuckets - 1)`. A bucket holds
 * every lap (events `kNumBuckets` cycles apart share a bucket); each
 * bucket is kept sorted by (done, seq) descending so draining one cycle
 * pops matching events off the back in (done, seq) ascending order.
 *
 * The wheel is deliberately small (64 buckets): in-flight events are
 * bounded by the ROB (~200) and cluster within a few tens of cycles, so a
 * small wheel keeps every bucket header and its (capacity-retaining)
 * storage resident in L1 — a wide wheel would touch each bucket only once
 * per lap and evict itself. Long-latency events (memory misses a few
 * hundred cycles out) simply sit a few laps out in their bucket; the
 * sorted-descending order makes mixed-lap buckets drain correctly.
 *
 * Tie order is accounting-visible (docs/performance.md): the drain order
 * of events completing in the same cycle decides which ROB entries the
 * same-cycle squash walk sees, and the spec-counter accounting consumes
 * branch-resolution events in drain order. The contract is the total
 * order of WbEvent::operator> — earlier completion first, then smaller
 * sequence number (older instruction) first. The adversarial permutation
 * suite in tests/core/wb_calendar_test.cpp drains this queue against a
 * `std::priority_queue` using that comparator and requires bit-identical
 * order for same-cycle insertions in every permutation.
 *
 * The queue also answers `earliest()` in O(1) amortized — the idle
 * skip-ahead's jump target. The minimum is tracked as a lower bound
 * (`lb_`) plus an exactness flag: pushes can only lower an exact minimum
 * (becoming the new exact minimum themselves), and draining the minimum
 * cycle invalidates it, after which the next query scans forward from the
 * stale bound — in total at most one bucket probe per simulated cycle
 * plus one per event, amortized O(1). A full-wheel fallback handles the
 * rare case of every remaining event sitting further than one lap away.
 */

#ifndef STACKSCOPE_CORE_WB_CALENDAR_HPP
#define STACKSCOPE_CORE_WB_CALENDAR_HPP

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace stackscope::core {

/** Writeback completion event. */
struct WbEvent
{
    Cycle done;
    unsigned slot;
    SeqNum seq;

    /**
     * Total drain order: earlier completion first; among events
     * completing the same cycle, the older instruction (smaller seq)
     * first. This comparator is the normative tie-order contract shared
     * by the calendar queue and the reference priority queue the tests
     * drain against.
     */
    bool
    operator>(const WbEvent &o) const
    {
        return done != o.done ? done > o.done : seq > o.seq;
    }
};

/** Bucketed future-event wheel over WbEvent, drained in (done, seq). */
class WbCalendar
{
  public:
    static constexpr std::size_t kNumBuckets = 64;
    static constexpr std::size_t kBucketMask = kNumBuckets - 1;

    WbCalendar()
        : buckets_(kNumBuckets),
          counts_(kNumBuckets, 0)
    {
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** Insert; @p ev.done must be >= the last drained cycle + 1. */
    void
    push(const WbEvent &ev)
    {
        std::vector<WbEvent> &b = buckets_[ev.done & kBucketMask];
        // Descending (done, seq) insertion keeps the due events poppable
        // off the back; buckets hold a handful of events, so the linear
        // scan beats any cleverness.
        auto it = b.begin();
        while (it != b.end() && *it > ev)
            ++it;
        b.insert(it, ev);
        ++counts_[ev.done & kBucketMask];
        ++size_;
        if (size_ == 1 || ev.done <= lb_) {
            // Everything else is >= the old bound, so this push is the
            // new exact minimum.
            lb_ = ev.done;
            exact_ = true;
        }
    }

    /**
     * Earliest queued completion cycle (kNeverCycle when empty). Lazy:
     * may scan forward from the cached lower bound, then caches the
     * exact answer until the next drain.
     */
    Cycle
    earliest()
    {
        if (size_ == 0)
            return kNeverCycle;
        if (!exact_)
            locateMinimum();
        return lb_;
    }

    /**
     * Extract every event with done <= @p now, invoking @p fn on each in
     * (done, seq) ascending order — exactly the order the reference
     * priority queue would pop them. @p fn must not push.
     */
    template <typename F>
    void
    drainUpTo(Cycle now, F &&fn)
    {
        while (size_ > 0) {
            if (exact_) {
                if (lb_ > now)
                    return;
            } else {
                locateMinimum();
                if (lb_ > now)
                    return;
            }
            drainCycle(lb_, fn);
            // The minimum cycle is exhausted; the next minimum is at
            // least one cycle later.
            lb_ += 1;
            exact_ = false;
        }
        if (lb_ <= now) {
            // Keep the bound tight so the next locateMinimum() scan
            // starts at the present, not in the drained past.
            lb_ = now + 1;
            exact_ = false;
        }
    }

  private:
    /** Advance lb_ to the exact queue minimum (size_ > 0). */
    void
    locateMinimum()
    {
        // Forward scan: consecutive cycles map to consecutive buckets, so
        // this touches one counter per candidate cycle. One full lap
        // without a hit means every event is more than kNumBuckets cycles
        // out — fall back to a whole-wheel minimum.
        Cycle c = lb_;
        for (std::size_t step = 0; step < kNumBuckets; ++step, ++c) {
            if (counts_[c & kBucketMask] == 0)
                continue;
            const std::vector<WbEvent> &b = buckets_[c & kBucketMask];
            // Sorted descending: the back is this bucket's minimum.
            if (b.back().done == c) {
                lb_ = c;
                exact_ = true;
                return;
            }
        }
        Cycle best = kNeverCycle;
        for (const std::vector<WbEvent> &b : buckets_) {
            if (!b.empty() && b.back().done < best)
                best = b.back().done;
        }
        assert(best != kNeverCycle);
        lb_ = best;
        exact_ = true;
    }

    template <typename F>
    void
    drainCycle(Cycle c, F &&fn)
    {
        std::vector<WbEvent> &b = buckets_[c & kBucketMask];
        std::uint32_t drained = 0;
        while (!b.empty() && b.back().done == c) {
            const WbEvent ev = b.back();
            b.pop_back();
            ++drained;
            fn(ev);
        }
        counts_[c & kBucketMask] -= drained;
        size_ -= drained;
    }

    std::vector<std::vector<WbEvent>> buckets_;
    /** Per-bucket event counts, densely packed for the scan. */
    std::vector<std::uint32_t> counts_;
    std::size_t size_ = 0;
    /** All queued events have done >= lb_; exact_ says lb_ is the min. */
    Cycle lb_ = 0;
    bool exact_ = false;
};

}  // namespace stackscope::core

#endif  // STACKSCOPE_CORE_WB_CALENDAR_HPP
