/**
 * @file
 * Reservation stations (unified issue queue).
 *
 * Holds ROB slots of dispatched-but-not-yet-issued uops in age order. The
 * issue stage scans it oldest-first; the accounting uses its occupancy
 * ("RS empty", "RS full") per Table II.
 *
 * Layout is structure-of-arrays: alongside the age-ordered slot list, the
 * per-entry readiness state and cached issue blame live in parallel
 * arrays indexed by *position*, not ROB slot. Readiness is stored twice:
 * the true 64-bit bound (`bounds_`) and a 32-bit epoch-relative key
 * (`keys_`) the issue walk actually scans. Keys are `bound - epoch_`
 * saturated into [0, simd::kNeverKey]; the epoch rebases (and every key
 * is rewritten) once the current cycle drifts 2^30 cycles past it, so a
 * key never exceeds kNeverKey and the SIMD scan can use cheap 32-bit
 * compares (common/simd.hpp). Saturation is always *downward* (a stored
 * key is never later than the truth), so a saturated key can only cause
 * a harmless early re-evaluation, never a missed wake. The keys array is
 * contiguous in age order and padded to a multiple of simd::kScanBlock
 * with kNeverKey sentinels, so the walk's "which entries must be
 * re-evaluated this cycle?" scan runs as straight-line SIMD over the
 * active prefix instead of a gather through slot-indexed storage
 * (docs/performance.md). A position map (`pos_of_slot_`) keeps producer
 * wakeups O(1).
 *
 * Bound semantics (owned by the issue stage): 0 means "evaluate every
 * cycle", kNeverCycle means "parked until a producer wakeup re-arms it",
 * anything else is a provable earliest-ready cycle.
 */

#ifndef STACKSCOPE_UARCH_RESERVATION_STATION_HPP
#define STACKSCOPE_UARCH_RESERVATION_STATION_HPP

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/simd.hpp"
#include "common/types.hpp"

namespace stackscope::uarch {

/**
 * Fixed-capacity, age-ordered issue queue of ROB slot indices with
 * position-parallel readiness bounds.
 */
class ReservationStations
{
  public:
    /**
     * @param capacity RS entries.
     * @param rob_capacity Highest ROB slot value + 1 that will ever be
     *        inserted; sizes the slot→position map. The map grows on
     *        demand when 0 (convenient for tests).
     */
    explicit ReservationStations(unsigned capacity, unsigned rob_capacity = 0)
        : capacity_(capacity)
    {
        assert(capacity > 0);
        slots_.reserve(capacity);
        const unsigned padded =
            (capacity + simd::kScanBlock - 1) / simd::kScanBlock *
            simd::kScanBlock;
        bounds_.assign(padded, kNeverCycle);
        keys_.assign(padded, simd::kNeverKey);
        blames_.assign(padded, 0);
        tags_.assign(padded, 0);
        pos_of_slot_.assign(rob_capacity, kNoPos);
    }

    bool full() const { return slots_.size() >= capacity_; }
    bool empty() const { return slots_.empty(); }
    unsigned size() const { return static_cast<unsigned>(slots_.size()); }
    unsigned capacity() const { return capacity_; }

    /**
     * Insert at the tail (dispatch happens in age order), bound 0.
     * @p tag is an opaque per-entry byte the owner can scan positionally
     * (the core stores a correct-path-VFP flag there so the FLOPS census
     * never has to chase entries into the ROB).
     */
    void
    insert(unsigned rob_slot, std::uint8_t tag = 0)
    {
        assert(!full());
        if (rob_slot >= pos_of_slot_.size())
            pos_of_slot_.resize(rob_slot + 1, kNoPos);
        const unsigned pos = size();
        slots_.push_back(rob_slot);
        bounds_[pos] = 0;
        keys_[pos] = 0;
        blames_[pos] = 0;
        tags_[pos] = tag;
        pos_of_slot_[rob_slot] = static_cast<std::uint16_t>(pos);
    }

    /** Age-ordered view of the queued ROB slots. */
    const std::vector<unsigned> &entries() const { return slots_; }

    /**
     * Age-ordered per-entry tag bytes (valid for size() entries; contents
     * beyond that are stale, not sentinel).
     */
    const std::uint8_t *tags() const { return tags_.data(); }

    /**
     * Age-ordered epoch-relative readiness keys, contiguous, padded to a
     * multiple of simd::kScanBlock with simd::kNeverKey. Valid for size()
     * entries; the pointer is stable (no reallocation after
     * construction).
     */
    const std::uint32_t *keys() const { return keys_.data(); }

    Cycle boundAt(unsigned pos) const { return bounds_[pos]; }
    std::uint8_t blameAt(unsigned pos) const { return blames_[pos]; }

    /**
     * Rebase the key epoch if @p now has drifted far enough that key
     * saturation could start to bite, then return @p now as a key. Call
     * once at the top of each issue walk, before reading keys().
     */
    std::uint32_t
    nowKey(Cycle now)
    {
        if (now - epoch_ >= kRebaseAt) {
            epoch_ = now;
            const unsigned n = size();
            for (unsigned i = 0; i < n; ++i)
                keys_[i] = keyOf(bounds_[i]);
        }
        return static_cast<std::uint32_t>(now - epoch_);
    }

    /** Translate a scan wake key back to an absolute cycle. */
    Cycle
    keyToCycle(std::uint32_t key) const
    {
        return key >= simd::kNeverKey ? kNeverCycle : epoch_ + key;
    }

    /** Cache a readiness bound + replayable blame for the entry at @p pos. */
    void
    park(unsigned pos, Cycle bound, std::uint8_t blame)
    {
        bounds_[pos] = bound;
        keys_[pos] = keyOf(bound);
        blames_[pos] = blame;
    }

    /**
     * Producer wakeup: drop the bound of @p rob_slot's entry to 0
     * ("re-evaluate") if the slot is currently queued. A slot that has
     * already issued, committed or been squashed is simply absent and the
     * wake is a no-op.
     */
    bool
    rearmSlot(unsigned rob_slot)
    {
        if (rob_slot >= pos_of_slot_.size())
            return false;
        const std::uint16_t pos = pos_of_slot_[rob_slot];
        if (pos == kNoPos)
            return false;
        bounds_[pos] = 0;
        keys_[pos] = 0;
        return true;
    }

    /** Remove one entry (after issue). */
    void
    remove(unsigned rob_slot)
    {
        assert(rob_slot < pos_of_slot_.size() &&
               pos_of_slot_[rob_slot] != kNoPos);
        removeIf([rob_slot](unsigned s) { return s == rob_slot; });
    }

    /**
     * Remove the entries at the given ascending @p positions (the issue
     * sweep: positions were recorded during the walk, so no per-entry
     * predicate or mark array is needed). Compaction starts at the first
     * removed position; everything before it is untouched.
     */
    void
    removeAtPositions(const std::vector<unsigned> &positions)
    {
        assert(!positions.empty());
        const unsigned n = size();
        unsigned w = positions[0];
        unsigned k = 0;
        for (unsigned r = w; r < n; ++r) {
            if (k < positions.size() && positions[k] == r) {
                pos_of_slot_[slots_[r]] = kNoPos;
                ++k;
                continue;
            }
            const unsigned s = slots_[r];
            slots_[w] = s;
            bounds_[w] = bounds_[r];
            keys_[w] = keys_[r];
            blames_[w] = blames_[r];
            tags_[w] = tags_[r];
            pos_of_slot_[s] = static_cast<std::uint16_t>(w);
            ++w;
        }
        assert(k == positions.size());
        slots_.resize(w);
        for (unsigned i = w; i < n; ++i)
            keys_[i] = simd::kNeverKey;
    }

    /**
     * Remove all entries matching @p pred (squash recovery), compacting
     * the parallel arrays and restoring the kNeverKey padding behind the
     * new tail.
     */
    template <typename Pred>
    void
    removeIf(Pred &&pred)
    {
        const unsigned n = size();
        unsigned w = 0;
        for (unsigned r = 0; r < n; ++r) {
            const unsigned s = slots_[r];
            if (pred(s)) {
                pos_of_slot_[s] = kNoPos;
                continue;
            }
            slots_[w] = s;
            bounds_[w] = bounds_[r];
            keys_[w] = keys_[r];
            blames_[w] = blames_[r];
            tags_[w] = tags_[r];
            pos_of_slot_[s] = static_cast<std::uint16_t>(w);
            ++w;
        }
        slots_.resize(w);
        for (unsigned i = w; i < n; ++i)
            keys_[i] = simd::kNeverKey;
    }

  private:
    static constexpr std::uint16_t kNoPos = 0xffff;
    /** Rebase once now - epoch_ reaches this (2^30): far below key
     *  saturation (2^31 - 1), so a finite in-range bound never maps to
     *  kNeverKey between rebases. */
    static constexpr Cycle kRebaseAt = Cycle{1} << 30;

    /**
     * Epoch-relative saturating key of a bound. kNeverCycle maps to
     * kNeverKey (excluded from the wake minimum — a producer re-arm, not
     * a timer, wakes those entries); a finite bound saturates one below
     * it, keeping the stored key <= the truth so the walk errs toward
     * re-evaluating early, never toward sleeping past the bound.
     */
    std::uint32_t
    keyOf(Cycle bound) const
    {
        if (bound == kNeverCycle)
            return simd::kNeverKey;
        if (bound <= epoch_)
            return 0;
        const Cycle rel = bound - epoch_;
        return rel >= simd::kNeverKey
                   ? simd::kNeverKey - 1
                   : static_cast<std::uint32_t>(rel);
    }

    unsigned capacity_;
    std::vector<unsigned> slots_;
    std::vector<Cycle> bounds_;
    std::vector<std::uint32_t> keys_;
    std::vector<std::uint8_t> blames_;
    std::vector<std::uint8_t> tags_;
    std::vector<std::uint16_t> pos_of_slot_;
    Cycle epoch_ = 0;
};

}  // namespace stackscope::uarch

#endif  // STACKSCOPE_UARCH_RESERVATION_STATION_HPP
