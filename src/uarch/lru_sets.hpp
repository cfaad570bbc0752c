/**
 * @file
 * The set-associative tag store with true-LRU replacement behind every
 * Cache and Tlb.
 *
 * Each set keeps its keys most recently used first. A key is the caller's
 * tag (a line or page number) plus one, and 0 marks a free way, so a way
 * costs 8 bytes and recency needs no stamps or clocks: a hit moves its
 * key to the front, and a fill shifts the set down by one, dropping the
 * last (least recently used) key when the set is full.
 *
 * A set's free ways are always its tail: fills enter at the front and
 * erase() closes the gap it leaves. So a scan stops at the first free way.
 */

#ifndef STACKSCOPE_UARCH_LRU_SETS_HPP
#define STACKSCOPE_UARCH_LRU_SETS_HPP

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace stackscope::uarch {

class LruSets
{
  public:
    /** @p sets sets of @p ways ways each, all free. */
    LruSets(std::size_t sets, unsigned ways)
        : ways_(ways), keys_(sets * ways, 0)
    {
        assert(ways > 0);
    }

    /**
     * Is @p tag in @p set? A hit becomes the set's most recently used
     * tag if @p promote.
     */
    bool
    lookup(std::size_t set, std::uint64_t tag, bool promote)
    {
        std::uint64_t *row = rowOf(set);
        const std::uint64_t key = keyOf(tag);
        for (std::size_t w = 0; w < ways_ && row[w] != 0; ++w) {
            if (row[w] == key) {
                // Rotate row[0, w] by one. The swap chain compiles to an
                // inline loop where a backward copy becomes a memmove call.
                std::uint64_t carry = key;
                for (std::size_t i = 0; promote && i <= w; ++i)
                    std::swap(carry, row[i]);
                return true;
            }
        }
        return false;
    }

    /**
     * Make @p tag the most recently used tag of @p set. A present tag
     * moves to the front; an absent one is filled there, and the set's
     * least recently used tag drops out if the set was full.
     * @retval true @p tag was present.
     */
    bool
    insert(std::size_t set, std::uint64_t tag)
    {
        std::uint64_t *row = rowOf(set);
        const std::uint64_t key = keyOf(tag);
        // Shift each key down by one until the slot that held the tag or
        // a free way takes the last one shifted.
        std::uint64_t carry = key;
        for (std::size_t w = 0; w < ways_; ++w) {
            const std::uint64_t k = row[w];
            row[w] = carry;
            if (k == key)
                return true;
            if (k == 0)
                return false;
            carry = k;
        }
        return false;
    }

    /** Drop @p tag from @p set if present. */
    void
    erase(std::size_t set, std::uint64_t tag)
    {
        std::uint64_t *row = rowOf(set);
        std::uint64_t *end = row + ways_;
        std::uint64_t *it = std::find(row, end, keyOf(tag));
        if (it == end)
            return;
        std::copy(it + 1, end, it);
        end[-1] = 0;
    }

    /** Free every way. */
    void clear() { std::fill(keys_.begin(), keys_.end(), 0); }

  private:
    static std::uint64_t
    keyOf(std::uint64_t tag)
    {
        assert(tag + 1 != 0);
        return tag + 1;
    }

    std::uint64_t *
    rowOf(std::size_t set)
    {
        return keys_.data() + set * ways_;
    }

    std::size_t ways_;
    std::vector<std::uint64_t> keys_;  ///< sets x ways, row-major
};

}  // namespace stackscope::uarch

#endif  // STACKSCOPE_UARCH_LRU_SETS_HPP
