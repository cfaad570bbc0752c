/**
 * @file
 * Set-associative cache tag array with LRU replacement.
 *
 * Stackscope caches model tag state only (no data): lookups and fills are
 * atomic, and timing/contention is layered on top by CacheHierarchy
 * (latencies, MSHR occupancy, memory bandwidth).
 */

#ifndef STACKSCOPE_UARCH_CACHE_HPP
#define STACKSCOPE_UARCH_CACHE_HPP

#include <cstdint>

#include "common/types.hpp"
#include "uarch/lru_sets.hpp"

namespace stackscope::uarch {

/** Geometry of one cache level. */
struct CacheParams
{
    std::uint64_t size_bytes = 32 << 10;
    unsigned assoc = 8;
    unsigned line_bytes = 64;
};

/**
 * Tag-only set-associative cache with true-LRU replacement: one LruSets
 * store of line numbers.
 */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Look up @p addr.
     * @param update_lru promote the line to MRU on a hit.
     * @retval true the line is present.
     */
    bool lookup(Addr addr, bool update_lru = true);

    /**
     * Fill the line containing @p addr as MRU, evicting the LRU way if
     * needed; a line already present is only promoted.
     */
    void insert(Addr addr);

    /** Invalidate the line containing @p addr if present. */
    void invalidate(Addr addr);

    /** Drop all contents. */
    void invalidateAll();

    unsigned numSets() const { return num_sets_; }
    unsigned assoc() const { return params_.assoc; }
    unsigned lineBytes() const { return params_.line_bytes; }

    /** Statistics: lifetime lookups / misses (including fills' lookups). */
    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t misses() const { return misses_; }

  private:
    Addr
    lineAddr(Addr addr) const
    {
        // line_bytes and num_sets_ are powers of two in every real config;
        // shift/mask avoids two integer divisions on the hottest path in
        // the memory hierarchy (odd sizes fall back to div/mod).
        return pow2_ ? addr >> line_shift_ : addr / params_.line_bytes;
    }
    unsigned
    setIndex(Addr line) const
    {
        return static_cast<unsigned>(pow2_ ? line & set_mask_
                                           : line % num_sets_);
    }

    CacheParams params_;
    unsigned num_sets_;
    bool pow2_ = false;
    unsigned line_shift_ = 0;
    Addr set_mask_ = 0;
    LruSets lines_;  ///< line numbers, num_sets_ x assoc
    std::uint64_t lookups_ = 0;
    std::uint64_t misses_ = 0;
};

}  // namespace stackscope::uarch

#endif  // STACKSCOPE_UARCH_CACHE_HPP
