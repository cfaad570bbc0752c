/**
 * @file
 * Translation lookaside buffer model.
 *
 * The paper's Icache and Dcache components explicitly cover "misses in the
 * instruction and data cache (and TLB)" (§III-A). A TLB miss simply adds
 * its walk latency to the access that triggered it, so the penalty
 * naturally lands in the same stack component as the cache miss path.
 *
 * The model is a single-level, set-associative, LRU TLB sized like a
 * unified second-level TLB (the small first-level TLBs hit under it and
 * are not modeled separately).
 */

#ifndef STACKSCOPE_UARCH_TLB_HPP
#define STACKSCOPE_UARCH_TLB_HPP

#include <cstdint>

#include "common/types.hpp"
#include "uarch/lru_sets.hpp"

namespace stackscope::uarch {

/** TLB geometry and walk cost. */
struct TlbParams
{
    bool enable = true;
    unsigned entries = 1024;
    unsigned page_bytes = 4096;
    /** Added latency of a page walk on a miss (STLB-hit walks). */
    Cycle miss_latency = 9;
};

/**
 * Set-associative LRU TLB (8-way).
 */
class Tlb
{
  public:
    explicit Tlb(const TlbParams &params);

    /**
     * Translate the page containing @p addr.
     * @return extra cycles added by the walk (0 on a hit or when disabled).
     */
    Cycle access(Addr addr);

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }

    void flush();

  private:
    static constexpr unsigned kWays = 8;

    TlbParams params_;
    unsigned num_sets_;
    bool pow2_ = false;  ///< page_bytes and num_sets_ both powers of two
    unsigned page_shift_ = 0;
    Addr set_mask_ = 0;
    LruSets pages_;  ///< page numbers, num_sets_ x kWays
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
};

}  // namespace stackscope::uarch

#endif  // STACKSCOPE_UARCH_TLB_HPP
