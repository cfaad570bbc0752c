#include "uarch/tlb.hpp"

#include <algorithm>
#include <cassert>

namespace stackscope::uarch {

Tlb::Tlb(const TlbParams &params)
    : params_(params),
      num_sets_(std::max(1u, params.entries / kWays)),
      pages_(num_sets_, kWays)
{
    // Pages of at least two bytes keep every tag-store key (page number
    // plus one) clear of 0, the free-way mark.
    assert(params_.page_bytes >= 2);
    const auto is_pow2 = [](std::uint64_t v) {
        return v != 0 && (v & (v - 1)) == 0;
    };
    pow2_ = is_pow2(params_.page_bytes) && is_pow2(num_sets_);
    if (pow2_) {
        while ((Addr{1} << page_shift_) < params_.page_bytes)
            ++page_shift_;
        set_mask_ = num_sets_ - 1;
    }
}

Cycle
Tlb::access(Addr addr)
{
    if (!params_.enable)
        return 0;
    ++accesses_;
    // Shift/mask fast path; see Cache::lineAddr for the rationale.
    const Addr page =
        pow2_ ? addr >> page_shift_ : addr / params_.page_bytes;
    if (pages_.insert(pow2_ ? page & set_mask_ : page % num_sets_, page))
        return 0;
    ++misses_;
    return params_.miss_latency;
}

void
Tlb::flush()
{
    pages_.clear();
}

}  // namespace stackscope::uarch
