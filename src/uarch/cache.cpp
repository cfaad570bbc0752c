#include "uarch/cache.hpp"

#include <cassert>

namespace stackscope::uarch {

namespace {

unsigned
setsOf(const CacheParams &p)
{
    // The tag store keys a line by its number plus one; lines of at least
    // two bytes keep every key clear of 0, the free-way mark.
    assert(p.line_bytes >= 2 && p.assoc > 0);
    assert(p.size_bytes >= p.line_bytes * p.assoc);
    const auto sets =
        static_cast<unsigned>(p.size_bytes / (p.line_bytes * p.assoc));
    assert(sets > 0);
    return sets;
}

}  // namespace

Cache::Cache(const CacheParams &params)
    : params_(params),
      num_sets_(setsOf(params)),
      lines_(num_sets_, params.assoc)
{
    const auto is_pow2 = [](std::uint64_t v) {
        return v != 0 && (v & (v - 1)) == 0;
    };
    pow2_ = is_pow2(params_.line_bytes) && is_pow2(num_sets_);
    if (pow2_) {
        while ((Addr{1} << line_shift_) < params_.line_bytes)
            ++line_shift_;
        set_mask_ = num_sets_ - 1;
    }
}

bool
Cache::lookup(Addr addr, bool update_lru)
{
    ++lookups_;
    const Addr line = lineAddr(addr);
    if (lines_.lookup(setIndex(line), line, update_lru))
        return true;
    ++misses_;
    return false;
}

void
Cache::insert(Addr addr)
{
    // A line already present (e.g., a racing prefetch) is just touched.
    const Addr line = lineAddr(addr);
    (void)lines_.insert(setIndex(line), line);
}

void
Cache::invalidate(Addr addr)
{
    const Addr line = lineAddr(addr);
    lines_.erase(setIndex(line), line);
}

void
Cache::invalidateAll()
{
    lines_.clear();
}

}  // namespace stackscope::uarch
