/**
 * @file
 * A plain move-to-front LRU model, the oracle for the cache and TLB
 * replacement tests: each set lists its tags most recently used first.
 */

#ifndef STACKSCOPE_TESTS_UARCH_REFERENCE_LRU_HPP
#define STACKSCOPE_TESTS_UARCH_REFERENCE_LRU_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace stackscope::uarch::testing {

class ReferenceLru
{
  public:
    ReferenceLru(std::size_t sets, std::size_t ways)
        : sets_(sets), ways_(ways)
    {}

    /** Hit test; a hit moves the tag to the front if @p promote. */
    bool
    lookup(std::size_t set, std::uint64_t tag, bool promote)
    {
        std::vector<std::uint64_t> &s = sets_[set];
        const auto it = std::find(s.begin(), s.end(), tag);
        if (it == s.end())
            return false;
        if (promote)
            std::rotate(s.begin(), it, it + 1);
        return true;
    }

    /** Move the tag to the front, adding it (and dropping the last tag
     *  of a full set) if absent. @retval true the tag was present. */
    bool
    insert(std::size_t set, std::uint64_t tag)
    {
        if (lookup(set, tag, /*promote=*/true))
            return true;
        std::vector<std::uint64_t> &s = sets_[set];
        s.insert(s.begin(), tag);
        if (s.size() > ways_)
            s.pop_back();
        return false;
    }

    void
    clear()
    {
        for (std::vector<std::uint64_t> &s : sets_)
            s.clear();
    }

  private:
    std::vector<std::vector<std::uint64_t>> sets_;
    std::size_t ways_;
};

}  // namespace stackscope::uarch::testing

#endif  // STACKSCOPE_TESTS_UARCH_REFERENCE_LRU_HPP
