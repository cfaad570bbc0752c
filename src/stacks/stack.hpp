/**
 * @file
 * Generic stack container: a fixed vector of per-component values with the
 * arithmetic needed for aggregation, normalization and bound computation.
 */

#ifndef STACKSCOPE_STACKS_STACK_HPP
#define STACKSCOPE_STACKS_STACK_HPP

#include <algorithm>
#include <array>
#include <cstddef>

#include "stacks/components.hpp"

namespace stackscope::stacks {

/**
 * Fixed-size per-component accumulator indexed by a component enum.
 *
 * @tparam E component enum ending in kCount.
 */
template <typename E>
class StackT
{
  public:
    static constexpr std::size_t kSize = static_cast<std::size_t>(E::kCount);

    constexpr StackT() = default;

    double &operator[](E c) { return v_[static_cast<std::size_t>(c)]; }
    double operator[](E c) const { return v_[static_cast<std::size_t>(c)]; }

    /** Sum over all components. */
    double
    sum() const
    {
        double s = 0.0;
        for (double x : v_)
            s += x;
        return s;
    }

    /** Scale every component by @p factor. */
    StackT
    scaled(double factor) const
    {
        StackT out = *this;
        for (double &x : out.v_)
            x *= factor;
        return out;
    }

    /** Normalize so that components sum to 1 (no-op if the sum is 0). */
    StackT
    normalized() const
    {
        const double s = sum();
        return s == 0.0 ? *this : scaled(1.0 / s);
    }

    StackT &
    operator+=(const StackT &o)
    {
        for (std::size_t i = 0; i < kSize; ++i)
            v_[i] += o.v_[i];
        return *this;
    }

    friend StackT
    operator+(StackT a, const StackT &b)
    {
        a += b;
        return a;
    }

    friend StackT
    operator-(StackT a, const StackT &b)
    {
        for (std::size_t i = 0; i < kSize; ++i)
            a.v_[i] -= b.v_[i];
        return a;
    }

    /** Component-wise minimum. */
    static StackT
    min(const StackT &a, const StackT &b)
    {
        StackT out;
        for (std::size_t i = 0; i < kSize; ++i)
            out.v_[i] = std::min(a.v_[i], b.v_[i]);
        return out;
    }

    /** Component-wise maximum. */
    static StackT
    max(const StackT &a, const StackT &b)
    {
        StackT out;
        for (std::size_t i = 0; i < kSize; ++i)
            out.v_[i] = std::max(a.v_[i], b.v_[i]);
        return out;
    }

    /** Iterate (component, value) pairs. */
    template <typename F>
    void
    forEach(F &&fn) const
    {
        for (std::size_t i = 0; i < kSize; ++i)
            fn(static_cast<E>(i), v_[i]);
    }

  private:
    std::array<double, kSize> v_{};
};

/** A CPI stack (values in cycles or CPI units depending on context). */
using CpiStack = StackT<CpiComponent>;

/** A FLOPS stack (values in cycles or FLOPS units depending on context). */
using FlopsStack = StackT<FlopsComponent>;

/** One CPI stack per pipeline stage, indexed by Stage. */
using StageStacks = std::array<CpiStack, kNumStages>;

}  // namespace stackscope::stacks

#endif  // STACKSCOPE_STACKS_STACK_HPP
