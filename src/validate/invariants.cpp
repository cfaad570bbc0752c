#include "validate/invariants.hpp"

#include <cmath>
#include <cstdio>

#include "core/ooo_core.hpp"
#include "sim/simulation.hpp"
#include "stacks/components.hpp"
#include "stacks/stack.hpp"

namespace stackscope::validate {

using stacks::CpiComponent;
using stacks::CpiStack;
using stacks::FlopsStack;
using stacks::Stage;

std::string_view
toString(ValidationPolicy p)
{
    switch (p) {
      case ValidationPolicy::kOff:
        return "off";
      case ValidationPolicy::kWarn:
        return "warn";
      case ValidationPolicy::kStrict:
        return "strict";
    }
    return "?";
}

std::optional<ValidationPolicy>
parsePolicy(std::string_view text)
{
    if (text == "off")
        return ValidationPolicy::kOff;
    if (text == "warn")
        return ValidationPolicy::kWarn;
    if (text == "strict")
        return ValidationPolicy::kStrict;
    return std::nullopt;
}

std::string_view
toString(Invariant inv)
{
    switch (inv) {
      case Invariant::kStackSum:
        return "stack-sum-conservation";
      case Invariant::kFlopsSum:
        return "flops-slot-conservation";
      case Invariant::kNonNegative:
        return "component-non-negative";
      case Invariant::kFinite:
        return "component-finite";
      case Invariant::kFrontendOrdering:
        return "frontend-ordering";
      case Invariant::kBackendOrdering:
        return "backend-ordering";
      case Invariant::kBaseEquality:
        return "base-equality";
      case Invariant::kCpiConsistency:
        return "cpi-consistency";
      case Invariant::kProgress:
        return "run-progress";
      case Invariant::kStoreOrder:
        return "store-queue-order";
      case Invariant::kCount:
        break;
    }
    return "?";
}

void
ValidationReport::merge(const ValidationReport &other)
{
    checks_run += other.checks_run;
    violations.insert(violations.end(), other.violations.begin(),
                      other.violations.end());
}

bool
ValidationReport::contains(Invariant inv) const
{
    for (const Violation &v : violations) {
        if (v.invariant == inv)
            return true;
    }
    return false;
}

std::string
ValidationReport::summary() const
{
    char head[128];
    std::snprintf(head, sizeof(head),
                  "validation: %llu checks, %zu violation(s)\n",
                  static_cast<unsigned long long>(checks_run),
                  violations.size());
    std::string out = head;
    for (const Violation &v : violations) {
        out += "  [";
        out += toString(v.invariant);
        out += "] ";
        out += v.detail;
        if (v.cycle != 0) {
            char at[48];
            std::snprintf(at, sizeof(at), " (at cycle %llu)",
                          static_cast<unsigned long long>(v.cycle));
            out += at;
        }
        out += "\n";
    }
    return out;
}

StackscopeError
ValidationReport::toError() const
{
    const ErrorCategory cat =
        !violations.empty() &&
                violations.front().invariant == Invariant::kProgress
            ? ErrorCategory::kWatchdog
            : ErrorCategory::kValidation;
    StackscopeError err(cat, summary());
    if (!violations.empty())
        err.withContext("invariant",
                        std::string(toString(violations.front().invariant)));
    return err;
}

namespace {

std::string
fmt(const char *format, double a, double b, double tol)
{
    char buf[192];
    std::snprintf(buf, sizeof(buf), format, a, b, tol);
    return buf;
}

/** Sum of the frontend-attributed components (Icache, bpred, microcode). */
double
frontendMass(const CpiStack &s)
{
    return s[CpiComponent::kIcache] + s[CpiComponent::kBpred] +
           s[CpiComponent::kMicrocode];
}

/** Sum of the backend-attributed components. */
double
backendMass(const CpiStack &s)
{
    return s[CpiComponent::kDcache] + s[CpiComponent::kAluLat] +
           s[CpiComponent::kDepend] + s[CpiComponent::kOther];
}

bool
allFinite(const CpiStack &s)
{
    bool ok = true;
    s.forEach([&](CpiComponent, double v) { ok = ok && std::isfinite(v); });
    return ok;
}

constexpr Stage kStages[] = {Stage::kDispatch, Stage::kIssue, Stage::kCommit};

}  // namespace

ValidationReport
validateResult(const sim::SimResult &r, const Tolerances &tol)
{
    ValidationReport rep;
    const double cycles = static_cast<double>(r.cycles);
    const double instrs = static_cast<double>(r.instrs);

    // Finiteness and non-negativity first: NaNs poison every other
    // comparison, so later checks are only meaningful on finite stacks.
    bool finite = std::isfinite(r.cpi);
    for (Stage s : kStages) {
        const CpiStack &cyc = r.cycle_stacks[static_cast<std::size_t>(s)];
        const CpiStack &cpi = r.cpi_stacks[static_cast<std::size_t>(s)];
        ++rep.checks_run;
        if (!allFinite(cyc) || !allFinite(cpi)) {
            finite = false;
            rep.add(Invariant::kFinite,
                    std::string("non-finite component in the ") +
                        std::string(toString(s)) + " stack");
        }
        cyc.forEach([&](CpiComponent c, double v) {
            ++rep.checks_run;
            if (std::isfinite(v) && v < -(1e-9 * cycles + 1e-9)) {
                rep.add(Invariant::kNonNegative,
                        std::string(toString(s)) + "/" +
                            std::string(componentName(c)) +
                            fmt(" = %.6g cycles (< 0; total %.6g, tol %.3g)",
                                v, cycles, 0.0));
            }
        });
    }
    ++rep.checks_run;
    bool flops_finite = true;
    r.flops_cycles.forEach([&](stacks::FlopsComponent c, double v) {
        ++rep.checks_run;
        if (!std::isfinite(v)) {
            flops_finite = false;
            rep.add(Invariant::kFinite,
                    std::string("non-finite FLOPS component ") +
                        std::string(componentName(c)));
        } else if (v < -(1e-9 * cycles + 1e-9)) {
            rep.add(Invariant::kNonNegative,
                    std::string("flops/") + std::string(componentName(c)) +
                        fmt(" = %.6g cycles (< 0)", v, 0.0, 0.0));
        }
    });
    if (!finite || !flops_finite) {
        rep.add(Invariant::kFinite,
                "skipping algebraic checks: stacks contain non-finite "
                "values");
        return rep;
    }

    // Table II conservation: every stage's cycle stack sums to total
    // cycles — each accounted cycle is attributed exactly once.
    const double sum_tol = tol.sum_rel * cycles + tol.sum_abs;
    for (Stage s : kStages) {
        const double sum =
            r.cycle_stacks[static_cast<std::size_t>(s)].sum();
        ++rep.checks_run;
        if (std::abs(sum - cycles) > sum_tol) {
            rep.add(Invariant::kStackSum,
                    std::string(toString(s)) +
                        fmt(" stack sums to %.6g cycles, run took %.6g "
                            "(tol %.3g)",
                            sum, cycles, sum_tol));
        }
    }

    // Equation 1 conservation: the FLOPS stack decomposes every cycle's
    // worth of peak issue slots.
    ++rep.checks_run;
    const double fsum = r.flops_cycles.sum();
    if (std::abs(fsum - cycles) > sum_tol) {
        rep.add(Invariant::kFlopsSum,
                fmt("FLOPS stack sums to %.6g cycles, run took %.6g "
                    "(tol %.3g)",
                    fsum, cycles, sum_tol));
    }

    // §III ordering: frontend mass can only shrink toward commit (a
    // fetch bubble may be hidden downstream but never created), backend
    // mass can only grow.
    const double order_tol =
        tol.order_rel * cycles + tol.order_cpi_abs * instrs + tol.sum_abs;
    const auto stack = [&](Stage s) -> const CpiStack & {
        return r.cycle_stacks[static_cast<std::size_t>(s)];
    };
    const struct
    {
        Stage earlier, later;
    } pairs[] = {{Stage::kDispatch, Stage::kIssue},
                 {Stage::kIssue, Stage::kCommit}};
    for (const auto &p : pairs) {
        ++rep.checks_run;
        const double fe_e = frontendMass(stack(p.earlier));
        const double fe_l = frontendMass(stack(p.later));
        if (fe_e < fe_l - order_tol) {
            rep.add(Invariant::kFrontendOrdering,
                    std::string("frontend mass ") +
                        std::string(toString(p.earlier)) +
                        fmt(" = %.6g < %.6g = ", fe_e, fe_l, 0.0) +
                        std::string(toString(p.later)) +
                        fmt(" (tol %.3g)", order_tol, 0.0, 0.0));
        }
        ++rep.checks_run;
        const double be_e = backendMass(stack(p.earlier));
        const double be_l = backendMass(stack(p.later));
        if (be_e > be_l + order_tol) {
            rep.add(Invariant::kBackendOrdering,
                    std::string("backend mass ") +
                        std::string(toString(p.earlier)) +
                        fmt(" = %.6g > %.6g = ", be_e, be_l, 0.0) +
                        std::string(toString(p.later)) +
                        fmt(" (tol %.3g)", order_tol, 0.0, 0.0));
        }
    }

    // §III-A: width normalization makes the base component equal across
    // stages (the property the accounting width W = min over stages
    // exists to provide).
    const double base_c = stack(Stage::kCommit)[CpiComponent::kBase];
    const double base_tol = tol.base_rel * base_c + tol.base_abs;
    for (Stage s : {Stage::kDispatch, Stage::kIssue}) {
        ++rep.checks_run;
        const double base_s = stack(s)[CpiComponent::kBase];
        if (std::abs(base_s - base_c) > base_tol) {
            rep.add(Invariant::kBaseEquality,
                    std::string("base(") + std::string(toString(s)) +
                        fmt(") = %.6g vs base(commit) = %.6g (tol %.3g)",
                            base_s, base_c, base_tol));
        }
    }

    // The CPI stacks must be the cycle stacks divided by committed
    // instructions, and the headline CPI the same ratio.
    if (r.instrs > 0) {
        const double cpi_tol = tol.cpi_rel * cycles + tol.cpi_abs;
        for (Stage s : kStages) {
            const CpiStack &cyc = stack(s);
            const CpiStack &cpi = r.cpi_stacks[static_cast<std::size_t>(s)];
            double max_err = 0.0;
            cyc.forEach([&](CpiComponent c, double v) {
                max_err =
                    std::max(max_err, std::abs(cpi[c] * instrs - v));
            });
            ++rep.checks_run;
            if (max_err > cpi_tol) {
                rep.add(Invariant::kCpiConsistency,
                        std::string(toString(s)) +
                            fmt(" CPI stack deviates from cycle stack / "
                                "instructions by %.6g cycles (tol %.3g)",
                                max_err, cpi_tol, 0.0));
            }
        }
        ++rep.checks_run;
        if (std::abs(r.cpi * instrs - cycles) > cpi_tol) {
            rep.add(Invariant::kCpiConsistency,
                    fmt("CPI %.6g x %.6g instructions != cycles", r.cpi,
                        instrs, 0.0) +
                        fmt(" %.6g", cycles, 0.0, 0.0));
        }
    }

    return rep;
}

void
IntervalValidator::check(const core::OooCore &core, ValidationReport &report)
{
    const Cycle elapsed = core.cycles();
    next_check_ = elapsed + interval_;
    if (elapsed == 0)
        return;

    const double cycles = static_cast<double>(elapsed);
    // Mid-run the attribution must already be exact: every tick
    // distributes exactly one cycle over the components.
    const double tol = 1e-6 * cycles + 1.0;
    const stacks::StackAccountant &acct = core.accountant();
    for (Stage s : kStages) {
        // Spec-counter stacks hold uncommitted mass until finalize();
        // their conservation is only defined at end of run.
        if (acct.config().spec_mode ==
            stacks::SpeculationMode::kSpecCounters)
            continue;
        ++report.checks_run;
        const CpiStack &cyc = acct.cycles(s);
        if (!allFinite(cyc)) {
            report.add(Invariant::kFinite,
                       std::string("non-finite component in the ") +
                           std::string(toString(s)) + " stack",
                       elapsed);
            continue;
        }
        const double sum = cyc.sum();
        if (std::abs(sum - cycles) > tol) {
            report.add(Invariant::kStackSum,
                       std::string(toString(s)) +
                           fmt(" stack sums to %.6g after %.6g measured "
                               "cycles (tol %.3g)",
                               sum, cycles, tol),
                       elapsed);
        }
        bool negative = false;
        cyc.forEach([&](CpiComponent, double v) {
            negative = negative || v < -tol;
        });
        ++report.checks_run;
        if (negative) {
            report.add(Invariant::kNonNegative,
                       std::string("negative component in the ") +
                           std::string(toString(s)) + " stack",
                       elapsed);
        }
    }

    // Microarchitectural invariant the load-alias early-break depends on:
    // the pending-store queue must stay strictly seq-sorted through every
    // dispatch/commit/squash interleaving.
    ++report.checks_run;
    if (!core.storeQueueSorted()) {
        report.add(Invariant::kStoreOrder,
                   "pending-store queue is not strictly seq-sorted",
                   elapsed);
    }

    ++report.checks_run;
    const double fsum = acct.flopsCycles().sum();
    if (!std::isfinite(fsum) || std::abs(fsum - cycles) > tol) {
        report.add(Invariant::kFlopsSum,
                   fmt("FLOPS stack sums to %.6g after %.6g measured "
                       "cycles (tol %.3g)",
                       fsum, cycles, tol),
                   elapsed);
    }
}

}  // namespace stackscope::validate
