/** Unit tests for the Table III FLOPS stack accounting algorithm of
 *  StackAccountant, and for its Equation 1 conversion to FLOPS units in
 *  sim::SimResult. */

#include "stacks/stack_accountant.hpp"

#include <gtest/gtest.h>

#include "sim/simulation.hpp"

namespace stackscope::stacks {
namespace {

/** k=2 VPUs, v=16 lanes: peak = 64 flops/cycle. */
StackAccountantConfig
cfg()
{
    StackAccountantConfig c;
    c.vpu_count = 2;
    c.vec_lanes = 16;
    return c;
}

/** CycleState for n issued VFP uops, each a ops/lane over m lanes. */
CycleState
vfpCycle(unsigned n, double a, double m)
{
    CycleState s;
    s.n_vfp = n;
    s.vfp_lane_ops = a * m * n;
    s.vfp_nonfma_loss = (2.0 - a) * m * n;
    s.vfp_mask_loss = (16.0 - m) * n;
    return s;
}

TEST(FlopsAccountant, PeakCycleIsAllBase)
{
    StackAccountant fa(cfg());
    fa.tick(vfpCycle(2, 2.0, 16.0));  // two full FMAs
    EXPECT_DOUBLE_EQ(fa.flopsCycles()[FlopsComponent::kBase], 1.0);
    EXPECT_DOUBLE_EQ(fa.flopsCycles().sum(), 1.0);
}

TEST(FlopsAccountant, NonFmaLoss)
{
    StackAccountant fa(cfg());
    fa.tick(vfpCycle(2, 1.0, 16.0));  // two full vector adds
    EXPECT_DOUBLE_EQ(fa.flopsCycles()[FlopsComponent::kBase], 0.5);
    EXPECT_DOUBLE_EQ(fa.flopsCycles()[FlopsComponent::kNonFma], 0.5);
    EXPECT_DOUBLE_EQ(fa.flopsCycles().sum(), 1.0);
}

TEST(FlopsAccountant, MaskLoss)
{
    StackAccountant fa(cfg());
    fa.tick(vfpCycle(2, 2.0, 8.0));  // two half-masked FMAs
    EXPECT_DOUBLE_EQ(fa.flopsCycles()[FlopsComponent::kBase], 0.5);
    EXPECT_DOUBLE_EQ(fa.flopsCycles()[FlopsComponent::kMask], 0.5);
    EXPECT_DOUBLE_EQ(fa.flopsCycles().sum(), 1.0);
}

TEST(FlopsAccountant, CombinedNonFmaAndMask)
{
    StackAccountant fa(cfg());
    fa.tick(vfpCycle(2, 1.0, 8.0));  // half-masked adds
    // Per Table III: f = 1*8*2/64 = 0.25; nonfma = 1*8*2/64 = 0.25;
    // mask = 2*(16-8)/32 = 0.5.
    EXPECT_DOUBLE_EQ(fa.flopsCycles()[FlopsComponent::kBase], 0.25);
    EXPECT_DOUBLE_EQ(fa.flopsCycles()[FlopsComponent::kNonFma], 0.25);
    EXPECT_DOUBLE_EQ(fa.flopsCycles()[FlopsComponent::kMask], 0.5);
    EXPECT_DOUBLE_EQ(fa.flopsCycles().sum(), 1.0);
}

TEST(FlopsAccountant, FrontendWhenNoVfpInRs)
{
    StackAccountant fa(cfg());
    CycleState s;  // nothing issued, no VFP waiting
    s.vfp_in_rs = false;
    fa.tick(s);
    EXPECT_DOUBLE_EQ(fa.flopsCycles()[FlopsComponent::kFrontend], 1.0);
}

TEST(FlopsAccountant, NonVfpWhenVpuStolen)
{
    StackAccountant fa(cfg());
    CycleState s = vfpCycle(1, 2.0, 16.0);  // one FMA issued
    s.vfp_in_rs = true;
    s.nonvfp_on_vpu = 1;  // the other VPU ran an integer vector op
    fa.tick(s);
    EXPECT_DOUBLE_EQ(fa.flopsCycles()[FlopsComponent::kBase], 0.5);
    EXPECT_DOUBLE_EQ(fa.flopsCycles()[FlopsComponent::kNonVfp], 0.5);
}

TEST(FlopsAccountant, MemWhenProducerIsLoad)
{
    StackAccountant fa(cfg());
    CycleState s;
    s.vfp_in_rs = true;
    s.vfp_blame = VfpBlame::kMem;
    fa.tick(s);
    EXPECT_DOUBLE_EQ(fa.flopsCycles()[FlopsComponent::kMem], 1.0);
}

TEST(FlopsAccountant, DependWhenProducerIsNotLoad)
{
    StackAccountant fa(cfg());
    CycleState s;
    s.vfp_in_rs = true;
    s.vfp_blame = VfpBlame::kDepend;
    fa.tick(s);
    EXPECT_DOUBLE_EQ(fa.flopsCycles()[FlopsComponent::kDepend], 1.0);
}

TEST(FlopsAccountant, PartialVfpIssueSplitsRemainder)
{
    StackAccountant fa(cfg());
    CycleState s = vfpCycle(1, 2.0, 16.0);  // one of two VPUs doing an FMA
    s.vfp_in_rs = true;
    s.vfp_blame = VfpBlame::kMem;
    fa.tick(s);
    EXPECT_DOUBLE_EQ(fa.flopsCycles()[FlopsComponent::kBase], 0.5);
    EXPECT_DOUBLE_EQ(fa.flopsCycles()[FlopsComponent::kMem], 0.5);
    EXPECT_DOUBLE_EQ(fa.flopsCycles().sum(), 1.0);
}

TEST(FlopsAccountant, UnschedCycle)
{
    StackAccountant fa(cfg());
    CycleState s;
    s.unsched = true;
    fa.tick(s);
    EXPECT_DOUBLE_EQ(fa.flopsCycles()[FlopsComponent::kUnsched], 1.0);
}

TEST(FlopsAccountant, EveryCycleSumsToOne)
{
    // Property: components partition each cycle exactly (Table III).
    StackAccountant fa(cfg());
    const CycleState states[] = {
        vfpCycle(2, 2.0, 16.0), vfpCycle(1, 1.5, 12.0),
        vfpCycle(2, 1.0, 4.0),  vfpCycle(0, 0.0, 0.0),
    };
    int n = 0;
    for (int i = 0; i < 400; ++i) {
        CycleState s = states[i % 4];
        if (s.n_vfp < 2) {
            s.vfp_in_rs = i % 8 < 4;
            s.vfp_blame = VfpBlame::kMem;
            s.nonvfp_on_vpu = i % 16 < 2 ? 1 : 0;
        }
        fa.tick(s);
        ++n;
    }
    EXPECT_NEAR(fa.flopsCycles().sum(), n, 1e-9);
}

/** A 2 GHz core with k=2 VPUs of v=16 lanes: M = 64 flops/cycle. */
sim::MachineConfig
flopsMachine()
{
    sim::MachineConfig m;
    m.freq_ghz = 2.0;
    m.core.fu.vpu_units = 2;
    m.core.flops_vec_lanes = 16;
    return m;
}

TEST(FlopsAccountant, Equation1Conversion)
{
    StackAccountant fa(cfg());
    // 100 cycles at half peak.
    for (int i = 0; i < 100; ++i)
        fa.tick(vfpCycle(1, 2.0, 16.0));
    const sim::MachineConfig m = flopsMachine();
    const double freq = m.freqHz();
    sim::SimResult r;
    r.cycles = 100;
    r.core_peak_flops = m.corePeakFlops();
    r.flops_cycles = fa.flopsCycles();
    // Peak = 2*2*16 = 64 flops/cycle -> 128 GFLOPS machine peak.
    const FlopsStack f = r.flopsStack();
    EXPECT_NEAR(f.sum(), 64.0 * freq, 1.0);
    EXPECT_NEAR(r.achievedFlops(), 32.0 * freq, 1.0);
    EXPECT_DOUBLE_EQ(m.corePeakFlops() / freq, 64.0);
}

TEST(FlopsAccountant, ZeroCyclesGiveEmptyStack)
{
    sim::SimResult r;  // r.cycles == 0
    r.core_peak_flops = flopsMachine().corePeakFlops();
    r.flops_cycles[FlopsComponent::kBase] = 1.0;
    EXPECT_DOUBLE_EQ(r.flopsStack().sum(), 0.0);
}

}  // namespace
}  // namespace stackscope::stacks
