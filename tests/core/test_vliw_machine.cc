#include "core/machine.hh"

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "support/logging.hh"

namespace ximd {
namespace {

Machine
makeMachine(const char *src, MachineConfig cfg = {})
{
    return Machine(assembleString(src), cfg.withMode(Mode::Vliw));
}

TEST(VliwMachine, SingleStreamExecutesAllLanes)
{
    auto m = makeMachine(
        ".fus 4\n"
        "halt ; iadd #1,#0,r0 || halt ; iadd #2,#0,r1 "
        "|| halt ; iadd #3,#0,r2 || halt ; iadd #4,#0,r3\n");
    EXPECT_TRUE(m.run().ok());
    for (RegId r = 0; r < 4; ++r)
        EXPECT_EQ(m.readReg(r), r + 1u);
}

TEST(VliwMachine, ControlComesFromLaneZero)
{
    // Lane 1 carries a different (never-consulted) branch target; only
    // lane 0's control drives the machine.
    Program p = assembleString(
        ".fus 2\n"
        "-> 2 ; nop || -> 1 ; nop\n"
        "halt ; iadd #7,#0,r0 || halt ; nop\n"
        "halt ; iadd #9,#0,r0 || halt ; nop\n");
    Machine m(p, MachineConfig::vliw());
    EXPECT_TRUE(m.run().ok());
    EXPECT_EQ(m.readReg(0), 9u);
}

TEST(VliwMachine, AnyLaneConditionCodeReachesSequencer)
{
    // The compare runs on lane 2; the single sequencer tests cc2.
    auto m = makeMachine(
        ".fus 3\n"
        "-> 1 ; nop || -> 1 ; nop || -> 1 ; lt #1,#2\n"
        "if cc2 2 3 ; nop || if cc2 2 3 ; nop || if cc2 2 3 ; nop\n"
        "halt ; iadd #1,#0,r0 || halt ; nop || halt ; nop\n"
        "halt ; iadd #2,#0,r0 || halt ; nop || halt ; nop\n");
    EXPECT_TRUE(m.run().ok());
    EXPECT_EQ(m.readReg(0), 1u);
}

TEST(VliwMachine, RejectsSyncConditions)
{
    Program p = assembleString(
        ".fus 2\n"
        "if all 0 0 ; nop || -> 0 ; nop\n");
    EXPECT_THROW((Machine{p, MachineConfig::vliw()}), FatalError);
}

TEST(VliwMachine, RejectsSyncFields)
{
    Program p = assembleString(
        ".fus 2\n"
        "halt ; nop ; done || halt ; nop\n");
    EXPECT_THROW((Machine{p, MachineConfig::vliw()}), FatalError);
}

TEST(VliwMachine, WriteConflictFaults)
{
    auto m = makeMachine(
        ".fus 2\n"
        "halt ; iadd #1,#0,r9 || halt ; iadd #2,#0,r9\n");
    EXPECT_EQ(m.run().reason, StopReason::Fault);
}

TEST(VliwMachine, MaxCyclesStopsLoop)
{
    auto m = makeMachine(".fus 1\nL: -> L ; nop\n");
    EXPECT_EQ(m.run(64).reason, StopReason::MaxCycles);
    EXPECT_EQ(m.cycle(), 64u);
}

TEST(VliwMachine, LoopComputesSum)
{
    // sum = 1 + 2 + ... + 10
    auto m = makeMachine(
        ".fus 2\n.reg i\n.reg sum\n"
        "L: -> 1 ; iadd i,#1,i      || -> 1 ; iadd sum,i,sum\n"
        "-> 2 ; eq i,#10            || -> 2 ; nop\n"
        "if cc0 3 0 ; nop           || if cc0 3 0 ; nop\n"
        "halt ; nop                 || halt ; nop\n");
    EXPECT_TRUE(m.run().ok());
    // sum accumulates the pre-increment i each pass: 0+1+...+9 plus
    // nothing else; check against that closed form.
    EXPECT_EQ(m.readRegByName("sum"), 45u);
}

TEST(VliwMachine, StatsTrackSingleStream)
{
    auto m = makeMachine(
        ".fus 2\n-> 1 ; iadd #1,#1,r0 || -> 1 ; nop\nhalt || halt\n");
    EXPECT_TRUE(m.run().ok());
    EXPECT_EQ(m.stats().partitionHistogram().at(1), m.stats().cycles());
    EXPECT_EQ(m.stats().meanStreams(), 1.0);
}

TEST(VliwMachine, TraceShowsLockstepPcs)
{
    MachineConfig cfg;
    cfg.recordTrace = true;
    auto m = makeMachine(".fus 3\n-> 1 ; nop || ; || ;\nhalt||halt||halt\n",
                         cfg);
    EXPECT_TRUE(m.run().ok());
    ASSERT_EQ(m.trace().size(), 2u);
    const TraceEntry &e = m.trace().entry(1);
    EXPECT_EQ(e.pcs, std::vector<InstAddr>(3, 1));
    EXPECT_EQ(e.partition, "{0,1,2}");
}

} // namespace
} // namespace ximd
