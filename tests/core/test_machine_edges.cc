/**
 * @file
 * Edge-case and failure-injection tests for the machines: fault
 * isolation, configuration extremes, and observation API guards.
 */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "core/machine.hh"
#include "support/logging.hh"

namespace ximd {
namespace {

TEST(MachineEdges, FaultPreservesPriorArchitecturalState)
{
    // Cycle 0 commits r1 := 5; cycle 1 faults (divide by zero). The
    // committed state survives; the faulting cycle's writes do not.
    auto m = Machine(assembleString(
        ".fus 2\n"
        "-> 1 ; iadd #5,#0,r1 || -> 1 ; nop\n"
        "halt ; idiv #1,#0,r2 || halt ; iadd #7,#0,r3\n"));
    const RunResult r = m.run();
    ASSERT_EQ(r.reason, StopReason::Fault);
    EXPECT_EQ(m.readReg(1), 5u); // committed before the fault
    EXPECT_EQ(m.readReg(3), 0u); // same-cycle write squashed
    EXPECT_EQ(r.cycles, 1u);     // fault cycle did not complete
}

TEST(MachineEdges, StepAfterFaultDoesNothing)
{
    auto m = Machine(assembleString(
        ".fus 1\nhalt ; idiv #1,#0,r0\n"));
    EXPECT_EQ(m.run().reason, StopReason::Fault);
    EXPECT_FALSE(m.step());
    EXPECT_EQ(m.cycle(), 0u);
    EXPECT_TRUE(m.faulted());
    EXPECT_FALSE(m.faultMessage().empty());
}

TEST(MachineEdges, RunAfterHaltIsIdempotent)
{
    auto m = Machine(assembleString(".fus 1\nhalt ; nop\n"));
    EXPECT_TRUE(m.run().ok());
    const Cycle c = m.cycle();
    const RunResult again = m.run();
    EXPECT_TRUE(again.ok());
    EXPECT_EQ(again.cycles, c);
}

TEST(MachineEdges, MaximumWidthMachine)
{
    Program p(kMaxFus);
    InstRow row;
    for (FuId fu = 0; fu < kMaxFus; ++fu)
        row.push_back(Parcel(
            ControlOp::halt(),
            DataOp::make(Opcode::Iadd, Operand::immInt(
                             static_cast<SWord>(fu)),
                         Operand::immInt(1),
                         static_cast<RegId>(fu))));
    p.addRow(std::move(row));
    Machine m(p);
    EXPECT_TRUE(m.run().ok());
    for (FuId fu = 0; fu < kMaxFus; ++fu)
        EXPECT_EQ(m.readReg(static_cast<RegId>(fu)), fu + 1);
}

TEST(MachineEdges, PartitionTrackingCanBeDisabled)
{
    MachineConfig cfg;
    cfg.trackPartitions = false;
    auto m = Machine(
        assembleString(".fus 2\nhalt ; nop || halt ; nop\n"), cfg);
    EXPECT_TRUE(m.run().ok());
    EXPECT_TRUE(m.stats().partitionHistogram().empty());
    EXPECT_EQ(m.stats().meanStreams(), 0.0);
}

TEST(MachineEdges, UnknownRegisterNameThrows)
{
    auto m = Machine(assembleString(".fus 1\nhalt ; nop\n"));
    m.run();
    EXPECT_THROW(m.readRegByName("nonesuch"), FatalError);
}

TEST(MachineEdges, SmallMemoryBoundsEnforced)
{
    MachineConfig cfg;
    cfg.memWords = 16;
    auto m = Machine(
        assembleString(".fus 1\nhalt ; store #1,#16\n"), cfg);
    const RunResult r = m.run();
    EXPECT_EQ(r.reason, StopReason::Fault);
    EXPECT_NE(r.faultMessage.find("out of range"), std::string::npos);
}

TEST(MachineEdges, DeviceWindowAtTopOfMemory)
{
    MachineConfig cfg;
    cfg.memWords = 64;
    auto m = Machine(
        assembleString(".fus 1\nhalt ; store #9,#63\n"), cfg);
    OutputPort port("top");
    m.attachDevice(63, 63, &port);
    EXPECT_TRUE(m.run().ok());
    ASSERT_EQ(port.records().size(), 1u);
    EXPECT_EQ(port.records()[0].value, 9u);
    // And one past the end is rejected at attach time.
    OutputPort beyond("beyond");
    EXPECT_THROW(m.attachDevice(64, 64, &beyond), FatalError);
}

TEST(MachineEdges, MemInitOutOfRangeFaultsAtConstruction)
{
    Program p = assembleString(".fus 1\n.word 100 1\nhalt ; nop\n");
    MachineConfig cfg;
    cfg.memWords = 50;
    EXPECT_THROW(Machine(p, cfg), FatalError);
}

TEST(MachineEdges, VliwFaultPathMirrorsXimd)
{
    auto m = Machine(assembleString(
                         ".fus 2\n"
                         "-> 1 ; iadd #5,#0,r1 || -> 1 ; nop\n"
                         "halt ; imod #1,#0,r2 || halt ; nop\n"),
                     MachineConfig::vliw());
    const RunResult r = m.run();
    EXPECT_EQ(r.reason, StopReason::Fault);
    EXPECT_EQ(m.readReg(1), 5u);
    EXPECT_FALSE(m.step());
}

TEST(MachineEdges, ConflictPolicyLowestFuWins)
{
    MachineConfig cfg;
    cfg.conflictPolicy = ConflictPolicy::LowestFuWins;
    auto m = Machine(
        assembleString(".fus 2\n"
                       "halt ; iadd #1,#0,r5 || halt ; iadd #2,#0,r5\n"),
        cfg);
    EXPECT_TRUE(m.run().ok());
    EXPECT_EQ(m.readReg(5), 1u); // FU0's write wins deterministically
}

TEST(MachineEdges, LargeImmediateRoundTrip)
{
    auto m = Machine(assembleString(
        ".fus 1\n"
        "-> 1 ; iadd #0x7fffffff,#1,r0\n" // wraps to INT_MIN
        "halt ; store r0,#40\n"));
    EXPECT_TRUE(m.run().ok());
    EXPECT_EQ(m.peekMem(40), 0x80000000u);
}

TEST(MachineEdges, AssemblerRejectsOversizedLiterals)
{
    EXPECT_THROW(assembleString(".fus 1\nhalt ; iadd #4294967296,#0,r0\n"),
                 FatalError);
    EXPECT_THROW(assembleString(".fus 1\n.word 0 4294967296\nhalt\n"),
                 FatalError);
    EXPECT_NO_THROW(
        assembleString(".fus 1\nhalt ; iadd #4294967295,#0,r0\n"));
    EXPECT_NO_THROW(
        assembleString(".fus 1\nhalt ; iadd #-2147483648,#0,r0\n"));
}

TEST(MachineEdges, SelfBarrierSingleFuReleasesImmediately)
{
    // An ALL barrier on a 1-FU machine: the FU's own DONE satisfies
    // it the first cycle.
    auto m = Machine(assembleString(
        ".fus 1\n"
        "if all 1 0 ; nop ; done\n"
        "halt ; nop\n"));
    EXPECT_TRUE(m.run(10).ok());
    EXPECT_EQ(m.cycle(), 2u);
}

} // namespace
} // namespace ximd
