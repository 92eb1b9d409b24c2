#include "core/machine.hh"

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "support/logging.hh"

namespace ximd {
namespace {

Machine
makeMachine(const char *src, MachineConfig cfg = {})
{
    return Machine(assembleString(src), cfg);
}

TEST(XimdMachine, TrivialProgramHalts)
{
    auto m = makeMachine(".fus 2\nhalt || halt\n");
    const RunResult r = m.run();
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.cycles, 1u);
    EXPECT_TRUE(m.allHalted());
}

TEST(XimdMachine, EmptyProgramRejected)
{
    EXPECT_THROW(Machine(Program(2)), FatalError);
}

TEST(XimdMachine, DataOpWritesRegister)
{
    auto m = makeMachine(
        ".fus 1\n.reg x\n"
        "halt ; iadd #2,#3,x\n");
    EXPECT_TRUE(m.run().ok());
    EXPECT_EQ(m.readRegByName("x"), 5u);
}

TEST(XimdMachine, EndOfCycleCommitAllowsRegisterSwap)
{
    // Both FUs read the other's register in the same cycle: classic
    // WAR freedom under beginning-of-cycle reads.
    auto m = makeMachine(
        ".fus 2\n.reg a 0\n.reg b 1\n"
        ".init a 11\n.init b 22\n"
        "halt ; mov b,a || halt ; mov a,b\n");
    EXPECT_TRUE(m.run().ok());
    EXPECT_EQ(m.readRegByName("a"), 22u);
    EXPECT_EQ(m.readRegByName("b"), 11u);
}

TEST(XimdMachine, BranchReadsPreviousCycleCondCode)
{
    // Cycle 0 sets cc0 = TRUE; the branch in the same row as a new
    // compare must use the OLD value.
    auto m = makeMachine(
        ".fus 1\n.reg x\n"
        "-> 1 ; eq #1,#1\n"          // cc0 := T (end of cycle 0)
        "if cc0 2 3 ; eq #1,#2\n"    // uses T -> 2; cc0 := F
        "if cc0 4 3 ; nop\n"         // uses F -> 3
        "halt ; iadd #9,#0,x\n"      // success path
        "halt ; iadd #7,#0,x\n");    // failure path
    EXPECT_TRUE(m.run().ok());
    EXPECT_EQ(m.readRegByName("x"), 9u);
}

TEST(XimdMachine, IndependentStreamsRunConcurrently)
{
    // FU0 loops 3 times; FU1 halts immediately; FU0's loop continues.
    auto m = makeMachine(
        ".fus 2\n.reg i\n.reg lim\n.init lim 3\n"
        "-> 1 ; iadd #0,#0,i || halt ; nop\n"
        "L: -> 2 ; iadd i,#1,i || halt ; nop\n"
        "-> 3 ; eq i,lim || halt ; nop\n"
        "if cc0 4 1 ; nop || halt ; nop\n"
        "halt ; nop || halt ; nop\n");
    EXPECT_TRUE(m.run().ok());
    EXPECT_EQ(m.readRegByName("i"), 3u);
    EXPECT_TRUE(m.halted(1));
}

TEST(XimdMachine, MemoryRoundTrip)
{
    auto m = makeMachine(
        ".fus 1\n.reg x\n"
        ".word 100 77\n"
        "-> 1 ; load #100,#0,x\n"
        "-> 2 ; iadd x,#1,x\n"
        "halt ; store x,#101\n");
    EXPECT_TRUE(m.run().ok());
    EXPECT_EQ(m.peekMem(101), 78u);
}

TEST(XimdMachine, RegisterWriteConflictFaults)
{
    auto m = makeMachine(
        ".fus 2\n"
        "halt ; iadd #1,#0,r5 || halt ; iadd #2,#0,r5\n");
    const RunResult r = m.run();
    EXPECT_EQ(r.reason, StopReason::Fault);
    EXPECT_NE(r.faultMessage.find("write conflict"), std::string::npos);
    EXPECT_TRUE(m.faulted());
}

TEST(XimdMachine, MemoryWriteConflictFaults)
{
    auto m = makeMachine(
        ".fus 2\n"
        "halt ; store #1,#50 || halt ; store #2,#50\n");
    EXPECT_EQ(m.run().reason, StopReason::Fault);
}

TEST(XimdMachine, ParallelStoresToDistinctAddressesOk)
{
    auto m = makeMachine(
        ".fus 2\n"
        "halt ; store #1,#50 || halt ; store #2,#51\n");
    EXPECT_TRUE(m.run().ok());
    EXPECT_EQ(m.peekMem(50), 1u);
    EXPECT_EQ(m.peekMem(51), 2u);
}

TEST(XimdMachine, DivideByZeroFaults)
{
    auto m = makeMachine(".fus 1\nhalt ; idiv #1,#0,r0\n");
    const RunResult r = m.run();
    EXPECT_EQ(r.reason, StopReason::Fault);
    EXPECT_NE(r.faultMessage.find("divide by zero"), std::string::npos);
}

TEST(XimdMachine, InfiniteLoopHitsMaxCycles)
{
    auto m = makeMachine(".fus 1\nL: -> L ; nop\n");
    const RunResult r = m.run(100);
    EXPECT_EQ(r.reason, StopReason::MaxCycles);
    EXPECT_EQ(r.cycles, 100u);
    EXPECT_FALSE(m.allHalted());
}

TEST(XimdMachine, RunResumesAfterMaxCycles)
{
    auto m = makeMachine(
        ".fus 1\n.reg i\n.init i 0\n"
        "L: -> 1 ; iadd i,#1,i\n"
        "-> 2 ; eq i,#10\n"
        "if cc0 3 0 ; nop\n"
        "halt\n");
    RunResult r = m.run(5);
    EXPECT_EQ(r.reason, StopReason::MaxCycles);
    r = m.run(); // continue where we stopped
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(m.readRegByName("i"), 10u);
}

TEST(XimdMachine, BarrierJoinsStreams)
{
    // FU0 takes a 3-cycle detour; FU1 arrives at the barrier first and
    // spins until FU0 signals DONE.
    auto m = makeMachine(
        ".fus 2\n.reg x\n"
        "-> 1 ; nop           || -> 3 ; nop\n"
        "-> 2 ; nop           || halt ; nop\n" // FU1 never here
        "-> 3 ; nop           || halt ; nop\n"
        "BAR: if all 4 3 ; nop ; done || if all 4 3 ; nop ; done\n"
        "halt ; iadd #1,#0,x  || halt ; nop\n");
    EXPECT_TRUE(m.run().ok());
    EXPECT_EQ(m.readRegByName("x"), 1u);
    // FU1 reached the barrier at cycle 1, FU0 at cycle 3; they leave
    // together at the end of cycle 3 and halt in cycle 4.
    EXPECT_EQ(m.cycle(), 5u);
    EXPECT_GE(m.stats().busyWaitCycles(), 2u);
}

TEST(XimdMachine, HaltedFuReadsDoneOnSyncBus)
{
    // FU1 halts immediately; FU0's ALL barrier must not deadlock.
    auto m = makeMachine(
        ".fus 2\n"
        "if all 1 0 ; nop ; done || halt ; nop\n"
        "halt ; nop || halt ; nop\n");
    const RunResult r = m.run(50);
    EXPECT_TRUE(r.ok());
}

TEST(XimdMachine, RegisteredSyncCostsOneExtraCycle)
{
    const char *src =
        ".fus 2\n"
        "BAR: if all 1 0 ; nop ; done || if all 1 0 ; nop ; done\n"
        "halt || halt\n";
    MachineConfig comb;
    auto m1 = makeMachine(src, comb);
    EXPECT_TRUE(m1.run().ok());

    MachineConfig reg;
    reg.registeredSync = true;
    auto m2 = makeMachine(src, reg);
    EXPECT_TRUE(m2.run().ok());

    EXPECT_EQ(m2.cycle(), m1.cycle() + 1);
}

TEST(XimdMachine, StatsCountOpsAndClasses)
{
    auto m = makeMachine(
        ".fus 2\n"
        "-> 1 ; iadd #1,#2,r0 || -> 1 ; lt #1,#2\n"
        "halt ; load #0,#0,r1 || halt ; nop\n");
    EXPECT_TRUE(m.run().ok());
    const RunStats &s = m.stats();
    EXPECT_EQ(s.cycles(), 2u);
    EXPECT_EQ(s.parcels(), 4u);
    EXPECT_EQ(s.byClass(OpClass::IntAlu), 1u);
    EXPECT_EQ(s.byClass(OpClass::IntCompare), 1u);
    EXPECT_EQ(s.byClass(OpClass::MemLoad), 1u);
    EXPECT_EQ(s.nops(), 1u);
    EXPECT_EQ(s.dataOps(), 3u);
}

TEST(XimdMachine, DeviceAttachAndIo)
{
    auto m = makeMachine(
        ".fus 1\n.reg v\n"
        "POLL: -> 1 ; load #40,#0,v\n"
        "-> 2 ; eq v,#0\n"
        "if cc0 0 3 ; nop\n"
        "halt ; store v,#41\n");
    ScriptedInputPort in("in");
    OutputPort out("out");
    in.schedule(7, 99);
    m.attachDevice(40, 40, &in);
    m.attachDevice(41, 41, &out);
    EXPECT_TRUE(m.run().ok());
    ASSERT_EQ(out.records().size(), 1u);
    EXPECT_EQ(out.records()[0].value, 99u);
    EXPECT_GT(in.emptyPolls(), 0u);
}

TEST(XimdMachine, PcOutOfProgramFaultIsImpossibleByValidation)
{
    // validate() runs in the constructor; a bad target never loads.
    Program p(1);
    p.addUniformRow(Parcel(ControlOp::jump(3), DataOp::nop()));
    EXPECT_THROW(Machine{p}, FatalError);
}

TEST(XimdMachine, TraceRecordingRespectsConfig)
{
    MachineConfig cfg;
    cfg.recordTrace = true;
    auto m = makeMachine(".fus 1\n-> 1 ; nop\nhalt\n", cfg);
    EXPECT_TRUE(m.run().ok());
    EXPECT_EQ(m.trace().size(), 2u);

    auto m2 = makeMachine(".fus 1\n-> 1 ; nop\nhalt\n");
    EXPECT_TRUE(m2.run().ok());
    EXPECT_TRUE(m2.trace().empty());
}

} // namespace
} // namespace ximd
