/**
 * @file
 * Tests for the pipelined datapath (section 4.3's "3-stage Data Path
 * Pipeline" prototype feature, MachineConfig::resultLatency) and for
 * the latency-aware compiler support.
 */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "core/machine.hh"
#include "sched/codegen.hh"
#include "support/logging.hh"
#include "support/random.hh"


namespace ximd {
namespace {

MachineConfig
latencyCfg(unsigned latency)
{
    MachineConfig cfg;
    cfg.resultLatency = latency;
    return cfg;
}

TEST(Pipeline, WriteInvisibleUntilLatencyElapses)
{
    // r0 := 7 issued at cycle 0; reads at cycles 1 and 2 capture what
    // they see. With latency 3, the write lands at the start of
    // cycle 3.
    const char *src =
        ".fus 1\n"
        "-> 1 ; iadd #7,#0,r0\n"
        "-> 2 ; mov r0,r1\n"   // cycle 1
        "-> 3 ; mov r0,r2\n"   // cycle 2
        "-> 4 ; mov r0,r3\n"   // cycle 3
        "halt ; nop\n";
    Machine m(assembleString(src), latencyCfg(3));
    ASSERT_TRUE(m.run(100).ok());
    EXPECT_EQ(m.readReg(1), 0u); // stale
    EXPECT_EQ(m.readReg(2), 0u); // stale
    EXPECT_EQ(m.readReg(3), 7u); // visible at cycle 3
}

TEST(Pipeline, LatencyOneMatchesResearchModel)
{
    const char *src =
        ".fus 1\n"
        "-> 1 ; iadd #7,#0,r0\n"
        "halt ; mov r0,r1\n";
    Machine m(assembleString(src), latencyCfg(1));
    ASSERT_TRUE(m.run(100).ok());
    EXPECT_EQ(m.readReg(1), 7u);
}

TEST(Pipeline, DrainsWritesAfterHalt)
{
    // The store issues in the halt cycle; with latency 3 the machine
    // must keep draining two more cycles after every FU halted.
    const char *src = ".fus 1\nhalt ; store #42,#50\n";
    Machine m(assembleString(src), latencyCfg(3));
    const RunResult r = m.run(100);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(m.peekMem(50), 42u);
    EXPECT_EQ(r.cycles, 3u); // issue + 2 drain cycles
}

TEST(Pipeline, VliwDrainsWritesAfterHalt)
{
    const char *src = ".fus 2\nhalt ; store #42,#50 || halt ; nop\n";
    Machine m(assembleString(src), latencyCfg(3).withMode(Mode::Vliw));
    ASSERT_TRUE(m.run(100).ok());
    EXPECT_EQ(m.peekMem(50), 42u);
}

TEST(Pipeline, CcWritesAreDelayedToo)
{
    // Compare at cycle 0; with latency 2 the branch at cycle 1 still
    // sees the old (false) cc0, the branch at cycle 2 sees TRUE.
    const char *src =
        ".fus 1\n"
        "-> 1 ; eq #1,#1\n"
        "if cc0 9 2 ; nop\n"       // stale: falls through
        "if cc0 3 9 ; nop\n"       // visible: taken
        "halt ; iadd #5,#0,r0\n"
        "halt ; nop\n"             // 4
        "halt ; nop\n"             // 5
        "halt ; nop\n"             // 6
        "halt ; nop\n"             // 7
        "halt ; nop\n"             // 8
        "halt ; iadd #9,#0,r0\n";  // 9: wrong path
    Machine m(assembleString(src), latencyCfg(2));
    ASSERT_TRUE(m.run(100).ok());
    EXPECT_EQ(m.readReg(0), 5u);
}

TEST(Pipeline, WawRetiresInIssueOrder)
{
    const char *src =
        ".fus 1\n"
        "-> 1 ; iadd #1,#0,r0\n"
        "-> 2 ; iadd #2,#0,r0\n"
        "halt ; nop\n";
    Machine m(assembleString(src), latencyCfg(3));
    ASSERT_TRUE(m.run(100).ok());
    EXPECT_EQ(m.readReg(0), 2u);
}

TEST(Pipeline, SameCycleWritebackRaceFaults)
{
    // Two FUs write the same register in the same cycle: the race
    // surfaces at write-back time regardless of latency.
    const char *src =
        ".fus 2\n"
        "halt ; iadd #1,#0,r5 || halt ; iadd #2,#0,r5\n";
    Machine m(assembleString(src), latencyCfg(3));
    EXPECT_EQ(m.run(100).reason, StopReason::Fault);
}

TEST(Pipeline, SchedulerStretchesSchedulesWithLatency)
{
    using namespace sched;
    IrBuilder b;
    b.startBlock("entry");
    IrValue x = b.emit(Opcode::Iadd, IrValue::immInt(1),
                       IrValue::immInt(2));
    IrValue y = b.emit(Opcode::Imult, x, IrValue::immInt(3));
    b.emitStore(y, IrValue::immInt(60));
    b.halt();
    IrProgram ir = b.finish();

    const auto r1 = valueOrFatal(generateCodeChecked(ir, {.width = 4, .rawLatency = 1}));
    const auto r3 = valueOrFatal(generateCodeChecked(ir, {.width = 4, .rawLatency = 3}));
    EXPECT_GT(r3.program.size(), r1.program.size());

    Machine m1(r1.program, latencyCfg(1));
    Machine m3(r3.program, latencyCfg(3));
    ASSERT_TRUE(m1.run(1000).ok());
    ASSERT_TRUE(m3.run(1000).ok());
    EXPECT_EQ(m1.peekMem(60), 9u);
    EXPECT_EQ(m3.peekMem(60), 9u);
}

TEST(Pipeline, ResearchModelCodeBreaksOnPrototypePipe)
{
    // The hazard the paper's section 2.3 warns about: latency-1 code
    // is NOT correct on the pipelined prototype. (The simulator still
    // executes it deterministically; the values are stale.)
    using namespace sched;
    IrBuilder b;
    b.startBlock("entry");
    IrValue x = b.emit(Opcode::Iadd, IrValue::immInt(1),
                       IrValue::immInt(2));
    IrValue y = b.emit(Opcode::Imult, x, IrValue::immInt(3));
    b.emitStore(y, IrValue::immInt(60));
    b.halt();
    IrProgram ir = b.finish();

    const auto r1 = valueOrFatal(generateCodeChecked(ir, {.width = 4, .rawLatency = 1}));
    Machine m(r1.program, latencyCfg(3));
    ASSERT_TRUE(m.run(1000).ok());
    EXPECT_NE(m.peekMem(60), 9u); // stale x: 0 * 3
}

/** Random diamond programs: codegen at latency L on a latency-L
 *  machine must match the IR interpreter, for L in {1, 2, 3}. */
class PipelineCodegenProperty
    : public ::testing::TestWithParam<
          std::tuple<unsigned, int, std::uint64_t>>
{
};

TEST_P(PipelineCodegenProperty, MatchesInterpreter)
{
    using namespace sched;
    const auto [latency, width, seed] = GetParam();
    Rng rng(seed);

    IrBuilder b;
    std::vector<IrValue> vals;
    auto randVal = [&]() {
        if (!vals.empty() && rng.chance(0.7))
            return vals[static_cast<std::size_t>(
                rng.range(0, static_cast<int>(vals.size()) - 1))];
        return IrValue::immInt(static_cast<SWord>(rng.range(-9, 9)));
    };
    static const Opcode kOps[] = {Opcode::Iadd, Opcode::Isub,
                                  Opcode::Imult, Opcode::Xor};

    b.startBlock("entry");
    for (int i = 0; i < 8; ++i)
        vals.push_back(
            b.emit(kOps[rng.range(0, 3)], randVal(), randVal()));
    const int cmp =
        b.emitCompare(Opcode::Lt, randVal(), randVal());
    b.branch(cmp, "then", "else");
    b.startBlock("then");
    vals.push_back(b.emit(Opcode::Iadd, randVal(), randVal()));
    b.emitStore(vals.back(), IrValue::immInt(70));
    b.jump("join");
    b.startBlock("else");
    b.emitStore(randVal(), IrValue::immInt(70));
    b.jump("join");
    b.startBlock("join");
    vals.push_back(b.emit(Opcode::Xor, randVal(), randVal()));
    b.emitStore(vals.back(), IrValue::immInt(71));
    b.halt();
    IrProgram ir = b.finish();

    std::vector<Word> refMem(1024, 0);
    const auto refVregs = interpretIr(ir, refMem);

    const auto code = valueOrFatal(generateCodeChecked(
        ir,
        {.width = static_cast<FuId>(width), .rawLatency = latency}));
    MachineConfig cfg = latencyCfg(latency);
    cfg.memWords = 1024;
    Machine m(code.program, cfg);
    const RunResult r = m.run(100000);
    ASSERT_TRUE(r.ok()) << r.faultMessage;

    EXPECT_EQ(m.peekMem(70), refMem[70]);
    EXPECT_EQ(m.peekMem(71), refMem[71]);
    for (VregId v = 0; v < ir.numVregs; ++v)
        EXPECT_EQ(m.readReg(static_cast<RegId>(v)),
                  refVregs[static_cast<std::size_t>(v)])
            << "vreg " << v;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineCodegenProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(2, 8),
                       ::testing::Values(5u, 6u, 7u, 8u)));

} // namespace
} // namespace ximd
