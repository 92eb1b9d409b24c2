/**
 * @file
 * Unit tests for the interval value domain (analysis/interval.hh):
 * lattice operations, wrap-sound arithmetic, and the per-class
 * forward analysis with guard refinement.
 */

#include <string>

#include <gtest/gtest.h>

#include "analysis/cfg.hh"
#include "analysis/interval.hh"
#include "asm/assembler.hh"

namespace ximd::analysis {
namespace {

TEST(Interval, LatticeBasics)
{
    const Interval a = Interval::range(0, 4);
    const Interval b = Interval::range(3, 9);
    EXPECT_EQ(Interval::join(a, b), Interval::range(0, 9));
    EXPECT_TRUE(Interval::overlaps(a, b));
    EXPECT_FALSE(Interval::overlaps(Interval::range(0, 2),
                                    Interval::range(3, 4)));
    EXPECT_TRUE(Interval::empty().isEmpty());
    EXPECT_TRUE(Interval::top().isTop());
    EXPECT_TRUE(Interval::single(7).isSingle());
    EXPECT_TRUE(Interval::single(7).contains(7));
}

TEST(Interval, WideningReachesSentinels)
{
    const Interval prev = Interval::range(0, 4);
    const Interval grown = Interval::range(0, 5);
    const Interval w = Interval::widen(prev, grown);
    EXPECT_GE(w.hi, Interval::kInf);
    EXPECT_EQ(w.lo, 0);
}

TEST(Interval, AddIsWrapSound)
{
    EXPECT_EQ(Interval::single(3).add(Interval::single(4)),
              Interval::single(7));
    // A sum that can leave int32 must go to top, because the machine
    // wraps mod 2^32 and the wrapped value can be anything.
    const Interval big = Interval::single(2147483647);
    EXPECT_TRUE(big.add(Interval::single(1)).isTop());
    EXPECT_EQ(Interval::single(5).sub(Interval::single(2)),
              Interval::single(3));
}

ClassIntervalAnalysis
analyze(const Program &prog, const ProgramCfg &cfg,
        std::vector<FuId> members)
{
    return ClassIntervalAnalysis(
        prog, cfg.streams[members.front()], members,
        externallyWrittenRegs(prog, cfg, members));
}

TEST(ClassIntervals, ConstantPropagatesAndDecidesCompare)
{
    const Program prog = assembleString(".fus 1\n"
                                        ".reg a 0\n"
                                        "L0: -> L1 ; mov #3,a\n"
                                        "L1: -> L2 ; eq a,#5\n"
                                        "L2: halt ; nop\n");
    const ProgramCfg cfg = buildCfg(prog);
    const ClassIntervalAnalysis ia = analyze(prog, cfg, {0});
    EXPECT_TRUE(ia.visited(1));
    EXPECT_EQ(ia.regAt(1, 0), Interval::single(3));
    const auto outcome = ia.compareOutcome(1, 0);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_FALSE(*outcome);
}

TEST(ClassIntervals, GuardRefinementBoundsLoopCounter)
{
    // i counts 0..4; the backedge is guarded by `eq i,#4`, so inside
    // the loop body i stays in [0,3] and at the exit i is exactly 4.
    const Program prog =
        assembleString(".fus 1\n"
                       ".reg i 0\n"
                       "L0: -> L1 ; mov #0,i\n"
                       "L1: -> L2 ; eq i,#4\n"
                       "L2: if cc0 L4 L3 ; nop\n"
                       "L3: -> L1 ; iadd i,#1,i\n"
                       "L4: halt ; nop\n");
    const ProgramCfg cfg = buildCfg(prog);
    const ClassIntervalAnalysis ia = analyze(prog, cfg, {0});
    EXPECT_EQ(ia.regAt(4, 0), Interval::single(4));
    const Interval body = ia.regAt(3, 0);
    EXPECT_FALSE(body.isTop());
    EXPECT_TRUE(body.contains(0));
    EXPECT_TRUE(body.contains(3));
    EXPECT_FALSE(body.contains(4));
    // The compare itself sees both outcomes, so it is not constant.
    EXPECT_FALSE(ia.compareOutcome(1, 0).has_value());
}

TEST(ClassIntervals, ExternallyWrittenRegisterIsTop)
{
    // FU1 (outside the analyzed class) also writes a, so a foreign
    // write can land between any two cycles: a must stay top.
    const Program prog = assembleString(
        ".fus 2\n"
        ".reg a 0\n"
        "L0: -> L1 ; mov #3,a || -> L1 ; mov #7,a\n"
        "L1: halt ; nop       || halt ; nop\n");
    const ProgramCfg cfg = buildCfg(prog);
    const std::vector<char> ext =
        externallyWrittenRegs(prog, cfg, {0});
    ASSERT_GT(ext.size(), 0u);
    EXPECT_TRUE(ext[0]);
    const ClassIntervalAnalysis ia(prog, cfg.streams[0], {0}, ext);
    EXPECT_TRUE(ia.regAt(1, 0).isTop());
}

TEST(ClassIntervals, LoadProducesTop)
{
    const Program prog = assembleString(".fus 1\n"
                                        ".reg t 0\n"
                                        "L0: -> L1 ; load #8,#0,t\n"
                                        "L1: halt ; nop\n");
    const ProgramCfg cfg = buildCfg(prog);
    const ClassIntervalAnalysis ia = analyze(prog, cfg, {0});
    EXPECT_TRUE(ia.regAt(1, 0).isTop());
    EXPECT_EQ(ia.loadAddr(0, 0), Interval::single(8));
}

TEST(ClassIntervals, UnnamedRegisterKeepsEntryValue)
{
    // FU0's class names only r0. Every other register answers its
    // entry value on visited rows: its .init, 0, or top when FU1
    // (outside the class) writes it; unvisited rows answer top.
    const Program prog = assembleString(
        ".fus 2\n"
        ".init r7 42\n"
        "L0: -> L1 ; mov #3,r0 || -> L1 ; mov #5,r5\n"
        "L1: halt ; nop        || halt ; nop\n"
        "L2: halt ; nop        || halt ; nop\n");
    const ProgramCfg cfg = buildCfg(prog);
    const ClassIntervalAnalysis ia = analyze(prog, cfg, {0});
    EXPECT_EQ(ia.regAt(1, 0), Interval::single(3));
    for (InstAddr row : {0u, 1u}) {
        EXPECT_EQ(ia.regAt(row, 7), Interval::single(42)) << row;
        EXPECT_EQ(ia.regAt(row, 9), Interval::single(0)) << row;
        EXPECT_TRUE(ia.regAt(row, 5).isTop()) << row;
    }
    EXPECT_FALSE(ia.visited(2));
    EXPECT_TRUE(ia.regAt(2, 7).isTop());
    EXPECT_TRUE(ia.regAt(2, 9).isTop());
    const Operand r7 = Operand::reg(7);
    EXPECT_EQ(ia.evalOperand(1, r7), Interval::single(42));
    EXPECT_TRUE(ia.evalOperand(2, r7).isTop());
}

TEST(ClassIntervals, SameRowWritesJoin)
{
    // Both members write r0 in the same cycle: the class cannot tell
    // which write lands, so the value is the join of both.
    const Program prog = assembleString(
        ".fus 2\n"
        "L0: -> L1 ; mov #3,r0 || -> L1 ; mov #9,r0\n"
        "L1: halt ; nop        || halt ; nop\n");
    const ProgramCfg cfg = buildCfg(prog);
    const ClassIntervalAnalysis ia = analyze(prog, cfg, {0, 1});
    EXPECT_EQ(ia.regAt(0, 0), Interval::single(0));
    EXPECT_EQ(ia.regAt(1, 0), Interval::range(3, 9));
}

TEST(ClassIntervals, UnguardedCounterWidens)
{
    // No compare bounds r0, so the loop rows keep changing until they
    // pass the widening threshold; r0 then grows to +inf and the
    // analysis terminates.
    const Program prog = assembleString(".fus 1\n"
                                        "L0: -> L1 ; mov #0,r0\n"
                                        "L1: -> L2 ; iadd r0,#1,r0\n"
                                        "L2: -> L1 ; nop\n");
    const ProgramCfg cfg = buildCfg(prog);
    const ClassIntervalAnalysis ia = analyze(prog, cfg, {0});
    for (InstAddr row : {1u, 2u}) {
        ASSERT_TRUE(ia.visited(row));
        EXPECT_GE(ia.regAt(row, 0).hi, Interval::kInf) << row;
    }
}

/** The Livermore loop shape: `lt k,n` against a never-written n. */
std::string
countedLoop(int n)
{
    return ".fus 1\n"
           ".init r1 " +
           std::to_string(n) +
           "\n"
           "L0: -> L1 ; mov #0,r0\n"
           "L1: -> L2 ; lt r0,r1\n"
           "L2: if cc0 L3 L4 ; nop\n"
           "L3: -> L1 ; iadd r0,#1,r0\n"
           "L4: halt ; nop\n";
}

TEST(ClassIntervals, GuardOnUnwrittenRegisterBoundsCounter)
{
    // The compare's constant side is a never-written register with a
    // singleton value, so `if cc0` trims k on both edges: the body
    // sees [0, n-1] and the exit exactly n.
    const Program prog = assembleString(countedLoop(64));
    const ProgramCfg cfg = buildCfg(prog);
    const ClassIntervalAnalysis ia = analyze(prog, cfg, {0});
    EXPECT_EQ(ia.regAt(3, 0), Interval::range(0, 63));
    EXPECT_EQ(ia.regAt(4, 0), Interval::single(64));
    EXPECT_EQ(ia.regAt(3, 1), Interval::single(64));
    EXPECT_EQ(ia.regAt(1, 0), Interval::range(0, 64));

    // One trip more and the loop head passes the widening threshold
    // (64 changes): it goes to +inf, while the guard still bounds the
    // body.
    const Program longer = assembleString(countedLoop(65));
    const ProgramCfg cfg2 = buildCfg(longer);
    const ClassIntervalAnalysis ib = analyze(longer, cfg2, {0});
    EXPECT_EQ(ib.regAt(1, 0).lo, 0);
    EXPECT_GE(ib.regAt(1, 0).hi, Interval::kInf);
    EXPECT_EQ(ib.regAt(3, 0), Interval::range(0, 64));
}

} // namespace
} // namespace ximd::analysis
