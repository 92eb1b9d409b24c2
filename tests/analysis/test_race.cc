/**
 * @file
 * Tests for the cross-stream race engine (analysis/race.hh).
 *
 * Two corpora pin down the two sides of the engine's contract:
 *
 *  - precision: everything the scheduler / workload generators emit —
 *    the built-in workload grid and 200 random lockstep programs —
 *    analyzes with zero findings;
 *  - the bad corpus: each examples/programs/{race_mem, race_cc_sync,
 *    lost_signal, unbounded_wait}.ximd is flagged with exactly the
 *    expected diagnostic kind.
 */

#include <string>

#include <gtest/gtest.h>

#include "analysis/race.hh"
#include "asm/assembler.hh"
#include "farm/suite.hh"
#include "workloads/randprog.hh"

#ifndef XIMD_SOURCE_DIR
#error "XIMD_SOURCE_DIR must point at the repo root"
#endif

namespace ximd::analysis {
namespace {

Program
example(const std::string &name)
{
    return assembleFile(std::string(XIMD_SOURCE_DIR) +
                        "/examples/programs/" + name);
}

bool
hasCheck(const RaceReport &report, Check check)
{
    for (const Diagnostic &d : report.diags.all())
        if (d.check == check)
            return true;
    return false;
}

TEST(RaceEngine, MemRaceExampleFlagged)
{
    const RaceReport r = analyzeRaces(example("race_mem.ximd"));
    EXPECT_FALSE(r.baseErrors);
    EXPECT_TRUE(hasCheck(r, Check::MemRace));
    EXPECT_GT(r.diags.errorCount(), 0u);
}

TEST(RaceEngine, CcRaceExampleFlagged)
{
    const RaceReport r = analyzeRaces(example("race_cc_sync.ximd"));
    EXPECT_FALSE(r.baseErrors);
    EXPECT_TRUE(hasCheck(r, Check::CcRace));
}

TEST(RaceEngine, LostSignalExampleFlagged)
{
    const RaceReport r = analyzeRaces(example("lost_signal.ximd"));
    EXPECT_FALSE(r.baseErrors);
    EXPECT_TRUE(hasCheck(r, Check::LostSignal));
}

TEST(RaceEngine, UnboundedWaitExampleFlagged)
{
    const RaceReport r = analyzeRaces(example("unbounded_wait.ximd"));
    EXPECT_FALSE(r.baseErrors);
    EXPECT_TRUE(hasCheck(r, Check::UnboundedWait));
}

TEST(RaceEngine, OneClassUnboundedWaitFlagged)
{
    // The one-FU unbounded_wait.ximd. One class has no pair, so only
    // the unbounded-wait check can report, and the poll's exit is its
    // only way to a halt: the intervals must still run to prove the
    // compare constant.
    const Program prog = assembleString(".fus 1\n"
                                        ".reg a 0\n"
                                        "L00: -> L01 ; mov #3,a\n"
                                        "L01: -> L02 ; eq a,#5\n"
                                        "L02: if cc0 L03 L02 ; nop\n"
                                        "L03: halt\n");
    const RaceReport r = analyzeRaces(prog);
    EXPECT_EQ(r.classes, 1u);
    ASSERT_EQ(r.diags.size(), 1u) << r.diags.formatted();
    EXPECT_EQ(r.diags.all().front().check, Check::UnboundedWait);
    EXPECT_EQ(r.diags.all().front().row, 2u);
}

TEST(RaceEngine, OneClassCounterLoopIsClean)
{
    // The shape codegen emits for the Livermore loops: the true edge
    // enters the body, and the false edge leaves the loop. Even with
    // the true edge cut the branch reaches a halt, so no interval
    // answer could make this an unbounded wait.
    const Program prog = assembleString(".fus 1\n"
                                        ".reg i 0\n"
                                        "L00: -> L01 ; lt i,#4\n"
                                        "L01: if cc0 L02 L04 ; nop\n"
                                        "L02: -> L03 ; iadd i,#1,i\n"
                                        "L03: -> L00 ; nop\n"
                                        "L04: halt\n");
    const RaceReport r = analyzeRaces(prog);
    EXPECT_EQ(r.classes, 1u);
    EXPECT_TRUE(r.clean()) << r.diags.formatted();
}

TEST(RaceEngine, DiagnosticsCarryBothSitesAndLines)
{
    const RaceReport r = analyzeRaces(example("race_mem.ximd"));
    ASSERT_FALSE(r.diags.empty());
    const Diagnostic &d = r.diags.all().front();
    EXPECT_EQ(d.check, Check::MemRace);
    EXPECT_GE(d.fu, 0);
    EXPECT_GE(d.otherFu, 0);
    EXPECT_GT(d.line, 0u);
    EXPECT_GT(d.otherLine, 0u);
    EXPECT_NE(d.fu, d.otherFu);
}

TEST(RaceEngine, GoodExamplesAnalyzeClean)
{
    for (const char *name : {"minmax.ximd", "barrier.ximd"}) {
        const RaceReport r = analyzeRaces(example(name));
        EXPECT_TRUE(r.clean()) << name << ":\n"
                               << r.diags.formatted();
    }
    // minmax deliberately reads a register the writer is overwriting
    // in the same cycle (the lockstep read-old-value idiom); the
    // engine proves the pair benign and records it as covered.
    const RaceReport minmax = analyzeRaces(example("minmax.ximd"));
    EXPECT_FALSE(minmax.covered.empty());
}

TEST(RaceEngine, BaseErrorsSkipRaceAnalysis)
{
    // cc_race.ximd fails the base verifier; the race model assumes a
    // structurally valid program, so the engine reports baseErrors
    // and stays silent rather than piling on.
    const RaceReport r = analyzeRaces(example("cc_race.ximd"));
    EXPECT_TRUE(r.baseErrors);
    EXPECT_TRUE(r.diags.empty());
    EXPECT_FALSE(r.clean());
}

TEST(RaceEngine, SyncOrderedHandshakeIsClean)
{
    // FU1 waits for FU0's DONE before loading what FU0 stored: the
    // product automaton proves the store strictly precedes the load.
    const Program prog = assembleString(
        ".fus 2\n"
        ".reg u 0\n"
        "L00: -> L01 ; nop             || if ss0 L01 L00 ; nop\n"
        "L01: -> L02 ; nop             || -> L03 ; nop\n"
        "L02: -> L03 ; store #7,#100   || -> L03 ; nop\n"
        "L03: -> L04 ; nop ; done      || -> L04 ; load #100,#0,u\n"
        "L04: halt ; nop               || halt ; nop\n");
    const RaceReport r = analyzeRaces(prog);
    EXPECT_TRUE(r.clean()) << r.diags.formatted();
}

TEST(RaceEngine, EmptyProgramIsClean)
{
    EXPECT_TRUE(analyzeRaces(Program{1}).clean());
}

TEST(RaceEngine, BudgetExhaustionCoversNotFlags)
{
    RaceOptions opts;
    opts.stateBudget = 1; // force exhaustion on any real product
    const RaceReport r = analyzeRaces(example("race_mem.ximd"), opts);
    EXPECT_TRUE(r.budgetExceeded);
    EXPECT_EQ(r.diags.errorCount(), 0u);
    EXPECT_FALSE(r.covered.empty());
    EXPECT_TRUE(hasCheck(r, Check::RaceBudget));
}

TEST(RaceEngine, SchedulerCorpusIsRaceFree)
{
    for (const farm::RunSpec &spec : farm::builtinSuite()) {
        if (spec.loadError)
            continue;
        ASSERT_TRUE(spec.program);
        const RaceReport r = analyzeRaces(spec.program->program());
        EXPECT_TRUE(r.clean()) << spec.name << ":\n"
                               << r.diags.formatted();
    }
}

TEST(RaceEngine, RandprogCorpusIsRaceFree)
{
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        workloads::RandProgOptions o;
        o.seed = seed;
        o.width = 1 + seed % 8;
        o.rows = 20 + seed % 60;
        o.branchPercent = 10 + seed % 40;
        const Program prog = workloads::randomLockstepProgram(o);
        const RaceReport r = analyzeRaces(prog);
        EXPECT_TRUE(r.clean())
            << "seed " << seed << ":\n"
            << r.diags.formatted();
        // All columns are identical by construction: one class, so
        // there is no class pair to race.
        EXPECT_EQ(r.classes, 1u) << "seed " << seed;
    }
}

} // namespace
} // namespace ximd::analysis
