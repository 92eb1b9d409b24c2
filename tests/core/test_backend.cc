/**
 * @file
 * Execution-backend tier: selection, demotion, and equivalence.
 *
 * MachineCore::demotionReason() is the contract between the fast
 * threaded backend and everything observing the machine: any
 * configuration the block backend cannot serve with full fidelity
 * must name the first violated requirement and fall back to the
 * interpreter. These tests pin that contract, the reporting plumbing
 * (effectiveBackendName, RunStats::json backend fields), and the
 * architectural equivalence of the two backends on the paper kernels.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "core/machine.hh"
#include "core/observer.hh"
#include "core/partition.hh"
#include "sim/io_port.hh"
#include "snapshot/fault.hh"
#include "workloads/kernels.hh"

namespace {

using namespace ximd;

/** Minimal observer that insists on per-cycle onCycle delivery. */
class PerCycleObserver : public CycleObserver
{
  public:
    const char *observerName() const override { return "per-cycle"; }
    void onCycle(const MachineCore &core) override { (void)core; }
};

/**
 * Minimal observer content with folded per-block delivery. Cycles the
 * backend steps per-cycle (e.g. to seed the SSET grouping) arrive via
 * onCycle as usual, so a block observer counts both channels.
 */
class BlockObserver : public CycleObserver
{
  public:
    const char *observerName() const override { return "blocky"; }
    bool acceptsBlocks() const override { return true; }
    void onCycle(const MachineCore &core) override
    {
        (void)core;
        ++cycles;
    }
    void onBlock(const MachineCore &core,
                 const BlockStats &blk) override
    {
        (void)core;
        cycles += blk.cycles;
    }
    Cycle cycles = 0;
};

/**
 * Memory traffic across the 4096-word page boundary: a load from a
 * never-written page, FU0 and FU1 storing to addresses 4095 and 4096
 * in one cycle, loads back across the boundary (base + offset), then
 * a store to address 5000 — the first word past a 5000-word memory.
 */
Program
crossPageProgram()
{
    return assembleString(
        ".fus 2\n"
        "-> 1 ; load #4500,#0,r1 || -> 1 ; iadd #11,#0,r2\n"
        "-> 2 ; store r2,#4095 || -> 2 ; store #22,#4096\n"
        "-> 3 ; load #4094,#1,r3 || -> 3 ; load #4095,#1,r4\n"
        "-> 4 ; store #33,#5000 || -> 4 ; nop\n"
        "halt ; load #5000,#0,r5 || halt ; nop\n");
}

/**
 * Same-cycle write conflicts on row 1, after one committed cycle: two
 * FUs adding into one register, two FUs storing to one address, and a
 * 4-FU row writing r7, r5, r5, r7. Under ConflictPolicy::Fault the
 * last must name r5 — the lowest conflicting register, not the first
 * conflicting FU.
 */
const struct
{
    const char *name;
    const char *src;
} kConflictPrograms[] = {
    {"reg-conflict", ".fus 2\n"
                     "-> 1 ; iadd #9,#0,r1 || -> 1 ; nop\n"
                     "-> 2 ; iadd #1,#2,r2 || -> 2 ; iadd #3,#4,r2\n"
                     "halt ; nop || halt ; nop\n"},
    {"mem-conflict", ".fus 2\n"
                     "-> 1 ; iadd #9,#0,r1 || -> 1 ; nop\n"
                     "-> 2 ; store #1,#40 || -> 2 ; store #2,#40\n"
                     "halt ; nop || halt ; nop\n"},
    {"r7-r5-r5-r7",
     ".fus 4\n"
     "-> 1 ; iadd #9,#0,r1 || -> 1 ; nop || -> 1 ; nop || -> 1 ; nop\n"
     "-> 2 ; iadd #1,#0,r7 || -> 2 ; iadd #2,#0,r5 || "
     "-> 2 ; iadd #3,#0,r5 || -> 2 ; iadd #4,#0,r7\n"
     "halt ; nop || halt ; nop || halt ; nop || halt ; nop\n"},
};

TEST(Backend, DefaultConfigSelectsThreadedAndRunsIt)
{
    Machine m(workloads::minmaxPaper(true));
    EXPECT_EQ(m.core().selectedBackend(), Backend::Threaded);
    EXPECT_EQ(m.core().demotionReason(), "");
    EXPECT_EQ(m.core().effectiveBackend(), Backend::Threaded);
    EXPECT_STREQ(m.core().effectiveBackendName(), "threaded");
}

TEST(Backend, InterpSelectionIsHonored)
{
    Machine m(workloads::minmaxPaper(true),
              MachineConfig{}.withBackend(Backend::Interp));
    EXPECT_EQ(m.core().effectiveBackend(), Backend::Interp);
    EXPECT_STREQ(m.core().effectiveBackendName(), "interp");
    EXPECT_EQ(m.core().demotionReason(), "");
}

TEST(Backend, BackendNameIsStable)
{
    EXPECT_STREQ(backendName(Backend::Interp), "interp");
    EXPECT_STREQ(backendName(Backend::Threaded), "threaded");
}

TEST(Backend, TraceObserverDemotes)
{
    Machine m(workloads::minmaxPaper(true),
              MachineConfig{}.withTrace());
    EXPECT_EQ(m.core().selectedBackend(), Backend::Threaded);
    EXPECT_EQ(m.core().demotionReason(),
              "observer 'trace' requires per-cycle fidelity");
    EXPECT_EQ(m.core().effectiveBackend(), Backend::Interp);
    EXPECT_STREQ(m.core().effectiveBackendName(), "interp");
}

TEST(Backend, CustomPerCycleObserverDemotesByName)
{
    Machine m(workloads::minmaxPaper(true));
    PerCycleObserver obs;
    m.addObserver(&obs);
    EXPECT_EQ(m.core().demotionReason(),
              "observer 'per-cycle' requires per-cycle fidelity");
}

TEST(Backend, PerturbingObserverDemotes)
{
    snapshot::FaultPlan plan;
    snapshot::FaultInjector injector(plan.expandTrial(1, 4));
    Machine m(workloads::minmaxPaper(true));
    m.addObserver(&injector);
    EXPECT_EQ(m.core().demotionReason(),
              "observer 'fault-injector' schedules perturbations");
}

TEST(Backend, ResultLatencyDemotes)
{
    Machine m(workloads::minmaxPaper(true),
              MachineConfig{}.withResultLatency(3));
    EXPECT_EQ(m.core().demotionReason(),
              "result latency > 1 keeps the write pipeline in "
              "flight");
}

TEST(Backend, RegisteredSyncDemotes)
{
    Machine m(workloads::bitcount1Paper(
                  std::vector<Word>(16, 1)),
              MachineConfig{}.withRegisteredSync());
    EXPECT_EQ(m.core().demotionReason(),
              "registered sync distribution needs per-cycle "
              "stepping");
}

TEST(Backend, MappedDeviceDemotes)
{
    OutputPort port("out");
    Machine m(workloads::minmaxPaper(true));
    m.attachDevice(4000, 4000, &port);
    EXPECT_EQ(m.core().demotionReason(),
              "memory-mapped devices need per-cycle access ordering");
}

TEST(Backend, StockStatsAndPartitionObserversAcceptBlocks)
{
    // The default observer set (stats + partitions, no trace) must not
    // demote — that is the whole point of the block protocol.
    Machine m(workloads::minmaxPaper(true), MachineConfig{});
    EXPECT_EQ(m.core().demotionReason(), "");
}

TEST(Backend, BlockObserverSeesEveryCycleOnce)
{
    BlockObserver blocks;
    Machine threaded(workloads::minmaxPaper(true), MachineConfig{});
    threaded.addObserver(&blocks);
    ASSERT_EQ(threaded.core().demotionReason(), "");
    const RunResult run = threaded.run(1000);
    EXPECT_EQ(run.reason, StopReason::Halted);
    EXPECT_EQ(blocks.cycles, run.cycles);
}

TEST(Backend, ThreadedMatchesInterpObservables)
{
    // Same program, same observers, both backends: identical outcome,
    // architectural and serialized state, statistics and partition
    // history. The cross-page program also runs in a 5000-word memory,
    // where its store to address 5000 must fault the same way.
    struct Input
    {
        const char *name;
        Program program;
        MachineConfig config;
    };
    std::vector<Input> inputs = {
        {"minmax", workloads::minmaxPaper(true), MachineConfig{}},
        {"cross-page", crossPageProgram(), MachineConfig{}},
        {"cross-page/5000-words", crossPageProgram(),
         MachineConfig{}.withMemWords(5000)},
    };
    for (const auto &c : kConflictPrograms)
        for (Mode mode : {Mode::Ximd, Mode::Vliw})
            for (ConflictPolicy policy :
                 {ConflictPolicy::Fault, ConflictPolicy::LowestFuWins})
                inputs.push_back(
                    {c.name, assembleString(c.src),
                     MachineConfig{}.withMode(mode).withConflictPolicy(
                         policy)});
    for (const Input &in : inputs) {
        SCOPED_TRACE(std::string(in.name) + "/" +
                     modeName(in.config.mode) + "/" +
                     (in.config.conflictPolicy == ConflictPolicy::Fault
                          ? "fault"
                          : "lowest-fu-wins"));
        Machine interp(in.program,
                       MachineConfig(in.config).withBackend(
                           Backend::Interp));
        Machine threaded(in.program,
                         MachineConfig(in.config).withBackend(
                             Backend::Threaded));
        ASSERT_EQ(threaded.core().effectiveBackend(), Backend::Threaded);
        const RunResult ri = interp.run(1000);
        const RunResult rt = threaded.run(1000);
        EXPECT_EQ(ri.reason, rt.reason);
        EXPECT_EQ(ri.cycles, rt.cycles);
        EXPECT_EQ(ri.faultMessage, rt.faultMessage);
        EXPECT_EQ(interp.archStateHash(), threaded.archStateHash());
        EXPECT_EQ(interp.stateHash(), threaded.stateHash());
        EXPECT_EQ(interp.stats().formatted(),
                  threaded.stats().formatted());
        EXPECT_EQ(interp.partitions().formatted(),
                  threaded.partitions().formatted());
        if (std::string(in.name) == "r7-r5-r5-r7" &&
            in.config.conflictPolicy == ConflictPolicy::Fault) {
            EXPECT_EQ(rt.faultMessage,
                      "fatal: register write conflict: FU1 and FU2 both "
                      "write r5 this cycle");
        }
    }
}

TEST(Backend, CrossPageProgramComputesExpectedWords)
{
    // Pins what the parity check above compares, so it cannot pass
    // on two equally wrong answers.
    for (Backend b : {Backend::Interp, Backend::Threaded}) {
        SCOPED_TRACE(backendName(b));
        Machine m(crossPageProgram(), MachineConfig{}.withBackend(b));
        EXPECT_EQ(m.run(100).reason, StopReason::Halted);
        EXPECT_EQ(m.readReg(1), 0u);  // never-written page reads zero
        EXPECT_EQ(m.readReg(3), 11u); // M[4095]
        EXPECT_EQ(m.readReg(4), 22u); // M[4096]
        EXPECT_EQ(m.readReg(5), 33u); // M[5000]

        Machine small(crossPageProgram(),
                      MachineConfig{}.withBackend(b).withMemWords(5000));
        const RunResult r = small.run(100);
        EXPECT_EQ(r.reason, StopReason::Fault);
        EXPECT_EQ(r.cycles, 3u);
        EXPECT_EQ(r.faultMessage,
                  "fatal: memory address 5000 out of range (5000 words)");
        EXPECT_EQ(small.peekMem(4095), 11u);
        EXPECT_EQ(small.peekMem(4096), 22u);
    }
}

TEST(Backend, SetAssignmentsOverwritesPartition)
{
    PartitionTracker tracker(4);
    tracker.setAssignments({0, 0, 1, -1});
    EXPECT_EQ(tracker.numSsets(), 2u);
    EXPECT_TRUE(tracker.sameSset(0, 1));
    EXPECT_FALSE(tracker.sameSset(0, 2));
    EXPECT_EQ(tracker.ssetOf(3), -1);
    EXPECT_EQ(tracker.formatted(), "{0,1}{2}");
}

TEST(Backend, StatsJsonNamesBackendAndPredecode)
{
    RunStats stats(4);
    const std::string threaded = stats.json(10.0, "threaded");
    EXPECT_NE(threaded.find("\"backend\": \"threaded\""),
              std::string::npos);
    EXPECT_NE(threaded.find("\"predecode\": \"flat\""),
              std::string::npos);

    const std::string interp = stats.json(10.0, "interp");
    EXPECT_NE(interp.find("\"backend\": \"interp\""),
              std::string::npos);
    EXPECT_NE(interp.find("\"predecode\": \"decoded\""),
              std::string::npos);

    // Callers that do not name a backend get the legacy document.
    const std::string bare = stats.json(10.0);
    EXPECT_EQ(bare.find("\"backend\""), std::string::npos);
    EXPECT_EQ(bare.find("\"predecode\""), std::string::npos);
}

} // namespace
