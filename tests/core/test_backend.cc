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
#include "backend_lockstep.hh"
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
 * conflicting FU. Every row's control is the same on every FU, so in
 * XIMD these are one-stream cycles, as is the divide by zero that
 * faults on row 1 of the last program under either policy. `wins` is
 * how each program ends under ConflictPolicy::LowestFuWins; all of
 * them fault under ConflictPolicy::Fault.
 */
const struct
{
    const char *name;
    const char *src;
    StopReason wins;
} kConflictPrograms[] = {
    {"reg-conflict",
     ".fus 2\n"
     "-> 1 ; iadd #9,#0,r1 || -> 1 ; nop\n"
     "-> 2 ; iadd #1,#2,r2 || -> 2 ; iadd #3,#4,r2\n"
     "halt ; nop || halt ; nop\n",
     StopReason::Halted},
    {"mem-conflict",
     ".fus 2\n"
     "-> 1 ; iadd #9,#0,r1 || -> 1 ; nop\n"
     "-> 2 ; store #1,#40 || -> 2 ; store #2,#40\n"
     "halt ; nop || halt ; nop\n",
     StopReason::Halted},
    {"r7-r5-r5-r7",
     ".fus 4\n"
     "-> 1 ; iadd #9,#0,r1 || -> 1 ; nop || -> 1 ; nop || -> 1 ; nop\n"
     "-> 2 ; iadd #1,#0,r7 || -> 2 ; iadd #2,#0,r5 || "
     "-> 2 ; iadd #3,#0,r5 || -> 2 ; iadd #4,#0,r7\n"
     "halt ; nop || halt ; nop || halt ; nop || halt ; nop\n",
     StopReason::Halted},
    {"div-zero",
     ".fus 2\n"
     "-> 1 ; iadd #9,#0,r1 || -> 1 ; nop\n"
     "-> 2 ; iadd r1,#1,r2 || -> 2 ; idiv r1,#0,r3\n"
     "halt ; nop || halt ; nop\n",
     StopReason::Fault},
};

/**
 * XIMD programs whose FUs run one stream for stretches. "one-stream
 * sync" runs uniform rows under every control kind: a loop on `if
 * cc0`, then `if ss1`, `if all(...)` and `if any(...)` rows whose FUs
 * drive DONE (so the registered sync history changes from cycle to
 * cycle), and a uniform halt. "lockstep in and out" starts split,
 * enters a uniform loop from two streams with different keys that
 * land on one row, leaves it for split rows, and rejoins at a uniform
 * barrier. "one-stream spin" ends in a uniform all-nop row that waits
 * forever on a BUSY signal, so the busy-wait fast-forward runs it to
 * the budget.
 */
const struct
{
    const char *name;
    const char *src;
    StopReason end;
} kOneStreamPrograms[] = {
    {"one-stream sync",
     ".fus 3\n"
     ".reg c 0\n"
     ".init c 3\n"
     "top: -> t ; isub c,#1,c ; done || -> t ; nop || -> t ; nop\n"
     "t: -> b ; eq c,#0 || -> b ; nop ; done || -> b ; nop\n"
     "b: if cc0 s top ; nop || if cc0 s top ; nop || if cc0 s top ; nop\n"
     "s: if ss1 a s ; nop ; done || if ss1 a s ; nop ; done "
     "|| if ss1 a s ; nop\n"
     "a: if all(0,1) y a ; nop ; done || if all(0,1) y a ; nop ; done "
     "|| if all(0,1) y a ; store c,#40\n"
     "y: if any(2) h y ; nop || if any(2) h y ; nop "
     "|| if any(2) h y ; iadd c,#5,r2 ; done\n"
     "h: halt ; nop || halt ; nop || halt ; nop\n",
     StopReason::Halted},
    {"lockstep in and out",
     ".fus 3\n"
     ".reg c 0\n"
     ".init c 2\n"
     "-> 1 ; nop || -> 2 ; nop || -> 1 ; nop\n"
     "-> 3 ; nop || halt ; nop || -> 3 ; nop\n"
     "halt ; nop || if cc0 3 3 ; nop || halt ; nop\n"
     "-> 4 ; isub c,#1,c ; done || -> 4 ; iadd c,#10,r5 || -> 4 ; nop\n"
     "-> 5 ; eq c,#0 || -> 5 ; nop || -> 5 ; nop\n"
     "if cc0 6 3 ; nop || if cc0 6 3 ; nop || if cc0 6 3 ; nop\n"
     "-> 7 ; nop || -> 8 ; iadd #1,#0,r6 || -> 7 ; nop\n"
     "-> 9 ; store c,#40 || halt ; nop || -> 9 ; nop\n"
     "halt ; nop || -> 9 ; nop || halt ; nop\n"
     "if all 10 9 ; nop ; done || if all 10 9 ; nop ; done "
     "|| if all 10 9 ; nop ; done\n"
     "halt ; nop || halt ; nop || halt ; nop\n",
     StopReason::Halted},
    {"one-stream spin",
     ".fus 2\n"
     "-> 1 ; iadd #1,#0,r1 || -> 1 ; iadd #2,#0,r2\n"
     "if ss1 2 1 ; nop || if ss1 2 1 ; nop\n"
     "halt ; nop || halt ; nop\n",
     StopReason::MaxCycles},
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
    // fault message, architectural and serialized state, statistics
    // and partition history, run for up to 1000 cycles whole and in
    // 1-, 2- and 3-cycle chunks. The cross-page program also runs in a
    // 5000-word memory, where its store to address 5000 must fault the
    // same way.
    struct Input
    {
        std::string name;
        Program program;
        MachineConfig config;
        StopReason end;
    };
    std::vector<Input> inputs = {
        {"minmax", workloads::minmaxPaper(true), MachineConfig{},
         StopReason::Halted},
        {"cross-page", crossPageProgram(), MachineConfig{},
         StopReason::Halted},
        {"cross-page/5000-words", crossPageProgram(),
         MachineConfig{}.withMemWords(5000), StopReason::Fault},
    };
    for (const auto &c : kConflictPrograms)
        for (Mode mode : {Mode::Ximd, Mode::Vliw})
            for (ConflictPolicy policy :
                 {ConflictPolicy::Fault, ConflictPolicy::LowestFuWins})
                inputs.push_back(
                    {std::string(c.name) + "/" + modeName(mode) +
                         (policy == ConflictPolicy::Fault
                              ? "/fault"
                              : "/lowest-fu-wins"),
                     assembleString(c.src),
                     MachineConfig{}.withMode(mode).withConflictPolicy(
                         policy),
                     policy == ConflictPolicy::Fault ? StopReason::Fault
                                                     : c.wins});
    for (const auto &c : kOneStreamPrograms)
        inputs.push_back(
            {c.name, assembleString(c.src), MachineConfig{}, c.end});
    for (const Input &in : inputs)
        for (Cycle chunk : {Cycle(1000), Cycle(1), Cycle(2), Cycle(3)})
            lockstepCompare(in.program, in.config,
                            in.name + " chunk " + std::to_string(chunk),
                            static_cast<int>((1000 + chunk - 1) / chunk),
                            [chunk](int) { return chunk; }, in.end);

    // The comparison above holds the two backends to one message; pin
    // that message in both modes.
    for (Mode mode : {Mode::Ximd, Mode::Vliw}) {
        Machine r7r5(assembleString(kConflictPrograms[2].src),
                     MachineConfig{}.withMode(mode).withBackend(
                         Backend::Threaded));
        EXPECT_EQ(r7r5.run(1000).faultMessage,
                  "fatal: register write conflict: FU1 and FU2 both "
                  "write r5 this cycle")
            << modeName(mode);
    }
}

TEST(Backend, OneStreamProgramsTakeTheirPaths)
{
    // Pins what the parity check above compares, so it cannot pass
    // on two equally wrong answers: the sync program walks its rows
    // and halts; the split program runs two streams in the cycles
    // after its two splits (cycles 1, 2 and 9) and one otherwise; the
    // spin program spins to the budget; the divide faults.
    const auto run = [](const char *src, Cycle budget) {
        Machine m(assembleString(src),
                  MachineConfig{}.withBackend(Backend::Threaded));
        const RunResult r = m.run(budget);
        return std::make_pair(r, m.stats().partitionHistogram());
    };
    const auto [sync, syncParts] = run(kOneStreamPrograms[0].src, 1000);
    EXPECT_EQ(sync.reason, StopReason::Halted);
    EXPECT_EQ(sync.cycles, 13u);
    const auto [split, splitParts] = run(kOneStreamPrograms[1].src, 1000);
    EXPECT_EQ(split.reason, StopReason::Halted);
    EXPECT_EQ(split.cycles, 12u);
    EXPECT_EQ(splitParts.at(1), 9u);
    EXPECT_EQ(splitParts.at(2), 3u);
    const auto [spin, spinParts] = run(kOneStreamPrograms[2].src, 1000);
    EXPECT_EQ(spin.reason, StopReason::MaxCycles);
    EXPECT_EQ(spinParts.at(1), 1000u);
    const auto [div, divParts] = run(kConflictPrograms[3].src, 1000);
    EXPECT_EQ(div.reason, StopReason::Fault);
    EXPECT_EQ(div.cycles, 1u);
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

TEST(Backend, EdgeOperandsGiveDefinedValues)
{
    // ineg of INT_MIN and ftoi of NaN, -inf and 3e9, from registers
    // and from immediates: each gives 0x80000000 (sim/alu.hh), in
    // both modes and on both backends, which must also agree cycle
    // by cycle. fneg of NaN only flips the sign bit.
    const Program prog = assembleString(
        ".fus 2\n"
        ".init r1 0x80000000\n"
        ".init r2 0x7FC00000\n"
        "-> 1 ; ineg r1,r3 || -> 1 ; ftoi r2,r4\n"
        "-> 2 ; ineg #minint,r5 || -> 2 ; ftoi #0xFF800000,r6\n"
        "halt ; fneg r2,r7 || halt ; ftoi #0x4F32D05E,r8\n");
    for (Mode mode : {Mode::Ximd, Mode::Vliw}) {
        const MachineConfig config = MachineConfig{}.withMode(mode);
        lockstepCompare(prog, config, modeName(mode), 4,
                        [](int) { return Cycle(1); });
        for (Backend b : {Backend::Interp, Backend::Threaded}) {
            SCOPED_TRACE(std::string(modeName(mode)) + "/" +
                         backendName(b));
            Machine m(prog, MachineConfig(config).withBackend(b));
            ASSERT_EQ(m.run(100).reason, StopReason::Halted);
            for (RegId r : {3, 4, 5, 6, 8})
                EXPECT_EQ(m.readReg(r), 0x80000000u) << "r" << int(r);
            EXPECT_EQ(m.readReg(7), 0xFFC00000u);
        }
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
