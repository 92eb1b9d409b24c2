/**
 * @file
 * Busy-wait fast-forward: equivalence with cycle-by-cycle stepping.
 *
 * run() may skip ahead in O(1) only when the machine state provably
 * maps to itself every remaining cycle (all live FUs spinning on nop
 * self-loops, empty write-back pipeline, no devices). These tests pin
 * the soundness contract: for every observable — stop reason, cycle
 * count, statistics, traces, architectural state — a fast-forwarded
 * run is indistinguishable from a fully stepped one.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "core/machine.hh"
#include "core/observer.hh"
#include "workloads/kernels.hh"

namespace {

using namespace ximd;

std::string
example(const char *file)
{
    return std::string(XIMD_SOURCE_DIR "/examples/programs/") + file;
}

/** Everything observable about a finished machine, as one string. */
std::string
fingerprint(const Machine &m, const RunResult &r)
{
    std::string s;
    s += "reason=" + std::to_string(static_cast<int>(r.reason));
    s += " cycles=" + std::to_string(r.cycles);
    s += " machineCycle=" + std::to_string(m.cycle());
    for (FuId fu = 0; fu < m.numFus(); ++fu) {
        s += " fu" + std::to_string(fu) + "=";
        s += m.halted(fu) ? "H" : std::to_string(m.pc(fu));
    }
    for (RegId reg = 0; reg < 16; ++reg)
        s += " r" + std::to_string(reg) + "=" +
             std::to_string(m.readReg(reg));
    s += "\n" + m.stats().formatted();
    s += "partition=" + m.partitions().formatted() + "\n";
    s += m.trace().compact();
    return s;
}

/** Run @p program under @p config with and without fast-forward and
 *  require identical observables. Returns the common fingerprint. */
std::string
expectEquivalent(const Program &program, MachineConfig config,
                 Cycle maxCycles)
{
    config.fastForward = true;
    Machine fast(program, config);
    const RunResult rf = fast.run(maxCycles);

    config.fastForward = false;
    Machine slow(program, config);
    const RunResult rs = slow.run(maxCycles);

    const std::string f = fingerprint(fast, rf);
    EXPECT_EQ(f, fingerprint(slow, rs));
    return f;
}

TEST(FastForward, DeadlockedSpinMatchesStepping)
{
    const Program p = assembleFile(example("deadlock.ximd"));
    const std::string f = expectEquivalent(p, {}, 5000);
    EXPECT_NE(f.find("reason=1"), std::string::npos); // MaxCycles
    EXPECT_NE(f.find("cycles=5000"), std::string::npos);
}

TEST(FastForward, DeadlockedSpinMatchesSteppingWithTrace)
{
    const Program p = assembleFile(example("deadlock.ximd"));
    MachineConfig config;
    config.recordTrace = true;
    expectEquivalent(p, config, 200);
}

TEST(FastForward, DeadlockedSpinMatchesSteppingRegisteredSync)
{
    const Program p = assembleFile(example("deadlock.ximd"));
    MachineConfig config;
    config.registeredSync = true;
    expectEquivalent(p, config, 5000);
}

TEST(FastForward, TerminatingBarrierUnaffected)
{
    // barrier.ximd halts on its own; its FUs busy-wait while the
    // other side is still working, so no cycle is a whole-machine
    // fixpoint and run() must step every one of the 23 cycles.
    const Program p = assembleFile(example("barrier.ximd"));
    const std::string f = expectEquivalent(p, {}, 0);
    EXPECT_NE(f.find("reason=0"), std::string::npos); // Halted
    EXPECT_NE(f.find("cycles=23"), std::string::npos);
}

TEST(FastForward, MinmaxContinueSpinMatchesStepping)
{
    // The paper-faithful minmax listing ends in "Continue." — an
    // unconditional self-loop — so a capped run fast-forwards.
    const Program p = workloads::minmaxPaper(false);
    const std::string f = expectEquivalent(p, {}, 100);
    EXPECT_NE(f.find("cycles=100"), std::string::npos);
}

/** Observer that records how the core reported its cycles. */
struct CountingObserver : CycleObserver
{
    Cycle stepped = 0;
    Cycle skipped = 0;
    int halts = 0;

    void onCycle(const MachineCore &) override { ++stepped; }
    void
    onFastForward(const MachineCore &, Cycle n,
                  const std::vector<FuEvent> &events) override
    {
        skipped += n;
        // Every skipped cycle is a live busy-wait: some FU executed.
        bool anyExecuted = false;
        for (const FuEvent &e : events)
            anyExecuted |= e.executed;
        EXPECT_TRUE(anyExecuted);
    }
    void onHalt(const MachineCore &) override { ++halts; }
};

TEST(FastForward, SkipsInsteadOfStepping)
{
    Machine m(assembleFile(example("deadlock.ximd")));
    CountingObserver counter;
    m.addObserver(&counter);

    const RunResult r = m.run(100000);

    EXPECT_EQ(r.reason, StopReason::MaxCycles);
    EXPECT_EQ(counter.stepped + counter.skipped, 100000u);
    // The spin is entered within a few cycles; everything after is
    // skipped in one bulk notification.
    EXPECT_LE(counter.stepped, 10u);
    EXPECT_GE(counter.skipped, 99990u);
    EXPECT_EQ(counter.halts, 0);
}

TEST(FastForward, HaltNotificationFiresOnce)
{
    Machine m(assembleFile(example("barrier.ximd")));
    CountingObserver counter;
    m.addObserver(&counter);

    const RunResult r = m.run(0);

    EXPECT_EQ(r.reason, StopReason::Halted);
    EXPECT_EQ(counter.stepped, 23u);
    EXPECT_EQ(counter.skipped, 0u);
    EXPECT_EQ(counter.halts, 1);
}

TEST(FastForward, DisabledObservationMatchesArchitecturalState)
{
    // The bare-interpreter configuration (no observers at all) must
    // compute the same architectural results.
    const Program p = workloads::minmaxPaper(true);

    Machine observed(p);
    const RunResult ro = observed.run();

    MachineConfig bare;
    bare.collectStats = false;
    bare.trackPartitions = false;
    bare.recordTrace = false;
    Machine unobserved(p, bare);
    const RunResult ru = unobserved.run();

    EXPECT_EQ(ro.reason, ru.reason);
    EXPECT_EQ(ro.cycles, ru.cycles);
    EXPECT_EQ(observed.readRegByName("min"),
              unobserved.readRegByName("min"));
    EXPECT_EQ(observed.readRegByName("max"),
              unobserved.readRegByName("max"));
    // And the unobserved run really recorded nothing.
    EXPECT_EQ(unobserved.stats().cycles(), 0u);
    EXPECT_TRUE(unobserved.trace().empty());
}

} // namespace
