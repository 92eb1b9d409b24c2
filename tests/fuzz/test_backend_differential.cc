/**
 * @file
 * Differential testing: interpreter vs threaded-code backend.
 *
 * The threaded backend is a performance refactor, not a semantic one:
 * for every program, mode, and cycle budget it must reproduce the
 * interpreter's architectural trajectory exactly. Three angles pin
 * that:
 *
 *  - the section 4.1 workload grid (TPROC, MINMAX, BITCOUNT1, Loop
 *    12), both sequencing modes where each applies, run to completion
 *    under both backends and compared on cycles, final architectural
 *    hash, and full statistics;
 *  - 50 seeded random lockstep programs, stepped under both backends
 *    with randomized cut points, and BITCOUNT1 stepped in 1-, 2- and
 *    3-cycle chunks (its barrier makes fast-forward land on block
 *    edges) — the machines pause at the same cycle boundaries and
 *    must agree at every cut on the architectural and full state
 *    hashes, the statistics and the SSET partition, which catches
 *    block-boundary bugs a run-to-completion comparison would mask;
 *  - busy-wait fast-forward under an observer that caps skips via
 *    nextWake(): the threaded backend must honor the cap and remain
 *    indistinguishable from the interpreter.
 */

#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "core/observer.hh"
#include "support/random.hh"
#include "workloads/kernels.hh"
#include "workloads/randprog.hh"

namespace {

using namespace ximd;

MachineConfig
configFor(Mode mode, Backend backend)
{
    return MachineConfig{}.withMode(mode).withBackend(backend);
}

/** Fingerprint of everything the two backends must agree on. */
std::string
finalFingerprint(Machine &m, const RunResult &run)
{
    std::string s;
    s += "reason=" + std::to_string(static_cast<int>(run.reason));
    s += " cycles=" + std::to_string(run.cycles);
    s += " arch=" + std::to_string(m.archStateHash());
    s += "\n" + m.stats().formatted();
    s += "partition=" + m.partitions().formatted() + "\n";
    return s;
}

struct GridEntry
{
    const char *name;
    Program prog;
    std::vector<Mode> modes;
};

std::vector<GridEntry>
workloadGrid()
{
    std::vector<Word> bits(16);
    for (std::size_t i = 0; i < bits.size(); ++i)
        bits[i] = static_cast<Word>(0x5a5a0000u + i * 2654435761u);
    std::vector<float> y;
    for (int i = 0; i < 24; ++i)
        y.push_back(0.5f * static_cast<float>(i * i - 7));

    std::vector<GridEntry> grid;
    grid.push_back({"tproc", workloads::tprocPaper(11, -3, 5, 2),
                    {Mode::Ximd, Mode::Vliw}});
    grid.push_back({"minmax", workloads::minmaxPaper(true),
                    {Mode::Ximd, Mode::Vliw}});
    // BITCOUNT1 branches on sync signals, which the VLIW machine
    // rejects by construction — XIMD only.
    grid.push_back({"bitcount1", workloads::bitcount1Paper(bits),
                    {Mode::Ximd}});
    grid.push_back({"loop12", workloads::loop12Naive(y),
                    {Mode::Ximd, Mode::Vliw}});
    return grid;
}

TEST(BackendDifferential, WorkloadGridMatchesInterpreter)
{
    for (const GridEntry &entry : workloadGrid()) {
        for (Mode mode : entry.modes) {
            Machine interp(entry.prog,
                           configFor(mode, Backend::Interp));
            Machine threaded(entry.prog,
                             configFor(mode, Backend::Threaded));
            ASSERT_EQ(threaded.core().demotionReason(), "")
                << entry.name;
            const RunResult ri = interp.run(1'000'000);
            const RunResult rt = threaded.run(1'000'000);
            EXPECT_EQ(ri.reason, StopReason::Halted) << entry.name;
            EXPECT_EQ(finalFingerprint(interp, ri),
                      finalFingerprint(threaded, rt))
                << entry.name << "/" << modeName(mode);
        }
    }
}

/**
 * Step both backends through the same cycle budgets — `chunkAt(cut)`
 * cycles per cut, for at most `maxCuts` cuts — and require identical
 * state at every cut point: stop reason, cycle, architectural and
 * full state hashes (the latter covers the done notification), the
 * statistics, and the SSET partition. The program must halt cleanly
 * within the schedule.
 */
void
lockstepCompare(const Program &prog, Mode mode, const std::string &label,
                int maxCuts, const std::function<Cycle(int)> &chunkAt)
{
    Machine interp(prog, configFor(mode, Backend::Interp));
    Machine threaded(prog, configFor(mode, Backend::Threaded));
    ASSERT_EQ(threaded.core().demotionReason(), "");

    for (int cut = 0; cut < maxCuts; ++cut) {
        const Cycle chunk = chunkAt(cut);
        const RunResult ri = interp.run(chunk);
        const RunResult rt = threaded.run(chunk);
        const std::string where = label + " cut " + std::to_string(cut) +
                                  " at cycle " +
                                  std::to_string(interp.cycle());
        ASSERT_EQ(ri.reason, rt.reason) << where;
        ASSERT_EQ(interp.cycle(), threaded.cycle()) << where;
        ASSERT_EQ(interp.archStateHash(), threaded.archStateHash())
            << where;
        ASSERT_EQ(interp.stateHash(), threaded.stateHash()) << where;
        ASSERT_EQ(interp.stats().formatted(),
                  threaded.stats().formatted())
            << where;
        ASSERT_EQ(interp.partitions().formatted(),
                  threaded.partitions().formatted())
            << where;
        if (ri.reason == StopReason::Halted)
            return;
        ASSERT_EQ(ri.reason, StopReason::MaxCycles)
            << where << ": " << ri.faultMessage;
    }
    FAIL() << label << " did not halt within the cut schedule";
}

/** lockstepCompare with cut budgets drawn from a seeded stream. */
void
randomCutCompare(const Program &prog, Mode mode, std::uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    lockstepCompare(prog, mode, "seed " + std::to_string(seed), 200,
                    [&rng](int) {
                        return static_cast<Cycle>(rng.range(1, 37));
                    });
}

TEST(BackendDifferential, RandProgCutPointsXimd)
{
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        workloads::RandProgOptions opts;
        opts.seed = seed;
        opts.width = 1 + seed % 8;
        opts.rows = 20 + seed % 60;
        opts.branchPercent = 10 + seed % 40;
        randomCutCompare(workloads::randomLockstepProgram(opts),
                         Mode::Ximd, seed);
    }
}

TEST(BackendDifferential, RandProgCutPointsVliw)
{
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        workloads::RandProgOptions opts;
        opts.seed = seed;
        opts.width = 1 + (seed * 3) % 8;
        opts.rows = 20 + (seed * 7) % 60;
        opts.branchPercent = 10 + seed % 40;
        randomCutCompare(workloads::randomLockstepProgram(opts),
                         Mode::Vliw, seed);
    }
}

TEST(BackendDifferential, Bitcount1FixedChunkCuts)
{
    // Every FU reaches the barrier at a different cycle, so short
    // fixed chunks cut inside busy-wait spins, at the cycle a skip
    // lands on, and at the final halt.
    std::vector<Word> bits(16);
    for (std::size_t i = 0; i < bits.size(); ++i)
        bits[i] = static_cast<Word>(0x5a5a0000u + i * 2654435761u);
    const Program prog = workloads::bitcount1Paper(bits);
    for (Cycle chunk : {Cycle(1), Cycle(2), Cycle(3)})
        lockstepCompare(prog, Mode::Ximd,
                        "chunk " + std::to_string(chunk), 100'000,
                        [chunk](int) { return chunk; });
}

/**
 * Block observer that caps busy-wait fast-forward: wake at the next
 * multiple of `stride`. The threaded backend must stop its bulk skip
 * at the cap (DESIGN.md section 10's nextWake contract) and still be
 * observationally identical to the interpreter.
 */
class StrideWake : public CycleObserver
{
  public:
    explicit StrideWake(Cycle stride) : stride_(stride) {}
    const char *observerName() const override { return "stride"; }
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
        ++blocks;
    }
    Cycle nextWake(const MachineCore &core) const override
    {
        return (core.cycle() / stride_ + 1) * stride_;
    }
    Cycle cycles = 0;
    unsigned blocks = 0;

  private:
    Cycle stride_ = 1;
};

TEST(BackendDifferential, FastForwardHonorsNextWakeCaps)
{
    // BITCOUNT1's barrier makes three FUs busy-wait on sync signals,
    // so both machines take the fast-forward path.
    std::vector<Word> bits(16, 0x0f0f0f0fu);
    const Program prog = workloads::bitcount1Paper(bits);

    StrideWake interpWake(7);
    Machine interp(prog, configFor(Mode::Ximd, Backend::Interp));
    interp.addObserver(&interpWake);

    StrideWake threadedWake(7);
    Machine threaded(prog, configFor(Mode::Ximd, Backend::Threaded));
    threaded.addObserver(&threadedWake);
    ASSERT_EQ(threaded.core().demotionReason(), "");

    const RunResult ri = interp.run(100'000);
    const RunResult rt = threaded.run(100'000);
    EXPECT_EQ(ri.reason, StopReason::Halted);
    EXPECT_EQ(finalFingerprint(interp, ri),
              finalFingerprint(threaded, rt));
    EXPECT_EQ(threadedWake.cycles, rt.cycles);
}

} // namespace
