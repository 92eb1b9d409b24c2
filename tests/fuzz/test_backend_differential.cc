/**
 * @file
 * Differential testing: interpreter vs threaded-code backend.
 *
 * The threaded backend is a performance refactor, not a semantic one:
 * for every program, mode, and cycle budget it must reproduce the
 * interpreter's architectural trajectory exactly. Four angles pin
 * that:
 *
 *  - the section 4.1 workload grid (TPROC, MINMAX, BITCOUNT1, Loop
 *    12), both sequencing modes where each applies, run to completion
 *    under both backends and compared on cycles, final architectural
 *    hash, and full statistics;
 *  - 50 seeded random lockstep programs, stepped under both backends
 *    with randomized cut points, and BITCOUNT1 stepped in 1-, 2- and
 *    3-cycle chunks (its barrier makes fast-forward land on block
 *    edges) — lockstepCompare (backend_lockstep.hh) pauses the
 *    machines at the same cycle boundaries, and they must agree at
 *    every cut;
 *  - the compiled goldens of examples/c and examples/ir stepped in 1-,
 *    2- and 3-cycle chunks: xcc emits one lockstep class, so their
 *    XIMD cycles are one-stream (the row loop), and composed_bg adds
 *    multi-class cycles that enter and leave it;
 *  - busy-wait fast-forward under an observer that caps skips via
 *    nextWake(), over per-FU spins and a one-stream spin: the threaded
 *    backend must honor the cap and remain indistinguishable from the
 *    interpreter.
 */

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "backend_lockstep.hh"
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

/** lockstepCompare with cut budgets drawn from a seeded stream. */
void
randomCutCompare(const Program &prog, Mode mode, std::uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    lockstepCompare(prog, MachineConfig{}.withMode(mode),
                    "seed " + std::to_string(seed), 200, [&rng](int) {
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
        lockstepCompare(prog, MachineConfig{}.withMode(Mode::Ximd),
                        "chunk " + std::to_string(chunk), 100'000,
                        [chunk](int) { return chunk; });
}

TEST(BackendDifferential, CompiledGoldensChunkCuts)
{
    std::vector<std::string> paths;
    for (const char *dir : {"/examples/c/golden", "/examples/ir/golden"})
        for (const auto &entry : std::filesystem::directory_iterator(
                 std::string(XIMD_SOURCE_DIR) + dir))
            if (entry.path().extension() == ".ximd")
                paths.push_back(entry.path().string());
    std::sort(paths.begin(), paths.end());
    ASSERT_EQ(paths.size(), 10u);
    for (const std::string &path : paths) {
        const Program prog = assembleFile(path);
        for (Cycle chunk : {Cycle(1), Cycle(2), Cycle(3)})
            lockstepCompare(prog, MachineConfig{}.withMode(Mode::Ximd),
                            path + " chunk " + std::to_string(chunk),
                            100'000, [chunk](int) { return chunk; });
    }
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
    // each in its own stream; in the second program every FU waits on
    // one all-nop row for a signal that stays BUSY, one stream that
    // spins to the budget. Both machines take the fast-forward path.
    std::vector<Word> bits(16, 0x0f0f0f0fu);
    const struct
    {
        Program prog;
        StopReason end;
    } cases[] = {
        {workloads::bitcount1Paper(bits), StopReason::Halted},
        {assembleString(".fus 4\n"
                        "-> 1 ; iadd #1,#0,r1 || -> 1 ; nop || "
                        "-> 1 ; nop || -> 1 ; nop ; done\n"
                        "if ss1 2 1 ; nop || if ss1 2 1 ; nop || "
                        "if ss1 2 1 ; nop || if ss1 2 1 ; nop\n"
                        "halt ; nop || halt ; nop || halt ; nop || "
                        "halt ; nop\n"),
         StopReason::MaxCycles},
    };
    for (const auto &c : cases) {
        StrideWake interpWake(7);
        Machine interp(c.prog, configFor(Mode::Ximd, Backend::Interp));
        interp.addObserver(&interpWake);

        StrideWake threadedWake(7);
        Machine threaded(c.prog,
                         configFor(Mode::Ximd, Backend::Threaded));
        threaded.addObserver(&threadedWake);
        ASSERT_EQ(threaded.core().demotionReason(), "");

        const RunResult ri = interp.run(100'000);
        const RunResult rt = threaded.run(100'000);
        EXPECT_EQ(ri.reason, c.end);
        EXPECT_EQ(finalFingerprint(interp, ri),
                  finalFingerprint(threaded, rt));
        EXPECT_EQ(interp.stateHash(), threaded.stateHash());
        EXPECT_EQ(threadedWake.cycles, rt.cycles);
    }
}

} // namespace
