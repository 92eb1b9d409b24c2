#include "sched/compose.hh"

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "sched/tile.hh"
#include "support/logging.hh"
#include "support/random.hh"


namespace ximd::sched {
namespace {

/**
 * Thread t: load n values from its input region, accumulate
 * sum-of-(v*mult), store the result to its own output address.
 * Inputs at 1024 + t*64 + k (k = 1..n); output at 2048 + t.
 */
IrProgram
makeThread(int t, unsigned n, SWord mult, Rng &rng,
           std::vector<Word> &refMem)
{
    const Addr in = 1024 + static_cast<Addr>(t) * 64;
    const Addr out = 2048 + static_cast<Addr>(t);

    IrBuilder b;
    const VregId i = b.newVreg();
    const VregId sum = b.newVreg();
    b.setInit(i, 0);
    b.setInit(sum, 0);
    for (unsigned k = 1; k <= n; ++k) {
        const Word v = static_cast<Word>(rng.range(0, 1000));
        b.setMemInit(in + k, v);
        refMem[in + k] = v;
    }
    b.startBlock("loop");
    b.emitTo(i, Opcode::Iadd, IrValue::reg(i), IrValue::immInt(1));
    const IrValue v = b.emitLoad(IrValue::immRaw(in), IrValue::reg(i));
    const IrValue scaled =
        b.emit(Opcode::Imult, v, IrValue::immInt(mult));
    b.emitTo(sum, Opcode::Iadd, IrValue::reg(sum), scaled);
    const int cmp = b.emitCompare(Opcode::Eq, IrValue::reg(i),
                                  IrValue::immInt(
                                      static_cast<SWord>(n)));
    b.branch(cmp, "end", "loop");
    b.startBlock("end");
    b.emitStore(IrValue::reg(sum), IrValue::immRaw(out));
    b.halt();
    return b.finish();
}

struct Fixture
{
    explicit Fixture(int numThreads, std::uint64_t seed = 11)
        : rng(seed), refMem(4096, 0)
    {
        for (int t = 0; t < numThreads; ++t)
            threads.push_back(makeThread(
                t, static_cast<unsigned>(rng.range(3, 12)),
                static_cast<SWord>(rng.range(1, 9)), rng, refMem));
        // Oracle results.
        for (auto &th : threads) {
            std::vector<Word> mem = refMem;
            interpretIr(th, mem);
            for (Addr a = 2048; a < 2064; ++a)
                if (mem[a] != refMem[a])
                    expected[a] = mem[a];
        }
    }

    void
    runAndCheck(const Composed &comp)
    {
        MachineConfig cfg;
        cfg.memWords = 4096;
        Machine m(comp.program, cfg);
        const RunResult r = m.run(100000);
        ASSERT_TRUE(r.ok()) << r.faultMessage;
        for (const auto &[addr, value] : expected)
            EXPECT_EQ(m.peekMem(addr), value) << "out addr " << addr;
        lastCycles = m.cycle();
        lastStats = m.stats().partitionHistogram();
    }

    Rng rng;
    std::vector<Word> refMem;
    std::vector<IrProgram> threads;
    std::map<Addr, Word> expected;
    Cycle lastCycles = 0;
    std::map<unsigned, Cycle> lastStats;
};

TEST(Compose, StackedPackingRunsSequentially)
{
    Fixture f(3);
    auto tiles = generateTiles(f.threads, 8);
    PackResult pack = packStacked(tiles, 8);
    Composed comp = valueOrFatal(composeThreadsChecked(f.threads, pack, 8));
    f.runAndCheck(comp);
}

TEST(Compose, BalancedGroupsRunConcurrently)
{
    Fixture f(4);
    auto tiles = generateTiles(f.threads, 8);
    PackResult pack = packBalancedGroups(tiles, 8);
    Composed comp = valueOrFatal(composeThreadsChecked(f.threads, pack, 8));
    f.runAndCheck(comp);
    // Multiple concurrent streams must appear.
    bool multi = false;
    for (const auto &[streams, cycles] : f.lastStats)
        if (streams >= 2 && cycles > 0)
            multi = true;
    EXPECT_TRUE(multi);
}

TEST(Compose, ConcurrentGroupsFasterThanStacked)
{
    Fixture f(4, 77);
    auto tiles = generateTiles(f.threads, 8);

    PackResult stacked = packStacked(tiles, 8);
    Composed compStacked = valueOrFatal(composeThreadsChecked(f.threads, stacked, 8));
    f.runAndCheck(compStacked);
    const Cycle stackedCycles = f.lastCycles;

    PackResult grouped = packBalancedGroups(tiles, 8);
    Composed compGrouped = valueOrFatal(composeThreadsChecked(f.threads, grouped, 8));
    f.runAndCheck(compGrouped);
    const Cycle groupedCycles = f.lastCycles;

    EXPECT_LT(groupedCycles, stackedCycles);
}

TEST(Compose, RejectsPartiallyOverlappingColumns)
{
    Fixture f(2);
    auto tiles = generateTiles(f.threads, 8);
    PackResult pack;
    pack.strategy = "manual-bad";
    Placement a;
    a.threadId = 0;
    a.width = 4;
    a.height = tiles[0].heightAt(4);
    a.col = 0;
    a.row = 0;
    Placement b;
    b.threadId = 1;
    b.width = 4;
    b.height = tiles[1].heightAt(4);
    b.col = 2; // overlaps columns 2-3 of thread 0
    b.row = a.height;
    pack.placements = {a, b};
    pack.totalHeight = b.row + b.height;
    EXPECT_THROW(valueOrFatal(composeThreadsChecked(f.threads, pack, 8)), FatalError);
}

TEST(Compose, ManualLaminarSideBySide)
{
    Fixture f(2, 5);
    auto tiles = generateTiles(f.threads, 8);
    PackResult pack;
    pack.strategy = "manual-laminar";
    Placement a;
    a.threadId = 0;
    a.width = 4;
    a.height = tiles[0].heightAt(4);
    a.col = 0;
    a.row = 0;
    Placement b;
    b.threadId = 1;
    b.width = 4;
    b.height = tiles[1].heightAt(4);
    b.col = 4;
    b.row = 0;
    pack.placements = {a, b};
    pack.totalHeight = std::max(a.height, b.height);
    Composed comp = valueOrFatal(composeThreadsChecked(f.threads, pack, 8));
    f.runAndCheck(comp);
    // Two threads side by side: some cycles with >= 2 streams.
    bool multi = false;
    for (const auto &[streams, cycles] : f.lastStats)
        if (streams >= 2 && cycles > 0)
            multi = true;
    EXPECT_TRUE(multi);
}

TEST(Compose, ThreadInfoDescribesLayout)
{
    Fixture f(2);
    auto tiles = generateTiles(f.threads, 8);
    PackResult pack = packStacked(tiles, 8);
    Composed comp = valueOrFatal(composeThreadsChecked(f.threads, pack, 8));
    ASSERT_EQ(comp.threads.size(), 2u);
    EXPECT_EQ(comp.threads[0].barrierRow, 1u);
    EXPECT_EQ(comp.threads[1].barrierRow, 2u);
    EXPECT_EQ(comp.threads[0].bodyStart, 3u); // 1 dispatch + 2 barriers
    EXPECT_EQ(comp.threads[0].regBase, 0);
    EXPECT_EQ(comp.threads[1].regBase, 24);
    EXPECT_EQ(comp.finalBarrier,
              3u + pack.totalHeight);
}

TEST(Compose, RegisterBudgetEnforced)
{
    Fixture f(1);
    auto tiles = generateTiles(f.threads, 8);
    PackResult pack = packStacked(tiles, 8);
    EXPECT_THROW(valueOrFatal(composeThreadsChecked(f.threads, pack, 8,
                                      ComposeOptions{.regsPerThread = 2})), FatalError);
}

TEST(Compose, ManyThreadsManySeeds)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        Fixture f(6, seed);
        auto tiles = generateTiles(f.threads, 8);
        for (auto pack : {packStacked, packBalancedGroups}) {
            Composed comp =
                valueOrFatal(composeThreadsChecked(f.threads, pack(tiles, 8), 8));
            f.runAndCheck(comp);
        }
    }
}

} // namespace
} // namespace ximd::sched
