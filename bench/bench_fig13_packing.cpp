/**
 * @file
 * FIG13 — the proposed compilation approach: threads compiled at
 * several widths into tiles, then packed into the instruction-memory
 * strip. The figure's objective is static code density; the paper
 * leaves the placement-algorithm choice open ("it is still unknown
 * which placement algorithm will work best"), so several are
 * compared. A laminar packing is additionally composed into a
 * runnable program to measure the execution-time side.
 */

#include "bench_util.hh"

#include "core/machine.hh"
#include "sched/compose.hh"
#include "support/random.hh"
#include "workloads/ir_threads.hh"

namespace {

using namespace ximd;
using namespace ximd::bench;
using namespace ximd::sched;

/** Mixed-shape thread: a reduction loop plus some straight-line ILP. */
IrProgram
makeThread(int t, Rng &rng)
{
    return workloads::mixedThread(t, rng);
}

void
printTables()
{
    constexpr FuId kWidth = 8;
    std::cout << "# FIG13: tile generation and packing (strip width "
              << unsigned(kWidth) << ")\n";

    section("static code size by strategy and thread-mix size");
    Table t({{"threads", 9},
             {"stacked", 9},
             {"first-fit", 11},
             {"skyline", 9},
             {"balanced", 10},
             {"exhaustive", 12},
             {"best/stacked", 14}});
    t.header();
    for (int count : {2, 4, 6}) {
        Rng rng(1000 + count);
        std::vector<IrProgram> threads;
        for (int i = 0; i < count; ++i)
            threads.push_back(makeThread(i, rng));
        auto tiles = generateTiles(threads, kWidth);

        const PackResult st = packStacked(tiles, kWidth);
        const PackResult ff = packFirstFit(tiles, kWidth);
        const PackResult sk = packSkyline(tiles, kWidth);
        const PackResult bg = packBalancedGroups(tiles, kWidth);
        const PackResult ex = packExhaustive(tiles, kWidth);
        for (const PackResult *r : {&st, &ff, &sk, &bg, &ex})
            orDie(validatePackingChecked(*r, tiles, kWidth));

        unsigned best = std::min(
            {ff.totalHeight, sk.totalHeight, bg.totalHeight,
             ex.totalHeight});
        t.row({num(count), num(st.totalHeight), num(ff.totalHeight),
               num(sk.totalHeight), num(bg.totalHeight),
               num(ex.totalHeight),
               fixed(double(best) / double(st.totalHeight), 2)});
    }
    std::cout << "shape: packing narrow tiles side by side cuts "
                 "static code size by\nroughly the thread count vs "
                 "full-width stacking; the exhaustive packer\nlower-"
                 "bounds the heuristics.\n";

    section("tile sets for the 4-thread mix (width x rows)");
    {
        Rng rng(1004);
        std::vector<IrProgram> threads;
        for (int i = 0; i < 4; ++i)
            threads.push_back(makeThread(i, rng));
        auto tiles = generateTiles(threads, kWidth);
        for (const TileSet &set : tiles) {
            std::cout << "  thread " << set.threadId << ":";
            for (const Tile &tl : set.impls)
                std::cout << "  " << unsigned(tl.width) << "x"
                          << tl.height;
            std::cout << "\n";
        }
    }

    section("execution time of composed packings (6 threads)");
    {
        Rng rng(1006);
        std::vector<IrProgram> threads;
        for (int i = 0; i < 6; ++i)
            threads.push_back(makeThread(i, rng));
        auto tiles = generateTiles(threads, kWidth);

        Table t2({{"packing", 22},
                  {"static rows", 13},
                  {"run cycles", 12},
                  {"mean streams", 14}});
        t2.header();
        for (auto pack : {packStacked, packBalancedGroups}) {
            const PackResult r = pack(tiles, kWidth);
            Composed comp =
                orDie(composeThreadsChecked(threads, r, kWidth));
            MachineConfig cfg;
            cfg.memWords = 8192;
            Machine m(comp.program, cfg);
            const RunResult rr = m.run(1'000'000);
            if (!rr.ok()) {
                std::cerr << "composed run failed: "
                          << rr.faultMessage << "\n";
                std::exit(1);
            }
            t2.row({r.strategy, num(r.totalHeight), num(m.cycle()),
                    fixed(m.stats().meanStreams(), 2)});
        }
        std::cout << "shape: column-grouped packing trades a touch "
                     "of per-thread ILP for\nthread-level "
                     "concurrency and wins on makespan.\n";
    }
}

void
packingThroughput(benchmark::State &state)
{
    Rng rng(77);
    std::vector<IrProgram> threads;
    for (int i = 0; i < 5; ++i)
        threads.push_back(makeThread(i, rng));
    auto tiles = generateTiles(threads, 8);
    for (auto _ : state) {
        const PackResult r = state.range(0) == 0
                                 ? packSkyline(tiles, 8)
                                 : packExhaustive(tiles, 8);
        benchmark::DoNotOptimize(r.totalHeight);
    }
}
BENCHMARK(packingThroughput)->Arg(0)->Arg(1)->ArgName("exhaustive");

void
tileGeneration(benchmark::State &state)
{
    Rng rng(78);
    std::vector<IrProgram> threads;
    for (int i = 0; i < 5; ++i)
        threads.push_back(makeThread(i, rng));
    for (auto _ : state) {
        auto tiles = generateTiles(threads, 8);
        benchmark::DoNotOptimize(tiles.size());
    }
}
BENCHMARK(tileGeneration);

} // namespace

XIMD_BENCH_MAIN(printTables)
