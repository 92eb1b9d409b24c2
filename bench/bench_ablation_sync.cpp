/**
 * @file
 * ABL — ablation of a design choice DESIGN.md calls out: the timing
 * of synchronization-signal distribution.
 *
 * The paper's hardware (Figure 8) feeds each parcel's SS field
 * combinationally into every FU's branch PAL, so a barrier releases
 * in the very cycle its last member arrives. The ablation registers
 * the SS bus instead (one-cycle-old values), a cheaper-wire design a
 * real implementation might prefer; every barrier join then costs one
 * extra cycle. This quantifies that cost across barrier-intensive
 * workloads.
 */

#include "bench_util.hh"

#include "asm/assembler.hh"
#include "core/machine.hh"
#include "support/random.hh"
#include "workloads/bitcount.hh"
#include "workloads/minmax.hh"

namespace {

using namespace ximd;
using namespace ximd::bench;
using namespace ximd::workloads;

Cycle
runWith(const Program &prog, bool registeredSync)
{
    MachineConfig cfg;
    cfg.registeredSync = registeredSync;
    Machine m(prog, cfg);
    const RunResult r = m.run(10'000'000);
    if (!r.ok()) {
        std::cerr << "ablation run failed: " << r.faultMessage << "\n";
        std::exit(1);
    }
    return r.cycles;
}

void
printTables()
{
    std::cout << "# ABL: combinational vs registered sync-signal "
                 "distribution\n";

    section("cycle cost of registering the SS bus");
    Table t({{"workload", 26},
             {"barriers", 10},
             {"comb.", 9},
             {"regist.", 9},
             {"overhead", 10}});
    t.header();

    Rng rng(31);
    {
        std::vector<Word> data(64);
        for (auto &v : data)
            v = static_cast<Word>(rng.next64() & 0xFFFFF);
        Program p = bitcountXimd(data);
        const Cycle comb = runWith(p, false);
        const Cycle reg = runWith(p, true);
        t.row({"bitcount N=64", num(data.size() / 4), num(comb),
               num(reg),
               "+" + num(reg - comb) + " cyc"});
    }
    {
        std::vector<Word> data(256);
        for (auto &v : data)
            v = static_cast<Word>(rng.next64() & 0xFFFFF);
        Program p = bitcountXimd(data);
        const Cycle comb = runWith(p, false);
        const Cycle reg = runWith(p, true);
        t.row({"bitcount N=256", num(data.size() / 4), num(comb),
               num(reg), "+" + num(reg - comb) + " cyc"});
    }
    {
        // minmax uses implicit (equal-path) joins: no SS involved,
        // the ablation must cost nothing.
        std::vector<SWord> data(256);
        for (auto &v : data)
            v = static_cast<SWord>(rng.range(0, 1000));
        Program p = minmaxXimd(data);
        const Cycle comb = runWith(p, false);
        const Cycle reg = runWith(p, true);
        t.row({"minmax N=256 (no SS use)", "0", num(comb), num(reg),
               "+" + num(reg - comb) + " cyc"});
    }
    std::cout << "\nshape: exactly one extra cycle per barrier join "
                 "(the bitcount outer\nloop joins once per group of "
                 "four); equal-path fork/join code is\nunaffected. "
                 "The paper's combinational distribution (Figure 8) "
                 "is the\nright call when barriers are frequent.\n";
}

void
registeredSyncOverhead(benchmark::State &state)
{
    Rng rng(4);
    std::vector<Word> data(128);
    for (auto &v : data)
        v = static_cast<Word>(rng.next64() & 0xFFFFF);
    Program p = bitcountXimd(data);
    const bool reg = state.range(0) != 0;
    for (auto _ : state) {
        MachineConfig cfg;
        cfg.registeredSync = reg;
        Machine m(p, cfg);
        m.run();
        benchmark::DoNotOptimize(m.cycle());
    }
}
BENCHMARK(registeredSyncOverhead)->Arg(0)->Arg(1)->ArgName("registered");

/**
 * Watchdog scenario: a wedged cross-stream synchronization (the
 * shipped deadlock.ximd pattern) burning a large cycle budget in pure
 * busy-waiting. With fast-forward the core proves the spin is a
 * fixpoint and consumes the budget in O(1); without it, every cycle
 * is stepped. The cycles-per-second counter is the headline number.
 */
void
busyWaitWatchdog(benchmark::State &state)
{
    const Program p = assembleString(
        ".fus 2\n"
        ".reg a 0\n"
        ".reg b 1\n"
        "start: -> spin ; iadd #1,#0,a || -> spin ; iadd #2,#0,b\n"
        "spin:  if ss1 out spin ; nop  || if ss0 out spin ; nop\n"
        "out:   halt ; store a,#32     || halt ; store b,#33\n");
    const bool fastForward = state.range(0) != 0;
    constexpr Cycle kBudget = 2'000'000;
    Cycle cycles = 0;
    for (auto _ : state) {
        MachineConfig cfg;
        cfg.fastForward = fastForward;
        Machine m(p, cfg);
        const RunResult r = m.run(kBudget);
        benchmark::DoNotOptimize(r.cycles);
        cycles += r.cycles;
    }
    state.counters["machine_cycles_per_s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(busyWaitWatchdog)->Arg(0)->Arg(1)->ArgName("fastforward");

} // namespace

XIMD_BENCH_MAIN(printTables)
