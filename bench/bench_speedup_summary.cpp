/**
 * @file
 * XSIM — the cross-workload summary behind section 4.1's statement:
 * "Preliminary results show a significant performance increase on
 * many programs."
 *
 * For every workload with a meaningful VLIW baseline, run both
 * machines on identical inputs and report the cycle-count speedup.
 * VLIW-mode codes (tproc, loop12) are expected at 1.00x — XIMD
 * matches a VLIW on single-stream code; control-parallel codes win.
 */

#include "bench_util.hh"

#include "core/machine.hh"
#include "support/random.hh"
#include "workloads/bitcount.hh"
#include "workloads/kernels.hh"
#include "workloads/loop12.hh"
#include "workloads/minmax.hh"
#include "workloads/reference.hh"

namespace {

using namespace ximd;
using namespace ximd::bench;
using namespace ximd::workloads;

void
printTables()
{
    std::cout << "# XSIM: XIMD vs VLIW cycle counts across the "
                 "suite (section 4.1)\n";

    section("speedup summary");
    Table t({{"workload", 30},
             {"XIMD", 9},
             {"VLIW", 9},
             {"speedup", 9},
             {"mechanism", 30}});
    t.header();

    Rng rng(123);

    { // tproc: single stream, expect parity.
        Machine x(tprocPaper(3, -4, 7, 11));
        Machine v(tprocPaper(3, -4, 7, 11), MachineConfig::vliw());
        x.run();
        v.run();
        t.row({"tproc (Example 1)", num(x.cycle()), num(v.cycle()),
               ratio(double(v.cycle()) / double(x.cycle())),
               "VLIW-mode (single stream)"});
    }
    { // loop12 pipelined: single stream, expect parity.
        std::vector<float> y(257);
        for (auto &vv : y)
            vv = static_cast<float>(rng.range(-50, 50));
        Machine x(loop12Pipelined(y));
        Machine v(loop12Pipelined(y), MachineConfig::vliw());
        x.run();
        v.run();
        t.row({"loop12 pipelined", num(x.cycle()), num(v.cycle()),
               ratio(double(v.cycle()) / double(x.cycle())),
               "VLIW-mode (single stream)"});
    }
    { // minmax: 2 parallel branches.
        std::vector<SWord> data(1024);
        for (auto &vv : data)
            vv = static_cast<SWord>(rng.range(0, 100000));
        Machine x(minmaxXimd(data));
        Machine v(minmaxVliw(data), MachineConfig::vliw());
        x.run();
        v.run();
        t.row({"minmax (Example 2)", num(x.cycle()), num(v.cycle()),
               ratio(double(v.cycle()) / double(x.cycle())),
               "fork/join, implicit barrier"});
    }
    { // multi-search: 6 parallel branches.
        std::vector<SWord> data(512);
        for (auto &vv : data)
            vv = static_cast<SWord>(rng.range(0, 100000));
        Machine x(multiSearchXimd(6, data));
        Machine v(multiSearchVliw(6, data), MachineConfig::vliw());
        x.run();
        v.run();
        t.row({"multi-search S=6", num(x.cycle()), num(v.cycle()),
               ratio(double(v.cycle()) / double(x.cycle())),
               "6 concurrent branch streams"});
    }
    { // bitcount vs serial VLIW.
        std::vector<Word> data(256);
        for (auto &vv : data)
            vv = static_cast<Word>(rng.next64() & 0xFFFFF);
        Machine x(bitcountXimd(data));
        Machine vs(bitcountVliwSerial(data), MachineConfig::vliw());
        Machine vl(bitcountVliwLockstep(data), MachineConfig::vliw());
        x.run();
        vs.run();
        vl.run();
        t.row({"bitcount vs VLIW-serial", num(x.cycle()),
               num(vs.cycle()),
               ratio(double(vs.cycle()) / double(x.cycle())),
               "4 streams + explicit barrier"});
        t.row({"bitcount vs VLIW-lockstep", num(x.cycle()),
               num(vl.cycle()),
               ratio(double(vl.cycle()) / double(x.cycle())),
               "data-dependent trip counts"});
    }

    std::cout << "\nshape (the paper's qualitative claim): parity on "
                 "single-stream codes,\n'significant performance "
                 "increase' (1.3x - 4x here) wherever run-time\n"
                 "control flow lets the XIMD split into multiple "
                 "streams.\n";
}

void
endToEndSuite(benchmark::State &state)
{
    Rng rng(5);
    std::vector<SWord> data(256);
    for (auto &v : data)
        v = static_cast<SWord>(rng.range(0, 1000));
    Program minmax = minmaxXimd(data);
    std::vector<Word> bits(64);
    for (auto &v : bits)
        v = static_cast<Word>(rng.next64() & 0xFFFFF);
    Program bc = bitcountXimd(bits);
    Cycle cycles = 0;
    for (auto _ : state) {
        Machine m1(minmax);
        m1.run();
        Machine m2(bc);
        m2.run();
        benchmark::DoNotOptimize(m1.cycle() + m2.cycle());
        cycles += m1.cycle() + m2.cycle();
    }
    state.counters["machine_cycles_per_s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(endToEndSuite);

} // namespace

XIMD_BENCH_MAIN(printTables)
