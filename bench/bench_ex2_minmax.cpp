/**
 * @file
 * EX2 — Example 2 (MINMAX) and its generalization.
 *
 * "Each iteration of this loop contains two critical conditional
 * branches which can be performed in parallel. A VLIW processor can
 * generally only perform one control operation at a time. XIMD can
 * perform both control operations in parallel."
 *
 * Series 1: MINMAX cycles/element, XIMD vs VLIW, over N.
 * Series 2: S simultaneous data-dependent searches — the XIMD
 * iteration cost stays flat while the VLIW cost grows ~2 cycles per
 * extra branch.
 */

#include "bench_util.hh"

#include "core/machine.hh"
#include "support/random.hh"
#include "workloads/minmax.hh"
#include "workloads/reference.hh"

namespace {

using namespace ximd;
using namespace ximd::bench;
using namespace ximd::workloads;

std::vector<SWord>
makeData(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<SWord> data(n);
    for (auto &v : data)
        v = static_cast<SWord>(rng.range(0, 100000));
    return data;
}

void
printTables()
{
    std::cout << "# EX2: parallel conditional updates — XIMD vs "
                 "VLIW\n";

    section("MINMAX (two data-dependent branches per element)");
    Table t({{"N", 8},
             {"XIMD cyc", 10},
             {"VLIW cyc", 10},
             {"XIMD c/el", 11},
             {"VLIW c/el", 11},
             {"speedup", 9}});
    t.header();
    for (std::size_t n : {16u, 64u, 256u, 1024u, 4096u}) {
        const auto data = makeData(n, n);
        const auto [lo, hi] = referenceMinmax(data);

        Machine x(minmaxXimd(data));
        Machine v(minmaxVliw(data), MachineConfig::vliw());
        x.run();
        v.run();
        if (wordToInt(x.readRegByName("min")) != lo ||
            wordToInt(x.readRegByName("max")) != hi ||
            wordToInt(v.readRegByName("min")) != lo ||
            wordToInt(v.readRegByName("max")) != hi)
            std::exit(1);

        t.row({num(n), num(x.cycle()), num(v.cycle()),
               fixed(double(x.cycle()) / double(n), 2),
               fixed(double(v.cycle()) / double(n), 2),
               ratio(double(v.cycle()) / double(x.cycle()))});
    }
    std::cout << "shape: XIMD 3 cycles/element vs VLIW 5 — the two "
                 "update branches\nresolve in one XIMD cycle.\n";

    section("S concurrent searches (branches per element = S)");
    Table t2({{"S", 5},
              {"FUs", 6},
              {"XIMD cyc", 10},
              {"VLIW cyc", 10},
              {"XIMD c/el", 11},
              {"VLIW c/el", 11},
              {"speedup", 9}});
    t2.header();
    const auto data = makeData(512, 99);
    for (unsigned s = 1; s <= kMaxSearches; ++s) {
        Machine x(multiSearchXimd(s, data));
        Machine v(multiSearchVliw(s, data), MachineConfig::vliw());
        x.run();
        v.run();
        const auto expect = referenceMultiSearch(s, data);
        for (unsigned i = 0; i < s; ++i) {
            const auto name = "c" + std::to_string(i);
            if (x.readRegByName(name) != expect[i] ||
                v.readRegByName(name) != expect[i])
                std::exit(1);
        }
        t2.row({num(s), num(s + 2), num(x.cycle()), num(v.cycle()),
                fixed(double(x.cycle()) / 512.0, 2),
                fixed(double(v.cycle()) / 512.0, 2),
                ratio(double(v.cycle()) / double(x.cycle()))});
    }
    std::cout << "shape: XIMD cost flat at 6 cycles/element for any "
                 "S; VLIW grows\n2S+4 — control parallelism scales "
                 "with the number of streams.\n";
}

void
simulateMinmax(benchmark::State &state, Backend backend)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto data = makeData(n, 7);
    const auto prog = PreparedProgram::make(minmaxXimd(data));
    const MachineConfig cfg = MachineConfig{}.withBackend(backend);
    Cycle cycles = 0;
    for (auto _ : state) {
        Machine m(prog, cfg);
        m.run();
        cycles += m.cycle();
    }
    state.counters["machine_cycles_per_s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(simulateMinmax, interp, Backend::Interp)
    ->Arg(256)->Arg(4096)->ArgName("N");
BENCHMARK_CAPTURE(simulateMinmax, threaded, Backend::Threaded)
    ->Arg(256)->Arg(4096)->ArgName("N");

} // namespace

XIMD_BENCH_MAIN(printTables)
