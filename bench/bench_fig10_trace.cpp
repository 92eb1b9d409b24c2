/**
 * @file
 * FIG10 — regenerate the paper's Figure 10: the MINMAX address trace
 * for IZ() = (5,3,4,7), and verify it against the published table.
 * The timing loops measure xsim's simulation throughput on the same
 * program.
 */

#include "bench_util.hh"

#include "core/machine.hh"
#include "workloads/kernels.hh"

namespace {

using namespace ximd;

const char *const kPaperTrace =
    "0 | 00 00 00 00 | XXXX | {0,1,2,3}\n"
    "1 | 01 01 01 01 | XXFX | {0,1,2,3}\n"
    "2 | 02 02 02 02 | TTFX | {0,1,2,3}\n"
    "3 | 03 03 04 04 | TTFX | {0,1}{2}{3}\n"
    "4 | 05 05 05 05 | TTFX | {0,1,2,3}\n"
    "5 | 02 02 02 02 | TFFX | {0,1,2,3}\n"
    "6 | 03 03 04 03 | TFFX | {0,1}{2}{3}\n"
    "7 | 05 05 05 05 | TFFX | {0,1,2,3}\n"
    "8 | 02 02 02 02 | FFFX | {0,1,2,3}\n"
    "9 | 03 03 03 03 | FFTX | {0,1}{2}{3}\n"
    "10 | 05 05 05 05 | FFTX | {0,1,2,3}\n"
    "11 | 08 08 08 08 | FTTX | {0,1,2,3}\n"
    "12 | 0a 0a 0a 09 | FTTX | {0,1}{2}{3}\n"
    "13 | 0a 0a 0a 0a | FTTX | {0,1,2,3}\n";

void
printTables()
{
    std::cout << "# FIG10: MINMAX address trace, IZ() = (5,3,4,7)\n";

    MachineConfig cfg;
    cfg.recordTrace = true;
    Machine m(workloads::minmaxPaper(/*terminate=*/false), cfg);
    for (int i = 0; i < 14; ++i)
        m.step();

    std::cout << "\n" << m.trace().formatted() << "\n";
    std::cout << "results: min = "
              << wordToInt(m.readRegByName("min")) << ", max = "
              << wordToInt(m.readRegByName("max"))
              << " (paper: 3, 7)\n";

    const bool match = m.trace().compact() == kPaperTrace;
    std::cout << "golden comparison vs the published Figure 10: "
              << (match ? "EXACT MATCH (14/14 cycles)" : "MISMATCH")
              << "\n";
    if (!match)
        std::exit(1);
}

void
simulateMinmaxTrace(benchmark::State &state)
{
    // Each iteration builds a machine for 14 cycles, so this row
    // measures machine set-up: it counts machines, not cycles.
    MachineConfig cfg;
    cfg.recordTrace = state.range(0) != 0;
    for (auto _ : state) {
        Machine m(workloads::minmaxPaper(false), cfg);
        for (int i = 0; i < 14; ++i)
            m.step();
        benchmark::DoNotOptimize(m.readReg(0));
    }
    state.counters["machines_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(simulateMinmaxTrace)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("trace");

} // namespace

XIMD_BENCH_MAIN(printTables)
