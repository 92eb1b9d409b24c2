/**
 * @file
 * LL12 — Livermore Loop 12 (section 3.1): X(k) = Y(k+1) - Y(k).
 *
 * "Software Pipelining can be used effectively to schedule multiple
 * iterations of this loop in parallel." Regenerates the cycles-vs-N
 * series for the naive schedule, the hand-pipelined II=1 kernel, and
 * the modulo-scheduler-generated kernel (they must agree), plus
 * MFLOPS at the prototype's 85 ns cycle time.
 */

#include "bench_util.hh"

#include "core/machine.hh"
#include "sched/modulo.hh"
#include "support/random.hh"
#include "workloads/kernels.hh"
#include "workloads/loop12.hh"
#include "workloads/reference.hh"

namespace {

using namespace ximd;
using namespace ximd::bench;

std::vector<float>
makeY(std::size_t m, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> y(m);
    for (auto &v : y)
        v = static_cast<float>(rng.range(-512, 512)) * 0.125f;
    return y;
}

/** Loop 12 through the modulo scheduler. */
Program
moduloLoop12(Word n, Addr y0, Addr x0)
{
    using namespace sched;
    PipelineLoop loop;
    loop.numLocals = 4;
    loop.tripCount = n;
    loop.body = {
        {Opcode::Load, PipeVal::immRaw(y0), PipeVal::induction(), 0},
        {Opcode::Load, PipeVal::immRaw(y0 + 1), PipeVal::induction(),
         1},
        {Opcode::Iadd, PipeVal::induction(), PipeVal::immRaw(x0), 3},
        {Opcode::Fsub, PipeVal::localVal(1), PipeVal::localVal(0), 2},
        {Opcode::Store, PipeVal::localVal(2), PipeVal::localVal(3),
         -1},
    };
    return orDie(pipelineLoopChecked(loop, 8));
}

Cycle
runAndVerify(Program prog, const std::vector<float> &y,
             bool pokeMemory)
{
    Machine m(std::move(prog));
    const Word x0 = m.program().symbolOrDie("X0");
    if (pokeMemory) {
        const Word y0 = m.program().symbolOrDie("Y0");
        for (std::size_t k = 1; k <= y.size(); ++k)
            m.memory().poke(y0 + static_cast<Addr>(k),
                            floatToWord(y[k - 1]));
    }
    const RunResult r = m.run(10'000'000);
    if (!r.ok()) {
        std::cerr << "loop12 failed: " << r.faultMessage << "\n";
        std::exit(1);
    }
    const auto expect = workloads::referenceLoop12(y);
    for (std::size_t k = 0; k < expect.size(); ++k) {
        if (wordToFloat(m.peekMem(x0 + 1 + static_cast<Addr>(k))) !=
            expect[k]) {
            std::cerr << "loop12 X(" << k + 1 << ") mismatch\n";
            std::exit(1);
        }
    }
    return r.cycles;
}

void
printTables()
{
    std::cout << "# LL12: Livermore Loop 12, naive vs software-"
                 "pipelined (8 FUs)\n\n";
    std::cout << "All variants verified against the C++ reference.\n"
              << "MFLOPS at the prototype's 85 ns cycle "
                 "(section 4.3).\n\n";

    Table t({{"N", 8},
             {"naive", 9},
             {"hand II=1", 11},
             {"modulo II=1", 13},
             {"speedup", 9},
             {"MFLOPS", 9}});
    t.header();

    for (Word n : {8u, 32u, 128u, 512u, 2048u}) {
        const auto y = makeY(n + 1, n);
        const Cycle naive =
            runAndVerify(workloads::loop12Naive(y, 8), y, false);
        const Cycle hand =
            runAndVerify(workloads::loop12Pipelined(y), y, false);

        Program mod = moduloLoop12(n, 64, 4096);
        mod.setSymbol("X0", 4096);
        mod.setSymbol("Y0", 64);
        const Cycle modc = runAndVerify(std::move(mod), y, true);

        // One fsub per iteration.
        const double secs = static_cast<double>(hand) * 85e-9;
        const double mflops = static_cast<double>(n) / secs / 1e6;
        t.row({num(n), num(naive), num(hand), num(modc),
               ratio(double(naive) / double(hand)), fixed(mflops, 2)});
    }
    std::cout << "\nShape check: the pipelined kernel reaches one "
                 "iteration per cycle\n(N + 3 cycles total) — 3x over "
                 "the naive 3-cycle loop, independent of N.\nThe "
                 "hand schedule and the modulo scheduler agree "
                 "cycle-for-cycle.\n";
}

void
simulatePipelined(benchmark::State &state)
{
    const Word n = static_cast<Word>(state.range(0));
    const auto y = makeY(n + 1, 1);
    Program prog = workloads::loop12Pipelined(y);
    Cycle cycles = 0;
    for (auto _ : state) {
        Machine m(prog);
        m.run();
        cycles += m.cycle();
    }
    state.counters["machine_cycles_per_s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(simulatePipelined)->Arg(128)->Arg(2048)->ArgName("N");

} // namespace

XIMD_BENCH_MAIN(printTables)
