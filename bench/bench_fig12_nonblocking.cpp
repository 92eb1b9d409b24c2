/**
 * @file
 * FIG12 — multiple non-blocking synchronizations (section 3.4).
 *
 * Two processes exchange three values each through I/O ports with
 * compiler-invisible timing. Sweeps the arrival skew between the two
 * ports and reports, per synchronization style:
 *   total    — cycle every FU halted (bounded by the last arrival);
 *   P1 done  — cycle process 1's outputs (a,b,c -> OUTB) completed,
 *              the latency the non-blocking scheme optimizes;
 *   polls    — empty port reads (busy-poll overhead).
 */

#include "bench_util.hh"

#include "core/machine.hh"
#include "workloads/nonblocking.hh"

namespace {

using namespace ximd;
using namespace ximd::bench;
using namespace ximd::workloads;

struct Outcome
{
    Cycle total = 0;
    Cycle p1done = 0;
    std::uint64_t polls = 0;
};

Outcome
runVariant(Program prog, const std::vector<Cycle> &arrA,
           const std::vector<Cycle> &arrB)
{
    Machine m(std::move(prog));
    ScriptedInputPort inA("INA"), inB("INB");
    OutputPort outA("OUTA"), outB("OUTB");
    for (unsigned i = 0; i < kNonblockingValues; ++i) {
        inA.schedule(arrA[i], 11 + i);
        inB.schedule(arrB[i], 21 + i);
    }
    const auto &p = m.program();
    m.attachDevice(p.symbolOrDie("INA"), p.symbolOrDie("INA"), &inA);
    m.attachDevice(p.symbolOrDie("INB"), p.symbolOrDie("INB"), &inB);
    m.attachDevice(p.symbolOrDie("OUTA"), p.symbolOrDie("OUTA"),
                   &outA);
    m.attachDevice(p.symbolOrDie("OUTB"), p.symbolOrDie("OUTB"),
                   &outB);
    const RunResult r = m.run(1'000'000);
    if (!r.ok() || outB.records().size() != 3 ||
        outA.records().size() != 3) {
        std::cerr << "fig12 variant failed\n";
        std::exit(1);
    }
    // Data integrity.
    for (unsigned i = 0; i < 3; ++i)
        if (outB.records()[i].value != 11 + i ||
            outA.records()[i].value != 21 + i)
            std::exit(1);
    return {r.cycles, outB.records().back().cycle,
            inA.emptyPolls() + inB.emptyPolls()};
}

void
printTables()
{
    std::cout << "# FIG12: two processes, multiple non-blocking "
                 "synchronizations\n\n"
              << "Process 1 reads a,b,c from INA; process 2 reads "
                 "x,y,z from INB;\neach writes the other's values "
                 "out. Sweep: process 2's port is\ndelayed by an "
                 "increasing skew.\n";

    section("skew sweep (INA at 0/6/12; INB delayed by skew)");
    Table t({{"skew", 7},
             {"sync total", 12},
             {"sync P1done", 13},
             {"barr total", 12},
             {"barr P1done", 13},
             {"mflag total", 13},
             {"mflag P1done", 14}});
    t.header();
    for (Cycle skew : {0u, 8u, 32u, 128u, 512u}) {
        const std::vector<Cycle> arrA = {0, 6, 12};
        const std::vector<Cycle> arrB = {skew, skew + 6, skew + 12};
        const Outcome nb =
            runVariant(nonblockingXimd(), arrA, arrB);
        const Outcome ls = runVariant(lockstepBarrier(), arrA, arrB);
        const Outcome mf = runVariant(memoryFlagXimd(), arrA, arrB);
        t.row({num(skew), num(nb.total), num(nb.p1done),
               num(ls.total), num(ls.p1done), num(mf.total),
               num(mf.p1done)});
    }
    std::cout << "\nshape: P1's output latency is flat for the "
                 "non-blocking scheme but\ntracks the skew under "
                 "lock-step barriers (P1 is blocked behind\nprocess "
                 "2's late values).\n";

    section("handoff mechanism cost (both ports immediate)");
    Table t2({{"style", 22}, {"total", 8}, {"empty polls", 13}});
    t2.header();
    const std::vector<Cycle> zero = {0, 0, 0};
    const Outcome nb = runVariant(nonblockingXimd(), zero, zero);
    const Outcome ls = runVariant(lockstepBarrier(), zero, zero);
    const Outcome mf = runVariant(memoryFlagXimd(), zero, zero);
    t2.row({"sync bits (paper)", num(nb.total), num(nb.polls)});
    t2.row({"lock-step barriers", num(ls.total), num(ls.polls)});
    t2.row({"memory flags", num(mf.total), num(mf.polls)});
    std::cout << "\nshape: sync-bit tests cost 1 cycle; memory-flag "
                 "polls cost a\n3-cycle load/compare/branch loop per "
                 "check (section 3.4: using SS\nbits 'will result in "
                 "increased performance').\n";
}

void
simulateNonblocking(benchmark::State &state)
{
    Cycle cycles = 0;
    for (auto _ : state) {
        const Outcome o = runVariant(nonblockingXimd(), {0, 6, 12},
                                     {32, 38, 44});
        cycles += o.total;
    }
    state.counters["machine_cycles_per_s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(simulateNonblocking);

} // namespace

XIMD_BENCH_MAIN(printTables)
