/**
 * @file
 * EX1 — Example 1 (TPROC): a Percolation-Scheduling compiler's scalar
 * schedule executing VLIW-style. Regenerates the schedule table and
 * confirms the paper's point that VLIW-style code runs identically on
 * the XIMD ("This VLIW style program can then execute just as
 * efficiently on the XIMD as on a VLIW machine").
 */

#include "bench_util.hh"

#include "core/machine.hh"
#include "isa/disasm.hh"
#include "sched/codegen.hh"
#include "workloads/kernels.hh"
#include "workloads/reference.hh"

namespace {

using namespace ximd;
using namespace ximd::bench;

/** TPROC in compiler IR, for the our-compiler-vs-paper comparison. */
sched::IrProgram
tprocIr(SWord a, SWord b, SWord c, SWord d)
{
    using namespace sched;
    IrBuilder bl;
    auto A = IrValue::immInt(a), B = IrValue::immInt(b),
         C = IrValue::immInt(c), D = IrValue::immInt(d);
    bl.startBlock("entry");
    IrValue e = bl.emit(Opcode::Iadd, A, B);
    IrValue f = bl.emit(Opcode::Imult, C, A);
    f = bl.emit(Opcode::Iadd, f, e);
    IrValue g = bl.emit(Opcode::Iadd, C, B);
    g = bl.emit(Opcode::Isub, A, g);
    e = bl.emit(Opcode::Isub, D, e);
    IrValue r = bl.emit(Opcode::Iadd, A, B);
    r = bl.emit(Opcode::Iadd, r, C);
    r = bl.emit(Opcode::Iadd, r, D);
    r = bl.emit(Opcode::Iadd, r, e);
    IrValue fg = bl.emit(Opcode::Iadd, f, g);
    r = bl.emit(Opcode::Iadd, r, fg);
    bl.emitStore(r, IrValue::immInt(100));
    bl.halt();
    return bl.finish();
}

void
printTables()
{
    std::cout << "# EX1: TPROC (Example 1) — scalar code, "
                 "VLIW-style execution\n";

    const SWord a = 3, b = -4, c = 7, d = 11;
    Program prog = workloads::tprocPaper(a, b, c, d);
    std::cout << "\npaper schedule (4 FUs):\n"
              << formatProgram(prog) << "\n";

    Machine x(workloads::tprocPaper(a, b, c, d));
    Machine v(workloads::tprocPaper(a, b, c, d), MachineConfig::vliw());
    x.run();
    v.run();

    Table t({{"machine", 10},
             {"cycles", 8},
             {"data ops", 10},
             {"util", 8},
             {"result", 9}});
    t.header();
    t.row({"XIMD", num(x.cycle()), num(x.stats().dataOps()),
           fixed(x.stats().utilization() * 100, 1) + "%",
           std::to_string(wordToInt(x.readRegByName("f")))});
    t.row({"VLIW", num(v.cycle()), num(v.stats().dataOps()),
           fixed(v.stats().utilization() * 100, 1) + "%",
           std::to_string(wordToInt(v.readRegByName("f")))});
    std::cout << "reference result: "
              << workloads::referenceTproc(a, b, c, d) << "\n";
    if (x.cycle() != v.cycle() ||
        wordToInt(x.readRegByName("f")) !=
            workloads::referenceTproc(a, b, c, d)) {
        std::cout << "MISMATCH\n";
        std::exit(1);
    }
    std::cout << "XIMD == VLIW cycle-for-cycle: OK\n";

    // How does our own list scheduler compare with the paper's
    // Percolation Scheduling result (5 rows on 4 FUs)?
    section("our list-scheduled compile of TPROC vs the paper");
    Table t2({{"width", 7}, {"rows", 7}, {"cycles", 9}});
    t2.header();
    for (FuId w : {1u, 2u, 4u, 8u}) {
        auto code = orDie(sched::generateCodeChecked(
            tprocIr(a, b, c, d), {.width = w}));
        Machine m(code.program);
        m.run();
        if (static_cast<SWord>(wordToInt(m.peekMem(100))) !=
            workloads::referenceTproc(a, b, c, d))
            std::exit(1);
        t2.row({num(w), num(code.program.size()), num(m.cycle())});
    }
    std::cout << "(paper's Percolation Scheduling compiler: 5 rows "
                 "at width 4)\n";
}

void
simulateTproc(benchmark::State &state)
{
    // Each iteration builds a machine for a run of a few cycles, so
    // this row measures machine set-up: it counts machines, not cycles.
    Program prog = workloads::tprocPaper(1, 2, 3, 4);
    for (auto _ : state) {
        Machine m(prog);
        m.run();
        benchmark::DoNotOptimize(m.readReg(0));
    }
    state.counters["machines_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(simulateTproc);

void
compileTproc(benchmark::State &state)
{
    const auto ir = tprocIr(1, 2, 3, 4);
    for (auto _ : state) {
        auto code = orDie(sched::generateCodeChecked(
            ir, {.width = static_cast<FuId>(state.range(0))}));
        benchmark::DoNotOptimize(code.program.size());
    }
}
BENCHMARK(compileTproc)->Arg(2)->Arg(8)->ArgName("width");

} // namespace

XIMD_BENCH_MAIN(printTables)
