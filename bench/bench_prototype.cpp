/**
 * @file
 * PROTO — section 4.3's prototype performance claims: "An initial
 * performance analysis predicts a cycle time of 85ns. This will
 * result in peak performance in excess of 90 MIPS/90 MFLOPS."
 *
 * Peak: 8 universal FUs x 1 op/cycle at 85 ns = 94.1 M ops/s. The
 * tables report the peak and the *achieved* MIPS/MFLOPS of the
 * workload suite at that cycle time, plus the host-side simulation
 * speed of xsim itself.
 */

#include "bench_util.hh"

#include "core/machine.hh"
#include "sched/codegen.hh"
#include "support/random.hh"
#include "workloads/bitcount.hh"
#include "workloads/kernels.hh"
#include "workloads/loop12.hh"
#include "workloads/minmax.hh"

namespace {

using namespace ximd;
using namespace ximd::bench;
using namespace ximd::workloads;

constexpr double kCycleNs = 85.0;

/**
 * Synthetic peak-FP kernel: U unrolled rows of 8 independent fadds,
 * then one loop-control row that still carries 6 fadds. Achieves
 * (8U + 6) flops per (U + 1) cycles — asymptotically the full 8
 * flops/cycle the prototype's MFLOPS claim assumes.
 */
Program
peakFlopKernel(unsigned unroll, Word iters)
{
    Program p(8);
    // r0..r7: accumulators; r8: counter.
    for (unsigned u = 0; u < unroll; ++u) {
        InstRow row;
        for (FuId fu = 0; fu < 8; ++fu)
            row.push_back(Parcel(
                ControlOp::jump(u + 1),
                DataOp::make(Opcode::Fadd, Operand::reg(fu),
                             Operand::immFloat(1.0f),
                             static_cast<RegId>(fu))));
        p.addRow(std::move(row));
    }
    // Loop-control row: counter decrement + exit compare + 6 fadds.
    InstRow latch;
    latch.push_back(Parcel(ControlOp::onCc(1, unroll + 1, 0),
                           DataOp::make(Opcode::Isub, Operand::reg(8),
                                        Operand::immInt(1), 8)));
    latch.push_back(Parcel(ControlOp::onCc(1, unroll + 1, 0),
                           DataOp::makeCompare(Opcode::Le,
                                               Operand::reg(8),
                                               Operand::immInt(2))));
    for (FuId fu = 2; fu < 8; ++fu)
        latch.push_back(Parcel(
            ControlOp::onCc(1, unroll + 1, 0),
            DataOp::make(Opcode::Fadd, Operand::reg(fu),
                         Operand::immFloat(1.0f),
                         static_cast<RegId>(fu))));
    p.addRow(std::move(latch));
    p.addUniformRow(Parcel(ControlOp::halt(), DataOp::nop()));
    p.addRegInit(8, iters);
    p.validate();
    return p;
}

void
printTables()
{
    std::cout << "# PROTO: prototype performance at the 85 ns cycle "
                 "(section 4.3)\n";

    const double peak = 8.0 / (kCycleNs * 1e-9) / 1e6;
    std::cout << "\npeak (8 universal FUs, 1 op/cycle each): "
              << fixed(peak, 1)
              << " MIPS and up to the same MFLOPS\n"
              << "paper claim: \"in excess of 90 MIPS/90 MFLOPS\" — "
              << (peak > 90.0 ? "reproduced" : "NOT reproduced")
              << "\n";

    section("achieved rates on the workload suite (8-FU machine)");
    Table t({{"workload", 26},
             {"cycles", 9},
             {"util", 8},
             {"MIPS", 8},
             {"MFLOPS", 9}});
    t.header();

    auto report = [&](const char *name, auto &machine) {
        machine.run();
        const RunStats &s = machine.stats();
        t.row({name, num(machine.cycle()),
               fixed(s.utilization() * 100, 1) + "%",
               fixed(s.mips(kCycleNs), 1),
               fixed(s.mflops(kCycleNs), 1)});
    };

    Rng rng(5);
    {
        Machine m(peakFlopKernel(15, 64));
        report("peak-FP kernel (8 fadd/cyc)", m);
    }
    {
        std::vector<float> y(513);
        for (auto &v : y)
            v = static_cast<float>(rng.range(-100, 100));
        Machine m(loop12Pipelined(y));
        report("loop12 pipelined (II=1)", m);
    }
    {
        std::vector<float> y(513);
        for (auto &v : y)
            v = static_cast<float>(rng.range(-100, 100));
        Machine m(loop12Naive(y, 8));
        report("loop12 naive", m);
    }
    {
        std::vector<SWord> data(512);
        for (auto &v : data)
            v = static_cast<SWord>(rng.range(0, 10000));
        Machine m(minmaxXimd(data));
        report("minmax (4 of 8 FUs)", m);
    }
    {
        std::vector<Word> data(256);
        for (auto &v : data)
            v = static_cast<Word>(rng.next64() & 0xFFFFF);
        Machine m(bitcountXimd(data));
        report("bitcount (4 streams)", m);
    }
    {
        Machine m(tprocPaper(1, 2, 3, 4));
        report("tproc (scalar)", m);
    }
    std::cout << "\nshape: the pipelined vector loop approaches the "
                 "issue-limited rate;\nscalar and control-bound codes "
                 "sit well below peak, as on any VLIW.\n";

    section("research model vs prototype 3-stage datapath pipeline");
    // Section 4.3 lists a "3-stage Data Path Pipeline (Operand Fetch
    // - Execute - Write Back)" as a prototype deviation taken "to
    // decrease cycle time". Compile the same dataflow for both
    // latencies and compare cycle counts: the pipeline costs cycles
    // on dependence-bound code, which the shorter cycle time must buy
    // back.
    {
        using namespace sched;
        IrBuilder b;
        const VregId i = b.newVreg();
        const VregId sum = b.newVreg();
        b.setInit(i, 0);
        b.setInit(sum, 0);
        b.startBlock("loop");
        b.emitTo(i, Opcode::Iadd, IrValue::reg(i), IrValue::immInt(1));
        const IrValue v =
            b.emitLoad(IrValue::immInt(600), IrValue::reg(i));
        const IrValue s =
            b.emit(Opcode::Imult, v, IrValue::immInt(3));
        b.emitTo(sum, Opcode::Iadd, IrValue::reg(sum), s);
        const int cmp = b.emitCompare(Opcode::Eq, IrValue::reg(i),
                                      IrValue::immInt(64));
        b.branch(cmp, "end", "loop");
        b.startBlock("end");
        b.emitStore(IrValue::reg(sum), IrValue::immInt(599));
        b.halt();
        IrProgram ir = b.finish();

        Table t2({{"datapath", 26},
                  {"rows", 7},
                  {"cycles", 9},
                  {"result", 9}});
        t2.header();
        Word results[2];
        int idx = 0;
        for (unsigned latency : {1u, 3u}) {
            auto code = orDie(sched::generateCodeChecked(
                ir, {.width = 8, .rawLatency = latency}));
            MachineConfig cfg;
            cfg.resultLatency = latency;
            Machine m(code.program, cfg);
            for (Word k = 1; k <= 64; ++k)
                m.memory().poke(600 + k, k);
            m.run();
            results[idx++] = m.peekMem(599);
            t2.row({latency == 1 ? "research (1-cycle)"
                                 : "prototype (3-stage pipe)",
                    num(code.program.size()), num(m.cycle()),
                    num(m.peekMem(599))});
        }
        if (results[0] != results[1]) {
            std::cerr << "pipeline ablation mismatch\n";
            std::exit(1);
        }
        std::cout << "shape: identical results; the 3-stage pipeline "
                     "stretches this\ndependence-bound loop ~3x in "
                     "cycles — the compiler visibility the paper\n"
                     "counts on (\"the compiler can accurately "
                     "predict ... the timing of\neach instruction\") "
                     "extends cleanly to the pipelined prototype.\n";
    }
}

/** Host-side simulator speed: simulated machine-cycles per second. */
void
hostSimulationSpeed(benchmark::State &state)
{
    Rng rng(9);
    std::vector<float> y(static_cast<std::size_t>(state.range(0)) + 1);
    for (auto &v : y)
        v = static_cast<float>(rng.range(-100, 100));
    Program prog = loop12Pipelined(y);
    Cycle cycles = 0;
    for (auto _ : state) {
        Machine m(prog);
        m.run();
        cycles += m.cycle();
    }
    state.counters["machine_cycles_per_s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
    state.counters["sim_slowdown_vs_85ns"] = benchmark::Counter(
        static_cast<double>(cycles) * kCycleNs * 1e-9,
        benchmark::Counter::kIsRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(hostSimulationSpeed)->Arg(1024)->Arg(16384)->ArgName("N");

void
hostVliwSimulationSpeed(benchmark::State &state)
{
    Rng rng(10);
    std::vector<float> y(4097);
    for (auto &v : y)
        v = static_cast<float>(rng.range(-100, 100));
    Program prog = loop12Pipelined(y);
    Cycle cycles = 0;
    for (auto _ : state) {
        Machine m(prog, MachineConfig::vliw());
        m.run();
        cycles += m.cycle();
    }
    state.counters["machine_cycles_per_s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(hostVliwSimulationSpeed);

} // namespace

XIMD_BENCH_MAIN(printTables)
