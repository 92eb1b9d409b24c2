/**
 * @file
 * SIM_CYCLE — host cost of one simulated cycle on the default backend
 * over the long-jobs set: every data-driven workload in each valid
 * mode at n = 65536, seed 7, built through makeWorkloadSpec exactly
 * as the long-jobs benchmark builds them.
 *
 * Each spec runs twice: `observed` with its default config (the
 * section 4.1 statistics package on: stats and partition tracking)
 * and `bare` with withoutObservers(). cycle/<workload>/<mode>/<kind>
 * rows report nanoseconds of Machine::run per simulated cycle, so
 * observed − bare is what the statistics package costs.
 *
 * cycle/livermore-c/<mode>/<kind> rows run the 32 programs of the
 * livermore-c benchmark at seed 7 in both modes. xcc emits one
 * lockstep class, so every XIMD cycle is one stream and both modes
 * reach the same cycles and architectural state (section 2.1): the
 * XIMD rows show what XIMD sequencing costs over VLIW's on one
 * program.
 */

#include "bench_util.hh"

#include <chrono>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "farm/suite.hh"
#include "livermore_corpus.hh"

namespace {

using namespace ximd;
using namespace ximd::bench;

/** The long-jobs specs, in the long-jobs order. */
const std::vector<farm::RunSpec> &
specs()
{
    static const std::vector<farm::RunSpec> all = [] {
        static const std::pair<const char *, Mode> kJobs[] = {
            {"bitcount", Mode::Vliw},    {"bitcount", Mode::Ximd},
            {"bitcount-lockstep", Mode::Vliw},
            {"multisearch", Mode::Ximd}, {"multisearch", Mode::Vliw},
            {"minmax", Mode::Ximd},      {"minmax", Mode::Vliw},
            {"loop12", Mode::Ximd},      {"loop12", Mode::Vliw},
        };
        std::vector<farm::RunSpec> out;
        farm::ProgramCache cache;
        for (const auto &[workload, mode] : kJobs) {
            farm::WorkloadRequest req;
            req.workload = workload;
            req.mode = mode;
            req.n = 65536;
            req.seed = 7;
            auto spec = farm::makeWorkloadSpec(req, &cache);
            if (!spec) {
                std::cerr << workload << ": " << spec.error().message
                          << "\n";
                std::exit(1);
            }
            out.push_back(std::move(spec.value()));
        }
        return out;
    }();
    return all;
}

/** The livermore-c programs at seed 7, prepared once. */
const std::vector<std::shared_ptr<const PreparedProgram>> &
livermoreC()
{
    static const auto all = [] {
        std::vector<std::shared_ptr<const PreparedProgram>> out;
        for (Program &p : livermorePrograms())
            out.push_back(PreparedProgram::make(std::move(p)));
        return out;
    }();
    return all;
}

MachineConfig
configFor(MachineConfig c, bool observed)
{
    if (!observed)
        c.withoutObservers();
    return c;
}

MachineConfig
configFor(const farm::RunSpec &spec, bool observed)
{
    return configFor(spec.config, observed);
}

/** Run @p prog to its halt; exit non-zero if it does not halt. */
RunResult
runToHalt(Machine &m, const std::string &name, Cycle maxCycles = 0)
{
    const RunResult r = m.run(maxCycles);
    if (r.reason != StopReason::Halted) {
        std::cerr << name << ": did not halt\n";
        std::exit(1);
    }
    return r;
}

void
printTables()
{
    std::cout << "# SIM_CYCLE: host ns per simulated cycle over the "
                 "long-jobs specs\n";

    section("spec shape (observed run)");
    Table t({{"spec", 40},
             {"cycles", 10},
             {"parcels", 11},
             {"busy-wait", 11},
             {"streams", 9}});
    t.header();
    for (const farm::RunSpec &spec : specs()) {
        Machine m(spec.program, configFor(spec, true));
        const RunResult r = runToHalt(m, spec.name, spec.maxCycles);
        t.row({spec.name, num(r.cycles), num(m.stats().parcels()),
               num(m.stats().busyWaitCycles()),
               fixed(m.stats().meanStreams(), 2)});
    }
    // The livermore-c programs, summed; mean streams is weighted by
    // cycles. Both modes must agree program by program.
    for (Mode mode : {Mode::Ximd, Mode::Vliw}) {
        std::uint64_t cycles = 0, parcels = 0, busy = 0;
        double streams = 0;
        for (const auto &prog : livermoreC()) {
            Machine m(prog, MachineConfig{}.withMode(mode));
            Machine other(prog, MachineConfig{}.withMode(
                                    mode == Mode::Ximd ? Mode::Vliw
                                                       : Mode::Ximd));
            const RunResult r = runToHalt(m, "livermore-c");
            if (runToHalt(other, "livermore-c").cycles != r.cycles ||
                other.archStateHash() != m.archStateHash()) {
                std::cerr << "livermore-c: XIMD and VLIW runs differ\n";
                std::exit(1);
            }
            cycles += r.cycles;
            parcels += m.stats().parcels();
            busy += m.stats().busyWaitCycles();
            streams += m.stats().meanStreams() *
                       static_cast<double>(r.cycles);
        }
        t.row({std::string("livermore-c/") + modeName(mode) + " (" +
                   num(livermoreC().size()) + " programs)",
               num(cycles), num(parcels), num(busy),
               fixed(streams / static_cast<double>(cycles), 2)});
    }
    std::cout << "shape: XIMD bitcount, multisearch and minmax run "
                 "several streams (bitcount\nbusy-waits at its barrier); "
                 "XIMD loop12, XIMD livermore-c and every VLIW row\n"
                 "run one. Each livermore-c program reaches the same "
                 "cycles and\narchitectural state in both modes.\n";
}

void
simCycle(benchmark::State &state, std::size_t which, bool observed)
{
    const farm::RunSpec &spec = specs()[which];
    const MachineConfig config = configFor(spec, observed);
    double runNs = 0;
    Cycle cycles = 0;
    for (auto _ : state) {
        Machine m(spec.program, config);
        const auto t0 = std::chrono::steady_clock::now();
        const RunResult r = m.run(spec.maxCycles);
        runNs += std::chrono::duration<double, std::nano>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
        cycles += r.cycles;
        benchmark::DoNotOptimize(m.archStateHash());
    }
    state.counters["ns_per_cycle"] =
        runNs / static_cast<double>(cycles ? cycles : 1);
    state.counters["sim_cycles"] =
        static_cast<double>(cycles / state.iterations());
}

void
livermoreCycle(benchmark::State &state, Mode mode, bool observed)
{
    const MachineConfig config =
        configFor(MachineConfig{}.withMode(mode), observed);
    double runNs = 0;
    Cycle cycles = 0;
    for (auto _ : state) {
        for (const auto &prog : livermoreC()) {
            Machine m(prog, config);
            const auto t0 = std::chrono::steady_clock::now();
            const RunResult r = m.run();
            runNs += std::chrono::duration<double, std::nano>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
            cycles += r.cycles;
            benchmark::DoNotOptimize(m.archStateHash());
        }
    }
    state.counters["ns_per_cycle"] =
        runNs / static_cast<double>(cycles ? cycles : 1);
    state.counters["sim_cycles"] =
        static_cast<double>(cycles / state.iterations());
}

void
registerRows()
{
    for (std::size_t i = 0; i < specs().size(); ++i) {
        const farm::RunSpec &spec = specs()[i];
        // "bitcount/ximd/n=65536/seed=7" -> "bitcount/ximd".
        const std::string base =
            spec.name.substr(0, spec.name.find("/n="));
        for (bool observed : {true, false})
            benchmark::RegisterBenchmark(
                ("cycle/" + base + (observed ? "/observed" : "/bare"))
                    .c_str(),
                simCycle, i, observed)
                ->Unit(benchmark::kMillisecond);
    }
    for (Mode mode : {Mode::Ximd, Mode::Vliw})
        for (bool observed : {true, false})
            benchmark::RegisterBenchmark(
                (std::string("cycle/livermore-c/") + modeName(mode) +
                 (observed ? "/observed" : "/bare"))
                    .c_str(),
                livermoreCycle, mode, observed)
                ->Unit(benchmark::kMicrosecond);
}

void
printTablesAndRegister()
{
    printTables();
    registerRows();
}

} // namespace

XIMD_BENCH_MAIN(printTablesAndRegister)
