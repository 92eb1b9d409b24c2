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
 */

#include "bench_util.hh"

#include <chrono>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "farm/suite.hh"

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

MachineConfig
configFor(const farm::RunSpec &spec, bool observed)
{
    MachineConfig c = spec.config;
    if (!observed)
        c.withoutObservers();
    return c;
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
        const RunResult r = m.run(spec.maxCycles);
        if (r.reason != StopReason::Halted) {
            std::cerr << spec.name << ": did not halt\n";
            std::exit(1);
        }
        t.row({spec.name, num(r.cycles), num(m.stats().parcels()),
               num(m.stats().busyWaitCycles()),
               fixed(m.stats().meanStreams(), 2)});
    }
    std::cout << "shape: XIMD bitcount, multisearch and minmax run "
                 "several streams (bitcount\nbusy-waits at its barrier); "
                 "XIMD loop12 and every VLIW row run one.\n";
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
}

void
printTablesAndRegister()
{
    printTables();
    registerRows();
}

} // namespace

XIMD_BENCH_MAIN(printTablesAndRegister)
