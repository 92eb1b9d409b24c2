/**
 * @file
 * XFARM — thread scaling of the parallel batch-run engine.
 *
 * Runs a fixed batch of suite jobs at 1, 2, 4 and 8 workers and
 * reports wall time, speedup over the serial run, and a byte-level
 * determinism check of the untimed reports. On a single-core host the
 * speedup column is expected to hover around 1.0x — the table then
 * documents that the engine adds no parallel overhead rather than
 * demonstrating scaling; run on a multi-core host for the real curve.
 */

#include "bench_util.hh"

#include <thread>

#include "farm/farm.hh"
#include "farm/suite.hh"
#include "support/logging.hh"

namespace {

using namespace ximd;
using namespace ximd::bench;

/** A batch heavy enough to amortize thread startup: the built-in
 *  suite replicated over several seeds. */
std::vector<farm::RunSpec>
scalingBatch()
{
    std::vector<farm::RunSpec> specs;
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        farm::SuiteOptions opts;
        opts.n = 128;
        opts.seed = seed;
        for (farm::RunSpec &s : farm::builtinSuite(opts))
            specs.push_back(std::move(s));
    }
    return specs;
}

void
printTables()
{
    std::cout << "# XFARM: batch-engine thread scaling ("
              << std::thread::hardware_concurrency()
              << " hardware threads on this host)\n";

    const std::vector<farm::RunSpec> specs = scalingBatch();

    section(cat("scaling over ", specs.size(), " jobs"));
    Table t({{"workers", 9},
             {"wall ms", 9},
             {"speedup", 9},
             {"failed", 8},
             {"identical", 11}});
    t.header();

    std::string baselineReport;
    double baselineMs = 0;
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
        const farm::BatchResult batch = Farm::run(specs, workers);
        const std::string report = batch.json(false);
        if (workers == 1) {
            baselineReport = report;
            baselineMs = static_cast<double>(batch.wallMillis);
        }
        const double ms = static_cast<double>(batch.wallMillis);
        t.row({num(workers), fixed(ms, 0),
               ratio(ms > 0 ? baselineMs / ms : 1.0),
               num(batch.failures()),
               report == baselineReport ? "yes" : "NO"});
    }

    std::cout << "\n'identical' compares the full untimed report "
                 "byte-for-byte against\nthe serial run: every job's "
                 "statistics are a pure function of its\nRunSpec, "
                 "independent of worker count and scheduling.\n";
}

void
farmSuite(benchmark::State &state)
{
    const unsigned workers = static_cast<unsigned>(state.range(0));
    const std::vector<farm::RunSpec> specs = scalingBatch();
    std::uint64_t jobs = 0;
    for (auto _ : state) {
        const farm::BatchResult batch = Farm::run(specs, workers);
        benchmark::DoNotOptimize(batch.failures());
        jobs += batch.jobs.size();
    }
    state.counters["jobs_per_s"] = benchmark::Counter(
        static_cast<double>(jobs), benchmark::Counter::kIsRate);
}
// Real time: the jobs run on worker threads while the main thread waits,
// so kIsRate over the main thread's CPU time would overstate jobs_per_s.
BENCHMARK(farmSuite)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

XIMD_BENCH_MAIN(printTables)
