/**
 * @file
 * BATCH — throughput of the SoA lockstep engine vs the scalar farm.
 *
 * Runs the same cohort of short same-program jobs (minmax over seed
 * variants, the setup-dominated regime batching exists for) through
 * the scalar farm (width 1) and through BatchRunner at lane widths
 * 64, 256 and 1024, and reports jobs/s plus aggregate simulated
 * machine-cycles/s. The scalar path's memory is paged, so building
 * and hashing it costs O(pages touched); what the engine amortizes is
 * token preparation and observer wiring (DESIGN.md section 13). The
 * width-1 row is the scalar target: >= 20k jobs/s on one thread. The wider rows show how much batching still adds
 * over it — the number that decides whether the engine stays. Every
 * row also checks that the untimed report is byte-identical to the
 * scalar one — throughput that changed the answers would not count.
 */

#include "bench_util.hh"

#include "farm/batch_runner.hh"
#include "farm/farm.hh"
#include "farm/suite.hh"
#include "support/logging.hh"

namespace {

using namespace ximd;
using namespace ximd::bench;

constexpr std::size_t kJobs = 1024;

/** One program, many seeds: a single batch-eligible cohort. */
std::vector<farm::RunSpec>
throughputBatch()
{
    static farm::ProgramCache cache;
    std::vector<farm::RunSpec> specs;
    specs.reserve(kJobs);
    for (std::size_t i = 0; i < kJobs; ++i) {
        farm::WorkloadRequest req;
        req.workload = "minmax";
        req.n = 64;
        req.seed = 1 + i;
        auto spec = farm::makeWorkloadSpec(req, &cache);
        if (!spec.hasValue())
            fatal("bench_batch_throughput: ", spec.error().message);
        specs.push_back(std::move(spec).value());
    }
    return specs;
}

farm::BatchResult
runAtWidth(const std::vector<farm::RunSpec> &specs, unsigned width)
{
    return width <= 1 ? Farm::run(specs, 1)
                      : farm::BatchRunner::run(specs, 1, width);
}

std::uint64_t
totalCycles(const farm::BatchResult &batch)
{
    std::uint64_t cycles = 0;
    for (const farm::JobResult &j : batch.jobs)
        cycles += j.run.cycles;
    return cycles;
}

/** The untimed report with the self-describing backend labels
 *  blanked, so scalar and batched runs compare on architecture
 *  alone (the same normalization as ci.sh's batch-parity stage). */
std::string
normalizedReport(const farm::BatchResult &batch)
{
    std::string report = batch.json(false);
    for (const char *label :
         {"\"backend\": \"", "\"predecode\": \""}) {
        std::size_t at = 0;
        while ((at = report.find(label, at)) != std::string::npos) {
            const std::size_t open = at + std::string(label).size();
            const std::size_t close = report.find('"', open);
            report.replace(open, close - open, "-");
            at = open;
        }
    }
    return report;
}

void
printTables()
{
    std::cout << "# BATCH: SoA lockstep engine vs scalar farm ("
              << kJobs << " minmax/n=64 jobs, one shared program)\n";

    const std::vector<farm::RunSpec> specs = throughputBatch();

    section("jobs/s by lane width (width 1 = scalar farm)");
    Table t({{"width", 7},
             {"wall ms", 9},
             {"jobs/s", 10},
             {"speedup", 9},
             {"failed", 8},
             {"identical", 11}});
    t.header();

    std::string baselineReport;
    double baselineMs = 0;
    for (unsigned width : {1u, 64u, 256u, 1024u}) {
        const farm::BatchResult batch = runAtWidth(specs, width);
        const std::string report = normalizedReport(batch);
        if (width == 1) {
            baselineReport = report;
            baselineMs = batch.wallMillis;
        }
        const double ms = batch.wallMillis;
        t.row({num(width), fixed(ms, 0),
               fixed(ms > 0 ? double(kJobs) * 1000.0 / ms : 0.0, 0),
               ratio(ms > 0 ? baselineMs / ms : 1.0),
               num(batch.failures()),
               report == baselineReport ? "yes" : "NO"});
    }

    std::cout << "\n'identical' compares the full untimed report "
                 "byte-for-byte against the\nscalar run: a batched "
                 "job's results, stats and arch hash are a pure\n"
                 "function of its RunSpec, independent of lane "
                 "width.\n";
}

void
batchThroughput(benchmark::State &state)
{
    const unsigned width = static_cast<unsigned>(state.range(0));
    const std::vector<farm::RunSpec> specs = throughputBatch();
    std::uint64_t jobs = 0;
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        const farm::BatchResult batch = runAtWidth(specs, width);
        jobs += batch.jobs.size();
        cycles += totalCycles(batch);
        benchmark::DoNotOptimize(batch.jobs.data());
    }
    state.counters["jobs_per_s"] = benchmark::Counter(
        static_cast<double>(jobs), benchmark::Counter::kIsRate);
    state.counters["machine_cycles_per_s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}

BENCHMARK(batchThroughput)
    ->Name("batchThroughput")
    ->Arg(1)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

} // namespace

XIMD_BENCH_MAIN(printTables)
