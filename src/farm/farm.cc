#include "farm/farm.hh"

#include <atomic>
#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "snapshot/snapshot.hh"
#include "support/json.hh"
#include "support/logging.hh"

namespace ximd::farm {

namespace {

using Clock = std::chrono::steady_clock;

double
millisSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

analysis::Diagnostic
runFailure(std::string message)
{
    return {analysis::Severity::Error, analysis::Check::RunFailed, 0,
            -1, std::move(message)};
}

const char *
stopName(StopReason reason)
{
    switch (reason) {
      case StopReason::Halted:    return "halted";
      case StopReason::MaxCycles: return "max-cycles";
      case StopReason::Fault:     return "fault";
    }
    return "unknown";
}

/**
 * Run @p machine to completion, writing a checkpoint to
 * spec.checkpointPath at every checkpointEvery-cycle boundary. The
 * budget is absolute — resumed machines get the remainder, not a
 * fresh allowance — and the trajectory is identical to an
 * uncheckpointed run (chunked run() calls compose exactly).
 */
RunResult
runWithCheckpoints(Machine &machine, const RunSpec &spec)
{
    const Cycle budget =
        spec.maxCycles ? spec.maxCycles
                       : spec.config.defaultMaxCycles;
    const Cycle limit = machine.cycle() + budget;
    for (;;) {
        const Cycle left = limit - machine.cycle();
        const Cycle chunk = spec.checkpointEvery < left
                                ? spec.checkpointEvery
                                : left;
        const RunResult run = machine.run(chunk);
        if (run.reason != StopReason::MaxCycles ||
            machine.cycle() >= limit)
            return run;
        auto saved = snapshot::saveFile(machine, spec.checkpointPath,
                                        spec.name);
        if (!saved)
            fatal(saved.error().formatted());
    }
}

} // namespace

JobResult
Farm::runOne(const RunSpec &spec)
{
    JobResult res;
    res.name = spec.name;
    if (spec.loadError) {
        res.error = spec.loadError;
        return res;
    }

    const auto start = Clock::now();
    try {
        Machine machine(spec.program, spec.config);

        std::unique_ptr<JobFixture> fixture;
        if (spec.fixture) {
            fixture = spec.fixture(spec);
            if (fixture)
                fixture->setUp(machine);
        }

        if (!spec.resumeFrom.empty()) {
            auto restored =
                snapshot::restoreFile(machine, spec.resumeFrom);
            if (!restored) {
                res.error =
                    runFailure(restored.error().formatted());
                return res;
            }
        }

        const RunResult run =
            spec.checkpointEvery > 0 && !spec.checkpointPath.empty()
                ? runWithCheckpoints(machine, spec)
                : machine.run(spec.maxCycles);
        res.ran = true;
        res.run = run;
        res.stats = machine.stats();
        res.backend = machine.core().effectiveBackendName();
        res.statsJson =
            res.stats.json(spec.config.cycleTimeNs, res.backend);
        res.archHash = machine.archStateHash();

        if (run.reason == StopReason::Fault) {
            res.error = runFailure("simulation fault: " +
                                   run.faultMessage);
        } else if (run.reason == StopReason::MaxCycles) {
            res.error = runFailure("cycle budget exhausted after " +
                                   std::to_string(run.cycles) +
                                   " cycles");
        } else {
            if (fixture) {
                std::string msg = fixture->check(machine, run);
                if (!msg.empty())
                    res.error = runFailure(std::move(msg));
            }
            if (!res.error && spec.check) {
                std::string msg = spec.check(machine, run);
                if (!msg.empty())
                    res.error = runFailure(std::move(msg));
            }
        }
    } catch (const std::exception &e) {
        // Machine construction or fixture setup rejected the job
        // (FatalError from validation, PanicError from a sim bug).
        // Contain it: one bad job must not take down the batch.
        res.error = runFailure(e.what());
    }
    res.hostMillis = millisSince(start);
    return res;
}

BatchResult
Farm::run(const std::vector<RunSpec> &specs, unsigned threads)
{
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    if (threads > specs.size())
        threads = static_cast<unsigned>(specs.size());
    if (threads == 0)
        threads = 1;

    BatchResult batch;
    batch.threads = threads;
    batch.jobs.resize(specs.size());

    const auto start = Clock::now();

    // Work distribution: each worker claims the next unclaimed index
    // and writes only that slot, so results land in spec order with no
    // locks and no dependence on which thread ran what.
    std::atomic<std::size_t> next{0};
    const auto worker = [&specs, &batch, &next] {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= specs.size())
                return;
            batch.jobs[i] = runOne(specs[i]);
        }
    };

    if (threads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    batch.wallMillis = millisSince(start);
    return batch;
}

std::size_t
BatchResult::failures() const
{
    std::size_t n = 0;
    for (const JobResult &j : jobs)
        if (!j.ok())
            ++n;
    return n;
}

RunStats
BatchResult::merged() const
{
    RunStats total(1);
    for (const JobResult &j : jobs)
        if (j.ran)
            total.merge(j.stats);
    return total;
}

void
writeJobFields(json::Writer &w, const JobResult &job)
{
    w.key("name").string(job.name);
    w.key("ok").boolean(job.ok());
    if (job.ran) {
        w.key("stop").string(stopName(job.run.reason));
        w.key("backend").string(job.backend);
        w.key("cycles").number(static_cast<double>(job.run.cycles));
        // Nested as structured JSON so the record reads as one
        // document; a statsJson that does not parse is left out.
        w.key("stats").embed(job.statsJson);
    }
    if (job.error)
        w.key("error").string(
            analysis::DiagnosticList::formatOne(*job.error));
}

std::string
BatchResult::json(bool includeTiming) const
{
    json::Writer w(2);
    w.beginObject();
    w.key("schema").number(kStatsJsonSchema);
    w.key("job_count").number(static_cast<double>(jobs.size()));
    w.key("failures").number(static_cast<double>(failures()));
    if (includeTiming) {
        w.key("threads").number(threads);
        w.key("wall_millis").number(wallMillis);
    }
    w.key("jobs").beginArray();
    for (const JobResult &j : jobs) {
        w.beginObject();
        writeJobFields(w, j);
        if (includeTiming)
            w.key("host_millis").number(j.hostMillis);
        w.endObject();
    }
    w.endArray();
    // Rates are meaningless summed across different programs, so the
    // merged block reports counts only (cycleNs = 0 zeroes the rates).
    w.key("merged").embed(merged().json(0.0));
    w.endObject();
    return w.take();
}

} // namespace ximd::farm
