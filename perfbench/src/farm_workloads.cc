/**
 * @file
 * short-jobs and long-jobs: closed batches through Farm::run.
 *
 * short-jobs runs the built-in section 4.1 grid at n=64, one grid per
 * consecutive seed, kGridsPerBatch grids to a batch; jobs are a few
 * thousand simulated cycles at most, so machine construction, hashing
 * and report JSON dominate host time.
 * long-jobs runs the data-driven workloads in both modes at n=65536
 * (16 pages of 4096 words); simulation dominates.
 *
 * Untraced, each operation is Farm::run(specs, nproc) followed by
 * BatchResult::json(false), the path `xfarm` takes. Traced, every
 * operation is also replayed through the public call sequence of
 * Farm::runOne on a worker pool of the same size, with one span per
 * call, and the replay must reproduce the untraced results exactly.
 */

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "bench.hh"
#include "farm/farm.hh"
#include "farm/suite.hh"
#include "support/json.hh"

namespace perfbench {

namespace {

using namespace ximd;
using namespace ximd::farm;

/** short-jobs: consecutive-seed grids run by one Farm::run call. */
constexpr std::size_t kGridsPerBatch = 8;

analysis::Diagnostic
runFailure(std::string message)
{
    return {analysis::Severity::Error, analysis::Check::RunFailed, 0, -1,
            std::move(message)};
}

/**
 * The long-jobs set: every data-driven workload in each valid mode,
 * longest first.
 */
std::vector<RunSpec>
longJobSpecs(std::uint64_t seed, unsigned n)
{
    static const std::pair<const char *, Mode> kJobs[] = {
        {"bitcount", Mode::Vliw},    {"bitcount", Mode::Ximd},
        {"bitcount-lockstep", Mode::Vliw},
        {"multisearch", Mode::Ximd}, {"multisearch", Mode::Vliw},
        {"minmax", Mode::Ximd},      {"minmax", Mode::Vliw},
        {"loop12", Mode::Ximd},      {"loop12", Mode::Vliw},
    };
    std::vector<RunSpec> specs;
    ProgramCache cache;
    for (const auto &[workload, mode] : kJobs) {
        WorkloadRequest req;
        req.workload = workload;
        req.mode = mode;
        req.n = n;
        req.seed = seed;
        auto spec = makeWorkloadSpec(req, &cache);
        if (!spec)
            fatal(analysis::DiagnosticList::formatOne(spec.error()));
        specs.push_back(std::move(spec.value()));
    }
    return specs;
}

/**
 * An ArchView that flips the low bit of every value it reads, so the
 * suite's own reference check sees a corrupted output (--corrupt).
 */
class CorruptView : public ArchView
{
  public:
    explicit CorruptView(const ArchView &inner) : inner_(inner) {}
    const Program &program() const override { return inner_.program(); }
    Word readRegByName(const std::string &name) const override
    {
        return inner_.readRegByName(name) ^ 1u;
    }
    Word peekMem(Addr addr) const override
    {
        return inner_.peekMem(addr) ^ 1u;
    }

  private:
    const ArchView &inner_;
};

void
corruptFirstCheckedSpec(std::vector<RunSpec> &specs)
{
    for (RunSpec &s : specs) {
        if (!s.check)
            continue;
        s.check = [inner = s.check](const ArchView &m,
                                    const RunResult &r) {
            return inner(CorruptView(m), r);
        };
        return;
    }
}

/**
 * The user-visible output check: every job passed its suite check or
 * fixture, and the report lists the specs in order with the same
 * outcome. Returns the number of failed jobs.
 */
std::uint64_t
checkBatch(const std::vector<RunSpec> &specs, const BatchResult &batch,
           const std::string &report)
{
    auto parsed = json::parse(report);
    const json::Value *jobs = parsed ? parsed.value().find("jobs") : nullptr;
    if (!jobs || jobs->items().size() != specs.size())
        return specs.size();
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const json::Value &rec = jobs->items()[i];
        const json::Value *name = rec.find("name");
        const json::Value *ok = rec.find("ok");
        const bool listed = name && ok && name->asString() == specs[i].name &&
                            ok->asBool();
        if (!batch.jobs[i].ok() || !listed)
            ++failed;
    }
    return failed;
}

/** Farm::runOne's public call sequence, one span per call. */
JobResult
replayOne(const RunSpec &spec, SpanLog &log, std::uint64_t jobId)
{
    JobResult res;
    res.name = spec.name;
    const Scoped job(&log, jobId, "farm.job");
    try {
        std::unique_ptr<Machine> machine;
        {
            const Scoped s(&log, jobId, "core.construct", job.id());
            machine = std::make_unique<Machine>(spec.program, spec.config);
        }
        std::unique_ptr<JobFixture> fixture;
        if (spec.fixture) {
            const Scoped s(&log, jobId, "farm.fixture", job.id());
            fixture = spec.fixture(spec);
            if (fixture)
                fixture->setUp(*machine);
        }
        RunResult run;
        {
            const Scoped s(&log, jobId, "core.run", job.id());
            run = machine->run(spec.maxCycles);
        }
        res.ran = true;
        res.run = run;
        res.stats = machine->stats();
        res.backend = machine->core().effectiveBackendName();
        {
            const Scoped s(&log, jobId, "core.stats_json", job.id());
            res.statsJson =
                res.stats.json(spec.config.cycleTimeNs, res.backend);
        }
        {
            const Scoped s(&log, jobId, "core.arch_hash", job.id());
            res.archHash = machine->archStateHash();
        }
        {
            const Scoped s(&log, jobId, "farm.check", job.id());
            if (run.reason == StopReason::Fault) {
                res.error =
                    runFailure("simulation fault: " + run.faultMessage);
            } else if (run.reason == StopReason::MaxCycles) {
                res.error = runFailure("cycle budget exhausted");
            } else {
                std::string msg;
                if (fixture)
                    msg = fixture->check(*machine, run);
                if (msg.empty() && spec.check)
                    msg = spec.check(*machine, run);
                if (!msg.empty())
                    res.error = runFailure(std::move(msg));
            }
        }
        const Scoped s(&log, jobId, "core.destroy", job.id());
        fixture.reset();
        machine.reset();
    } catch (const std::exception &e) {
        res.error = runFailure(e.what());
    }
    return res;
}

/** Farm::run's claim loop over replayOne, on @p threads workers. */
struct Replay
{
    BatchResult batch;
    double wallSec = 0.0;
    double busySec = 0.0; ///< Sum over workers of time inside jobs.
};

Replay
replayBatch(const std::vector<RunSpec> &specs, unsigned threads,
            std::vector<SpanLog> &logs, std::uint64_t &nextJob)
{
    threads = std::min<unsigned>(threads, specs.size());
    Replay out;
    out.batch.jobs.resize(specs.size());
    out.batch.threads = threads;
    std::atomic<std::size_t> next{0};
    std::vector<double> busy(threads, 0.0);
    const std::uint64_t base = nextJob;
    const auto t0 = Clock::now();
    const auto worker = [&](unsigned w) {
        for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= specs.size())
                return;
            const auto j0 = Clock::now();
            out.batch.jobs[i] = replayOne(specs[i], logs[w], base + i);
            busy[w] += secondsBetween(j0, Clock::now());
        }
    };
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < threads; ++w)
        pool.emplace_back(worker, w);
    for (std::thread &t : pool)
        t.join();
    out.wallSec = secondsBetween(t0, Clock::now());
    for (double b : busy)
        out.busySec += b;
    nextJob += specs.size();
    return out;
}

bool
sameResults(const BatchResult &a, const BatchResult &b)
{
    if (a.jobs.size() != b.jobs.size())
        return false;
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
        const JobResult &x = a.jobs[i];
        const JobResult &y = b.jobs[i];
        if (x.ok() != y.ok() || x.run.cycles != y.run.cycles ||
            x.archHash != y.archHash || x.statsJson != y.statsJson)
            return false;
    }
    return true;
}

} // namespace

Report
runFarmWorkload(const Options &o, bool longJobs)
{
    Report r;
    const unsigned n = longJobs ? (o.tiny ? 4096 : 65536) : 64;
    const unsigned seeds = longJobs ? (o.tiny ? 1 : 4) : (o.tiny ? 2 : 24);
    const unsigned threads = o.threads;

    // Set-up: one spec set per consecutive seed, built the way xfarm
    // builds them (generate, assemble or compile, prepare). Each set is
    // built twice and the second, warm build is timed. short-jobs runs
    // kGridsPerBatch grids per operation; long-jobs runs every seed's
    // set in one Farm::run, so the batch keeps all workers busy.
    const auto build = [&](std::size_t i) {
        SuiteOptions so;
        so.n = n;
        so.seed = o.seed + i;
        return longJobs ? longJobSpecs(so.seed, n) : builtinSuite(so);
    };
    Samples setup;
    std::vector<std::vector<RunSpec>> pool;
    for (unsigned i = 0; i < seeds; ++i) {
        (void)build(i);
        const auto t0 = Clock::now();
        pool.push_back(build(i));
        setup.add(secondsBetween(t0, Clock::now()));
        if (o.corrupt)
            corruptFirstCheckedSpec(pool.back());
    }
    if (longJobs) {
        // One batch, longest jobs of every seed first, so the workers
        // finish together instead of one running the last long job.
        std::vector<RunSpec> batch;
        for (std::size_t j = 0; j < pool[0].size(); ++j)
            for (std::vector<RunSpec> &set : pool)
                batch.push_back(std::move(set[j]));
        pool = {std::move(batch)};
    } else {
        // Several grids per batch, so a worker stalled by the host near
        // the end of a batch costs a small share of its wall time.
        std::vector<std::vector<RunSpec>> batches;
        for (std::size_t i = 0; i < pool.size(); ++i) {
            if (i % kGridsPerBatch == 0)
                batches.emplace_back();
            for (RunSpec &s : pool[i])
                batches.back().push_back(std::move(s));
        }
        pool = std::move(batches);
    }
    SetupSampler sampler(setup);

    std::vector<SpanLog> logs;
    const auto epoch = Clock::now();
    for (unsigned w = 0; w < threads; ++w)
        logs.emplace_back(epoch);
    if (o.trace) {
        // isa layer: preparing each program again, as set-up did.
        for (const auto &specs : pool)
            for (const RunSpec &s : specs) {
                const Scoped span(&logs[0], 0, "isa.prepare");
                (void)PreparedProgram::make(s.program->program());
            }
    }

    OpLog ops;
    double reportJsonSec = 0.0;
    SimDigest digest;
    SimDigest tracedDigest;
    std::uint64_t nextJob = 1;
    Cycle replayCycles = 0;
    double untracedSec = 0.0;
    double tracedSec = 0.0;
    double idleSec = 0.0;
    double capacitySec = 0.0;
    bool drift = false;

    const auto start = Clock::now();
    for (std::size_t op = 0;; ++op) {
        const std::size_t u = op % pool.size();
        if (u == 0 && op > 0 &&
            secondsBetween(start, Clock::now()) >= o.seconds)
            break;
        const std::vector<RunSpec> &specs = pool[u];
        sampler.maybe([&] { return build(op % seeds); });

        const auto t0 = Clock::now();
        const BatchResult batch = Farm::run(specs, threads);
        const std::string report = batch.json(false);
        const double sec = secondsBetween(t0, Clock::now());
        untracedSec += sec;

        r.attempted += specs.size();
        const std::uint64_t failed = checkBatch(specs, batch, report);
        r.failed += failed;
        Cycle cycles = 0;
        for (const JobResult &j : batch.jobs)
            cycles += j.run.cycles;
        ops.add(sec, specs.size() - failed, cycles);
        if (op < pool.size())
            for (const JobResult &j : batch.jobs)
                digest.add(j.run.cycles, j.archHash, j.stats);

        if (!o.trace)
            continue;
        const auto t1 = Clock::now();
        Replay replay = replayBatch(specs, threads, logs, nextJob);
        const auto j0 = Clock::now();
        const std::string replayReport = replay.batch.json(false);
        reportJsonSec += secondsBetween(j0, Clock::now());
        tracedSec += secondsBetween(t1, Clock::now());
        const double capacity = replay.batch.threads * replay.wallSec;
        idleSec += capacity - replay.busySec;
        capacitySec += capacity;
        if (!sameResults(batch, replay.batch) || replayReport != report)
            drift = true;
        for (const JobResult &j : replay.batch.jobs)
            replayCycles += j.run.cycles;
        if (op < pool.size())
            for (const JobResult &j : replay.batch.jobs)
                tracedDigest.add(j.run.cycles, j.archHash, j.stats);
    }

    r.digest = digest.str();
    r.info["units"] = static_cast<double>(pool.size());
    if (!o.trace) {
        setEndToEnd(r, setup, ops, ops.latency());
        return r;
    }

    r.tracedDigest = drift ? "replay-drift" : tracedDigest.str();
    initLayerMetrics(r);
    setSimCounts(r, digest);
    const auto totals = finishSpans(logs, o.traceOut);
    setSpanMeans(r, totals);
    const auto job = totals.find("farm.job");
    const auto run = totals.find("core.run");
    if (job != totals.end() && run != totals.end()) {
        const SpanTotals &j = job->second;
        r.metrics["farm.job_us_p50"].value = j.durations.median() * 1e6;
        r.metrics["farm.job_us_p99"].value = j.durations.quantile(0.99) * 1e6;
        r.metrics["farm.job_self_us"].value =
            j.selfSec * 1e6 / static_cast<double>(j.count);
        r.metrics["core.run_share"].value = run->second.totalSec / j.totalSec;
        r.metrics["core.ns_per_sim_cycle"].value =
            run->second.totalSec * 1e9 / static_cast<double>(replayCycles);
    }
    r.metrics["farm.report_json_us"].value =
        reportJsonSec * 1e6 / static_cast<double>(ops.latency().size());
    r.metrics["farm.idle_frac"].value = idleSec / capacitySec;
    r.metrics["trace.overhead_ratio"].value = tracedSec / untracedSec;
    r.info["untraced_s"] = untracedSec;
    r.info["traced_s"] = tracedSec;
    return r;
}

} // namespace perfbench
