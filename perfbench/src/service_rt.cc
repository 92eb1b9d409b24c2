/**
 * @file
 * service-rt: one in-process client of farm::Service in a closed loop.
 *
 * Each round submits the built-in suite at n=64 with a fresh seed on
 * the service's default (batched) path, sends `results wait`, and
 * parses every response line; the round trip is the operation timed.
 * The service keeps every finished batch, as the daemon does.
 *
 * Outside the timed interval the round's job records are checked
 * against Farm::run over the same specs: after dropping the fields
 * that name the execution path (batch id, backend, predecode), each
 * record must be byte-identical to the scalar farm's.
 */

#include <memory>

#include "bench.hh"
#include "farm/batch_runner.hh"
#include "farm/farm.hh"
#include "farm/service.hh"
#include "farm/suite.hh"
#include "support/json.hh"

namespace perfbench {

namespace {

using namespace ximd;
using namespace ximd::farm;

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

/** A job record without the fields that name the execution path. */
std::string
pathFreeRecord(const json::Value &rec)
{
    json::Value v = json::Value::object();
    for (const char *key : {"name", "ok", "stop", "cycles", "stats",
                            "error"}) {
        const json::Value *field = rec.find(key);
        if (!field)
            continue;
        if (std::string(key) != "stats") {
            v.set(key, *field);
            continue;
        }
        json::Value stats = json::Value::object();
        for (const auto &[name, value] : field->members())
            if (name != "backend" && name != "predecode")
                stats.set(name, value);
        v.set(key, std::move(stats));
    }
    return v.dump(0);
}

/** The scalar farm's record for @p j, in the service's wire shape. */
std::string
pathFreeRecord(const JobResult &j)
{
    json::Value v = json::Value::object();
    v.set("name", j.name);
    v.set("ok", j.ok());
    if (j.ran) {
        v.set("stop", stopName(j.run.reason));
        v.set("cycles", static_cast<std::uint64_t>(j.run.cycles));
        auto stats = json::parse(j.statsJson);
        if (stats)
            v.set("stats", std::move(stats.value()));
    }
    if (j.error)
        v.set("error", analysis::DiagnosticList::formatOne(*j.error));
    return pathFreeRecord(v);
}

struct RoundTrip
{
    std::vector<json::Value> jobs;
    bool done = false;       ///< The closing "done" line arrived.
    std::size_t bytes = 0;   ///< Response bytes of the results call.
    std::size_t batched = 0; ///< Job records run by the batch engine.
};

/** Submit, wait for results, parse; with @p log, span each call. */
RoundTrip
roundTrip(Service &svc, std::uint64_t seed, bool corrupt, SpanLog *log,
          std::uint64_t jobId)
{
    RoundTrip rt;
    std::vector<std::string> lines;
    const auto sink = [&lines](const std::string &line) {
        lines.push_back(line);
    };
    {
        const Scoped s(log, jobId, "service.submit");
        svc.handleLine("{\"cmd\":\"submit\",\"suite\":{\"n\":64,\"seed\":" +
                           std::to_string(seed) + "}}",
                       sink);
    }
    const auto submitted =
        json::parse(lines.empty() ? std::string() : lines.front());
    const json::Value *batch =
        submitted ? submitted.value().find("batch") : nullptr;
    if (!batch)
        return rt;
    lines.clear();
    {
        const Scoped s(log, jobId, "service.results");
        svc.handleLine("{\"cmd\":\"results\",\"batch\":" +
                           std::to_string(batch->asInt()) +
                           ",\"wait\":true}",
                       sink);
    }
    if (corrupt && !lines.empty()) {
        // Bump one digit of the first record's cycle count.
        std::string &line = lines.front();
        const std::size_t at = line.find("\"cycles\":");
        if (at != std::string::npos) {
            char &d = line[at + 9];
            d = d == '9' ? '0' : static_cast<char>(d + 1);
        }
    }
    for (const std::string &line : lines) {
        rt.bytes += line.size() + 1;
        auto parsed = json::parse(line);
        if (!parsed)
            continue;
        const json::Value *event = parsed.value().find("event");
        if (!event || !event->isString())
            continue;
        if (event->asString() == "done") {
            rt.done = true;
        } else if (event->asString() == "job") {
            const json::Value *backend = parsed.value().find("backend");
            if (backend && backend->asString() == "batch")
                ++rt.batched;
            rt.jobs.push_back(std::move(parsed.value()));
        }
    }
    return rt;
}

/** Failed jobs in @p rt against the scalar farm's @p expect. */
std::uint64_t
checkRoundTrip(const RoundTrip &rt, const BatchResult &expect)
{
    if (!rt.done || rt.jobs.size() != expect.jobs.size())
        return expect.jobs.size();
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < rt.jobs.size(); ++i) {
        const json::Value *ok = rt.jobs[i].find("ok");
        if (!ok || !ok->asBool() || !expect.jobs[i].ok() ||
            pathFreeRecord(rt.jobs[i]) != pathFreeRecord(expect.jobs[i]))
            ++failed;
    }
    return failed;
}

void
addToDigest(SimDigest &d, const BatchResult &batch)
{
    for (const JobResult &j : batch.jobs)
        d.add(j.run.cycles, j.archHash, j.stats);
}

} // namespace

Report
runService(const Options &o)
{
    Report r;
    // Set-up: start a service and get its first job back (one minmax
    // job of the suite), as a daemon start-up would be checked.
    const auto startService = [] {
        const auto sink = [](const std::string &) {};
        auto svc = std::make_unique<Service>();
        svc->handleLine("{\"cmd\":\"submit\",\"suite\":{\"n\":64,"
                        "\"filter\":[\"minmax/ximd\"]}}",
                        sink);
        svc->handleLine("{\"cmd\":\"results\",\"batch\":0,"
                        "\"wait\":true}",
                        sink);
        return svc;
    };
    Samples setup;
    for (unsigned rep = 0; rep < 3; ++rep) {
        const auto t0 = Clock::now();
        const auto started = startService();
        setup.add(secondsBetween(t0, Clock::now()));
    }
    SetupSampler sampler(setup);

    // A session is one service lifetime of a fixed number of rounds, so
    // the batches it retains, and with them peak RSS, do not depend on
    // how many rounds the host manages in the measured time.
    const std::uint64_t sessionRounds = o.tiny ? 2 : 128;
    std::unique_ptr<Service> svc;
    // Growth over the first session only: later sessions reuse the heap
    // the first one left behind.
    const double rss0 = currentRssMb();
    double rssGrowth = 0.0;
    std::vector<SpanLog> logs;
    logs.emplace_back(Clock::now());
    OpLog ops;
    SimDigest digest;
    SimDigest tracedDigest;
    std::uint64_t jobLines = 0;
    std::uint64_t batchedLines = 0;
    std::uint64_t resultBytes = 0;
    double untracedSec = 0.0;
    double tracedSec = 0.0;

    const auto start = Clock::now();
    for (std::uint64_t round = 0;; ++round) {
        if (round > 0 && secondsBetween(start, Clock::now()) >= o.seconds)
            break;
        if (round == sessionRounds)
            rssGrowth = currentRssMb() - rss0;
        if (round % sessionRounds == 0) {
            svc.reset();
            svc = std::make_unique<Service>();
        }
        sampler.maybe(startService);
        const std::uint64_t seed = o.seed * 1'000'000 + round;

        const auto t0 = Clock::now();
        const RoundTrip rt = roundTrip(*svc, seed, o.corrupt, nullptr, round);
        const double sec = secondsBetween(t0, Clock::now());
        untracedSec += sec;

        SuiteOptions so;
        so.n = 64;
        so.seed = seed;
        const std::vector<RunSpec> specs = builtinSuite(so);
        const BatchResult expect = Farm::run(specs, o.threads);
        const std::uint64_t failed = checkRoundTrip(rt, expect);
        r.attempted += specs.size();
        r.failed += failed;
        Cycle cycles = 0;
        for (const JobResult &j : expect.jobs)
            cycles += j.run.cycles;
        ops.add(sec, specs.size() - failed, cycles);
        jobLines += rt.jobs.size();
        batchedLines += rt.batched;
        resultBytes += rt.bytes;
        if (round == 0)
            addToDigest(digest, expect);

        if (!o.trace)
            continue;
        const auto t1 = Clock::now();
        const RoundTrip traced =
            roundTrip(*svc, seed, o.corrupt, &logs[0], round);
        tracedSec += secondsBetween(t1, Clock::now());
        r.attempted += specs.size();
        r.failed += checkRoundTrip(traced, expect);
        BatchResult replay;
        {
            // The service's default path: batched, one scalar worker.
            const Scoped s(&logs[0], round, "batch.run");
            replay = BatchRunner::run(specs, 1, 0);
        }
        if (round == 0)
            addToDigest(tracedDigest, replay);
    }
    if (rssGrowth == 0.0)
        rssGrowth = currentRssMb() - rss0;
    svc.reset();

    r.digest = digest.str();
    if (!o.trace) {
        setEndToEnd(r, setup, ops, ops.latency());
        return r;
    }
    r.tracedDigest = tracedDigest.str();
    initLayerMetrics(r);
    setSimCounts(r, digest);
    setSpanMeans(r, finishSpans(logs, o.traceOut));
    r.metrics["service.result_bytes"].value =
        static_cast<double>(resultBytes) /
        static_cast<double>(ops.latency().size());
    r.metrics["service.rss_growth_mb"].value = rssGrowth;
    r.metrics["batch.batched_ratio"].value =
        jobLines ? static_cast<double>(batchedLines) /
                       static_cast<double>(jobLines)
                 : 0.0;
    r.metrics["trace.overhead_ratio"].value = tracedSec / untracedSec;
    r.info["untraced_s"] = untracedSec;
    r.info["traced_s"] = tracedSec;
    return r;
}

} // namespace perfbench
