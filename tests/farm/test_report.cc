/**
 * @file
 * The bytes of the xfarm report and of the service's results stream,
 * pinned against the tree-based rendering they replaced.
 *
 * BatchResult::json and Service::emitResults stream through
 * json::Writer and embed each job's statsJson as it stands. The
 * reference below is the earlier rendering: parse statsJson into a
 * json::Value, build the whole record as a tree, dump it. The inputs
 * cover a load error whose message needs escaping (a quote, a
 * newline, a tab and a 0x01 byte), a job stopped by its cycle budget,
 * and the registered-sync ablation jobs.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "farm/batch_runner.hh"
#include "farm/farm.hh"
#include "farm/service.hh"
#include "farm/suite.hh"
#include "farm/sweep.hh"
#include "support/json.hh"

namespace ximd::farm {
namespace {

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

/** The job fields as the tree rendering set them. */
void
setJobFields(json::Value &o, const JobResult &j)
{
    o.set("name", j.name);
    o.set("ok", j.ok());
    if (j.ran) {
        o.set("stop", stopName(j.run.reason));
        o.set("backend", j.backend);
        o.set("cycles", static_cast<std::uint64_t>(j.run.cycles));
        auto stats = json::parse(j.statsJson);
        if (stats)
            o.set("stats", std::move(stats.value()));
    }
    if (j.error)
        o.set("error", analysis::DiagnosticList::formatOne(*j.error));
}

/** BatchResult::json as a tree. */
std::string
referenceReport(const BatchResult &batch, bool includeTiming)
{
    json::Value root = json::Value::object();
    root.set("schema", static_cast<std::uint64_t>(kStatsJsonSchema));
    root.set("job_count", static_cast<std::uint64_t>(batch.jobs.size()));
    root.set("failures", static_cast<std::uint64_t>(batch.failures()));
    if (includeTiming) {
        root.set("threads", static_cast<std::uint64_t>(batch.threads));
        root.set("wall_millis", batch.wallMillis);
    }
    json::Value arr = json::Value::array();
    for (const JobResult &j : batch.jobs) {
        json::Value o = json::Value::object();
        setJobFields(o, j);
        if (includeTiming)
            o.set("host_millis", j.hostMillis);
        arr.push(std::move(o));
    }
    root.set("jobs", std::move(arr));
    auto merged = json::parse(batch.merged().json(0.0));
    if (merged)
        root.set("merged", std::move(merged.value()));
    return root.dump(2);
}

/** Service::emitResults as trees: the job lines, then "done". */
std::vector<std::string>
referenceResults(const BatchResult &batch, std::size_t id)
{
    const auto base = [id](const char *event) {
        json::Value v = json::Value::object();
        v.set("schema", static_cast<std::uint64_t>(kStatsJsonSchema));
        v.set("event", event);
        v.set("batch", static_cast<std::uint64_t>(id));
        return v;
    };
    std::vector<std::string> lines;
    for (const JobResult &j : batch.jobs) {
        json::Value v = base("job");
        setJobFields(v, j);
        lines.push_back(v.dump(0));
    }
    json::Value v = base("done");
    v.set("jobs", static_cast<std::uint64_t>(batch.jobs.size()));
    v.set("failures", static_cast<std::uint64_t>(batch.failures()));
    lines.push_back(v.dump(0));
    return lines;
}

std::vector<RunSpec>
suiteSpecs(std::uint64_t seed)
{
    SuiteOptions so;
    so.n = 16;
    so.seed = seed;
    so.registeredSyncAxis = true;
    return builtinSuite(so);
}

TEST(ReportBytes, JsonMatchesTreeRendering)
{
    std::vector<RunSpec> specs = suiteSpecs(1);
    for (RunSpec &s : suiteSpecs(2))
        specs.push_back(std::move(s));
    RunSpec broken;
    broken.name = "broken/\"load\"";
    broken.loadError = analysis::Diagnostic{
        analysis::Severity::Error, analysis::Check::LoadFailed, 0, -1,
        "no \"such\" file\n\tat\x01 all"};
    specs.push_back(std::move(broken));
    WorkloadRequest req;
    req.workload = "minmax";
    req.n = 16;
    auto wedged = makeWorkloadSpec(req);
    ASSERT_TRUE(wedged.hasValue());
    wedged.value().maxCycles = 5;
    specs.push_back(std::move(wedged.value()));

    const BatchResult batch = Farm::run(specs, 2);
    ASSERT_EQ(batch.failures(), 2u);
    EXPECT_EQ(batch.json(false), referenceReport(batch, false));
    EXPECT_EQ(batch.json(true), referenceReport(batch, true));
}

TEST(ReportBytes, ServiceResultsMatchTreeRendering)
{
    // A program path that needs escaping fails to load, and its
    // message repeats the path; the minmax run has a 5-cycle budget.
    const std::string sweep =
        R"({"runs":[{"program":"no\"such\n\t\u0001.ximd"},)"
        R"({"workload":"minmax","n":16,"max_cycles":5}]})";
    auto sweepSpecs = parseSweep(sweep);
    ASSERT_TRUE(sweepSpecs.hasValue());

    for (const bool batched : {true, false}) {
        const std::string option = batched ? "" : R"(,"batch":false)";
        const std::vector<std::pair<std::string, std::vector<RunSpec>>>
            submissions = {
                {R"("suite":{"n":16,"seed":1,"regsync_axis":true})",
                 suiteSpecs(1)},
                {R"("suite":{"n":16,"seed":2,"regsync_axis":true})",
                 suiteSpecs(2)},
                {R"("sweep":)" + sweep, sweepSpecs.value()},
            };
        Service service;
        for (std::size_t id = 0; id < submissions.size(); ++id) {
            const auto &[body, specs] = submissions[id];
            std::vector<std::string> lines;
            const auto sink = [&lines](const std::string &line) {
                lines.push_back(line);
            };
            service.handleLine(
                R"({"cmd":"submit",)" + body + option + "}", sink);
            ASSERT_EQ(lines.size(), 1u);
            ASSERT_NE(lines[0].find("\"submitted\""), std::string::npos)
                << lines[0];
            lines.clear();
            service.handleLine(R"({"cmd":"results","batch":)" +
                                   std::to_string(id) +
                                   R"(,"wait":true})",
                               sink);

            const BatchResult expect = batched
                                           ? BatchRunner::run(specs, 1, 0)
                                           : Farm::run(specs, 1);
            EXPECT_EQ(lines, referenceResults(expect, id))
                << (batched ? "batched" : "scalar") << " submission "
                << id;
        }
    }
}

} // namespace
} // namespace ximd::farm
