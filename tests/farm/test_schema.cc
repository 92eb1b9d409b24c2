/**
 * @file
 * Schema pinning: every machine-readable JSON document the simulator
 * emits carries `"schema": kStatsJsonSchema`, and each document's key
 * set is pinned here so service clients can rely on it. If one of
 * these tests fails, you changed a wire format: bump kStatsJsonSchema
 * and update the pin together.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/stats.hh"
#include "farm/campaign.hh"
#include "farm/farm.hh"
#include "farm/suite.hh"
#include "support/json.hh"

namespace ximd::farm {
namespace {

std::vector<std::string>
keysOf(const json::Value &v)
{
    std::vector<std::string> keys;
    for (const auto &[k, _] : v.members())
        keys.push_back(k);
    return keys;
}

json::Value
parseOrDie(const std::string &text)
{
    auto parsed = json::parse(text);
    EXPECT_TRUE(parsed.hasValue()) << text;
    return parsed.hasValue() ? std::move(parsed.value())
                             : json::Value();
}

std::uint64_t
schemaOf(const json::Value &v)
{
    const json::Value *s = v.find("schema");
    EXPECT_NE(s, nullptr);
    return s ? static_cast<std::uint64_t>(s->asInt()) : 0;
}

TEST(Schema, StatsJsonKeySetIsPinned)
{
    const json::Value v =
        parseOrDie(RunStats(4).json(85.0, "threaded"));
    EXPECT_EQ(schemaOf(v), kStatsJsonSchema);
    EXPECT_EQ(keysOf(v),
              (std::vector<std::string>{
                  "schema", "backend", "predecode", "cycles",
                  "parcels", "data_ops", "int_alu", "int_compare",
                  "float_alu", "float_compare", "convert", "loads",
                  "stores", "nops", "cond_branches",
                  "taken_branches", "busy_wait_fu_cycles",
                  "utilization", "mean_streams", "mips", "mflops",
                  "partition_histogram"}));
}

TEST(Schema, StatsJsonWithoutBackendDropsOnlyBackendKeys)
{
    const json::Value v = parseOrDie(RunStats(4).json(85.0));
    EXPECT_EQ(schemaOf(v), kStatsJsonSchema);
    EXPECT_EQ(v.find("backend"), nullptr);
    EXPECT_EQ(v.find("predecode"), nullptr);
    EXPECT_NE(v.find("cycles"), nullptr);
}

TEST(Schema, PredecodeNamesTheDispatchRepresentation)
{
    EXPECT_NE(RunStats(1).json(0.0, "interp").find(
                  "\"predecode\": \"decoded\""),
              std::string::npos);
    EXPECT_NE(RunStats(1).json(0.0, "threaded").find(
                  "\"predecode\": \"flat\""),
              std::string::npos);
}

TEST(Schema, XfarmReportKeySetIsPinned)
{
    SuiteOptions so;
    so.n = 16;
    std::vector<RunSpec> specs = builtinSuite(so);
    specs.resize(2);
    const BatchResult batch = Farm::run(specs, 1);

    const json::Value v = parseOrDie(batch.json(false));
    EXPECT_EQ(schemaOf(v), kStatsJsonSchema);
    EXPECT_EQ(keysOf(v),
              (std::vector<std::string>{"schema", "job_count",
                                        "failures", "jobs",
                                        "merged"}));

    ASSERT_TRUE(v.find("jobs")->isArray());
    const json::Value &job = v.find("jobs")->items().front();
    EXPECT_EQ(keysOf(job),
              (std::vector<std::string>{"name", "ok", "stop",
                                        "backend", "cycles",
                                        "stats"}));
    // The nested per-job stats carry the schema stamp too.
    EXPECT_EQ(schemaOf(*job.find("stats")), kStatsJsonSchema);
}

TEST(Schema, CampaignReportCarriesSchema)
{
    CampaignResult camp;
    camp.planSummary = "empty";
    const json::Value v = parseOrDie(camp.json());
    EXPECT_EQ(schemaOf(v), kStatsJsonSchema);
    EXPECT_EQ(keysOf(v),
              (std::vector<std::string>{"schema", "plan", "jobs",
                                        "summary"}));
}

TEST(Schema, RoundTripPreservesEveryValue)
{
    // Dump -> parse -> dump is a fixpoint: the subset emitter and the
    // parser agree on every value kind the reports use.
    SuiteOptions so;
    so.n = 16;
    std::vector<RunSpec> specs = builtinSuite(so);
    specs.resize(2);
    const std::string report = Farm::run(specs, 1).json(false);
    const json::Value v = parseOrDie(report);
    const json::Value v2 = parseOrDie(v.dump(2));
    EXPECT_EQ(v.dump(2), v2.dump(2));
}

} // namespace
} // namespace ximd::farm
