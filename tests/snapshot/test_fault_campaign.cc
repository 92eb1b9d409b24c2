/**
 * @file
 * Fault-injection regression corpus (satellite of the snapshot PR).
 *
 * A seeded campaign over MINMAX / BITCOUNT / TPROC has one committed
 * golden report: the full classified JSON. Any change to the fault
 * expansion, the injection mechanics, the classification rules, or
 * the machine's execution order shows up as a golden diff — which is
 * exactly what we want from a fault model whose value is
 * reproducibility. The campaign must also be byte-identical at any
 * worker count.
 *
 * Regenerate after an intentional format/semantics change with:
 *   tests/snapshot/golden/regen_fault_campaign
 * (built as part of the test target; writes the golden in place).
 */

#include "farm/campaign.hh"

#include <fstream>
#include <sstream>
#include <utility>

#include <gtest/gtest.h>

#include "farm/suite.hh"

#ifndef XIMD_SOURCE_DIR
#error "XIMD_SOURCE_DIR must point at the repo root"
#endif

namespace ximd::farm {
namespace {

std::vector<RunSpec>
corpusSpecs()
{
    SuiteOptions opts;
    opts.n = 32;
    std::vector<RunSpec> specs;
    for (RunSpec &s : builtinSuite(opts)) {
        const std::string &n = s.name;
        if (n.rfind("minmax/", 0) == 0 ||
            n.rfind("bitcount/", 0) == 0 || n.rfind("tproc/", 0) == 0)
            specs.push_back(std::move(s));
    }
    return specs;
}

snapshot::FaultPlan
corpusPlan()
{
    snapshot::FaultPlan plan;
    plan.seed = 1991;
    plan.trials = 5;
    plan.faultsPerTrial = 2;
    plan.windowLo = 1;
    plan.windowHi = 200;
    plan.watchdogCycles = 20'000;
    return plan;
}

TEST(FaultCampaign, MatchesGoldenClassification)
{
    const CampaignResult got =
        runCampaign(corpusSpecs(), corpusPlan(), 4);

    const std::string path = std::string(XIMD_SOURCE_DIR) +
                             "/tests/snapshot/golden/"
                             "fault_campaign.golden";
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(got.json() + "\n", ss.str())
        << "campaign classification diverged from the committed "
           "golden; regenerate only if the change is intentional";
}

TEST(FaultCampaign, ByteIdenticalAcrossThreadCounts)
{
    const auto specs = corpusSpecs();
    const auto plan = corpusPlan();
    const CampaignResult serial = runCampaign(specs, plan, 1);
    const CampaignResult parallel = runCampaign(specs, plan, 8);
    EXPECT_EQ(serial.json(), parallel.json());
}

TEST(FaultCampaign, BaselinesAreHealthy)
{
    const CampaignResult got =
        runCampaign(corpusSpecs(), corpusPlan(), 4);
    for (const CampaignJob &j : got.jobs)
        EXPECT_TRUE(j.baselineOk) << j.name;
}

TEST(FaultCampaign, TrialExpansionIsAPureFunctionOfSeed)
{
    const auto plan = corpusPlan();
    for (unsigned t = 0; t < plan.trials; ++t) {
        const auto a = plan.expandTrial(t, 4);
        const auto b = plan.expandTrial(t, 4);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i)
            EXPECT_EQ(a[i].describe(), b[i].describe());
    }
    // Different trials draw different faults.
    ASSERT_GE(plan.trials, 2u);
    const auto t0 = plan.expandTrial(0, 4);
    const auto t1 = plan.expandTrial(1, 4);
    bool differ = t0.size() != t1.size();
    for (std::size_t i = 0; !differ && i < t0.size(); ++i)
        differ = t0[i].describe() != t1[i].describe();
    EXPECT_TRUE(differ);
}

TEST(FaultPlan, RejectsMistypedOrWrappingFieldsByName)
{
    // A string seed once aborted `xfarm --faults`, and -1 trials
    // wrapped to 2^32 - 1 and ran out of memory.
    const std::pair<const char *, const char *> cases[] = {
        {R"({"seed":"x","trials":2})", "'seed'"},
        {R"({"trials":-1})", "'trials'"},
        {R"({"window":[1,1.5]})", "'window'"},
        {R"({"kinds":["reg-flip",3]})", "'kinds'"},
    };
    for (const auto &[text, key] : cases) {
        auto doc = json::parse(text);
        ASSERT_TRUE(doc.hasValue()) << text;
        auto plan = snapshot::FaultPlan::parse(doc.value());
        ASSERT_FALSE(plan.hasValue()) << text;
        EXPECT_NE(plan.error().find(key), std::string::npos)
            << text << " -> " << plan.error();
    }

    auto doc = json::parse(R"({"seed":7,"trials":3,"window":[2,9],)"
                           R"("kinds":["cc-flip"],"mem_range":[0,15]})");
    ASSERT_TRUE(doc.hasValue());
    auto plan = snapshot::FaultPlan::parse(doc.value());
    ASSERT_TRUE(plan.hasValue()) << plan.error();
    EXPECT_EQ(plan.value().seed, 7u);
    EXPECT_EQ(plan.value().trials, 3u);
    EXPECT_EQ(plan.value().windowHi, 9u);
    EXPECT_EQ(plan.value().memHi, 15u);
    ASSERT_EQ(plan.value().kinds.size(), 1u);
    EXPECT_EQ(plan.value().kinds[0], snapshot::FaultKind::CcFlip);
}

} // namespace
} // namespace ximd::farm
