/**
 * @file
 * The xfarm service protocol, driven in process through
 * Service::handleLine — exactly the path the --serve daemon wraps in
 * a socket. Includes the satellite byte-identity property: a batch's
 * results stream is a pure function of its submission, so -j1 and
 * -jN submissions answer byte-identical lines.
 */

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "farm/service.hh"
#include "support/json.hh"

namespace ximd::farm {
namespace {

std::vector<std::string>
request(Service &service, const std::string &line,
        Service::Action expect = Service::Action::Continue)
{
    std::vector<std::string> out;
    const Service::Action action = service.handleLine(
        line, [&](const std::string &l) { out.push_back(l); });
    EXPECT_EQ(action, expect) << line;
    return out;
}

bool
lineSays(const std::string &line, const std::string &key,
         const std::string &value)
{
    auto parsed = json::parse(line);
    if (!parsed.hasValue())
        return false;
    const json::Value *v = parsed.value().find(key);
    return v && v->isString() && v->asString() == value;
}

TEST(Service, PongsAndStampsSchema)
{
    Service service;
    const auto out = request(service, R"({"cmd":"ping"})");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(lineSays(out[0], "event", "pong"));
    EXPECT_NE(out[0].find("\"schema\""), std::string::npos);
}

TEST(Service, RejectsGarbageAndUnknownCommands)
{
    Service service;
    auto out = request(service, "not json at all");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NE(out[0].find("\"ok\":false"), std::string::npos)
        << out[0];

    out = request(service, R"({"cmd":"frobnicate"})");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NE(out[0].find("unknown cmd"), std::string::npos);

    out = request(service, R"({"cmd":"submit"})");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NE(out[0].find("\"ok\":false"), std::string::npos);

    // 100,000 nested arrays once overflowed the parser's stack.
    out = request(service, std::string(100000, '['));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NE(out[0].find("\"ok\":false"), std::string::npos)
        << out[0];

    // Mistyped fields once aborted the daemon; unknown submit keys,
    // among them the retired "batch" and "width" options, were once
    // dropped silently. Each is an error naming the key, and none of
    // these submissions queues a batch: "threads" above the bound is
    // refused before Farm::run could start its threads.
    const std::pair<const char *, const char *> mistyped[] = {
        {R"({"cmd":"results","batch":"0"})", "'batch'"},
        {R"({"cmd":"status","batch":-1})", "'batch'"},
        {R"({"cmd":"submit","suite":{"n":64},"batch":1})", "'batch'"},
        {R"({"cmd":"submit","suite":{"n":64},"batch":false})",
         "'batch'"},
        {R"({"cmd":"submit","suite":{"n":64},"width":4})", "'width'"},
        {R"({"cmd":"submit","suite":{"n":64},"thread":2})", "'thread'"},
        {R"({"cmd":"submit","suite":{"nn":64}})", "'nn'"},
        {R"({"cmd":"submit","suite":{"filter":"minmax"}})", "'filter'"},
        {R"({"cmd":"submit","suite":{"n":64,"filter":[1]}})",
         "'filter'"},
        {R"({"cmd":"submit","suite":{"n":4294967297}})", "'n'"},
        {R"({"cmd":"submit","suite":7})", "'suite'"},
        {R"({"cmd":"submit","suite":{"n":16},"threads":257})",
         "'threads' must be at most 256"},
        {R"({"cmd":"submit","suite":{"n":16},"sweep":{"runs":[]}})",
         "'sweep' or 'suite'"},
    };
    for (const auto &[line, key] : mistyped) {
        out = request(service, line);
        ASSERT_EQ(out.size(), 1u) << line;
        EXPECT_NE(out[0].find("\"ok\":false"), std::string::npos)
            << line << " -> " << out[0];
        EXPECT_NE(out[0].find(key), std::string::npos)
            << line << " -> " << out[0];
    }
    out = request(service, R"({"cmd":"status"})");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NE(out[0].find("\"batches\":0"), std::string::npos) << out[0];
    out = request(service, R"({"cmd":"ping"})");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(lineSays(out[0], "event", "pong"));
}

std::vector<std::string>
submitAndStream(Service &service, const std::string &submit)
{
    const auto sub = request(service, submit);
    EXPECT_EQ(sub.size(), 1u);
    EXPECT_TRUE(lineSays(sub[0], "event", "submitted")) << sub[0];
    auto parsed = json::parse(sub[0]);
    const std::size_t id = static_cast<std::size_t>(
        parsed.value().find("batch")->asInt());
    return request(service,
                   R"({"cmd":"results","batch":)" +
                       std::to_string(id) + R"(,"wait":true})");
}

TEST(Service, SuiteSubmissionStreamsJobsInSpecOrder)
{
    Service service;
    const auto lines = submitAndStream(
        service,
        R"({"cmd":"submit","suite":{"n":16,"filter":["minmax"]},)"
        R"("threads":1})");
    ASSERT_GE(lines.size(), 2u);
    for (std::size_t i = 0; i + 1 < lines.size(); ++i)
        EXPECT_TRUE(lineSays(lines[i], "event", "job")) << lines[i];
    EXPECT_TRUE(lineSays(lines.back(), "event", "done"));
    EXPECT_NE(lines.back().find("\"failures\":0"),
              std::string::npos)
        << lines.back();
    // Every job runs on the farm, on the default backend.
    EXPECT_NE(lines[0].find("\"backend\":\"threaded\""),
              std::string::npos)
        << lines[0];
}

TEST(Service, ZeroSizeSuiteFailsPerJob)
{
    // n = 0 is a size some workloads reject: those jobs fail with a
    // load diagnostic, and the rest of the batch runs.
    Service service;
    const auto lines = submitAndStream(
        service, R"({"cmd":"submit","suite":{"n":0},"threads":1})");
    ASSERT_GE(lines.size(), 2u);
    bool minmaxFailed = false;
    bool tprocPassed = false;
    for (const std::string &l : lines) {
        if (l.find("minmax/ximd/n=0") != std::string::npos)
            minmaxFailed = l.find("requires at least one element") !=
                           std::string::npos;
        if (l.find("tproc/ximd/n=0") != std::string::npos)
            tprocPassed = l.find("\"ok\":true") != std::string::npos;
    }
    EXPECT_TRUE(minmaxFailed);
    EXPECT_TRUE(tprocPassed);
    EXPECT_TRUE(lineSays(lines.back(), "event", "done"));
    EXPECT_EQ(lines.back().find("\"failures\":0"), std::string::npos)
        << lines.back();
}

TEST(Service, InlineSweepSubmissionRuns)
{
    Service service;
    const auto lines = submitAndStream(
        service,
        R"({"cmd":"submit","sweep":{"runs":[{"workload":"minmax",)"
        R"("n":16,"seed":[1,2]}]},"threads":1})");
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_TRUE(lineSays(lines[2], "event", "done"));
}

TEST(Service, ResultsStreamIsByteIdenticalAcrossThreadCounts)
{
    // j1, jN and default (hardware concurrency) submissions of the
    // same work answer byte-identical result streams (no timing
    // fields, spec order, pure-function jobs).
    Service s1;
    Service s8;
    Service sDefault;
    const auto lines1 = submitAndStream(
        s1, R"({"cmd":"submit","suite":{"n":32},"threads":1})");
    const auto lines8 = submitAndStream(
        s8, R"({"cmd":"submit","suite":{"n":32},"threads":8})");
    const auto linesDefault =
        submitAndStream(sDefault, R"({"cmd":"submit","suite":{"n":32}})");
    EXPECT_EQ(lines1, lines8);
    EXPECT_EQ(lines1, linesDefault);
}

TEST(Service, StatusTracksBatchLifecycle)
{
    Service service;
    auto out = request(service, R"({"cmd":"status"})");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NE(out[0].find("\"batches\":0"), std::string::npos);

    (void)submitAndStream(
        service,
        R"({"cmd":"submit","suite":{"n":16,"filter":["minmax/ximd"]},)"
        R"("threads":1})");
    out = request(service, R"({"cmd":"status","batch":0})");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(lineSays(out[0], "state", "done")) << out[0];
    EXPECT_NE(out[0].find("\"failures\":0"), std::string::npos);

    out = request(service, R"({"cmd":"status","batch":99})");
    EXPECT_NE(out[0].find("no such batch"), std::string::npos);
}

TEST(Service, DrainRefusesNewWorkAndShutdownAsksExit)
{
    Service service;
    auto out = request(service, R"({"cmd":"drain"})");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(lineSays(out[0], "event", "drained"));

    out = request(
        service,
        R"({"cmd":"submit","suite":{"n":16,"filter":["minmax"]}})");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NE(out[0].find("draining"), std::string::npos);

    out = request(service, R"({"cmd":"shutdown"})",
                  Service::Action::Shutdown);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(lineSays(out[0], "event", "bye"));
}

} // namespace
} // namespace ximd::farm
