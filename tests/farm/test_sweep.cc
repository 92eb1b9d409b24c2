#include "farm/sweep.hh"

#include <cstdio>
#include <fstream>
#include <string>

#include "farm/farm.hh"

#include <gtest/gtest.h>

namespace ximd::farm {
namespace {

std::vector<RunSpec>
expandOk(std::string_view text)
{
    auto r = parseSweep(text);
    EXPECT_TRUE(r.hasValue())
        << (r.hasValue() ? "" : r.error().message);
    return r.hasValue() ? std::move(r.value())
                        : std::vector<RunSpec>{};
}

std::string
expandErr(std::string_view text)
{
    auto r = parseSweep(text);
    EXPECT_FALSE(r.hasValue());
    return r.hasValue() ? "" : r.error().message;
}

TEST(Sweep, SingleRunNoAxes)
{
    const auto specs = expandOk(
        R"({"runs": [{"workload": "minmax", "n": 64, "seed": 7}]})");
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].name, "minmax/ximd/n=64/seed=7");
    EXPECT_EQ(specs[0].config.mode, Mode::Ximd);
    EXPECT_EQ(specs[0].config.seed, 7u);
    EXPECT_FALSE(specs[0].loadError.has_value());
}

TEST(Sweep, CartesianExpansion)
{
    const auto specs = expandOk(R"({
        "runs": [{
            "workload": "minmax",
            "mode": ["ximd", "vliw"],
            "n": [32, 64, 128],
            "seed": [1, 2]
        }]
    })");
    EXPECT_EQ(specs.size(), 12u); // 2 modes * 3 sizes * 2 seeds
    // Stable nesting order: mode varies slowest of the three.
    EXPECT_EQ(specs[0].name, "minmax/ximd/n=32/seed=1");
    EXPECT_EQ(specs[1].name, "minmax/ximd/n=32/seed=2");
    EXPECT_EQ(specs[2].name, "minmax/ximd/n=64/seed=1");
    EXPECT_EQ(specs[6].name, "minmax/vliw/n=32/seed=1");
}

TEST(Sweep, DefaultsApplyAndEntriesOverride)
{
    const auto specs = expandOk(R"({
        "defaults": {"n": 99, "seed": 5, "registered_sync": true},
        "runs": [
            {"workload": "minmax"},
            {"workload": "minmax", "n": 7, "registered_sync": false}
        ]
    })");
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].name, "minmax/ximd/n=99/seed=5");
    EXPECT_TRUE(specs[0].config.registeredSync);
    EXPECT_EQ(specs[1].name, "minmax/ximd/n=7/seed=5");
    EXPECT_FALSE(specs[1].config.registeredSync);
}

TEST(Sweep, DefaultsCanCarryAnAxis)
{
    const auto specs = expandOk(R"({
        "defaults": {"seed": [1, 2, 3]},
        "runs": [{"workload": "tproc"}]
    })");
    EXPECT_EQ(specs.size(), 3u);
}

TEST(Sweep, ConfigAxesReachTheMachineConfig)
{
    const auto specs = expandOk(R"({
        "runs": [{
            "workload": "tproc",
            "fast_forward": false,
            "result_latency": 3,
            "max_cycles": 1234
        }]
    })");
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_FALSE(specs[0].config.fastForward);
    EXPECT_EQ(specs[0].config.resultLatency, 3u);
    EXPECT_EQ(specs[0].maxCycles, 1234u);
}

TEST(Sweep, BackendAxisExpandsAndValidates)
{
    const auto specs = expandOk(R"({
        "runs": [{
            "workload": "minmax",
            "backend": ["interp", "threaded"]
        }]
    })");
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].config.backend, Backend::Interp);
    EXPECT_EQ(specs[1].config.backend, Backend::Threaded);

    EXPECT_NE(expandErr(R"({"runs": [{"workload": "minmax",
                                      "backend": "jit"}]})")
                  .find("'backend' must be"),
              std::string::npos);
}

TEST(Sweep, StructuralErrorsFailTheLoad)
{
    EXPECT_NE(expandErr("not json").find("sweep:"),
              std::string::npos);
    EXPECT_NE(expandErr(R"({"runs": [{"n": 4}]})")
                  .find("exactly one of"),
              std::string::npos);
    EXPECT_NE(expandErr(R"({"runs": [{"workload": "minmax",
                                      "typo_key": 1}]})")
                  .find("unknown key"),
              std::string::npos);
    EXPECT_NE(expandErr(R"({"runs": [{"workload": "nope"}]})")
                  .find("unknown workload"),
              std::string::npos);
    EXPECT_NE(expandErr(R"({"runs": [{"workload": "minmax",
                                      "program": "x.ximd"}]})")
                  .find("exactly one of"),
              std::string::npos);
    EXPECT_NE(expandErr(R"({"nope": 1, "runs": []})")
                  .find("top-level"),
              std::string::npos);
    EXPECT_NE(expandErr(R"({"runs": [{"workload": "minmax",
                                      "mode": "mimd"}]})")
                  .find("mode"),
              std::string::npos);
    // 2^32 + 1 once wrapped to n = 1 and ran.
    EXPECT_NE(expandErr(R"({"runs": [{"workload": "minmax",
                                      "n": 4294967297}]})")
                  .find("'n' must be at most"),
              std::string::npos);
}

TEST(Sweep, InvalidModeComboBecomesPerJobFailure)
{
    // Sweeping bitcount-lockstep over both modes: the vliw leg runs,
    // the ximd leg fails structurally without sinking the sweep.
    const auto specs = expandOk(R"({
        "runs": [{"workload": "bitcount-lockstep",
                  "mode": ["ximd", "vliw"], "n": 16}]
    })");
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_TRUE(specs[0].loadError.has_value());
    EXPECT_FALSE(specs[1].loadError.has_value());

    const BatchResult batch = Farm::run(specs, 2);
    EXPECT_EQ(batch.failures(), 1u);
    EXPECT_FALSE(batch.jobs[0].ok());
    EXPECT_TRUE(batch.jobs[1].ok());
}

TEST(Sweep, ProgramFileJobsAssembleAndShare)
{
    const std::string path =
        testing::TempDir() + "sweep_prog_ok.ximd";
    {
        std::ofstream out(path);
        out << ".fus 2\nhalt || halt\n";
    }
    const auto specs = expandOk(
        R"({"runs": [{"program": ")" + path +
        R"(", "seed": [1, 2]}]})");
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_FALSE(specs[0].loadError.has_value());
    // Both seed legs share the one assembled program.
    EXPECT_EQ(specs[0].program.get(), specs[1].program.get());

    const BatchResult batch = Farm::run(specs, 2);
    EXPECT_EQ(batch.failures(), 0u);
    std::remove(path.c_str());
}

TEST(Sweep, BadProgramFileIsPerJobFailure)
{
    const std::string path =
        testing::TempDir() + "sweep_prog_bad.ximd";
    {
        std::ofstream out(path);
        out << ".fus 2\nhalt\n"; // wrong parcel count
    }
    const auto specs = expandOk(R"({
        "runs": [
            {"program": ")" + path + R"("},
            {"program": "/missing/file.ximd"},
            {"workload": "tproc"}
        ]
    })");
    ASSERT_EQ(specs.size(), 3u);
    ASSERT_TRUE(specs[0].loadError.has_value());
    EXPECT_EQ(specs[0].loadError->check, analysis::Check::AsmParse);
    ASSERT_TRUE(specs[1].loadError.has_value());
    EXPECT_EQ(specs[1].loadError->check, analysis::Check::LoadFailed);

    const BatchResult batch = Farm::run(specs, 2);
    EXPECT_EQ(batch.failures(), 2u);
    EXPECT_TRUE(batch.jobs[2].ok());
    std::remove(path.c_str());
}

TEST(Sweep, SweepRunsAreDeterministicAcrossThreads)
{
    const std::string text = R"({
        "defaults": {"n": 32},
        "runs": [
            {"workload": "minmax", "mode": ["ximd", "vliw"],
             "seed": [1, 2]},
            {"workload": "nonblocking", "seed": [3, 4]},
            {"workload": "bitcount", "fast_forward": [true, false]}
        ]
    })";
    const auto specs1 = expandOk(text);
    const auto specs2 = expandOk(text);
    const BatchResult a = Farm::run(specs1, 1);
    const BatchResult b = Farm::run(specs2, 8);
    EXPECT_EQ(a.json(false), b.json(false));
}

} // namespace
} // namespace ximd::farm
