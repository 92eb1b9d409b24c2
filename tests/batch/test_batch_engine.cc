/**
 * @file
 * Scalar-vs-batched parity: the batch engine's fidelity contract.
 *
 * Every test compares jobs run through batch::BatchEngine (via
 * farm::BatchRunner) against the same RunSpec through Farm::runOne —
 * archStateHash, cycle count, stop reason, fault message, and the
 * full RunStats JSON must match bit for bit. The lane-lifecycle
 * property test staggers per-job budgets so lanes retire and refill
 * at every interleaving the round-robin can produce.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "batch/batch_engine.hh"
#include "farm/batch_runner.hh"
#include "farm/farm.hh"
#include "farm/suite.hh"
#include "workloads/randprog.hh"

namespace ximd::farm {
namespace {

/** Everything a parity check compares. statsJson excludes backend. */
void
expectParity(const JobResult &scalar, const JobResult &batched,
             const std::string &context)
{
    EXPECT_EQ(scalar.ran, batched.ran) << context;
    if (!scalar.ran || !batched.ran) {
        // Construction failures must carry the same message.
        ASSERT_TRUE(scalar.error.has_value()) << context;
        ASSERT_TRUE(batched.error.has_value()) << context;
        EXPECT_EQ(scalar.error->message, batched.error->message)
            << context;
        return;
    }
    EXPECT_EQ(batched.backend, "batch") << context;
    EXPECT_EQ(scalar.run.reason, batched.run.reason) << context;
    EXPECT_EQ(scalar.run.cycles, batched.run.cycles) << context;
    EXPECT_EQ(scalar.run.faultMessage, batched.run.faultMessage)
        << context;
    EXPECT_EQ(scalar.archHash, batched.archHash) << context;
    // Rates depend only on counts and cycleNs, so comparing the
    // backend-less JSON compares every counter the run produced.
    EXPECT_EQ(scalar.stats.json(85.0), batched.stats.json(85.0))
        << context;
    EXPECT_EQ(scalar.error.has_value(), batched.error.has_value())
        << context;
    if (scalar.error && batched.error) {
        EXPECT_EQ(scalar.error->message, batched.error->message)
            << context;
    }
}

std::vector<RunSpec>
eligibleSuite(unsigned n)
{
    SuiteOptions so;
    so.n = n;
    std::vector<RunSpec> specs = builtinSuite(so);
    std::vector<RunSpec> kept;
    for (RunSpec &s : specs)
        if (!batchDemotionReason(s))
            kept.push_back(std::move(s));
    return kept;
}

TEST(BatchParity, SuiteMatchesScalarFarmAtEveryWidth)
{
    const std::vector<RunSpec> specs = eligibleSuite(64);
    ASSERT_FALSE(specs.empty());

    std::vector<JobResult> scalar;
    scalar.reserve(specs.size());
    for (const RunSpec &s : specs)
        scalar.push_back(Farm::runOne(s));

    for (unsigned width : {1u, 3u, 256u}) {
        const BatchResult batched =
            BatchRunner::run(specs, 1, width);
        ASSERT_EQ(batched.jobs.size(), specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i)
            expectParity(scalar[i], batched.jobs[i],
                         specs[i].name + " width=" +
                             std::to_string(width));
    }
}

TEST(BatchParity, DemotedJobsStillRunScalar)
{
    // The full suite includes fixture jobs (devices, output checks);
    // BatchRunner must fall back to the scalar path for those and
    // still return every job, in order, all passing.
    std::vector<RunSpec> specs = builtinSuite();
    bool sawDemoted = false;
    for (const RunSpec &s : specs)
        sawDemoted |= batchDemotionReason(s) != nullptr;
    ASSERT_TRUE(sawDemoted);

    const BatchResult batched = BatchRunner::run(specs, 2, 64);
    ASSERT_EQ(batched.jobs.size(), specs.size());
    EXPECT_EQ(batched.failures(), 0u) << batched.json(false);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(batched.jobs[i].name, specs[i].name);
        if (batchDemotionReason(specs[i]))
            EXPECT_NE(batched.jobs[i].backend, "batch")
                << specs[i].name;
        else
            EXPECT_EQ(batched.jobs[i].backend, "batch")
                << specs[i].name;
    }
}

RunSpec
specFor(std::shared_ptr<const PreparedProgram> prog, Mode mode,
        Cycle maxCycles, const std::string &name)
{
    RunSpec s;
    s.name = name;
    s.program = std::move(prog);
    s.config =
        MachineConfig{}.withMode(mode).withMemWords(1u << 14);
    s.maxCycles = maxCycles;
    return s;
}

/**
 * The satellite lane-lifecycle property: randprog corpus x both
 * modes x staggered budgets through one shared engine. Unequal
 * budgets make lanes retire at different slices (MaxCycles early,
 * Halted late), so every refill interleaving the round-robin can
 * produce gets exercised, and each lane must still match its own
 * scalar run bit for bit.
 */
TEST(BatchParity, RetirementRefillPropertyOverRandprogCorpus)
{
    const Cycle budgets[] = {1, 7, 23, 117, 100'000};
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        workloads::RandProgOptions opts;
        opts.seed = seed;
        opts.width = 1 + seed % 8;
        opts.rows = 20 + seed % 60;
        opts.branchPercent = 10 + seed % 40;
        auto prepared = PreparedProgram::make(
            workloads::randomLockstepProgram(opts));

        for (Mode mode : {Mode::Ximd, Mode::Vliw}) {
            std::vector<RunSpec> specs;
            for (Cycle budget : budgets)
                specs.push_back(specFor(
                    prepared, mode, budget,
                    "randprog/seed=" + std::to_string(seed) +
                        "/mode=" +
                        std::to_string(mode == Mode::Vliw) +
                        "/budget=" + std::to_string(budget)));

            // Width 2 over 5 jobs forces retire-and-refill churn.
            const BatchResult batched =
                BatchRunner::run(specs, 1, 2);
            ASSERT_EQ(batched.jobs.size(), specs.size());
            for (std::size_t i = 0; i < specs.size(); ++i)
                expectParity(Farm::runOne(specs[i]),
                             batched.jobs[i], specs[i].name);
        }
    }
}

RunSpec
sourceSpec(const std::string &src, const std::string &name)
{
    RunSpec s;
    s.name = name;
    s.program = PreparedProgram::make(assembleString(src));
    s.config = MachineConfig{};
    s.maxCycles = 1000;
    return s;
}

TEST(BatchParity, FaultsMatchScalarMessages)
{
    const struct
    {
        const char *name;
        const char *src;
    } cases[] = {
        {"div-zero", ".fus 2\n.reg a 0\n.reg b 1\n"
                     "x: halt ; idiv a,b,a || halt ; nop\n"},
        {"reg-conflict",
         ".fus 2\n.reg a 0\n"
         "x: halt ; iadd #1,#2,a || halt ; iadd #3,#4,a\n"},
        {"mem-conflict",
         ".fus 2\n"
         "x: halt ; store #1,#40 || halt ; store #2,#40\n"},
        {"store-oor",
         ".fus 1\n"
         "x: halt ; store #1,#99999999\n"},
    };
    // Each case also runs on the VLIW machine, whose faulting cycle is
    // still charged to the single-stream partition histogram; the
    // interpreter's scalar run is the oracle for both.
    for (const auto &c : cases) {
        for (Mode mode : {Mode::Ximd, Mode::Vliw}) {
            const std::string context =
                std::string(c.name) + "/" + modeName(mode);
            RunSpec spec = sourceSpec(c.src, c.name);
            spec.config.mode = mode;
            const BatchResult batched = BatchRunner::run({spec}, 1, 4);
            ASSERT_EQ(batched.jobs.size(), 1u) << context;
            expectParity(Farm::runOne(spec), batched.jobs[0], context);
            RunSpec interp = spec;
            interp.config.backend = Backend::Interp;
            expectParity(Farm::runOne(interp), batched.jobs[0],
                         context + "/interp");
            EXPECT_EQ(batched.jobs[0].run.reason, StopReason::Fault)
                << context;
        }
    }
}

TEST(BatchParity, VliwValidationRejectsLikeScalar)
{
    // Sync fields do not exist on a VLIW machine; the whole cohort
    // must fail construction with the scalar Machine's message.
    RunSpec spec = sourceSpec(
        ".fus 2\n"
        "a: -> b ; nop ; done || -> b ; nop\n"
        "b: halt ; nop || halt ; nop\n",
        "vliw-sync-reject");
    spec.config.mode = Mode::Vliw;
    const BatchResult batched = BatchRunner::run({spec}, 1, 4);
    ASSERT_EQ(batched.jobs.size(), 1u);
    expectParity(Farm::runOne(spec), batched.jobs[0],
                 "vliw-sync-reject");
    ASSERT_TRUE(batched.jobs[0].error.has_value());
    EXPECT_NE(batched.jobs[0].error->message.find(
                  "sync fields do not exist"),
              std::string::npos);
}

TEST(BatchParity, DemotionReasonsMirrorScalarRules)
{
    RunSpec s = eligibleSuite(16).front();
    EXPECT_EQ(batchDemotionReason(s), nullptr);

    RunSpec interp = s;
    interp.config.backend = Backend::Interp;
    EXPECT_NE(batchDemotionReason(interp), nullptr);

    RunSpec trace = s;
    trace.config.recordTrace = true;
    EXPECT_NE(batchDemotionReason(trace), nullptr);

    RunSpec latency = s;
    latency.config.resultLatency = 3;
    EXPECT_NE(batchDemotionReason(latency), nullptr);

    RunSpec regsync = s;
    regsync.config.registeredSync = true;
    EXPECT_NE(batchDemotionReason(regsync), nullptr);

    RunSpec resume = s;
    resume.resumeFrom = "whatever.snap";
    EXPECT_NE(batchDemotionReason(resume), nullptr);
}

} // namespace
} // namespace ximd::farm
