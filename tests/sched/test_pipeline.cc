/** PassManager / Compiler facade tests (sched/pipeline.hh). */

#include <gtest/gtest.h>

#include "asm/asm_writer.hh"
#include "asm/assembler.hh"
#include "sched/compose.hh"
#include "sched/ir_print.hh"
#include "sched/pipeline.hh"
#include "workloads/ir_threads.hh"


using namespace ximd;
using namespace ximd::sched;

namespace {

IrProgram
reduceIr()
{
    Rng rng(101);
    return workloads::reductionThread(0, 8, 3, rng);
}

std::vector<std::string>
passSequence(const Compiler &cc)
{
    std::vector<std::string> names;
    for (const PassStat &s : cc.stats())
        names.push_back(s.pass);
    return names;
}

TEST(Pipeline, CompileMatchesLegacyEntryPoint)
{
    PipelineOptions po;
    po.width = 4;
    Compiler cc(po);
    auto r = cc.compile(reduceIr());
    ASSERT_TRUE(r.hasValue()) << r.error().format();

    CodegenOptions co;
    co.width = 4;
    EXPECT_EQ(writeAssembly(r.value().program),
              writeAssembly(valueOrFatal(generateCodeChecked(reduceIr(), co)).program));
}

TEST(Pipeline, StatsRecordEveryPassInOrder)
{
    Compiler cc;
    ASSERT_TRUE(cc.compile(reduceIr()).hasValue());
    EXPECT_EQ(passSequence(cc),
              (std::vector<std::string>{"validate-ir", "regalloc",
                                        "build-ddg", "list-schedule",
                                        "codegen"}));
    for (const PassStat &s : cc.stats())
        EXPECT_GE(s.wallMs, 0.0) << s.pass;
}

TEST(Pipeline, CountersReflectTheCompilation)
{
    Compiler cc;
    ASSERT_TRUE(cc.compile(reduceIr()).hasValue());
    const auto &stats = cc.stats();
    EXPECT_EQ(stats[0].counters.at("blocks"), 2);  // loop + end
    EXPECT_EQ(stats[0].counters.at("ops"), 6);
    EXPECT_EQ(stats[1].counters.at("regs_used"), 4);
    EXPECT_EQ(stats[1].counters.at("spilled_vregs"), 0);
    EXPECT_GT(stats[2].counters.at("edges"), 0);
    EXPECT_EQ(stats[3].counters.at("ops_scheduled"), 6);
    EXPECT_GT(stats[4].counters.at("rows"), 0);
    EXPECT_EQ(stats[4].counters.at("raw_latency"), 1);
}

TEST(Pipeline, OptionalPassesAppearWhenEnabled)
{
    PipelineOptions po;
    po.mergeBlocks = true;
    po.verify = true;
    Compiler cc(po);
    ASSERT_TRUE(cc.compile(reduceIr()).hasValue());
    EXPECT_EQ(passSequence(cc),
              (std::vector<std::string>{"validate-ir", "merge-blocks",
                                        "regalloc", "build-ddg",
                                        "list-schedule", "codegen",
                                        "verify"}));
}

TEST(Pipeline, DumpHookFiresAfterEveryPass)
{
    Compiler cc;
    std::vector<std::string> seen;
    cc.setAfterPass([&](const std::string &pass,
                        const CompileContext &cx) {
        seen.push_back(pass);
        // The context is live at hook time: by codegen the program
        // exists, before it only the IR does.
        if (pass == "codegen") {
            EXPECT_TRUE(cx.hasProgram);
        }
        if (pass == "validate-ir") {
            EXPECT_FALSE(cx.hasProgram);
        }
    });
    ASSERT_TRUE(cc.compile(reduceIr()).hasValue());
    EXPECT_EQ(seen,
              (std::vector<std::string>{"validate-ir", "regalloc",
                                        "build-ddg", "list-schedule",
                                        "codegen"}));
}

TEST(Pipeline, VerifyBetweenAcceptsAHealthyCompile)
{
    PipelineOptions po;
    po.verifyBetween = true;
    Compiler cc(po);
    auto r = cc.compile(reduceIr());
    EXPECT_TRUE(r.hasValue()) << r.error().format();
}

TEST(Pipeline, RaceCheckRejectsWhatTheBaseVerifierRejects)
{
    // Both FUs write r5 in one row. The race engine stands down on a
    // program the base verifier rejects; race-check without a verify
    // pass before it must still fail, with the base verifier's error.
    CompileContext cx;
    cx.program = assembleString(".fus 2\n"
                                "L0: -> L1 ; mov #1,r5 || -> L1 ; mov #2,r5\n"
                                "L1: halt || halt\n");
    cx.hasProgram = true;
    PassStat stat;
    const CompileResult<Ok> r = makeRaceCheckPass()->run(cx, stat);
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().pass, "race-check");
    EXPECT_NE(r.error().message.find("reg-write-conflict"),
              std::string::npos)
        << r.error().message;
}

TEST(Pipeline, VerifyLeavesItsFactsForRaceCheck)
{
    PipelineOptions po;
    po.verify = true;
    po.analyzeRace = true;
    Compiler cc(po);
    ASSERT_TRUE(cc.compile(reduceIr()).hasValue());
    EXPECT_EQ(passSequence(cc).back(), "race-check");
    const CompileContext &cx = cc.context();
    ASSERT_TRUE(cx.facts.has_value());
    EXPECT_EQ(cx.facts->cfg.streams.size(), cx.program.width());
    EXPECT_EQ(cx.facts->classes.count(),
              cc.stats().back().counters.at("classes"));
}

TEST(Pipeline, ReplacingTheProgramDropsItsFacts)
{
    CompileContext cx;
    cx.setProgram(assembleString(".fus 1\nL0: halt\n"));
    cx.facts = analysis::buildFacts(cx.program);
    cx.setProgram(assembleString(".fus 2\nL0: halt || halt\n"));
    EXPECT_TRUE(cx.hasProgram);
    EXPECT_FALSE(cx.facts.has_value());
}

TEST(Pipeline, CheckedComposeUnderVerifyBetween)
{
    // A composed program has one lockstep class per thread group, so
    // race-check explores class pairs; every pass boundary builds
    // fresh facts for both checks.
    PipelineOptions po;
    po.width = 8;
    po.verify = true;
    po.analyzeRace = true;
    po.verifyBetween = true;
    Compiler cc(po);
    auto r = cc.compose(workloads::reductionThreadSet(6, 42),
                        "balanced-groups");
    ASSERT_TRUE(r.hasValue()) << r.error().format();
    EXPECT_EQ(passSequence(cc),
              (std::vector<std::string>{"tile", "pack", "compose",
                                        "verify", "race-check"}));
    EXPECT_GT(cc.stats().back().counters.at("classes"), 1);
}

TEST(Pipeline, BadIrFailsStructurallyNotByThrow)
{
    IrProgram ir = reduceIr();
    ir.blocks[0].term.taken = "nowhere";
    Compiler cc;
    CompileResult<CodegenResult> r = CodegenResult{};
    EXPECT_NO_THROW(r = cc.compile(std::move(ir)));
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().pass, "validate-ir");
    EXPECT_EQ(r.error().block, "loop");
    EXPECT_NE(r.error().message.find("nowhere"), std::string::npos);
    // Only the failing pass ran; its stat entry is still recorded.
    EXPECT_EQ(passSequence(cc),
              (std::vector<std::string>{"validate-ir"}));
}

TEST(Pipeline, StatsJsonNamesPassesAndCounters)
{
    Compiler cc;
    ASSERT_TRUE(cc.compile(reduceIr()).hasValue());
    const std::string json = cc.statsJson();
    EXPECT_NE(json.find("\"passes\""), std::string::npos);
    EXPECT_NE(json.find("\"pass\": \"codegen\""), std::string::npos);
    EXPECT_NE(json.find("\"ops_scheduled\": 6"), std::string::npos);
    EXPECT_NE(json.find("\"wall_ms\""), std::string::npos);
}

TEST(Pipeline, LoopPathMatchesLegacyModulo)
{
    PipelineOptions po;
    po.width = 8;
    Compiler cc(po);
    auto r = cc.compileLoop(workloads::loop12Pipeline(20, 64, 128));
    ASSERT_TRUE(r.hasValue()) << r.error().format();
    EXPECT_EQ(
        writeAssembly(r.value()),
        writeAssembly(
            valueOrFatal(pipelineLoopChecked(workloads::loop12Pipeline(20, 64, 128), 8))));
    ASSERT_EQ(cc.stats().size(), 1u);
    EXPECT_EQ(cc.stats()[0].pass, "modulo");
    EXPECT_EQ(cc.stats()[0].counters.at("ii"), 1);
    EXPECT_GT(cc.stats()[0].counters.at("kernel_rows"), 0);
}

TEST(Pipeline, ComposePathMatchesLegacyCompose)
{
    const auto threads = workloads::reductionThreadSet(6, 42);
    PipelineOptions po;
    po.width = 8;
    Compiler cc(po);
    auto r = cc.compose(threads, "balanced-groups");
    ASSERT_TRUE(r.hasValue()) << r.error().format();

    auto tiles = generateTiles(threads, 8);
    auto packing = packBalancedGroups(tiles, 8);
    EXPECT_EQ(writeAssembly(r.value().program),
              writeAssembly(
                  valueOrFatal(composeThreadsChecked(threads, packing, 8)).program));
    EXPECT_EQ(passSequence(cc),
              (std::vector<std::string>{"tile", "pack", "compose"}));
    EXPECT_GT(cc.stats()[1].counters.at("utilization_pct"), 0.0);
}

TEST(Pipeline, UnknownPackStrategyIsAStructuredError)
{
    Compiler cc;
    auto r = cc.compose(workloads::reductionThreadSet(2, 42),
                        "best-effort");
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().pass, "pack");
    EXPECT_NE(r.error().message.find("unknown pack strategy"),
              std::string::npos);
    // The failing pass still left a stat entry (tile, then pack).
    EXPECT_EQ(passSequence(cc),
              (std::vector<std::string>{"tile", "pack"}));
}

TEST(Pipeline, PackStrategyLookupCoversAllFive)
{
    for (const char *name :
         {"stacked", "first-fit", "skyline", "balanced-groups",
          "exhaustive"})
        EXPECT_NE(packStrategyByName(name), nullptr) << name;
    EXPECT_EQ(packStrategyByName("quantum"), nullptr);
}

} // namespace
