/** Compiler pipeline tests (sched/pipeline.hh): stage lists, stats, hook. */

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

/** Appends each pass name @p cc's after-pass hook reports to @p names. */
void
recordHook(Compiler &cc, std::vector<std::string> &names)
{
    cc.setAfterPass([&names](const std::string &pass,
                             const CompileContext &) {
        names.push_back(pass);
    });
}

// The tests that compare statsJson() against a literal pin every
// compile path's stats byte for byte, as captured from the compiler
// before its stages became a list of functions (wall_ms and solve_ms
// masked), and the hook's pass order with them.

/** statsJson() with every wall_ms and solve_ms value replaced by *. */
std::string
maskTimings(std::string json)
{
    for (const std::string key : {"\"wall_ms\": ", "\"solve_ms\": "})
        for (auto at = json.find(key); at != std::string::npos;
             at = json.find(key, at)) {
            at += key.size();
            json.replace(at, json.find_first_of(",}", at) - at, "*");
        }
    return json;
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
    const CompileResult<Ok> r = raceCheckStage(cx, stat);
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
    std::vector<std::string> hooked;
    recordHook(cc, hooked);
    auto r = cc.compose(workloads::reductionThreadSet(6, 42),
                        "balanced-groups");
    ASSERT_TRUE(r.hasValue()) << r.error().format();
    EXPECT_EQ(maskTimings(cc.statsJson()), R"({
  "schema": 2,
  "passes": [
    {"pass": "tile", "wall_ms": *, "counters": {"threads": 6, "tiles": 12}},
    {"pass": "pack", "wall_ms": *, "counters": {"rows_packed": 7, "utilization_pct": 75}},
    {"pass": "compose", "wall_ms": *, "counters": {"rows": 16, "threads": 6}},
    {"pass": "verify", "wall_ms": *, "counters": {"errors": 0, "warnings": 0}},
    {"pass": "race-check", "wall_ms": *, "counters": {"classes": 7, "covered": 0, "pairs": 21, "product_states": 552, "races": 0}}
  ]
}
)");
    EXPECT_EQ(hooked,
              (std::vector<std::string>{"tile", "pack", "compose",
                                        "verify", "race-check"}));
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
    po.verify = true;
    Compiler cc(po);
    std::vector<std::string> hooked;
    recordHook(cc, hooked);
    auto r = cc.compileLoop(workloads::loop12Pipeline(20, 64, 128));
    ASSERT_TRUE(r.hasValue()) << r.error().format();
    EXPECT_EQ(
        writeAssembly(r.value()),
        writeAssembly(
            valueOrFatal(pipelineLoopChecked(workloads::loop12Pipeline(20, 64, 128), 8))));
    EXPECT_EQ(maskTimings(cc.statsJson()), R"({
  "schema": 2,
  "passes": [
    {"pass": "modulo", "wall_ms": *, "counters": {"achieved_ii": 1, "depth": 3, "expansion": 2, "ii": 1, "kernel_rows": 2, "minimal_ii": 1, "optimality_gap": 0, "prologue_rows": 2}},
    {"pass": "verify", "wall_ms": *, "counters": {"errors": 0, "warnings": 0}}
  ],
  "loops": [
    {"block": "kernel", "loop": true, "tier": "modulo", "ops": 5, "res_mii": 1, "rec_mii": 1, "mii": 1, "heuristic_ii": 1, "achieved_ii": 1, "minimal_ii": 1, "optimality_gap": 0, "proven": true, "timeout": false, "nodes": 0, "solve_ms": *}
  ],
  "exact_timeouts": 0
}
)");
    EXPECT_EQ(hooked, (std::vector<std::string>{"modulo", "verify"}));
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

/**
 * A loop between two jump-linked blocks, so merge-blocks folds one.
 * At width 1 the exact tier schedules the loop body a row shorter
 * than the list scheduler does.
 */
constexpr const char *kMergeableText = R"(.vregs 4
.vinit v0 0
block entry:
  v0 = iadd v0, #5
  jump body
block body:
  v2 = iadd v0, #2
  v0 = iadd v0, #1
  v3 = iadd v2, #3
  eq v0, #9
  branch 3 tail body
block tail:
  jump done
block done:
  store v3, #2048
  halt
)";

TEST(PipelineStats, CheckedExactCompileMatchesCapture)
{
    PipelineOptions po;
    po.width = 1;
    po.mergeBlocks = true;
    po.schedule = ScheduleTier::Exact;
    po.exact.budgetMs = 0; // no wall-clock budget: node counts repeat
    po.verify = true;
    po.analyzeRace = true;
    po.verifyBetween = true;
    Compiler cc(po);
    std::vector<std::string> hooked;
    recordHook(cc, hooked);
    auto r = cc.compile(valueOrFatal(parseIr(kMergeableText)));
    ASSERT_TRUE(r.hasValue()) << r.error().format();
    EXPECT_EQ(maskTimings(cc.statsJson()), R"({
  "schema": 2,
  "passes": [
    {"pass": "validate-ir", "wall_ms": *, "counters": {"blocks": 4, "ops": 6, "vregs": 4}},
    {"pass": "merge-blocks", "wall_ms": *, "counters": {"blocks_after": 3, "blocks_before": 4}},
    {"pass": "regalloc", "wall_ms": *, "counters": {"max_pressure": 3, "regs_used": 4, "rounds": 1, "slots_used": 0, "spill_reloads": 0, "spill_stores": 0, "spilled_vregs": 0}},
    {"pass": "build-ddg", "wall_ms": *, "counters": {"critical_path": 1, "edges": 3}},
    {"pass": "exact-schedule", "wall_ms": *, "counters": {"exact_timeouts": 0, "exact_wins": 1, "ops_scheduled": 6, "optimality_gap": 0, "proven_minimal": 3, "rows": 6}},
    {"pass": "codegen", "wall_ms": *, "counters": {"raw_latency": 1, "rows": 6}},
    {"pass": "verify", "wall_ms": *, "counters": {"errors": 0, "warnings": 0}},
    {"pass": "race-check", "wall_ms": *, "counters": {"classes": 1, "covered": 0, "pairs": 0, "product_states": 0, "races": 0}}
  ],
  "loops": [
    {"block": "entry", "loop": false, "tier": "heuristic", "ops": 1, "res_mii": 1, "rec_mii": 1, "mii": 1, "heuristic_ii": 1, "achieved_ii": 1, "minimal_ii": 1, "optimality_gap": 0, "proven": true, "timeout": false, "nodes": 0, "solve_ms": *},
    {"block": "body", "loop": true, "tier": "exact", "ops": 4, "res_mii": 4, "rec_mii": 3, "mii": 4, "heuristic_ii": 5, "achieved_ii": 4, "minimal_ii": 4, "optimality_gap": 0, "proven": true, "timeout": false, "nodes": 4, "solve_ms": *},
    {"block": "tail", "loop": false, "tier": "heuristic", "ops": 1, "res_mii": 1, "rec_mii": 1, "mii": 1, "heuristic_ii": 1, "achieved_ii": 1, "minimal_ii": 1, "optimality_gap": 0, "proven": true, "timeout": false, "nodes": 0, "solve_ms": *}
  ],
  "exact_timeouts": 0
}
)");
    EXPECT_EQ(hooked,
              (std::vector<std::string>{
                  "validate-ir", "merge-blocks", "regalloc", "build-ddg",
                  "exact-schedule", "codegen", "verify", "race-check"}));
}

TEST(PipelineStats, SpilledListCompileMatchesCapture)
{
    PipelineOptions po;
    po.width = 4;
    po.alloc.window = {0, 3};
    po.alloc.spill = true;
    Compiler cc(po);
    std::vector<std::string> hooked;
    recordHook(cc, hooked);
    Rng rng(202);
    auto r = cc.compile(workloads::mixedThread(0, rng));
    ASSERT_TRUE(r.hasValue()) << r.error().format();
    EXPECT_EQ(maskTimings(cc.statsJson()), R"({
  "schema": 2,
  "passes": [
    {"pass": "validate-ir", "wall_ms": *, "counters": {"blocks": 3, "ops": 16, "vregs": 14}},
    {"pass": "regalloc", "wall_ms": *, "counters": {"max_pressure": 3, "regs_used": 3, "rounds": 3, "slots_used": 7, "spill_reloads": 10, "spill_stores": 7, "spilled_vregs": 7}},
    {"pass": "build-ddg", "wall_ms": *, "counters": {"critical_path": 9, "edges": 166}},
    {"pass": "list-schedule", "wall_ms": *, "counters": {"ops_scheduled": 33, "rows": 24}},
    {"pass": "codegen", "wall_ms": *, "counters": {"raw_latency": 1, "rows": 24}}
  ]
}
)");
    EXPECT_EQ(hooked,
              (std::vector<std::string>{"validate-ir", "regalloc",
                                        "build-ddg", "list-schedule",
                                        "codegen"}));
}

} // namespace
