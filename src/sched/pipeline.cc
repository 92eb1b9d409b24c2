#include "sched/pipeline.hh"

#include <chrono>
#include <initializer_list>
#include <sstream>

#include "analysis/race.hh"
#include "analysis/verify.hh"
#include "support/logging.hh"

namespace ximd::sched {

namespace {

double
msSince(std::chrono::steady_clock::time_point t0)
{
    const auto dt = std::chrono::steady_clock::now() - t0;
    return std::chrono::duration<double, std::milli>(dt).count();
}

std::size_t
totalOps(const IrProgram &ir)
{
    std::size_t n = 0;
    for (const IrBlock &b : ir.blocks)
        n += b.ops.size();
    return n;
}

CompileResult<Ok>
validateIrStage(CompileContext &cx, PassStat &stat)
{
    if (auto v = cx.ir.validateChecked(); !v) {
        CompileError e = v.error();
        e.pass = "validate-ir";
        return e;
    }
    stat.counters["blocks"] = static_cast<double>(cx.ir.blocks.size());
    stat.counters["ops"] = static_cast<double>(totalOps(cx.ir));
    stat.counters["vregs"] = cx.ir.numVregs;
    return Ok{};
}

CompileResult<Ok>
mergeBlocksStage(CompileContext &cx, PassStat &stat)
{
    const auto before = cx.ir.blocks.size();
    cx.ir = mergeStraightLineBlocks(std::move(cx.ir));
    stat.counters["blocks_before"] = static_cast<double>(before);
    stat.counters["blocks_after"] = static_cast<double>(cx.ir.blocks.size());
    return Ok{};
}

CompileResult<Ok>
regAllocStage(CompileContext &cx, PassStat &stat)
{
    auto a = allocateRegisters(cx.ir, cx.opts.alloc);
    if (!a)
        return a.error();
    cx.alloc = std::move(a).value();
    stat.counters["regs_used"] = cx.alloc.regsUsed;
    stat.counters["max_pressure"] = cx.alloc.maxPressure;
    stat.counters["spilled_vregs"] = cx.alloc.spilledVregs;
    stat.counters["spill_stores"] = cx.alloc.spillStores;
    stat.counters["spill_reloads"] = cx.alloc.spillReloads;
    stat.counters["slots_used"] = cx.alloc.slotsUsed;
    stat.counters["rounds"] = cx.alloc.rounds;
    return Ok{};
}

CompileResult<Ok>
buildDdgStage(CompileContext &cx, PassStat &stat)
{
    cx.ddgs.clear();
    std::size_t edges = 0;
    int critical = 0;
    for (const IrBlock &b : cx.ir.blocks) {
        cx.ddgs.emplace_back(b, cx.opts.rawLatency);
        edges += cx.ddgs.back().edges().size();
        critical = std::max(critical, cx.ddgs.back().criticalPathLength());
    }
    stat.counters["edges"] = static_cast<double>(edges);
    stat.counters["critical_path"] = critical;
    return Ok{};
}

CompileResult<Ok>
listScheduleStage(CompileContext &cx, PassStat &stat)
{
    cx.schedules.clear();
    std::size_t rows = 0;
    for (const IrBlock &b : cx.ir.blocks) {
        auto s =
            scheduleBlockChecked(b, cx.opts.width, cx.opts.rawLatency);
        if (!s)
            return s.error();
        rows += s.value().numRows();
        cx.schedules.push_back(std::move(s).value());
    }
    stat.counters["ops_scheduled"] = static_cast<double>(totalOps(cx.ir));
    stat.counters["rows"] = static_cast<double>(rows);
    return Ok{};
}

/** Does any (reachable, same-or-later) terminator jump back here? */
bool
isLoopHeader(const IrProgram &ir, std::size_t bi)
{
    const std::string &name = ir.blocks[bi].name;
    for (std::size_t j = bi; j < ir.blocks.size(); ++j) {
        const Terminator &t = ir.blocks[j].term;
        switch (t.kind) {
          case Terminator::Kind::Jump:
            if (t.taken == name)
                return true;
            break;
          case Terminator::Kind::CondBranch:
            if (t.taken == name || t.fallthrough == name)
                return true;
            break;
          case Terminator::Kind::Halt:
            break;
        }
    }
    return false;
}

CompileResult<Ok>
exactScheduleStage(CompileContext &cx, PassStat &stat)
{
    cx.schedules.clear();
    cx.loopStats.clear();
    std::size_t rows = 0;
    unsigned exactWins = 0, timeouts = 0, proven = 0, gap = 0;
    for (std::size_t bi = 0; bi < cx.ir.blocks.size(); ++bi) {
        const IrBlock &b = cx.ir.blocks[bi];
        ExactLoopStat ls;
        auto s = exactScheduleBlockChecked(
            b, cx.opts.width, cx.opts.rawLatency, cx.opts.exact,
            &ls);
        if (!s)
            return s.error();
        rows += s.value().numRows();
        cx.schedules.push_back(std::move(s).value());
        ls.loop = isLoopHeader(cx.ir, bi);
        exactWins += ls.tier == "exact" ? 1 : 0;
        timeouts += ls.timedOut ? 1 : 0;
        proven += ls.proven ? 1 : 0;
        gap += ls.optimalityGap();
        cx.loopStats.push_back(std::move(ls));
    }
    stat.counters["ops_scheduled"] = static_cast<double>(totalOps(cx.ir));
    stat.counters["rows"] = static_cast<double>(rows);
    stat.counters["exact_wins"] = exactWins;
    stat.counters["exact_timeouts"] = timeouts;
    stat.counters["proven_minimal"] = proven;
    stat.counters["optimality_gap"] = gap;
    return Ok{};
}

CompileResult<Ok>
codegenStage(CompileContext &cx, PassStat &stat)
{
    auto code = emitScheduled(cx.ir, cx.schedules, cx.opts.codegen());
    if (!code)
        return code.error();
    cx.code = std::move(code).value();
    cx.setProgram(cx.code.program);
    stat.counters["rows"] = static_cast<double>(cx.program.size());
    stat.counters["raw_latency"] = cx.opts.rawLatency;
    return Ok{};
}

CompileResult<Ok>
moduloStage(CompileContext &cx, PassStat &stat)
{
    auto prog =
        pipelineLoopChecked(cx.loop, cx.opts.width, &cx.pipeInfo);
    if (!prog)
        return prog.error();
    cx.setProgram(std::move(prog).value());
    stat.counters["ii"] = 1;
    stat.counters["depth"] = cx.pipeInfo.depth;
    stat.counters["expansion"] = cx.pipeInfo.expansion;
    stat.counters["kernel_rows"] = cx.pipeInfo.kernelRows;
    stat.counters["prologue_rows"] = cx.pipeInfo.prologueRows;
    // II = 1 cannot be beaten: the loop path is optimal by
    // construction, so it reports a zero-gap loop entry too.
    stat.counters["achieved_ii"] = 1;
    stat.counters["minimal_ii"] = 1;
    stat.counters["optimality_gap"] = 0;
    ExactLoopStat ls;
    ls.block = "kernel";
    ls.loop = true;
    ls.ops = static_cast<unsigned>(cx.loop.body.size());
    ls.resMii = ls.recMii = ls.mii = 1;
    ls.heuristicIi = ls.achievedIi = ls.minimalIi = 1;
    ls.proven = true;
    ls.tier = "modulo";
    cx.loopStats.push_back(std::move(ls));
    return Ok{};
}

CompileResult<Ok>
tileStage(CompileContext &cx, PassStat &stat)
{
    for (const IrProgram &t : cx.threads)
        if (auto v = t.validateChecked(); !v)
            return v.error();
    cx.tiles = generateTiles(cx.threads, cx.opts.width);
    std::size_t impls = 0;
    for (const TileSet &s : cx.tiles)
        impls += s.impls.size();
    stat.counters["threads"] = static_cast<double>(cx.threads.size());
    stat.counters["tiles"] = static_cast<double>(impls);
    return Ok{};
}

CompileResult<Ok>
packStage(CompileContext &cx, PassStat &stat)
{
    PackFn fn = packStrategyByName(cx.packStrategy);
    if (!fn)
        return compileError(
            "pack", cat("unknown pack strategy '", cx.packStrategy,
                        "' (stacked, first-fit, skyline, "
                        "balanced-groups, exhaustive)"));
    cx.packing = fn(cx.tiles, cx.opts.width);
    if (auto v = validatePackingChecked(cx.packing, cx.tiles,
                                        cx.opts.width);
        !v)
        return v.error();
    stat.counters["rows_packed"] = cx.packing.totalHeight;
    stat.counters["utilization_pct"] =
        cx.packing.utilization(cx.opts.width) * 100.0;
    return Ok{};
}

CompileResult<Ok>
composeStage(CompileContext &cx, PassStat &stat)
{
    auto comp = composeThreadsChecked(cx.threads, cx.packing,
                                      cx.opts.width, cx.opts.compose());
    if (!comp)
        return comp.error();
    cx.composed = std::move(comp).value();
    cx.setProgram(cx.composed.program);
    stat.counters["rows"] = static_cast<double>(cx.program.size());
    stat.counters["threads"] = static_cast<double>(cx.composed.threads.size());
    return Ok{};
}

/** cx.program's facts, built on first use. */
const analysis::ProgramFacts &
programFacts(CompileContext &cx)
{
    if (!cx.facts)
        cx.facts = analysis::buildFacts(cx.program);
    return *cx.facts;
}

CompileResult<Ok>
verifyStage(CompileContext &cx, PassStat &stat)
{
    if (!cx.hasProgram)
        return compileError("verify", "no program to verify");
    const analysis::DiagnosticList &diags = programFacts(cx).base;
    stat.counters["errors"] = static_cast<double>(diags.errorCount());
    stat.counters["warnings"] = static_cast<double>(diags.warningCount());
    if (diags.hasErrors())
        return compileError("verify",
                            cat("emitted program fails static "
                                "verification:\n",
                                diags.formatted(&cx.program)));
    return Ok{};
}

/** verifyBetween support: check the context invariants hold. */
CompileResult<Ok>
checkInvariants(const std::string &pass, CompileContext &cx)
{
    if (!cx.ir.blocks.empty())
        if (auto v = cx.ir.validateChecked(); !v) {
            CompileError e = v.error();
            e.message = cat("after pass '", pass,
                            "': IR invariant broken: ", e.message);
            return e;
        }
    if (cx.hasProgram) {
        // Fresh facts for both checks, not cx.facts: the check must
        // not trust a cache that a pass could have left stale.
        std::optional<analysis::ProgramFacts> facts;
        try {
            cx.program.validate();
            facts = analysis::buildFacts(cx.program);
            analysis::verify(cx.program, *facts);
        } catch (const FatalError &e) {
            return compileError(
                "verify", cat("after pass '", pass, "': ", e.what()));
        }
        if (cx.opts.analyzeRace) {
            const analysis::RaceReport report =
                analysis::analyzeRaces(cx.program, *facts);
            if (report.diags.hasErrors())
                return compileError(
                    "race-check",
                    cat("after pass '", pass,
                        "': cross-stream race analysis failed:\n",
                        report.diags.formatted(&cx.program)));
        }
    }
    return Ok{};
}

/** One entry of a path's stage list. */
struct Stage
{
    const char *name;
    CompileResult<Ok> (*run)(CompileContext &cx, PassStat &stat);
    bool on = true; ///< False: an optional stage whose flag is off.
};

/**
 * Run the stages that are on, in order, over @p cx. Each is timed
 * and records its PassStat, the failing one included; the first
 * failure stops the run. After each success @p hook fires, and with
 * cx.opts.verifyBetween the context invariants are checked.
 */
CompileResult<Ok>
runStages(std::initializer_list<Stage> stages, CompileContext &cx,
          const PassHook &hook)
{
    for (const Stage &s : stages) {
        if (!s.on)
            continue;
        PassStat stat;
        stat.pass = s.name;
        const auto t0 = std::chrono::steady_clock::now();
        auto r = s.run(cx, stat);
        stat.wallMs = msSince(t0);
        cx.stats.push_back(std::move(stat));
        if (!r)
            return r.error();
        const std::string &name = cx.stats.back().pass;
        if (hook)
            hook(name, cx);
        if (cx.opts.verifyBetween)
            if (auto v = checkInvariants(name, cx); !v)
                return v.error();
    }
    return Ok{};
}

} // namespace

CompileResult<Ok>
raceCheckStage(CompileContext &cx, PassStat &stat)
{
    if (!cx.hasProgram)
        return compileError("race-check", "no program to analyze");
    const analysis::ProgramFacts &facts = programFacts(cx);
    const analysis::RaceReport report =
        analysis::analyzeRaces(cx.program, facts);
    stat.counters["classes"] = static_cast<double>(report.classes);
    stat.counters["pairs"] = static_cast<double>(report.pairsAnalyzed);
    stat.counters["product_states"] =
        static_cast<double>(report.productStates);
    stat.counters["races"] = static_cast<double>(report.diags.errorCount());
    stat.counters["covered"] = static_cast<double>(report.covered.size());
    if (report.baseErrors) {
        analysis::AnalyzeOptions errorsOnly;
        errorsOnly.warnings = false;
        return compileError(
            "race-check",
            cat("emitted program fails static verification:\n",
                analysis::analyze(facts, errorsOnly)
                    .formatted(&cx.program)));
    }
    if (report.diags.hasErrors())
        return compileError(
            "race-check",
            cat("emitted program fails cross-stream race "
                "analysis:\n",
                report.diags.formatted(&cx.program)));
    return Ok{};
}

std::string
statsJson(const std::vector<PassStat> &stats,
          const std::vector<ExactLoopStat> &loops)
{
    std::ostringstream os;
    os << "{\n  \"schema\": 2,\n  \"passes\": [\n";
    for (std::size_t i = 0; i < stats.size(); ++i) {
        const PassStat &s = stats[i];
        os << "    {\"pass\": \"" << s.pass << "\", \"wall_ms\": "
           << s.wallMs << ", \"counters\": {";
        bool first = true;
        for (const auto &[k, v] : s.counters) {
            if (!first)
                os << ", ";
            os << "\"" << k << "\": " << v;
            first = false;
        }
        os << "}}" << (i + 1 < stats.size() ? "," : "") << "\n";
    }
    os << "  ]";
    if (!loops.empty()) {
        // One object per line so CLI tests and the ci gap-report can
        // grep/sed loop records without a JSON parser.
        unsigned timeouts = 0;
        os << ",\n  \"loops\": [\n";
        for (std::size_t i = 0; i < loops.size(); ++i) {
            const ExactLoopStat &l = loops[i];
            timeouts += l.timedOut ? 1 : 0;
            os << "    {\"block\": \"" << l.block << "\", "
               << "\"loop\": " << (l.loop ? "true" : "false") << ", "
               << "\"tier\": \"" << l.tier << "\", "
               << "\"ops\": " << l.ops << ", "
               << "\"res_mii\": " << l.resMii << ", "
               << "\"rec_mii\": " << l.recMii << ", "
               << "\"mii\": " << l.mii << ", "
               << "\"heuristic_ii\": " << l.heuristicIi << ", "
               << "\"achieved_ii\": " << l.achievedIi << ", "
               << "\"minimal_ii\": " << l.minimalIi << ", "
               << "\"optimality_gap\": " << l.optimalityGap() << ", "
               << "\"proven\": " << (l.proven ? "true" : "false")
               << ", "
               << "\"timeout\": " << (l.timedOut ? "true" : "false")
               << ", "
               << "\"nodes\": " << l.nodes << ", "
               << "\"solve_ms\": " << l.solveMs << "}"
               << (i + 1 < loops.size() ? "," : "") << "\n";
        }
        os << "  ],\n  \"exact_timeouts\": " << timeouts;
    }
    os << "\n}\n";
    return os.str();
}

PackFn
packStrategyByName(const std::string &name)
{
    if (name == "stacked")
        return packStacked;
    if (name == "first-fit")
        return packFirstFit;
    if (name == "skyline")
        return packSkyline;
    if (name == "balanced-groups")
        return packBalancedGroups;
    if (name == "exhaustive")
        return packExhaustive;
    return nullptr;
}

CompileResult<CodegenResult>
Compiler::compile(IrProgram ir)
{
    cx_ = CompileContext{};
    cx_.opts = opts_;
    cx_.ir = std::move(ir);
    const bool exact = opts_.schedule == ScheduleTier::Exact;
    if (auto r = runStages(
            {{"validate-ir", validateIrStage},
             {"merge-blocks", mergeBlocksStage, opts_.mergeBlocks},
             {"regalloc", regAllocStage},
             {"build-ddg", buildDdgStage},
             {"list-schedule", listScheduleStage, !exact},
             {"exact-schedule", exactScheduleStage, exact},
             {"codegen", codegenStage},
             {"verify", verifyStage, opts_.verify},
             {"race-check", raceCheckStage, opts_.analyzeRace}},
            cx_, hook_);
        !r)
        return r.error();
    return cx_.code;
}

CompileResult<Program>
Compiler::compileLoop(PipelineLoop loop)
{
    cx_ = CompileContext{};
    cx_.opts = opts_;
    cx_.loop = std::move(loop);
    if (auto r = runStages(
            {{"modulo", moduloStage},
             {"verify", verifyStage, opts_.verify},
             {"race-check", raceCheckStage, opts_.analyzeRace}},
            cx_, hook_);
        !r)
        return r.error();
    return cx_.program;
}

CompileResult<Composed>
Compiler::compose(std::vector<IrProgram> threads,
                  const std::string &strategy)
{
    cx_ = CompileContext{};
    cx_.opts = opts_;
    cx_.threads = std::move(threads);
    cx_.packStrategy = strategy;
    if (auto r = runStages(
            {{"tile", tileStage},
             {"pack", packStage},
             {"compose", composeStage},
             {"verify", verifyStage, opts_.verify},
             {"race-check", raceCheckStage, opts_.analyzeRace}},
            cx_, hook_);
        !r)
        return r.error();
    return cx_.composed;
}

} // namespace ximd::sched
