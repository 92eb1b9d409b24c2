#include "sched/pipeline.hh"

#include <chrono>
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

class ValidateIrPass : public Pass
{
  public:
    std::string name() const override { return "validate-ir"; }

    CompileResult<Ok>
    run(CompileContext &cx, PassStat &stat) override
    {
        if (auto v = cx.ir.validateChecked(); !v) {
            CompileError e = v.error();
            e.pass = name();
            return e;
        }
        stat.counters["blocks"] =
            static_cast<double>(cx.ir.blocks.size());
        stat.counters["ops"] = static_cast<double>(totalOps(cx.ir));
        stat.counters["vregs"] = cx.ir.numVregs;
        return Ok{};
    }
};

class MergeBlocksPass : public Pass
{
  public:
    std::string name() const override { return "merge-blocks"; }

    CompileResult<Ok>
    run(CompileContext &cx, PassStat &stat) override
    {
        const auto before = cx.ir.blocks.size();
        cx.ir = mergeStraightLineBlocks(std::move(cx.ir));
        stat.counters["blocks_before"] = static_cast<double>(before);
        stat.counters["blocks_after"] =
            static_cast<double>(cx.ir.blocks.size());
        return Ok{};
    }
};

class RegAllocPass : public Pass
{
  public:
    std::string name() const override { return "regalloc"; }

    CompileResult<Ok>
    run(CompileContext &cx, PassStat &stat) override
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
};

class BuildDdgPass : public Pass
{
  public:
    std::string name() const override { return "build-ddg"; }

    CompileResult<Ok>
    run(CompileContext &cx, PassStat &stat) override
    {
        cx.ddgs.clear();
        std::size_t edges = 0;
        int critical = 0;
        for (const IrBlock &b : cx.ir.blocks) {
            cx.ddgs.emplace_back(b, cx.opts.rawLatency);
            edges += cx.ddgs.back().edges().size();
            critical = std::max(
                critical, cx.ddgs.back().criticalPathLength());
        }
        stat.counters["edges"] = static_cast<double>(edges);
        stat.counters["critical_path"] = critical;
        return Ok{};
    }
};

class ListSchedulePass : public Pass
{
  public:
    std::string name() const override { return "list-schedule"; }

    CompileResult<Ok>
    run(CompileContext &cx, PassStat &stat) override
    {
        cx.schedules.clear();
        std::size_t rows = 0;
        for (const IrBlock &b : cx.ir.blocks) {
            auto s = scheduleBlockChecked(b, cx.opts.width,
                                          cx.opts.rawLatency);
            if (!s)
                return s.error();
            rows += s.value().numRows();
            cx.schedules.push_back(std::move(s).value());
        }
        stat.counters["ops_scheduled"] =
            static_cast<double>(totalOps(cx.ir));
        stat.counters["rows"] = static_cast<double>(rows);
        return Ok{};
    }
};

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

class ExactSchedulePass : public Pass
{
  public:
    std::string name() const override { return "exact-schedule"; }

    CompileResult<Ok>
    run(CompileContext &cx, PassStat &stat) override
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
        stat.counters["ops_scheduled"] =
            static_cast<double>(totalOps(cx.ir));
        stat.counters["rows"] = static_cast<double>(rows);
        stat.counters["exact_wins"] = exactWins;
        stat.counters["exact_timeouts"] = timeouts;
        stat.counters["proven_minimal"] = proven;
        stat.counters["optimality_gap"] = gap;
        return Ok{};
    }
};

class CodegenPass : public Pass
{
  public:
    std::string name() const override { return "codegen"; }

    CompileResult<Ok>
    run(CompileContext &cx, PassStat &stat) override
    {
        auto code =
            emitScheduled(cx.ir, cx.schedules, cx.opts.codegen());
        if (!code)
            return code.error();
        cx.code = std::move(code).value();
        cx.setProgram(cx.code.program);
        stat.counters["rows"] =
            static_cast<double>(cx.program.size());
        stat.counters["raw_latency"] = cx.opts.rawLatency;
        return Ok{};
    }
};

class ModuloPass : public Pass
{
  public:
    std::string name() const override { return "modulo"; }

    CompileResult<Ok>
    run(CompileContext &cx, PassStat &stat) override
    {
        auto prog = pipelineLoopChecked(cx.loop, cx.opts.width,
                                        &cx.pipeInfo);
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
};

class TilePass : public Pass
{
  public:
    std::string name() const override { return "tile"; }

    CompileResult<Ok>
    run(CompileContext &cx, PassStat &stat) override
    {
        for (const IrProgram &t : cx.threads)
            if (auto v = t.validateChecked(); !v)
                return v.error();
        cx.tiles = generateTiles(cx.threads, cx.opts.width);
        std::size_t impls = 0;
        for (const TileSet &s : cx.tiles)
            impls += s.impls.size();
        stat.counters["threads"] =
            static_cast<double>(cx.threads.size());
        stat.counters["tiles"] = static_cast<double>(impls);
        return Ok{};
    }
};

class PackPass : public Pass
{
  public:
    explicit PackPass(std::string strategy)
        : strategy_(std::move(strategy))
    {
    }

    std::string name() const override { return "pack"; }

    CompileResult<Ok>
    run(CompileContext &cx, PassStat &stat) override
    {
        PackFn fn = packStrategyByName(strategy_);
        if (!fn)
            return compileError(
                "pack", cat("unknown pack strategy '", strategy_,
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

  private:
    std::string strategy_;
};

class ComposePass : public Pass
{
  public:
    explicit ComposePass(ComposeOptions opts) : opts_(opts) {}

    std::string name() const override { return "compose"; }

    CompileResult<Ok>
    run(CompileContext &cx, PassStat &stat) override
    {
        auto comp = composeThreadsChecked(cx.threads, cx.packing,
                                          cx.opts.width, opts_);
        if (!comp)
            return comp.error();
        cx.composed = std::move(comp).value();
        cx.setProgram(cx.composed.program);
        stat.counters["rows"] =
            static_cast<double>(cx.program.size());
        stat.counters["threads"] =
            static_cast<double>(cx.composed.threads.size());
        return Ok{};
    }

  private:
    ComposeOptions opts_;
};

/** cx.program's facts, built on first use. */
const analysis::ProgramFacts &
programFacts(CompileContext &cx)
{
    if (!cx.facts)
        cx.facts = analysis::buildFacts(cx.program);
    return *cx.facts;
}

class VerifyPass : public Pass
{
  public:
    std::string name() const override { return "verify"; }

    CompileResult<Ok>
    run(CompileContext &cx, PassStat &stat) override
    {
        if (!cx.hasProgram)
            return compileError("verify", "no program to verify");
        const analysis::DiagnosticList &diags = programFacts(cx).base;
        stat.counters["errors"] =
            static_cast<double>(diags.errorCount());
        stat.counters["warnings"] =
            static_cast<double>(diags.warningCount());
        if (diags.hasErrors())
            return compileError(
                "verify", cat("emitted program fails static "
                              "verification:\n",
                              diags.formatted(&cx.program)));
        return Ok{};
    }
};

class RaceCheckPass : public Pass
{
  public:
    std::string name() const override { return "race-check"; }

    CompileResult<Ok>
    run(CompileContext &cx, PassStat &stat) override
    {
        if (!cx.hasProgram)
            return compileError("race-check",
                                "no program to analyze");
        const analysis::ProgramFacts &facts = programFacts(cx);
        const analysis::RaceReport report =
            analysis::analyzeRaces(cx.program, facts);
        stat.counters["classes"] =
            static_cast<double>(report.classes);
        stat.counters["pairs"] =
            static_cast<double>(report.pairsAnalyzed);
        stat.counters["product_states"] =
            static_cast<double>(report.productStates);
        stat.counters["races"] =
            static_cast<double>(report.diags.errorCount());
        stat.counters["covered"] =
            static_cast<double>(report.covered.size());
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
};

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

} // namespace

void
PassManager::add(std::unique_ptr<Pass> pass)
{
    passes_.push_back(std::move(pass));
}

std::vector<std::string>
PassManager::passNames() const
{
    std::vector<std::string> names;
    for (const auto &p : passes_)
        names.push_back(p->name());
    return names;
}

CompileResult<Ok>
PassManager::run(CompileContext &cx)
{
    for (const auto &pass : passes_) {
        PassStat stat;
        stat.pass = pass->name();
        const auto t0 = std::chrono::steady_clock::now();
        auto r = pass->run(cx, stat);
        stat.wallMs = msSince(t0);
        cx.stats.push_back(std::move(stat));
        if (!r)
            return r.error();
        if (hook_)
            hook_(pass->name(), cx);
        if (cx.opts.verifyBetween)
            if (auto v = checkInvariants(pass->name(), cx); !v)
                return v.error();
    }
    return Ok{};
}

std::unique_ptr<Pass>
makeValidateIrPass()
{
    return std::make_unique<ValidateIrPass>();
}

std::unique_ptr<Pass>
makeMergeBlocksPass()
{
    return std::make_unique<MergeBlocksPass>();
}

std::unique_ptr<Pass>
makeRegAllocPass()
{
    return std::make_unique<RegAllocPass>();
}

std::unique_ptr<Pass>
makeBuildDdgPass()
{
    return std::make_unique<BuildDdgPass>();
}

std::unique_ptr<Pass>
makeListSchedulePass()
{
    return std::make_unique<ListSchedulePass>();
}

std::unique_ptr<Pass>
makeExactSchedulePass()
{
    return std::make_unique<ExactSchedulePass>();
}

std::unique_ptr<Pass>
makeCodegenPass()
{
    return std::make_unique<CodegenPass>();
}

std::unique_ptr<Pass>
makeModuloPass()
{
    return std::make_unique<ModuloPass>();
}

std::unique_ptr<Pass>
makeTilePass()
{
    return std::make_unique<TilePass>();
}

std::unique_ptr<Pass>
makePackPass(std::string strategy)
{
    return std::make_unique<PackPass>(std::move(strategy));
}

std::unique_ptr<Pass>
makeComposePass(ComposeOptions opts)
{
    return std::make_unique<ComposePass>(opts);
}

std::unique_ptr<Pass>
makeVerifyPass()
{
    return std::make_unique<VerifyPass>();
}

std::unique_ptr<Pass>
makeRaceCheckPass()
{
    return std::make_unique<RaceCheckPass>();
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

std::string
statsJson(const std::vector<PassStat> &stats)
{
    return statsJson(stats, {});
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

CompileResult<Ok>
Compiler::runPipeline(PassManager &pm)
{
    pm.setAfterPass(hook_);
    return pm.run(cx_);
}

CompileResult<CodegenResult>
Compiler::compile(IrProgram ir)
{
    cx_ = CompileContext{};
    cx_.opts = opts_;
    cx_.ir = std::move(ir);

    PassManager pm;
    pm.add(makeValidateIrPass());
    if (opts_.mergeBlocks)
        pm.add(makeMergeBlocksPass());
    pm.add(makeRegAllocPass());
    pm.add(makeBuildDdgPass());
    if (opts_.schedule == ScheduleTier::Exact)
        pm.add(makeExactSchedulePass());
    else
        pm.add(makeListSchedulePass());
    pm.add(makeCodegenPass());
    if (opts_.verify)
        pm.add(makeVerifyPass());
    if (opts_.analyzeRace)
        pm.add(makeRaceCheckPass());
    if (auto r = runPipeline(pm); !r)
        return r.error();
    return cx_.code;
}

CompileResult<Program>
Compiler::compileLoop(PipelineLoop loop)
{
    cx_ = CompileContext{};
    cx_.opts = opts_;
    cx_.loop = std::move(loop);

    PassManager pm;
    pm.add(makeModuloPass());
    if (opts_.verify)
        pm.add(makeVerifyPass());
    if (opts_.analyzeRace)
        pm.add(makeRaceCheckPass());
    if (auto r = runPipeline(pm); !r)
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

    PassManager pm;
    pm.add(makeTilePass());
    pm.add(makePackPass(strategy));
    pm.add(makeComposePass(opts_.compose()));
    if (opts_.verify)
        pm.add(makeVerifyPass());
    if (opts_.analyzeRace)
        pm.add(makeRaceCheckPass());
    if (auto r = runPipeline(pm); !r)
        return r.error();
    return cx_.composed;
}

} // namespace ximd::sched
