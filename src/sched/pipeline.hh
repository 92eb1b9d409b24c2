/**
 * @file
 * The compiler pipeline: the sched stages run in a fixed order over
 * one CompileContext.
 *
 * Each stage is a plain function that reads and extends the context
 * and fills its PassStat's counters (ops scheduled, rows emitted,
 * II/depth achieved, rows packed, ...). Compiler lists the stages of
 * each path, the optional ones under their PipelineOptions flags
 * (marked *):
 *
 *   compile():     validate-ir merge-blocks* regalloc build-ddg
 *                  list-schedule|exact-schedule codegen verify*
 *                  race-check*
 *   compileLoop(): modulo verify* race-check*
 *   compose():     tile pack compose verify* race-check*
 *
 * One loop runs every list: it times each stage (wall clock), records
 * its PassStat, stops at the first failure, which is a structured
 * CompileError (diag.hh), not a throw, and then fires the after-pass
 * hook, so a caller can render the IR / DDG / program at any point
 * (xcc --dump-after=<pass>). With verifyBetween it then re-validates
 * the IR and re-verifies any emitted program (and race-checks it when
 * analyzeRace is set), so the compiler checks the contract it
 * compiles to at every step, not only at the end.
 *
 * Byte-for-byte, compile()/compileLoop()/compose() produce the same
 * Programs as the single-call entry points (generateCodeChecked,
 * pipelineLoopChecked, composeThreadsChecked) — pinned by
 * tests/sched/test_pipeline_equivalence.
 */

#ifndef XIMD_SCHED_PIPELINE_HH
#define XIMD_SCHED_PIPELINE_HH

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/verify.hh"
#include "sched/codegen.hh"
#include "sched/compose.hh"
#include "sched/ddg.hh"
#include "sched/diag.hh"
#include "sched/exact.hh"
#include "sched/ir.hh"
#include "sched/list_scheduler.hh"
#include "sched/modulo.hh"
#include "sched/packer.hh"
#include "sched/tile.hh"

namespace ximd::sched {

/** Which scheduler fills block rows in compile(). */
enum class ScheduleTier
{
    Heuristic, ///< Greedy list scheduler (fast, no optimality claim).
    Exact,     ///< Branch-and-bound exact tier (sched/exact.hh),
               ///< falling back to the heuristic on budget timeout.
};

/** Options for a pipeline run (superset of CodegenOptions). */
struct PipelineOptions
{
    FuId width = kDefaultFus;

    /** Register window + spill policy for the regalloc pass. */
    RegAllocOptions alloc = {};

    bool nameVregs = true;
    unsigned rawLatency = 1;

    /** Run mergeStraightLineBlocks before scheduling. */
    bool mergeBlocks = false;

    /** Scheduler tier for compile() (xcc --schedule=...). */
    ScheduleTier schedule = ScheduleTier::Heuristic;

    /** Per-block budget for the exact tier. */
    ExactOptions exact;

    /** compose(): architectural registers reserved per thread. */
    RegId regsPerThread = 24;

    /** Re-verify IR and emitted program after every pass. */
    bool verifyBetween = false;

    /** Append a final static-verification pass. */
    bool verify = false;

    /**
     * Append a cross-stream race-analysis pass (analysis::analyzeRaces)
     * after verify: the emitted program must be free of cross-stream
     * races, lost signals, and unbounded busy-waits. With verifyBetween
     * also set, the race engine re-runs after every program-producing
     * pass.
     */
    bool analyzeRace = false;

    CodegenOptions
    codegen() const
    {
        CodegenOptions o;
        o.width = width;
        o.alloc = alloc;
        o.nameVregs = nameVregs;
        o.rawLatency = rawLatency;
        return o;
    }

    ComposeOptions
    compose() const
    {
        ComposeOptions c;
        c.regsPerThread = regsPerThread;
        c.spill = alloc.spill;
        c.spillBase = alloc.spillBase;
        c.spillSlotsPerThread = alloc.spillSlots;
        return c;
    }
};

/** Timing and counters for one executed stage ("pass" in the JSON). */
struct PassStat
{
    std::string pass;
    double wallMs = 0.0;
    std::map<std::string, double> counters;
};

/** State flowing through the pipeline. */
struct CompileContext
{
    PipelineOptions opts;

    // Block path.
    IrProgram ir;
    Allocation alloc;                    ///< Regalloc result.
    std::vector<Ddg> ddgs;               ///< One per block.
    std::vector<BlockSchedule> schedules; ///< One per block.
    CodegenResult code;

    // Loop path.
    PipelineLoop loop;
    PipelineInfo pipeInfo;

    // Compose path.
    std::vector<IrProgram> threads;
    std::string packStrategy; ///< packStrategyByName's key.
    std::vector<TileSet> tiles;
    PackResult packing;
    Composed composed;

    /** The final program (whichever path produced it). */
    Program program{1};
    bool hasProgram = false;

    /**
     * The checkers' shared facts about `program`, built by the first
     * of verify / race-check and read by the other. They own their
     * data, so reassigning the context is safe; setProgram drops them.
     */
    std::optional<analysis::ProgramFacts> facts;

    /** Replace the program; the old program's facts go with it. */
    void
    setProgram(Program p)
    {
        program = std::move(p);
        hasProgram = true;
        facts.reset();
    }

    std::vector<PassStat> stats;

    /**
     * Per-loop optimality report, one entry per block, filled by the
     * exact-schedule pass (and by modulo for the loop path, where
     * II = 1 is minimal by construction). Drives the "loops" section
     * of statsJson.
     */
    std::vector<ExactLoopStat> loopStats;
};

/** Called after each pass completes (dump hook). */
using PassHook =
    std::function<void(const std::string &pass,
                       const CompileContext &cx)>;

/**
 * The race-check stage: analysis::analyzeRaces over cx.program. It
 * fails with the base verifier's errors when the program has any,
 * and otherwise with any cross-stream race, lost signal or unbounded
 * busy-wait it finds.
 */
CompileResult<Ok> raceCheckStage(CompileContext &cx, PassStat &stat);

/**
 * Render cx.stats as JSON (xcc --stats-json), schema 2: a "schema"
 * tag, the per-pass timing/counters array, and — when @p loops is
 * non-empty — a per-loop optimality report ("loops") plus the
 * "exact_timeouts" total. Schema 1 was the untagged passes-only
 * shape emitted before the exact tier existed.
 */
std::string statsJson(const std::vector<PassStat> &stats,
                      const std::vector<ExactLoopStat> &loops);

/**
 * Facade over the standard pipelines. One Compiler instance holds the
 * options and the dump hook; each compile call runs its path's stage
 * list over a fresh context and leaves that context (stats included)
 * available via context().
 */
class Compiler
{
  public:
    explicit Compiler(PipelineOptions opts = {}) : opts_(opts) {}

    void setAfterPass(PassHook hook) { hook_ = std::move(hook); }

    /** Blocks -> scheduled VLIW-style program. */
    CompileResult<CodegenResult> compile(IrProgram ir);

    /** Counted loop -> modulo-scheduled (II = 1) program. */
    CompileResult<Program> compileLoop(PipelineLoop loop);

    /** Threads -> tiles -> packed strip -> composed XIMD program. */
    CompileResult<Composed> compose(std::vector<IrProgram> threads,
                                    const std::string &strategy);

    const CompileContext &context() const { return cx_; }
    const std::vector<PassStat> &stats() const { return cx_.stats; }
    std::string
    statsJson() const
    {
        return sched::statsJson(cx_.stats, cx_.loopStats);
    }

  private:
    PipelineOptions opts_;
    PassHook hook_;
    CompileContext cx_;
};

/** Pack-strategy lookup ("stacked", "first-fit", "skyline",
 *  "balanced-groups", "exhaustive"); null when unknown. */
using PackFn = PackResult (*)(const std::vector<TileSet> &, FuId);
PackFn packStrategyByName(const std::string &name);

} // namespace ximd::sched

#endif // XIMD_SCHED_PIPELINE_HH
