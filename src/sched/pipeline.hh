/**
 * @file
 * The compiler's pass pipeline: an explicit, observable spine over
 * the sched stages.
 *
 * Historically each stage (ir validation, DDG construction, list
 * scheduling, code generation, modulo scheduling, tiling, packing,
 * composition) was a bare function call; drivers that wanted timing,
 * dumps, or uniform error reporting had to wrap every call site. The
 * pipeline reifies the stages as Pass objects run by a PassManager
 * over a shared CompileContext:
 *
 *   - every pass is timed (wall clock) and reports counters (ops
 *     scheduled, rows emitted, II/depth achieved, rows packed, ...);
 *   - a dump hook fires after every pass, so a driver can render the
 *     IR / DDG / program state at any pipeline point (xcc
 *     --dump-after=<pass>);
 *   - failures are structured CompileErrors (diag.hh), not throws;
 *   - with verifyBetween set, the manager re-validates the IR and
 *     runs the full static verifier (analysis::verify) over any
 *     emitted program after every pass — the compiler checks the
 *     contract it compiles to at every step, not only at the end.
 *
 * The Compiler facade assembles the standard pass sequences:
 *
 *   compile():     validate-ir [merge-blocks] regalloc build-ddg
 *                  list-schedule codegen [verify]
 *   compileLoop(): modulo [verify]
 *   compose():     tile pack compose [verify]
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
#include <memory>
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

/** Timing and counters for one executed pass. */
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

/** One pipeline stage. */
class Pass
{
  public:
    virtual ~Pass() = default;

    /** Stable pass name ("list-schedule", "codegen", ...). */
    virtual std::string name() const = 0;

    /** Transform @p cx; fill @p stat.counters with what happened. */
    virtual CompileResult<Ok> run(CompileContext &cx,
                                  PassStat &stat) = 0;
};

/** Called after each pass completes (dump hook). */
using PassHook =
    std::function<void(const std::string &pass,
                       const CompileContext &cx)>;

/** Runs passes in order: timing, hooks, inter-pass verification. */
class PassManager
{
  public:
    void add(std::unique_ptr<Pass> pass);

    /** Install the after-each-pass hook (dumps, tracing). */
    void setAfterPass(PassHook hook) { hook_ = std::move(hook); }

    /**
     * Run every pass over @p cx. Stops at the first failing pass;
     * cx.stats records one entry per pass that ran (the failing one
     * included). With cx.opts.verifyBetween, validates cx.ir and
     * statically verifies cx.program after every pass.
     */
    CompileResult<Ok> run(CompileContext &cx);

    /** Names of the registered passes, in order. */
    std::vector<std::string> passNames() const;

  private:
    std::vector<std::unique_ptr<Pass>> passes_;
    PassHook hook_;
};

/// @name Standard pass factories.
/// @{
std::unique_ptr<Pass> makeValidateIrPass();
std::unique_ptr<Pass> makeMergeBlocksPass();
std::unique_ptr<Pass> makeRegAllocPass();
std::unique_ptr<Pass> makeBuildDdgPass();
std::unique_ptr<Pass> makeListSchedulePass();
std::unique_ptr<Pass> makeExactSchedulePass();
std::unique_ptr<Pass> makeCodegenPass();
std::unique_ptr<Pass> makeModuloPass();
std::unique_ptr<Pass> makeTilePass();
std::unique_ptr<Pass> makePackPass(std::string strategy);
std::unique_ptr<Pass> makeComposePass(ComposeOptions opts = {});
std::unique_ptr<Pass> makeVerifyPass();
std::unique_ptr<Pass> makeRaceCheckPass();
/// @}

/**
 * Render cx.stats as JSON (xcc --stats-json), schema 2: a "schema"
 * tag, the per-pass timing/counters array, and — when @p loops is
 * non-empty — a per-loop optimality report ("loops") plus the
 * "exact_timeouts" total. Schema 1 was the untagged passes-only
 * shape emitted before the exact tier existed.
 */
std::string statsJson(const std::vector<PassStat> &stats,
                      const std::vector<ExactLoopStat> &loops);
std::string statsJson(const std::vector<PassStat> &stats);

/**
 * Facade over the standard pipelines. One Compiler instance holds the
 * options and the dump hook; each compile call builds the pass
 * sequence, runs it, and leaves the context (stats included)
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
    CompileResult<Ok> runPipeline(PassManager &pm);

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
