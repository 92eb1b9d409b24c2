/**
 * @file
 * The static program verifier: one entry point over every pass.
 *
 * analyze() never throws on a malformed program — it turns what it
 * finds into diagnostics, so tools can report *all* problems at once
 * instead of dying on the first. verify() is the strict form used as
 * a machine-checkable contract for compiler-emitted code: it throws
 * FatalError when any error-severity finding exists.
 *
 * Pass ordering (each pass feeds the next):
 *   1. structural  — parcel shapes (malformed data ops);
 *   2. cfg         — per-FU control-flow graphs, target validation,
 *                    unreachable-parcel detection;
 *   3. dataflow    — must-defined registers/CCs, liveness;
 *   4. sync_check  — cross-stream conflicts and deadlocks.
 *
 * buildFacts() runs them once and keeps what more than one checker
 * reads in a ProgramFacts: the CFGs, the lockstep classes and the
 * findings. analyze(), verify() and the race engine (race.hh) each
 * take the facts, so a caller that runs several of them analyzes
 * the program once.
 */

#ifndef XIMD_ANALYSIS_VERIFY_HH
#define XIMD_ANALYSIS_VERIFY_HH

#include "analysis/cfg.hh"
#include "analysis/diagnostics.hh"
#include "analysis/lockstep.hh"
#include "isa/program.hh"

namespace ximd::analysis {

/** Analysis knobs. */
struct AnalyzeOptions
{
    /** Emit warning-severity findings (errors are always emitted). */
    bool warnings = true;
};

/**
 * What the checkers share about one program. It owns its data and
 * points into no Program, so it may outlive or move away from the
 * Program it was built from; it describes that Program only.
 */
struct ProgramFacts
{
    ProgramCfg cfg;          ///< Per-FU control-flow graphs.
    LockstepClasses classes; ///< Lockstep partition of the FUs.
    DiagnosticList base;     ///< Every pass's findings, sorted.
};

/** Run every pass over @p prog once and keep the shared facts. */
ProgramFacts buildFacts(const Program &prog);

/** The findings in @p facts that @p opts asks for, sorted. */
DiagnosticList analyze(const ProgramFacts &facts,
                       const AnalyzeOptions &opts = {});

/** The same findings as analyze(buildFacts(@p prog), @p opts). */
DiagnosticList analyze(const Program &prog,
                       const AnalyzeOptions &opts = {});

/**
 * Throw FatalError (message = every error finding) when @p facts,
 * built from @p prog, hold error-severity findings; warnings are
 * ignored.
 */
void verify(const Program &prog, const ProgramFacts &facts);

/** verify(@p prog, buildFacts(@p prog)). */
void verify(const Program &prog);

/**
 * Self-check hook for compiler-emitted programs: verify() in debug
 * builds, no-op when NDEBUG is defined. Called from the scheduler's
 * code generator and thread composer so every Program they produce
 * is checked against the contract the moment it is built.
 */
void debugVerify(const Program &prog);

} // namespace ximd::analysis

#endif // XIMD_ANALYSIS_VERIFY_HH
