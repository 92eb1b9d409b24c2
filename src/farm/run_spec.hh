/**
 * @file
 * The unit of batch simulation: one fully-described run.
 *
 * A RunSpec is a value object naming everything a worker thread needs
 * to execute one simulation: a shared immutable PreparedProgram, a
 * MachineConfig carried by value (mode, observers, seed, cycle
 * budget), and an optional fixture factory for jobs that need devices
 * attached or outputs checked. Because the spec owns nothing mutable
 * and the program is shared read-only, any thread may execute any spec
 * at any time — determinism is a property of the spec, not of the
 * schedule (DESIGN.md section 8).
 *
 * A spec whose construction already failed (e.g. its assembly file did
 * not parse) carries the structured diagnostic in `loadError`; the
 * farm turns it into a failed JobResult without running anything, so
 * one bad program fails one job rather than the whole sweep.
 */

#ifndef XIMD_FARM_RUN_SPEC_HH
#define XIMD_FARM_RUN_SPEC_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostics.hh"
#include "core/arch_view.hh"
#include "core/machine.hh"
#include "core/machine_config.hh"
#include "core/run_result.hh"
#include "core/stats.hh"
#include "isa/decoded_program.hh"
#include "support/types.hh"

namespace ximd::farm {

struct RunSpec;

/**
 * Per-job environment, constructed on the worker thread just before
 * the run. Fixtures own whatever devices the job attaches (I/O ports,
 * scripted arrival schedules derived from the spec's seed) and get a
 * chance to validate machine state afterwards. One fixture instance
 * serves exactly one run; it is never shared.
 */
class JobFixture
{
  public:
    virtual ~JobFixture() = default;

    /** Attach devices / poke initial state before the run starts. */
    virtual void setUp(Machine &machine) { (void)machine; }

    /**
     * Inspect the machine after the run. Return an empty string when
     * the job passed, or a failure description (which becomes a
     * Check::RunFailed diagnostic on the JobResult).
     */
    virtual std::string check(const Machine &machine,
                              const RunResult &result)
    {
        (void)machine;
        (void)result;
        return {};
    }
};

/** Builds the fixture for a spec; called on the worker thread. */
using FixtureFactory =
    std::function<std::unique_ptr<JobFixture>(const RunSpec &)>;

/**
 * Pure post-run verification: reads only final architectural state
 * through ArchView, returns an empty string on pass or a failure
 * description (which becomes a Check::RunFailed diagnostic).
 *
 * This is the stateless counterpart to JobFixture::check. A fixture
 * holds per-run objects and may attach devices; a ResultCheck
 * consumes nothing but the end state. Prefer a ResultCheck unless the
 * job really needs setUp.
 * Checks run only for runs that halt cleanly — a fault or an
 * exhausted cycle budget already failed the job.
 */
using ResultCheck =
    std::function<std::string(const ArchView &, const RunResult &)>;

/** Everything needed to execute one simulation. */
struct RunSpec
{
    /** Unique, stable job name ("minmax/ximd/n=1024/seed=7"). */
    std::string name;

    /** Shared immutable program; many specs may point at one. */
    std::shared_ptr<const PreparedProgram> program;

    /** By-value machine parameters, including mode and seed. */
    MachineConfig config;

    /** Cycle budget; 0 uses config.defaultMaxCycles. */
    Cycle maxCycles = 0;

    /** Set when building the spec itself failed; the job won't run. */
    std::optional<analysis::Diagnostic> loadError;

    /** Optional per-run environment builder (may be empty). */
    FixtureFactory fixture;

    /** Optional post-run state check (may be empty). */
    ResultCheck check;

    /// @name Checkpoint / resume (src/snapshot/).
    ///
    /// Checkpointing changes nothing about the result: the job's
    /// statsJson and final state are byte-identical with and without
    /// it, because a snapshot boundary is invisible to the machine.
    /// @{
    /** Write a checkpoint every N executed cycles (0: never). */
    Cycle checkpointEvery = 0;

    /** Snapshot file periodic checkpoints overwrite. */
    std::string checkpointPath;

    /** Snapshot file to restore (after fixture setUp) before running. */
    std::string resumeFrom;
    /// @}
};

/** Outcome of one RunSpec. */
struct JobResult
{
    std::string name;

    /** True when a machine actually executed (no load error). */
    bool ran = false;

    RunResult run;

    /** Final collected statistics (meaningful when `ran`). */
    RunStats stats{1};

    /**
     * Effective execution backend that drove the run ("interp" /
     * "threaded") — the configured one after any observer-fidelity
     * demotion. Meaningful when `ran`.
     */
    std::string backend;

    /**
     * stats.json(cycleTimeNs) captured at completion. A pure function
     * of the RunSpec — byte-identical across thread counts — which is
     * what the determinism tests compare.
     */
    std::string statsJson;

    /** Structured failure: load error, fault, wedge, or check fail. */
    std::optional<analysis::Diagnostic> error;

    /**
     * Hash of the final architectural contents (registers, memory,
     * condition codes; see MachineCore::archStateHash). Meaningful
     * when `ran`; the campaign engine and differential tests compare
     * these across runs.
     */
    std::uint64_t archHash = 0;

    /** Host wall time spent on this job (informational only). */
    double hostMillis = 0.0;

    bool ok() const { return ran && !error.has_value(); }
};

/** Outcome of a whole batch, in spec order. */
struct BatchResult
{
    std::vector<JobResult> jobs;

    /** Worker threads actually used. */
    unsigned threads = 1;

    /** Host wall time for the whole batch (informational only). */
    double wallMillis = 0.0;

    /** Number of jobs with a structured failure. */
    std::size_t failures() const;

    bool allOk() const { return failures() == 0; }

    /**
     * Fold of every ran job's stats via RunStats::merge — the
     * whole-sweep operation mix.
     */
    RunStats merged() const;

    /**
     * Aggregate sweep report as a JSON object: per-job results in spec
     * order plus the merged totals. @p includeTiming controls the
     * host-timing fields; leave it off to get output that is
     * byte-identical across thread counts and hosts.
     */
    std::string json(bool includeTiming = true) const;
};

} // namespace ximd::farm

#endif // XIMD_FARM_RUN_SPEC_HH
