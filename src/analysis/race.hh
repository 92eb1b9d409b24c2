/**
 * @file
 * Cross-stream happens-before / may-happen-in-parallel race engine.
 *
 * An XIMD program is a set of per-FU instruction streams whose only
 * ordering comes from three channels: lockstep time itself (every
 * sequencer steps once per cycle), the combinational SS bus, and
 * condition codes. This pass builds a sound model of those channels
 * and reports shared-state accesses whose relative order the model
 * cannot pin down:
 *
 *  1. FUs are first partitioned into *lockstep classes* (identical
 *     control columns ⇒ identical PC trajectories; see lockstep.hh).
 *     Accesses within one class interleave deterministically and are
 *     exempt.
 *  2. For every class pair a *synchronous product automaton* is
 *     explored: states are (rowA, rowB) pairs, both sides stepping
 *     every cycle from (0, 0). Sync branches evaluate tri-state
 *     against the partner's parcel (third parties are unknown), and
 *     branches with the *same predicate* on both sides (equal cc
 *     index, or equal sync condition) resolve jointly — this is what
 *     keeps barrier rows and shared-cc fan-out from exploding into
 *     false interleavings.
 *  3. A flag-handshake idiom (busy-poll a memory word that exactly
 *     one foreign store sets non-zero) is recognized and turned into
 *     a happens-before edge: the poll's exit states are gated on the
 *     partner being past its store.
 *  4. For each conflicting access pair (same register / overlapping
 *     memory interval / same cc, at least one write) the product
 *     states co-reachable with each access are classified as
 *     same-cycle / before / after / loop relative to the other site.
 *     A pair whose classification is unambiguous has a fixed order on
 *     every execution; anything else is a race.
 *
 * Memory addresses and busy-wait exit conditions are bounded with the
 * per-class interval domain (interval.hh), which also powers two
 * liveness checks: *lost signals* (a sync wait whose producer can no
 * longer drive DONE in any future) and *unbounded busy-waits* (a cc
 * poll whose compare is provably constant false).
 *
 * Soundness/precision contract (checked by tests/fuzz):
 *  - every same-cycle conflicting access pair observable on a real
 *    run of the unperturbed program corresponds to a reported
 *    diagnostic or a recorded covered() pair;
 *  - scheduler-emitted code (single lockstep class by construction)
 *    and the sync idioms used by the built-in workloads produce no
 *    findings.
 */

#ifndef XIMD_ANALYSIS_RACE_HH
#define XIMD_ANALYSIS_RACE_HH

#include <cstddef>
#include <vector>

#include "analysis/diagnostics.hh"
#include "analysis/verify.hh"
#include "isa/program.hh"

namespace ximd::analysis {

/** Race-engine knobs. */
struct RaceOptions
{
    /** Emit warning-severity findings (maybe-races, budget notes). */
    bool warnings = true;

    /**
     * Total product-state budget across all class pairs. When
     * exhausted the engine stops exploring, emits a race-budget
     * warning and moves the unresolved candidates to covered() so the
     * dynamic cross-check stays conservative.
     */
    std::size_t stateBudget = std::size_t{1} << 22;
};

/**
 * A pair of access sites proven benign (deterministic same-cycle
 * read-old, or ordered by a recognized handshake). Kept so the
 * dynamic RaceObserver can be cross-validated: every runtime event
 * must match either a diagnostic or a covered pair.
 */
struct SitePair
{
    InstAddr rowA = 0;
    int fuA = -1;
    InstAddr rowB = 0;
    int fuB = -1;
};

/** Everything the race engine found. */
struct RaceReport
{
    /** Races, lost signals, unbounded waits (and budget warnings). */
    DiagnosticList diags;

    /** Benign conflicting pairs (see SitePair). */
    std::vector<SitePair> covered;

    std::size_t classes = 0;       ///< Lockstep classes found.
    std::size_t pairsAnalyzed = 0; ///< Class pairs explored.
    std::size_t productStates = 0; ///< Product states visited (total).
    bool budgetExceeded = false;   ///< stateBudget ran out.

    /**
     * The base verifier's findings (ProgramFacts::base) hold errors,
     * so race analysis was skipped: its model assumes a structurally
     * valid program. diags is empty; a caller that must reject the
     * program reports those base errors (analyze(facts)) instead.
     */
    bool baseErrors = false;

    bool clean() const { return !baseErrors && diags.empty(); }
};

/**
 * Run the cross-stream race engine over @p prog. @p facts must come
 * from buildFacts(@p prog); the engine reads its base verdict, CFGs
 * and lockstep classes instead of recomputing them.
 */
RaceReport analyzeRaces(const Program &prog, const ProgramFacts &facts,
                        const RaceOptions &opts = {});

/** analyzeRaces(@p prog, buildFacts(@p prog), @p opts). */
RaceReport analyzeRaces(const Program &prog,
                        const RaceOptions &opts = {});

} // namespace ximd::analysis

#endif // XIMD_ANALYSIS_RACE_HH
