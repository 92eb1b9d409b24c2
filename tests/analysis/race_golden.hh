/**
 * @file
 * Shared fixture for the race-engine equivalence golden.
 *
 * raceGoldenCases() enumerates a deterministic program corpus: the
 * built-in workload grid, the shipped .ximd examples and xcc goldens,
 * random lockstep programs, random loops compiled on both scheduler
 * tiers, and the Livermore C kernels at three register windows.
 * serializeRaceCase() records, for each lockstep class, a digest of
 * every ClassIntervalAnalysis answer (regAt for every row and
 * register, and the per-parcel address, value and compare queries for
 * every member), then the full RaceReport. The regen tool committed
 * that text as golden/race_equivalence.golden; the equivalence test
 * recomputes it, so a change to the interval domain's layout or
 * worklist that alters any answer is caught.
 */

#ifndef XIMD_TESTS_ANALYSIS_RACE_GOLDEN_HH
#define XIMD_TESTS_ANALYSIS_RACE_GOLDEN_HH

#include <string>
#include <vector>

#include "isa/program.hh"

namespace ximd::analysis {

/** One corpus program and its stable name. */
struct RaceGoldenCase
{
    std::string name;
    Program program;
};

/** The full corpus (stable order and content). */
std::vector<RaceGoldenCase> raceGoldenCases();

/**
 * "== name ==" header, one "class" line per lockstep class, then the
 * race report: counts, sorted covered pairs, formatted diagnostics.
 */
std::string serializeRaceCase(const RaceGoldenCase &c);

} // namespace ximd::analysis

#endif // XIMD_TESTS_ANALYSIS_RACE_GOLDEN_HH
