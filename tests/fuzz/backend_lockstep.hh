/**
 * @file
 * Interpreter-vs-threaded cut-point comparison shared by the backend
 * suites (Backend.* in test_core, BackendDifferential in test_fuzz).
 *
 * lockstepCompare() builds one machine per backend from the same
 * program and configuration, pauses both at the same cycle boundaries
 * and requires identical state at every cut, which catches
 * block-boundary bugs that a run-to-completion comparison would mask.
 */

#ifndef XIMD_TESTS_FUZZ_BACKEND_LOCKSTEP_HH
#define XIMD_TESTS_FUZZ_BACKEND_LOCKSTEP_HH

#include <functional>
#include <string>

#include "core/machine_config.hh"
#include "core/run_result.hh"
#include "isa/program.hh"

namespace ximd {

/**
 * Run @p prog under Backend::Interp and Backend::Threaded, both built
 * from @p config, `chunkAt(cut)` cycles per cut for at most @p maxCuts
 * cuts, and require at every cut the same stop reason, cycles run,
 * fault message, cycle, architectural and full state hashes (the
 * latter covers the done notification), statistics and SSET
 * partition. The comparison ends at the first cut that stops on
 * anything but the cycle budget, which must be @p end; running out of
 * cuts passes only when @p end is StopReason::MaxCycles. Failures are
 * fatal gtest failures labelled with @p label and the cut.
 */
void lockstepCompare(const Program &prog, const MachineConfig &config,
                     const std::string &label, int maxCuts,
                     const std::function<Cycle(int)> &chunkAt,
                     StopReason end = StopReason::Halted);

} // namespace ximd

#endif // XIMD_TESTS_FUZZ_BACKEND_LOCKSTEP_HH
