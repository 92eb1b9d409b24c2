/**
 * @file
 * Read-only view of final architectural state, independent of the
 * executor that produced it.
 *
 * Post-run result checks (farm/suite.cc's reference-model
 * comparisons, RunSpec::check in general) need exactly three things:
 * the program's symbol tables, named registers, and memory words.
 * This interface is RunSpec::check's argument instead of
 * `const Machine &`: a check reads only the *final* state, never
 * per-cycle events (unlike a device-attaching JobFixture), and a
 * caller can hand it another view of that state — the repository
 * benchmark wraps the Machine in one that corrupts every value read,
 * to prove the checks catch a wrong answer.
 *
 * Accessors fault (FatalError) on bad names or addresses, matching
 * MachineCore's behavior, so a buggy check fails its job with the
 * same message either way.
 */

#ifndef XIMD_CORE_ARCH_VIEW_HH
#define XIMD_CORE_ARCH_VIEW_HH

#include <string>

#include "isa/program.hh"
#include "support/types.hh"

namespace ximd {

class ArchView
{
  public:
    virtual ~ArchView() = default;

    /** The immutable program this state was produced by. */
    virtual const Program &program() const = 0;

    /** Read register @p name (faults when the program names none). */
    virtual Word readRegByName(const std::string &name) const = 0;

    /** Read a memory word (faults when out of range). */
    virtual Word peekMem(Addr addr) const = 0;
};

} // namespace ximd

#endif // XIMD_CORE_ARCH_VIEW_HH
