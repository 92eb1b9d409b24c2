/**
 * @file
 * The pluggable cycle-observation interface of the execution core.
 *
 * Observation (tracing, statistics, partition tracking) used to be
 * compiled into the machines' step() functions behind config booleans.
 * It is now externalized: MachineCore drives a list of CycleObserver
 * instances at fixed points of the cycle, and a core with no observers
 * attached pays nothing per cycle for observation.
 *
 * Callback contract (see DESIGN.md section 7):
 *
 *  - onCycle(core) fires at the beginning of every cycle that will
 *    execute (after the halted-and-drained check), before fetch. The
 *    core exposes beginning-of-cycle state: cycle(), pcs(), halted
 *    flags, condCodes().
 *  - onCommit(core, events) fires at the end of the same cycle, after
 *    writes committed and PCs advanced. `events` holds one FuEvent per
 *    FU describing what that FU executed. Not called for a cycle that
 *    faulted (the fault squashes the cycle's effects).
 *  - onFastForward(core, skipped, events) replaces `skipped`
 *    consecutive (onCycle, onCommit) pairs when the core proves the
 *    machine is in a busy-wait fixpoint: every skipped cycle would
 *    have produced exactly `events` and identical beginning-of-cycle
 *    state. Observers that keep per-cycle records must expand this
 *    bulk notification themselves.
 *  - onHalt(core) fires once per run, when the machine becomes
 *    architecturally done (all FUs halted and write-backs drained) or
 *    faults.
 *
 * Mutating observers (the fault-injection engine, src/snapshot/fault.hh)
 * additionally implement the perturbation hooks:
 *
 *  - perturbs() declares the intent to mutate; the core only pays for
 *    the mutable dispatch when at least one attached observer returns
 *    true.
 *  - onPerturb(core) fires right after onCycle() with a *mutable* core
 *    reference, before fetch, so injected register / CC / memory /
 *    sync corruption is visible to the cycle about to execute exactly
 *    as if the hardware bit had flipped between cycles.
 *  - nextWake(core) names the earliest future cycle at which the
 *    observer needs control again. Busy-wait fast-forward must not
 *    jump over a pending perturbation, so tryFastForward() caps the
 *    skip at the minimum nextWake() across observers (kNeverWake when
 *    the observer has no scheduled work).
 */

#ifndef XIMD_CORE_OBSERVER_HH
#define XIMD_CORE_OBSERVER_HH

#include <array>
#include <vector>

#include "isa/control_op.hh"
#include "isa/opcode.hh"
#include "support/types.hh"

namespace ximd {

class MachineCore;

/** nextWake() value meaning "no scheduled perturbation". */
inline constexpr Cycle kNeverWake = ~Cycle(0);

/**
 * Bulk accounting for a block of cycles executed by a fast backend
 * (core/exec_backend.hh). A block-capable observer receives one
 * onBlock() carrying the exact sums its per-cycle hooks would have
 * accumulated over the same cycles; the backend guarantees the block
 * never spans a fault (the faulting cycle's counts are excluded, as
 * onCommit() would have been skipped, and the backend reports that
 * cycle through onCycle() alone, as the interpreter does). The
 * threaded backend fills it once per block, at block exit, from
 * per-token execution and taken-branch counters.
 */
struct BlockStats
{
    Cycle cycles = 0;              ///< Committed cycles in the block.
    std::uint64_t parcels = 0;     ///< Executed parcels (incl. nops).
    /** Executed parcels by OpClass (indexed by static_cast). */
    std::array<std::uint64_t, 8> classCounts{};
    std::uint64_t condBranches = 0;
    std::uint64_t takenBranches = 0;
    std::uint64_t busyWaitFuCycles = 0;
    /**
     * Cycles spent with each beginning-of-cycle stream count, exactly
     * as StatsObserver::onCycle would have charged them. Index 0 is
     * unused (a block cycle always has a live FU).
     */
    std::array<Cycle, kMaxFus + 1> partitionCycles{};
    /**
     * SSET assignment after the block's last committed cycle (one id
     * per FU, -1 for halted), or null when the backend did not track
     * partitions. Lets PartitionObserver resynchronize its tracker.
     */
    const std::vector<int> *finalSsetIds = nullptr;
};

/** What one FU did during one committed cycle. */
struct FuEvent
{
    bool executed = false;     ///< FU fetched and executed a parcel.
    bool halted = false;       ///< FU halted this cycle.
    OpClass cls = OpClass::Nop; ///< Executed data-op class.
    bool conditional = false;  ///< Control op was conditional.
    bool taken = false;        ///< Condition selected T1.
    bool busyWait = false;     ///< Conditional branch back to own PC.
    InstAddr nextPc = 0;       ///< Resolved next address (when !halted).
    ControlOp ctrl;            ///< Executed control fields.
};

/** Observation hooks driven by MachineCore. All default to no-ops. */
class CycleObserver
{
  public:
    virtual ~CycleObserver() = default;

    /** Short identifier used in backend-demotion diagnostics. */
    virtual const char *observerName() const { return "observer"; }

    /**
     * Fidelity contract with fast execution backends. An observer
     * returning true promises that one onBlock() call is equivalent
     * to the per-cycle hook sequence it replaces; observers that keep
     * per-cycle records (traces, race checks) must return false, which
     * demotes a threaded core back to per-cycle interpretation.
     */
    virtual bool acceptsBlocks() const { return false; }

    /**
     * True when onBlock() needs partitionCycles / finalSsetIds filled
     * in (the backend skips SSET grouping when no observer asks).
     */
    virtual bool wantsPartitions() const { return false; }

    /** Bulk replacement for per-cycle hooks over a block of cycles. */
    virtual void onBlock(const MachineCore &core, const BlockStats &blk)
    {
        (void)core;
        (void)blk;
    }

    /** Beginning of a cycle that will execute, before fetch. */
    virtual void onCycle(const MachineCore &core) { (void)core; }

    /** End of a committed cycle; @p events has one entry per FU. */
    virtual void
    onCommit(const MachineCore &core, const std::vector<FuEvent> &events)
    {
        (void)core;
        (void)events;
    }

    /**
     * @p skipped busy-wait cycles were fast-forwarded; each would have
     * produced @p events and unchanged beginning-of-cycle state.
     */
    virtual void
    onFastForward(const MachineCore &core, Cycle skipped,
                  const std::vector<FuEvent> &events)
    {
        (void)core;
        (void)skipped;
        (void)events;
    }

    /** The machine became done (all halted + drained) or faulted. */
    virtual void onHalt(const MachineCore &core) { (void)core; }

    /// @name Perturbation hooks (fault injection).
    /// @{
    /** Declare intent to mutate the core from onPerturb(). */
    virtual bool perturbs() const { return false; }

    /** After onCycle(), before fetch, with a mutable core. */
    virtual void onPerturb(MachineCore &core) { (void)core; }

    /**
     * Earliest future cycle this observer must see executed one at a
     * time; fast-forward will not skip past it. kNeverWake: none.
     */
    virtual Cycle nextWake(const MachineCore &core) const
    {
        (void)core;
        return kNeverWake;
    }
    /// @}
};

} // namespace ximd

#endif // XIMD_CORE_OBSERVER_HH
