/**
 * @file
 * The shared execution core behind xsim and vsim.
 *
 * Both machines are the same datapath — global register file,
 * idealized shared memory, per-FU condition codes, write-back
 * pipeline — driven through the same five-phase cycle:
 *
 *   1. fetch:    each sequencer fetches the parcel addressed by its
 *                PC (XIMD: one PC per FU, and the sync bus takes each
 *                live parcel's SS field; VLIW: the single PC selects
 *                one row for every lane);
 *   2. sync:     synchronization signals distribute combinationally
 *                (XIMD only; a VLIW has no SS bus);
 *   3. execute:  data ops read beginning-of-cycle registers / memory
 *                and queue their writes in the pipeline;
 *   4. sequence: control ops select next PCs from beginning-of-cycle
 *                CC values and current-cycle SS values (XIMD: every
 *                live FU; VLIW: FU0's control op steers all lanes);
 *   5. commit:   queued register / memory / CC writes become visible;
 *                write-write races on one location fault.
 *
 * MachineCore owns that loop once; Mode::Ximd / Mode::Vliw select the
 * sequencing discipline. The inner loop runs entirely on predecoded
 * parcels (isa/decoded_program.hh) — no Parcel or Operand parsing per
 * cycle — and observation is externalized behind CycleObserver hooks
 * (core/observer.hh), so a core with no observers attached is a bare
 * interpreter.
 *
 * run() can additionally fast-forward busy-wait fixpoints: when every
 * live FU provably re-executes a self-looping nop parcel under
 * unchanging condition inputs, the remaining cycle budget is consumed
 * in O(1) while observers receive an equivalent bulk notification.
 * See DESIGN.md section 7 for the soundness argument.
 */

#ifndef XIMD_CORE_MACHINE_CORE_HH
#define XIMD_CORE_MACHINE_CORE_HH

#include <memory>
#include <string>
#include <vector>

#include "core/machine_config.hh"
#include "core/observer.hh"
#include "core/run_result.hh"
#include "isa/decoded_program.hh"
#include "isa/program.hh"
#include "sim/cond_codes.hh"
#include "sim/memory.hh"
#include "sim/register_file.hh"
#include "sim/sync_bus.hh"
#include "sim/write_pipeline.hh"
#include "support/state_io.hh"

namespace ximd {

class ExecBackend;
struct NextPc; // core/exec_backend.hh

/**
 * The execution engine behind Machine, for both disciplines.
 *
 * Thread-safety contract: a MachineCore is confined to one thread —
 * nothing in it is synchronized. What makes concurrent simulation
 * safe is what cores share and how: the PreparedProgram (program +
 * predecode) is immutable and accessed through const methods only, so
 * any number of cores on any threads may execute from one instance;
 * everything mutable (register file, memory, pipelines, observers,
 * per-cycle scratch) is owned per-core. Observers attach per-core and
 * are called only from the core's thread. See DESIGN.md section 8.
 */
class MachineCore
{
  public:
    /**
     * Build a core executing from a shared, already-prepared program.
     * The core keeps @p prepared alive; many cores (on many threads)
     * may share one instance. The discipline is `config.mode`;
     * Mode::Vliw rejects sync-signal conditions and non-BUSY sync
     * fields. Initial memory / register requests are applied.
     */
    MachineCore(std::shared_ptr<const PreparedProgram> prepared,
                MachineConfig config);

    // Observers hold references into the owning machine; the core is
    // pinned alongside them.
    MachineCore(const MachineCore &) = delete;
    MachineCore &operator=(const MachineCore &) = delete;

    ~MachineCore(); // out of line: backend_ points to an incomplete type

    /// @name Pre-run setup.
    /// @{
    Memory &memory() { return mem_; }
    RegisterFile &registers() { return regs_; }
    CondCodeFile &condCodes() { return ccs_; }
    const CondCodeFile &condCodes() const { return ccs_; }

    /** Map @p device at [lo, hi]; forwards to Memory::attachDevice. */
    void attachDevice(Addr lo, Addr hi, IoDevice *device);

    /** Attach an observation hook (not owned; called in order). */
    void addObserver(CycleObserver *observer);
    /// @}

    /// @name Execution.
    /// @{
    /**
     * Execute one cycle.
     * @return false when nothing ran (all FUs halted or faulted).
     */
    bool step();

    /** Run until halt/fault or @p maxCycles (0: config default). */
    RunResult run(Cycle maxCycles = 0);
    /// @}

    /// @name Execution backend (see core/exec_backend.hh).
    /// @{
    /** The backend the configuration asked for. */
    Backend selectedBackend() const { return config_.backend; }

    /**
     * The backend that will actually drive the next step()/run():
     * the selected one, demoted to Backend::Interp when
     * demotionReason() is nonempty.
     */
    Backend effectiveBackend() const;

    /** backendName(effectiveBackend()). */
    const char *effectiveBackendName() const;

    /**
     * Why the selected backend cannot run — empty when it can. A fast
     * backend needs block-fidelity observers (CycleObserver::
     * acceptsBlocks), no perturbation hooks, unit result latency,
     * combinational sync, and no device windows; the first violated
     * requirement is named, e.g. "observer 'trace' requires per-cycle
     * fidelity".
     */
    std::string demotionReason() const;
    /// @}

    /// @name Observation.
    /// @{
    const Program &program() const { return prepared_->program(); }

    /** The shared prepared program this core executes from. */
    const std::shared_ptr<const PreparedProgram> &prepared() const
    {
        return prepared_;
    }

    const MachineConfig &config() const { return config_; }
    Mode mode() const { return mode_; }
    FuId numFus() const { return prepared_->width(); }
    Cycle cycle() const { return cycle_; }
    InstAddr pc(FuId fu) const;
    const std::vector<InstAddr> &pcs() const { return pcs_; }
    bool haltedFu(FuId fu) const;
    bool allHalted() const;
    bool faulted() const { return faulted_; }
    const std::string &faultMessage() const { return faultMsg_; }

    /** Read a register by number. */
    Word readReg(RegId r) const { return regs_.peek(r); }

    /** Read a register by its symbolic program name; fatal if unknown. */
    Word readRegByName(const std::string &name) const;

    /** Read a memory word (RAM only). */
    Word peekMem(Addr addr) const { return mem_.peek(addr); }
    /// @}

    /// @name Fault injection (snapshot/fault.hh).
    /// @{
    /**
     * Force FU @p fu's sync signal to @p val for every cycle c with
     * c < @p untilCycle (a stuck-at SS line). The override is applied
     * after the executing parcels drive the bus, so branches and
     * barriers observe the stuck value; under registeredSync it
     * propagates into the next cycle's registered values the same way
     * a genuinely driven value would. Overrides expire on their own
     * and disable busy-wait fast-forward while active.
     */
    void forceSync(FuId fu, SyncVal val, Cycle untilCycle);

    /** True when any forceSync() override is still active. */
    bool hasSyncOverrides() const;
    /// @}

    /// @name Checkpointing (see DESIGN.md section 9).
    /// @{
    /**
     * Serialize the complete execution state: control state (cycle,
     * PCs, halt flags, fault state, registered-sync history, active
     * sync overrides) followed by every component's section. Does NOT
     * include the program or config — the snapshot layer records a
     * program digest and the config fields needed to validate a
     * restore target.
     */
    void saveState(StateWriter &w) const;

    /**
     * Restore state saved by saveState() into this core. The core
     * must have been built from an identical program and config
     * (validated structurally here — FU counts, memory size, latency —
     * and by digest in the snapshot layer). Throws FatalError on any
     * mismatch; the core may be left partially restored.
     */
    void loadState(StateReader &r);

    /** Stable 64-bit hash of the complete execution state. */
    std::uint64_t stateHash() const { return stateHashOf(*this); }

    /**
     * Hash of the architectural contents only: register values,
     * memory words, condition codes. Two runs that computed the same
     * results agree on this hash even when they took different paths
     * (used by the differential tests and fault-outcome triage).
     */
    std::uint64_t archStateHash() const;
    /// @}

  private:
    // The execution backends drive the five-phase loop directly over
    // the core's state; see the access contract in exec_backend.hh.
    friend class ExecBackend;
    friend class InterpBackend;
    friend class ThreadedBackend;

    void validateVliwProgram() const;
    void applyMemInit();
    void fault(const std::string &msg);

    /** (Re)instantiate backend_ when the effective kind changed. */
    void ensureBackend();

    /** Fill events_ from the cycle's fetch/sequence results. */
    void buildEvents();

    /** Notify observers once when the machine becomes done. */
    void notifyDone();

    /** Drop expired sync overrides; force the rest onto @p bus. */
    void applySyncOverrides(SyncBus &bus);

    /**
     * Prove the machine is in a busy-wait fixpoint and, if so, skip
     * ahead to @p limit, notifying observers in bulk.
     * @return true when the skip happened.
     */
    bool tryFastForward(Cycle limit);

    std::shared_ptr<const PreparedProgram> prepared_;
    /** Predecoded parcels of prepared_, cached for the hot loop. */
    const DecodedProgram *decoded_ = nullptr;
    MachineConfig config_;
    Mode mode_;

    RegisterFile regs_;
    Memory mem_;
    CondCodeFile ccs_;
    WritePipeline pipe_;
    SyncBus sync_;
    SyncBus regSync_; ///< Scratch bus for the registered-sync ablation.
    /** Previous-cycle SS values, used when config_.registeredSync. */
    std::vector<SyncVal> syncPrev_;

    std::vector<InstAddr> pcs_;
    std::vector<bool> haltedFus_;

    /** A stuck-at SS line: FU @p fu reads @p val while cycle < until. */
    struct SyncOverride
    {
        FuId fu;
        SyncVal val;
        Cycle until;
    };
    std::vector<SyncOverride> syncOverrides_;

    Cycle cycle_ = 0;
    bool faulted_ = false;
    std::string faultMsg_;
    bool doneNotified_ = false;

    std::vector<CycleObserver *> observers_;
    /** Subset of observers_ whose perturbs() returned true. */
    std::vector<CycleObserver *> perturbers_;

    /** Active execution backend (lazily built by ensureBackend()). */
    std::unique_ptr<ExecBackend> backend_;
    /** The kind backend_ implements (valid when backend_ != null). */
    Backend backendKind_ = Backend::Interp;

    // Per-cycle scratch, sized once (no allocation inside step()).
    std::vector<const DecodedParcel *> fetched_;
    std::vector<NextPc> next_;
    std::vector<FuEvent> events_;
    /** Last stepped cycle was a candidate busy-wait fixpoint. */
    bool spinHint_ = false;
};

} // namespace ximd

#endif // XIMD_CORE_MACHINE_CORE_HH
