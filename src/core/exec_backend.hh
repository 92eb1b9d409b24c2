/**
 * @file
 * The pluggable execution-backend tier of MachineCore.
 *
 * MachineCore owns the machine state (register file, memory, condition
 * codes, write pipeline, sync bus, PCs, halt flags) and the observer
 * lists; an ExecBackend owns only *how* the five-phase cycle is driven
 * over that state:
 *
 *  - InterpBackend (core/interp_backend.hh) is the reference
 *    interpreter — the literal five-phase loop, firing every observer
 *    hook each cycle. It is the semantic oracle: every other backend
 *    is tested against it.
 *  - ThreadedBackend (core/threaded_backend.hh) dispatches
 *    token-threaded execute records flattened per FU stream
 *    (isa/decoded_program.hh FlatProgram), with superinstruction
 *    fusion for the busy-wait poll idiom. It reports observation in
 *    blocks (CycleObserver::onBlock) and must be architecturally
 *    indistinguishable from the interpreter.
 *
 * Access contract: backends are friends of MachineCore and of the
 * state components they accelerate (RegisterFile, Memory,
 * CondCodeFile). Direct member access is what a backend *is* — the
 * audited surface is this tier, not per-field accessors. A backend
 * must preserve, bit for bit, everything MachineCore::saveState()
 * serializes and everything archStateHash() covers: register / memory
 * / CC contents (including ever-written flags), read/write/load/store
 * counters, sync bus and registered-sync history, PCs, halt flags,
 * cycle number, and fault state. The differential suite
 * (tests/fuzz/test_backend_differential.cc) enforces this with
 * state-hash comparisons at randomized cut points.
 *
 * Backend selection and demotion live in MachineCore: the configured
 * backend (MachineConfig::backend) is demoted to the interpreter
 * whenever an attached observer or configuration needs per-cycle
 * fidelity — see MachineCore::demotionReason(). See DESIGN.md
 * section 12.
 */

#ifndef XIMD_CORE_EXEC_BACKEND_HH
#define XIMD_CORE_EXEC_BACKEND_HH

#include <memory>

#include "core/machine_core.hh"
#include "support/logging.hh"

namespace ximd {

/** Result of sequencing one parcel. */
struct NextPc
{
    bool halt = false;  ///< The FU stops after this cycle.
    bool taken = false; ///< Condition evaluated TRUE (t1 selected).
    InstAddr pc = 0;    ///< Next instruction address (when !halt).
};

/**
 * The per-FU sequencer of Figure 8: select the next PC of one
 * predecoded parcel between its two explicit branch targets, from the
 * beginning-of-cycle condition codes @p ccs and the current-cycle sync
 * signals @p ss. Shared by the interpreter loop, the busy-wait
 * fast-forward proof, and the threaded backend's resynchronization
 * path.
 */
inline NextPc
evalDecodedControl(const DecodedParcel &d, const CondCodeFile &ccs,
                   const SyncBus &ss)
{
    NextPc next;
    bool cond;
    switch (d.ckind) {
      case CondKind::Halt:
        next.halt = true;
        return next;
      case CondKind::Always:
        cond = true;
        break;
      case CondKind::CcTrue:
        cond = ccs.read(d.cindex);
        break;
      case CondKind::SyncDone:
        cond = ss.get(d.cindex) == SyncVal::Done;
        break;
      case CondKind::AllSync:
        cond = ss.allDone(d.cmask);
        break;
      case CondKind::AnySync:
        cond = ss.anyDone(d.cmask);
        break;
      default:
        panic("evalDecodedControl: bad condition kind");
    }
    next.taken = cond;
    next.pc = cond ? d.t1 : d.t2;
    return next;
}

/** Drives the five-phase cycle loop over a MachineCore's state. */
class ExecBackend
{
  public:
    explicit ExecBackend(MachineCore &core) : core_(core) {}
    virtual ~ExecBackend();

    ExecBackend(const ExecBackend &) = delete;
    ExecBackend &operator=(const ExecBackend &) = delete;

    /** "interp" / "threaded" (matches backendName()). */
    virtual const char *name() const = 0;

    /** (Re)build dispatch structures from the core's prepared program. */
    virtual void prepare() {}

    /**
     * Execute one cycle with full per-cycle observer fidelity.
     * @return false when nothing ran (all FUs halted or faulted).
     */
    virtual bool step() = 0;

    /**
     * Run until halt, fault, or the core's cycle counter reaches
     * @p limit. May batch cycles; must leave the core's serialized
     * state exactly as the interpreter would at the same cycle.
     */
    virtual void runTo(Cycle limit) = 0;

    /** The core's state was replaced wholesale (loadState). */
    virtual void onStateLoaded() {}

  protected:
    MachineCore &core_;
};

/** Instantiate the backend implementing @p kind for @p core. */
std::unique_ptr<ExecBackend> makeExecBackend(Backend kind,
                                             MachineCore &core);

} // namespace ximd

#endif // XIMD_CORE_EXEC_BACKEND_HH
