/**
 * @file
 * The unified simulator façade: one class, both disciplines.
 *
 * `Machine` is the public entry point for running a program: it owns a
 * MachineCore plus the stock observation objects (RunStats, Trace,
 * PartitionTracker) and wires the observers the MachineConfig asks
 * for. The sequencing discipline comes from `config.mode`, so the
 * same call site drives either machine:
 *
 *     Machine x(prog, MachineConfig::ximd().withTrace());
 *     Machine v(prog, MachineConfig::vliw().withStats());
 *
 * For batch work, construct from a shared PreparedProgram — any
 * number of Machines, on any threads, may execute from one prepared
 * instance (see farm/farm.hh):
 *
 *     auto shared = PreparedProgram::make(std::move(prog));
 *     Machine a(shared, cfgA);   // thread 1
 *     Machine b(shared, cfgB);   // thread 2
 *
 * Thread-safety contract: a Machine is confined to one thread; the
 * shared PreparedProgram is immutable; nothing else is shared. See
 * DESIGN.md section 8.
 */

#ifndef XIMD_CORE_MACHINE_HH
#define XIMD_CORE_MACHINE_HH

#include <memory>
#include <string>

#include "core/arch_view.hh"
#include "core/machine_config.hh"
#include "core/machine_core.hh"
#include "core/observers.hh"
#include "core/partition.hh"
#include "core/run_result.hh"
#include "core/stats.hh"
#include "core/trace.hh"
#include "isa/program.hh"

namespace ximd {

/** A fully-wired simulator: core + configured observers. */
class Machine : public ArchView
{
  public:
    /** Build around @p program (validated and predecoded here). */
    explicit Machine(Program program, MachineConfig config = {});

    /** Build around a shared, already-prepared program. */
    explicit Machine(std::shared_ptr<const PreparedProgram> prepared,
                     MachineConfig config = {});

    // The attached observers hold references into this object.
    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /// @name Pre-run setup.
    /// @{
    Memory &memory() { return core_.memory(); }
    RegisterFile &registers() { return core_.registers(); }
    CondCodeFile &condCodes() { return core_.condCodes(); }

    /** Map @p device at [lo, hi]; forwards to Memory::attachDevice. */
    void attachDevice(Addr lo, Addr hi, IoDevice *device)
    {
        core_.attachDevice(lo, hi, device);
    }

    /** Attach a custom observation hook (not owned). */
    void addObserver(CycleObserver *observer)
    {
        core_.addObserver(observer);
    }
    /// @}

    /// @name Execution.
    /// @{
    /**
     * Execute one cycle.
     * @return false when nothing ran (all FUs halted or faulted).
     */
    bool step() { return core_.step(); }

    /** Run until halt/fault or @p maxCycles (0: config default). */
    RunResult run(Cycle maxCycles = 0) { return core_.run(maxCycles); }
    /// @}

    /// @name Observation.
    /// @{
    const Program &program() const override
    {
        return core_.program();
    }
    const MachineConfig &config() const { return core_.config(); }
    Mode mode() const { return core_.mode(); }
    FuId numFus() const { return core_.numFus(); }
    Cycle cycle() const { return core_.cycle(); }
    InstAddr pc(FuId fu = 0) const { return core_.pc(fu); }
    bool halted(FuId fu) const { return core_.haltedFu(fu); }
    bool allHalted() const { return core_.allHalted(); }
    bool faulted() const { return core_.faulted(); }
    const std::string &faultMessage() const
    {
        return core_.faultMessage();
    }

    const RunStats &stats() const { return stats_; }
    const Trace &trace() const { return trace_; }
    const PartitionTracker &partitions() const { return partition_; }

    /** Read a register by number. */
    Word readReg(RegId r) const { return core_.readReg(r); }

    /** Read a register by its symbolic program name; fatal if unknown. */
    Word readRegByName(const std::string &name) const override
    {
        return core_.readRegByName(name);
    }

    /** Read a memory word (RAM only). */
    Word peekMem(Addr addr) const override
    {
        return core_.peekMem(addr);
    }

    /** The underlying execution core (advanced uses). */
    MachineCore &core() { return core_; }
    const MachineCore &core() const { return core_; }
    /// @}

    /// @name Checkpointing (see DESIGN.md section 9).
    ///
    /// snapshot::save() / snapshot::restore() (snapshot/snapshot.hh)
    /// are the public entry points; they wrap these in the versioned
    /// container format with program-digest validation.
    /// @{
    /** Stable 64-bit hash of the complete execution state. */
    std::uint64_t stateHash() const { return core_.stateHash(); }

    /** Hash of architectural contents only (regs, memory, CCs). */
    std::uint64_t archStateHash() const
    {
        return core_.archStateHash();
    }

    /** Serialize the stock observers' state (stats, trace, partition). */
    void saveObserverState(StateWriter &w) const;

    /**
     * Overwrite the stock observers' state with saved state. Restores
     * never merge: whatever this machine's observers accumulated
     * before the restore is discarded wholesale, so statistics and
     * traces continue exactly as the checkpointed run would have.
     */
    void loadObserverState(StateReader &r);
    /// @}

  private:
    void attachConfiguredObservers();

    MachineCore core_;

    PartitionTracker partition_;
    Trace trace_;
    RunStats stats_;

    PartitionObserver partitionObserver_;
    StatsObserver statsObserver_;
    TraceObserver traceObserver_;         ///< XIMD-mode trace.
    VliwTraceObserver vliwTraceObserver_; ///< VLIW-mode trace.
};

} // namespace ximd

#endif // XIMD_CORE_MACHINE_HH
