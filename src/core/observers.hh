/**
 * @file
 * The stock observers: partition tracking, statistics, tracing.
 *
 * These perform, through the CycleObserver interface, the stock
 * observation of a run. Machine (core/machine.hh) owns the observed
 * objects (PartitionTracker, RunStats, Trace) and attaches these
 * adapters only when the corresponding MachineConfig switch is on, so
 * a bare core carries no observation cost.
 */

#ifndef XIMD_CORE_OBSERVERS_HH
#define XIMD_CORE_OBSERVERS_HH

#include <string>

#include "core/observer.hh"
#include "core/partition.hh"
#include "core/stats.hh"
#include "core/trace.hh"

namespace ximd {

/** Folds each committed cycle's control behaviour into a tracker. */
class PartitionObserver : public CycleObserver
{
  public:
    explicit PartitionObserver(PartitionTracker &tracker)
        : tracker_(tracker)
    {
    }

    const char *observerName() const override { return "partition"; }
    bool acceptsBlocks() const override { return true; }
    bool wantsPartitions() const override { return true; }

    void onCommit(const MachineCore &core,
                  const std::vector<FuEvent> &events) override;
    void onBlock(const MachineCore &core,
                 const BlockStats &blk) override;

    // onFastForward: nothing to do — a busy-wait fixpoint repeats the
    // control behaviour of the cycle that was stepped just before the
    // skip, so the tracker has already converged.

  private:
    PartitionTracker &tracker_;
    std::vector<PartitionTracker::FuControl> controls_;
};

/** Accumulates RunStats; understands bulk fast-forward accounting. */
class StatsObserver : public CycleObserver
{
  public:
    /**
     * @param stats         accumulator to fill.
     * @param tracker       partition source for the per-cycle stream
     *                      histogram; may be null.
     * @param fixedStreams  when @p tracker is null and this is > 0,
     *                      count this constant stream count instead
     *                      (the VLIW machine's single stream). 0
     *                      disables partition counting.
     * @param countBusyWaits whether self-loop conditional branches
     *                      accrue busy-wait FU-cycles (XIMD only).
     */
    StatsObserver(RunStats &stats, const PartitionTracker *tracker,
                  unsigned fixedStreams, bool countBusyWaits)
        : stats_(stats), tracker_(tracker), fixedStreams_(fixedStreams),
          countBusyWaits_(countBusyWaits)
    {
    }

    const char *observerName() const override { return "stats"; }
    bool acceptsBlocks() const override { return true; }
    bool wantsPartitions() const override { return tracker_ != nullptr; }

    void onCycle(const MachineCore &core) override;
    void onCommit(const MachineCore &core,
                  const std::vector<FuEvent> &events) override;
    void onFastForward(const MachineCore &core, Cycle skipped,
                       const std::vector<FuEvent> &events) override;
    void onBlock(const MachineCore &core,
                 const BlockStats &blk) override;

  private:
    unsigned streams() const
    {
        return tracker_ ? tracker_->numSsets() : fixedStreams_;
    }

    RunStats &stats_;
    const PartitionTracker *tracker_;
    unsigned fixedStreams_;
    bool countBusyWaits_;
};

/** Records the Figure-10 address trace of an XIMD core. */
class TraceObserver : public CycleObserver
{
  public:
    TraceObserver(Trace &trace, const PartitionTracker &tracker)
        : trace_(trace), tracker_(tracker)
    {
    }

    // Keeps per-cycle records: acceptsBlocks() stays false, demoting a
    // threaded core back to per-cycle interpretation.
    const char *observerName() const override { return "trace"; }

    void onCycle(const MachineCore &core) override;
    void onFastForward(const MachineCore &core, Cycle skipped,
                       const std::vector<FuEvent> &events) override;

  private:
    Trace &trace_;
    const PartitionTracker &tracker_;
};

/** Records the trace of a VLIW core: one PC, every lane always live. */
class VliwTraceObserver : public CycleObserver
{
  public:
    explicit VliwTraceObserver(Trace &trace) : trace_(trace) {}

    const char *observerName() const override { return "vliw-trace"; }

    void onCycle(const MachineCore &core) override;
    void onFastForward(const MachineCore &core, Cycle skipped,
                       const std::vector<FuEvent> &events) override;

  private:
    TraceEntry snapshot(const MachineCore &core);

    Trace &trace_;
    std::string partition_; ///< "{0,1,...,n-1}", built on first use.
};

} // namespace ximd

#endif // XIMD_CORE_OBSERVERS_HH
