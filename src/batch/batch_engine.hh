/**
 * @file
 * Batched structure-of-arrays lockstep execution of many machines.
 *
 * The farm's scalar path pays a fixed cost per job that has nothing to
 * do with the job's cycle count: the threaded backend builds a
 * per-core token table and the Machine wires its observers. Memory is
 * not part of that cost: sim/Memory is paged like the lanes below, so
 * a scalar job's construction and archStateHash() cost O(pages
 * touched) too, and the scalar farm runs within about 1.1x of the
 * widest engine (bench_batch_throughput).
 *
 * BatchEngine amortizes the remaining set-up across N lanes that share
 * one immutable PreparedProgram:
 *
 *  - per-lane register files, condition codes, PCs, live masks, cycle
 *    budgets and partition histograms live in contiguous per-lane
 *    arrays owned by the engine (structure-of-arrays, one allocation
 *    for the whole batch, reused as lanes retire and refill);
 *  - execution dispatches directly over the shared FlatProgram — its
 *    operands are register *indices*, not per-core pointers, so a lane
 *    needs zero per-job token preparation;
 *  - lane memory is paged (4096-word pages allocated on first store),
 *    so resetting a retired lane and hashing its final contents cost
 *    O(pages touched), not O(memWords) — while loads of untouched
 *    pages still read the architectural zero;
 *  - finished or faulted lanes are masked out of the lockstep loop,
 *    retire their LaneResult, and are immediately refilled from the
 *    pending-job queue.
 *
 * Fidelity contract: a lane's RunResult, RunStats and archStateHash
 * are bit-identical to running the same RunSpec through the scalar
 * farm path. The inner loop is a clone of the threaded backend's block
 * executor (core/threaded_backend.cc) — same five-phase cycle, same
 * commit ordering and conflict faults, same beginning-of-cycle
 * partition charge, same busy-wait fast-forward accounting — and the
 * parity suite in tests/batch/ checks the hash and the stats byte for
 * byte across the section 4.1 grid and randprog corpora.
 *
 * Batching lives *above* one machine: this is not a MachineConfig
 * backend (a single MachineCore has nothing to batch). The farm-side
 * dispatcher (farm/batch_runner.hh) forms same-program cohorts and
 * falls back to scalar Machine runs for jobs that need per-cycle
 * fidelity, mirroring MachineCore::demotionReason().
 *
 * Thread-safety: an engine is confined to one thread, like a
 * MachineCore. Many engines may share one PreparedProgram.
 */

#ifndef XIMD_BATCH_BATCH_ENGINE_HH
#define XIMD_BATCH_BATCH_ENGINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/arch_view.hh"
#include "core/machine_config.hh"
#include "core/run_result.hh"
#include "core/stats.hh"
#include "isa/decoded_program.hh"
#include "support/types.hh"

namespace ximd::batch {

/**
 * The configuration shared by every lane of one engine. These are the
 * MachineConfig fields that change execution semantics; per-job fields
 * (cycle budget, seed, cycleTimeNs) stay per-lane / per-caller.
 */
struct EngineConfig
{
    Mode mode = Mode::Ximd;
    std::size_t memWords = 1u << 20;
    ConflictPolicy conflictPolicy = ConflictPolicy::Fault;
    bool collectStats = true;
    bool trackPartitions = true;
    bool fastForward = true;
};

/** Outcome of one batched job, mirroring the scalar Machine surface. */
struct LaneResult
{
    /** False when lane construction itself failed (see `error`). */
    bool ran = false;

    RunResult run;

    /** Final statistics (meaningful when `ran`). */
    RunStats stats{1};

    /** MachineCore::archStateHash of the final lane state. */
    std::uint64_t archHash = 0;

    /**
     * Construction failure (invalid VLIW program, memory-init out of
     * range) — exactly the FatalError message the scalar Machine
     * constructor would have thrown. Empty when `ran`.
     */
    std::string error;

    /**
     * Non-empty when the job's post-run check rejected the final
     * state (or itself faulted reading it). Checks only run for
     * cleanly-halted lanes, mirroring the farm's fault > budget >
     * check precedence.
     */
    std::string checkError;
};

/**
 * Post-run verification over one retired lane's architectural state.
 * Signature-compatible with farm::ResultCheck: the same callable
 * verifies a scalar Machine and a batch lane.
 */
using LaneCheck =
    std::function<std::string(const ArchView &, const RunResult &)>;

/** Lockstep SoA executor for N same-program machines. */
class BatchEngine
{
  public:
    /**
     * Build an engine with @p width concurrent lanes executing
     * @p prepared under @p config. Jobs beyond @p width queue and fill
     * lanes as earlier jobs retire.
     */
    BatchEngine(std::shared_ptr<const PreparedProgram> prepared,
                EngineConfig config, unsigned width);

    BatchEngine(const BatchEngine &) = delete;
    BatchEngine &operator=(const BatchEngine &) = delete;

    /**
     * Queue one job with cycle budget @p budget (must be the resolved
     * budget — callers apply their defaultMaxCycles first) and an
     * optional post-run @p check, evaluated at retirement while the
     * lane's final state is still resident.
     * @return the job id used with result().
     */
    std::size_t submit(Cycle budget, LaneCheck check = {});

    /** Number of jobs submitted so far. */
    std::size_t jobCount() const { return jobs_.size(); }

    /**
     * Run every queued job to completion, retiring and refilling lanes
     * as they finish. May be called repeatedly (submit more, run
     * again); results of completed jobs are stable.
     */
    void runAll();

    /** Result of job @p id; valid after runAll() returned. */
    const LaneResult &result(std::size_t id) const
    {
        return jobs_[id].result;
    }

    unsigned width() const { return width_; }

  private:
    struct Pend;
    class LaneView;

    /** Per-job bookkeeping. */
    struct JobState
    {
        Cycle budget = 0;
        LaneCheck check;
        bool done = false;
        LaneResult result;
    };

    static constexpr std::size_t kNoJob = ~std::size_t(0);
    static constexpr unsigned kPageShift = 12; ///< 4096-word pages.
    static constexpr std::size_t kPageWords = std::size_t(1)
                                              << kPageShift;

    /** Per-lane committed-cycle accounting (BlockStats equivalent). */
    struct LaneStats
    {
        Cycle cycles = 0;
        std::uint64_t parcels = 0;
        std::uint64_t classCounts[8] = {};
        std::uint64_t condBranches = 0;
        std::uint64_t takenBranches = 0;
        std::uint64_t busyWaitFuCycles = 0;
        Cycle partitionCycles[kMaxFus + 1] = {};
    };

    enum class LaneExit { Running, Halted, Faulted, Limit };

    void resetLane(unsigned lane, std::size_t job);
    void retireLane(unsigned lane, LaneExit exit);
    bool refillLane(unsigned lane);

    LaneExit runSlice(unsigned lane, Cycle sliceCycles);
    template <bool kStats, bool kPart>
    LaneExit runSliceXimd(unsigned lane, Cycle sliceLimit);
    template <bool kStats>
    LaneExit runSliceVliw(unsigned lane, Cycle sliceLimit);

    void commitPend(Pend &pend, unsigned lane);
    void updateGrouping(unsigned lane, const FlatParcel *const *cur,
                        std::uint32_t liveMask, std::uint32_t haltMask);

    Word *ensurePage(unsigned lane, std::size_t pageIdx);
    std::uint64_t laneArchHash(unsigned lane) const;
    RunStats foldStats(unsigned lane) const;

    std::shared_ptr<const PreparedProgram> prepared_;
    EngineConfig config_;
    unsigned width_;
    FuId fus_;
    InstAddr rows_;
    std::size_t numPages_;

    /** Non-empty when the whole cohort fails construction. */
    std::string ctorError_;

    std::vector<JobState> jobs_;
    std::size_t nextPending_ = 0;

    // ---- Structure-of-arrays lane state ------------------------------
    std::vector<std::size_t> laneJob_;   ///< kNoJob when idle.
    std::vector<Word> regs_;             ///< width * kNumRegisters.
    std::vector<std::uint8_t> cc_;       ///< width * fus.
    std::vector<std::uint32_t> ccEver_;  ///< per-lane ever-written mask.
    std::vector<InstAddr> pc_;           ///< width * fus.
    std::vector<std::uint32_t> live_;    ///< per-lane live-FU mask.
    std::vector<Cycle> cyc_;             ///< per-lane current cycle.
    std::vector<Cycle> limit_;           ///< per-lane budget limit.
    std::vector<unsigned> streams_;      ///< SSET count of last cycle.
    std::vector<LaneStats> stats_;
    std::vector<std::string> faultMsg_;

    /** Lane memory pages: [lane * numPages_ + page], empty = zero. */
    std::vector<std::vector<Word>> pages_;
    /** Raw page pointers for the hot loop (null = zero page). */
    std::vector<Word *> pageTbl_;
    /** Pages touched since the lane's last reset. */
    std::vector<std::vector<std::uint32_t>> dirty_;

    // SSET-grouping scratch (engine-level: one lane runs at a time).
    std::vector<std::uint64_t> keyStamp_;
    std::vector<int> keyDense_;
    std::uint64_t stamp_ = 0;
};

} // namespace ximd::batch

#endif // XIMD_BATCH_BATCH_ENGINE_HH
