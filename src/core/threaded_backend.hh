/**
 * @file
 * The token-threaded execution backend.
 *
 * The interpreter (core/interp_backend.hh) pays per cycle for work
 * that is invariant across cycles: parcel refetch through two levels
 * of indirection, operand-kind tests, opcode-class switches, write
 * pipeline traffic that — at unit result latency — always drains the
 * same cycle it was filled, and virtual observer dispatch. This
 * backend removes all of it:
 *
 *  - The prepared program's FlatProgram (isa/decoded_program.hh) is
 *    specialized at prepare() time into per-core dispatch tokens laid
 *    out as one contiguous stream per FU. Each token carries resolved
 *    operand *pointers* — a register operand points into the register
 *    file's backing array, an immediate points at the token's own
 *    inline copy — so the execute handlers are branchless on operand
 *    kind.
 *  - Dispatch is token-threaded on ExecKind: computed goto where the
 *    compiler supports it (GCC/Clang), a dense switch otherwise.
 *    Control-only parcels (data op = nop) are fused superinstructions
 *    — Jump / HaltTok / the Poll* family for the busy-wait poll idiom
 *    — that collapse fetch, execute, and sequence into one handler.
 *  - Cycles run in *blocks*: pending writes, CC values, counters, and
 *    SSET grouping live in locals / members for the whole block and
 *    are written back to the core's architectural structures only at
 *    block boundaries (cycle limit, halt, fault, or delegation).
 *    Observers see one CycleObserver::onBlock() carrying the exact
 *    sums their per-cycle hooks would have accumulated.
 *  - Identical sequencers cost one. A cycle is one-stream when every
 *    FU is live on the same row and that row's control is the same on
 *    every FU (the kRowUniform flag). One-stream XIMD cycles and every
 *    VLIW cycle run in one row loop, runRows(): control is evaluated
 *    once and only the row's data lanes are dispatched, inline. XIMD
 *    leaves the row loop for the per-FU loop when the next row is not
 *    uniform (section 2.1: with identical sequencer functions an XIMD
 *    is a VLIW).
 *  - The statistics package is paid per token or row, not per FU-
 *    cycle statistic: a committed per-FU cycle bumps one execution
 *    counter per live FU's token and one taken counter per taken
 *    branch, a row-loop cycle bumps its row's pair, and foldCounts()
 *    turns the counters into BlockStats once, at block exit. Partition
 *    tracking costs one stream count per cycle; the SSET assignment is
 *    computed once, at block exit, from the last committed cycle's
 *    grouping keys.
 *  - Commit checks register write conflicts with a per-register epoch
 *    stamp and runs the interpreter-exact sort-and-scan only on a
 *    cycle that conflicts.
 *
 * Fidelity contract: bit-for-bit equality with the interpreter on
 * everything MachineCore::saveState() serializes — including fault
 * messages, partial-commit effects of conflict faults, and every
 * read/write/load/store counter. MachineCore demotes to the
 * interpreter (MachineCore::demotionReason()) whenever that cannot be
 * guaranteed cheaply: per-cycle observers, perturbation hooks, result
 * latency > 1, registered sync, or device windows. Within a threaded
 * run, single cycles that need full fidelity — active sync overrides,
 * partition-grouping resynchronization after a state load — delegate
 * to InterpBackend::stepCore. A faulting block cycle reaches
 * observers as onCycle() alone, as under the interpreter. See
 * DESIGN.md section 12, which also gives the measured cost of the
 * statistics package.
 */

#ifndef XIMD_CORE_THREADED_BACKEND_HH
#define XIMD_CORE_THREADED_BACKEND_HH

#include <cstdint>
#include <vector>

#include "core/exec_backend.hh"

namespace ximd {

/** Token-threaded block executor; see the file comment. */
class ThreadedBackend final : public ExecBackend
{
  public:
    explicit ThreadedBackend(MachineCore &core) : ExecBackend(core) {}

    const char *name() const override { return "threaded"; }
    void prepare() override;
    bool step() override;
    void runTo(Cycle limit) override;
    void onStateLoaded() override;

  private:
    /**
     * One dispatch token: a FlatParcel specialized to this core, with
     * operand pointers resolved. `a`/`b` point into the register
     * file's backing array for register operands and at the token's
     * own `aImm`/`bImm` for immediates, so tokens must never move
     * after prepare().
     */
    struct Token
    {
        const Word *a = nullptr;
        const Word *b = nullptr;
        Word aImm = 0;
        Word bImm = 0;
        ExecKind kind = ExecKind::Nop;
        CondKind ckind = CondKind::Always;
        std::uint8_t cindex = 0;
        std::uint8_t cls = 0;
        std::uint8_t readCount = 0;
        std::uint8_t flags = 0;
        RegId dest = 0;
        std::uint16_t keyId = 0;
        std::uint32_t ssDoneBit = 0;
        std::uint32_t cmask = 0;
        InstAddr t1 = 0;
        InstAddr t2 = 0;
        /** On FU0's tokens: the row's lanes with a data op. */
        std::uint32_t dataLanes = 0;
        /** On FU0's tokens: the row's FUs whose SS field is DONE. */
        std::uint32_t rowDone = 0;
    };

    /**
     * Why a block stopped, or (Diverged) why runRows() handed an XIMD
     * block back to the per-FU loop: the next row is not uniform.
     */
    enum class BlockExit { Limit, Halted, Faulted, Diverged };

    /** Same-cycle pending writes of one block cycle. */
    struct Pend
    {
        struct RegW
        {
            RegId reg;
            FuId fu;
            Word val;
        };
        struct MemW
        {
            Addr addr;
            FuId fu;
            Word val;
        };
        struct CcW
        {
            FuId fu;
            std::uint8_t val;
        };
        RegW regW[kMaxFus];
        MemW memW[kMaxFus];
        CcW ccW[kMaxFus];
        int nReg = 0;
        int nMem = 0;
        int nCc = 0;
    };

    /** Mutable block-local machine state (lives in runBlock locals). */
    struct BlockState
    {
        InstAddr pc[kMaxFus];
        std::uint8_t cc[kMaxFus];
        std::uint32_t liveMask = 0;
        std::uint32_t ccEverMask = 0;
        std::uint32_t ssBusMask = 0;  ///< sync_ values (1 = DONE).
        std::uint32_t ssPrevMask = 0; ///< syncPrev_ values (1 = DONE).
        Cycle cyc = 0;
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        std::uint64_t loads = 0;
        std::uint64_t stores = 0;
        std::string faultMsg;
        // XIMD partition tracking: the stream count of the next cycle
        // to charge, and the grouping key of each FU that stayed live
        // through the last committed cycle (a faulting cycle writes
        // neither).
        unsigned streams = 0;
        std::uint16_t keys[kMaxFus] = {};
    };

    /**
     * Run one block of XIMD cycles; returns why it stopped. With
     * kStats the committed cycles bump the per-token counters
     * (foldCounts() turns them into BlockStats); with kPart they also
     * charge blk.partitionCycles, and the block leaves
     * curSsets_/curStreams_ at its last committed cycle's grouping.
     * One-stream cycles (every FU live on one uniform row) run in
     * runRows().
     */
    template <bool kStats, bool kPart>
    BlockExit runBlockXimd(Cycle limit, BlockState &st, BlockStats &blk);

    /**
     * The row loop: cycles that fetch one row and sequence it once.
     * VLIW runs every cycle here (FU0's control steers the row); XIMD
     * runs its one-stream cycles here and returns Diverged when the
     * next row is not uniform. Each cycle bumps the row's counters
     * (rowExecs_/rowTakens_), not the per-token ones.
     */
    template <Mode kMode, bool kStats, bool kPart>
    BlockExit runRows(Cycle limit, BlockState &st, BlockStats &blk);

    /**
     * End-of-cycle commit, mirroring WritePipeline::drainInto +
     * RegisterFile/Memory/CondCodeFile::commit at unit latency: store
     * address checks first (that is where drainInto's queueStore would
     * fault), then registers, then memory conflict scan + apply, then
     * CC apply. A per-register epoch stamp finds a register conflict
     * in O(writes); only a conflicting cycle runs
     * commitConflictingRegs(). Throws FatalError with the
     * interpreter's exact messages.
     */
    void commitPend(Pend &pend, BlockState &st);

    /** Sort-and-scan register commit of a conflicting cycle. */
    void commitConflictingRegs(Pend &pend, BlockState &st);

    /** Store commit: sort, conflict scan, apply (commitPend's tail). */
    void commitStores(Pend &pend, BlockState &st);

    /**
     * Add the per-row and per-token counters into @p blk's parcel,
     * class, branch and busy-wait counts, and zero them.
     */
    void foldCounts(BlockStats &blk);

    /** Load block-local state from / store it back to the core. */
    void loadBlockState(BlockState &st) const;
    void storeBlockState(const BlockState &st, bool touchSync);

    /** Recompute SSET grouping from the interpreter's events_. */
    void seedGroupingFromEvents();

    /**
     * Set curSsets_/curStreams_ from the grouping keys @p keys of the
     * FUs in @p liveMask, those still live after the last committed
     * cycle.
     */
    void assignSsets(const std::uint16_t *keys, std::uint32_t liveMask);

    std::vector<Token> tokens_; ///< Column-major: fu * rows_ + addr.
    InstAddr rows_ = 0;

    // Execution and taken-branch counters: per token for the per-FU
    // loop, per row for the row loop. Block loops bump them per
    // committed cycle; foldCounts() empties them at every block exit.
    std::vector<std::uint64_t> execs_;
    std::vector<std::uint64_t> takens_;
    std::vector<std::uint64_t> rowExecs_;
    std::vector<std::uint64_t> rowTakens_;

    // SSET grouping mirror of PartitionTracker as of the last
    // committed cycle; valid only while groupingValid_ (invalidated by
    // any cycle the backend did not execute itself).
    bool groupingValid_ = false;
    unsigned curStreams_ = 1;
    std::vector<int> curSsets_;
    std::vector<std::uint8_t> keyOwner_; ///< Per keyId: claiming FU.

    // commitPend's conflict check: the epoch of each register's last
    // write.
    std::vector<std::uint64_t> regStamp_;
    std::uint64_t commitEpoch_ = 0;
};

} // namespace ximd

#endif // XIMD_CORE_THREADED_BACKEND_HH
