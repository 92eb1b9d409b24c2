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
 * to InterpBackend::stepCore. See DESIGN.md section 12.
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
    };

    /** Why a block stopped. */
    enum class BlockExit { Limit, Halted, Faulted };

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
    };

    /** Run one block of cycles; returns why it stopped. */
    template <bool kStats, bool kPart>
    BlockExit runBlockXimd(Cycle limit, BlockState &st, BlockStats &blk);

    template <bool kStats>
    BlockExit runBlockVliw(Cycle limit, BlockState &st, BlockStats &blk);

    /**
     * End-of-cycle commit, mirroring WritePipeline::drainInto +
     * RegisterFile/Memory/CondCodeFile::commit at unit latency: store
     * address checks first (that is where drainInto's queueStore would
     * fault), then register conflict scan + apply, then memory
     * conflict scan + apply, then CC apply. Throws FatalError with the
     * interpreter's exact messages.
     */
    void commitPend(Pend &pend, BlockState &st);

    /** Execute one data token (VLIW lanes; fused kinds are no-ops). */
    void execData(const Token &t, FuId fu, Pend &pend, BlockState &st,
                  const Word *const *memPages, std::size_t memWords);

    /** Load block-local state from / store it back to the core. */
    void loadBlockState(BlockState &st) const;
    void storeBlockState(const BlockState &st, bool touchSync);

    /** Recompute SSET grouping from the interpreter's events_. */
    void seedGroupingFromEvents();

    /** Update curSsets_/curStreams_ from one committed block cycle. */
    void updateGrouping(const Token *const *cur, std::uint32_t liveMask,
                        std::uint32_t haltMask);

    std::vector<Token> tokens_; ///< Column-major: fu * rows_ + addr.
    InstAddr rows_ = 0;

    // SSET grouping mirror of PartitionTracker, advanced per block
    // cycle; valid only while groupingValid_ (invalidated by any cycle
    // the backend did not execute itself).
    bool groupingValid_ = false;
    unsigned curStreams_ = 1;
    std::vector<int> curSsets_;
    std::vector<std::uint64_t> keyStamp_; ///< Per keyId: last epoch.
    std::vector<int> keyDense_;           ///< Per keyId: dense id.
    std::uint64_t stamp_ = 0;

    BlockStats blk_; ///< Reused across blocks (cleared per block).
};

} // namespace ximd

#endif // XIMD_CORE_THREADED_BACKEND_HH
