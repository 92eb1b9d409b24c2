/**
 * @file
 * Predecoded program representation for the simulator hot loop.
 *
 * A Program stores parcels the way the assembler and tools want them:
 * symbolic Operand variants, an OpClass reachable only through the
 * opInfo() descriptor table, control fields behind ControlOp methods.
 * Re-interrogating all of that every cycle is pure interpreter
 * overhead — none of it changes after load.
 *
 * DecodedProgram is built once at machine construction and resolves
 * every parcel into a dense, flat execute record:
 *
 *  - operand kinds collapse into a two-way tag (register / literal)
 *    with the register index or immediate bits pre-extracted;
 *  - the opcode's functional class is copied inline so dispatch needs
 *    no descriptor lookup;
 *  - control fields (condition kind, CC/SS index, FU mask, T1/T2) and
 *    the SS field are copied inline;
 *  - a `canSelfSpin` flag marks parcels that can possibly busy-wait
 *    at their own address with no data-path side effects — the cheap
 *    pre-filter for the core's busy-wait fast-forward.
 *
 * Invariants: the source Program must be validate()-clean before
 * decoding (the machine constructors guarantee this); the decoded
 * records are immutable for the machine's lifetime; records are laid
 * out row-major (address * width + fu), mirroring Program's grid.
 */

#ifndef XIMD_ISA_DECODED_PROGRAM_HH
#define XIMD_ISA_DECODED_PROGRAM_HH

#include <memory>
#include <vector>

#include "isa/program.hh"
#include "support/types.hh"

namespace ximd {

/** A resolved source operand: register index or immediate bits. */
struct DecodedSrc
{
    Word value = 0;     ///< Register index when isReg, else raw bits.
    bool isReg = false;
};

/** One parcel, fully resolved for execution. */
struct DecodedParcel
{
    // Data path.
    Opcode op = Opcode::Nop;
    OpClass cls = OpClass::Nop;
    DecodedSrc a;
    DecodedSrc b;
    RegId dest = 0;

    // Control path.
    CondKind ckind = CondKind::Always;
    std::uint8_t cindex = 0;    ///< CC or SS index.
    std::uint32_t cmask = ~0u;  ///< FU mask for AllSync / AnySync.
    InstAddr t1 = 0;
    InstAddr t2 = 0;
    bool conditional = false;

    // Synchronization field.
    SyncVal sync = SyncVal::Busy;

    /**
     * True when this parcel could busy-wait at its own address: the
     * data op is a nop (no architectural side effects) and some
     * selectable branch target is the parcel's own row.
     */
    bool canSelfSpin = false;

    /** Reconstruct the control fields (partition keys, diagnostics). */
    ControlOp controlOp() const
    {
        ControlOp c;
        c.kind = ckind;
        c.index = cindex;
        c.mask = cmask;
        c.t1 = t1;
        c.t2 = t2;
        return c;
    }
};

/** The dense per-parcel execute records of one Program. */
class DecodedProgram
{
  public:
    DecodedProgram() = default;

    /** Decode @p program, which must already be validate()-clean. */
    explicit DecodedProgram(const Program &program);

    FuId width() const { return width_; }
    InstAddr size() const { return size_; }

    /** Record for (row @p addr, column @p fu); no bounds check. */
    const DecodedParcel &at(InstAddr addr, FuId fu) const
    {
        return parcels_[static_cast<std::size_t>(addr) * width_ + fu];
    }

  private:
    FuId width_ = 0;
    InstAddr size_ = 0;
    std::vector<DecodedParcel> parcels_;
};

/**
 * Exec-dispatch token kind for the token-threaded backend.
 *
 * Most kinds name exactly one opcode, so a threaded handler calls the
 * ALU helper with a compile-time-constant opcode and the per-op switch
 * folds away. The first group is the superinstruction fusion for
 * control-only parcels (data op is a nop): fetch, execute, and
 * sequence collapse into a single dispatch — Jump / HaltTok for
 * unconditional flow and the Poll* family for the busy-wait poll
 * idiom (spin on a CC or sync-signal condition).
 */
enum class ExecKind : std::uint8_t {
    // Fused control-only tokens.
    Nop,     ///< Nop data op with a conditional CC/SS control op that
             ///< did not match a fused form (never emitted today).
    Jump,    ///< nop + unconditional branch.
    HaltTok, ///< nop + halt.
    PollCc,  ///< nop + branch on CCk.
    PollSs,  ///< nop + branch on SSk == DONE.
    PollAll, ///< nop + branch on ALL(mask) DONE.
    PollAny, ///< nop + branch on ANY(mask) DONE.
    // Data-op tokens; sequencing runs through the shared control path.
    Iadd, Isub, Imult, Idiv, Imod, Ineg, And, Or, Xor, Not, Shl, Shr,
    Sar, Mov,
    Eq, Ne, Lt, Le, Gt, Ge,
    Fadd, Fsub, Fmult, Fdiv, Fneg,
    Feq, Fne, Flt, Fle, Fgt, Fge,
    Itof, Ftoi,
    Load, Store,
};

/** Number of ExecKind values (dispatch-table size). */
inline constexpr unsigned kNumExecKinds =
    static_cast<unsigned>(ExecKind::Store) + 1;

/**
 * One parcel flattened into a threaded execute record. Everything the
 * threaded backend's dispatch loop reads per cycle is precomputed
 * here; the backend only adds per-core operand pointers on top.
 */
struct FlatParcel
{
    ExecKind kind = ExecKind::Nop;
    CondKind ckind = CondKind::Always;
    std::uint8_t cindex = 0;  ///< CC or SS index.
    std::uint8_t cls = 0;     ///< OpClass as an array index.
    std::uint8_t readCount = 0; ///< Register reads the exec performs.
    std::uint8_t flags = 0;
    RegId dest = 0;
    std::uint16_t keyId = 0;  ///< Interned SSET-grouping key.
    std::uint32_t ssDoneBit = 0; ///< 1u<<fu when the SS field is DONE.
    std::uint32_t cmask = 0;  ///< Branch mask, premasked to real FUs.
    Word aVal = 0;            ///< Register index or immediate bits.
    Word bVal = 0;
    InstAddr t1 = 0;
    InstAddr t2 = 0;

    static constexpr std::uint8_t kAReg = 1u << 0;
    static constexpr std::uint8_t kBReg = 1u << 1;
    static constexpr std::uint8_t kConditional = 1u << 2;
    static constexpr std::uint8_t kCanSelfSpin = 1u << 3;
    /** On FU0 records: every lane of this row is a nop (VLIW spin). */
    static constexpr std::uint8_t kRowAllNop = 1u << 4;
    /**
     * On FU0 records: every FU's control has the same kind and
     * grouping key, so FUs that all sit on this row run it as one
     * stream.
     */
    static constexpr std::uint8_t kRowUniform = 1u << 5;
};

/**
 * The threading tables of one program: FlatParcel records laid out
 * column-major — one contiguous stream per FU, indexed by address —
 * plus the interned SSET-grouping keys.
 *
 * The grouping keys reproduce PartitionTracker::update()'s keying
 * statically: every parcel's key — (kind, index, raw mask, T1, T2)
 * for conditional control, (Always, T1) for unconditional — is known
 * at decode time, so the threaded backend computes per-cycle SSET
 * partitions by comparing small integers instead of tuples.
 *
 * Immutable after construction and shared through PreparedProgram
 * exactly like DecodedProgram.
 */
class FlatProgram
{
  public:
    FlatProgram() = default;

    /** Flatten @p decoded (which must outlive nothing — all copied). */
    explicit FlatProgram(const DecodedProgram &decoded);

    FuId width() const { return width_; }
    InstAddr size() const { return size_; }

    /** Record for (row @p addr, FU @p fu); no bounds check. */
    const FlatParcel &at(InstAddr addr, FuId fu) const
    {
        return parcels_[static_cast<std::size_t>(fu) * size_ + addr];
    }

    /** FU @p fu's contiguous instruction stream (size() records). */
    const FlatParcel *stream(FuId fu) const
    {
        return parcels_.data() + static_cast<std::size_t>(fu) * size_;
    }

    /** Number of distinct interned grouping keys. */
    unsigned numKeys() const { return numKeys_; }

  private:
    FuId width_ = 0;
    InstAddr size_ = 0;
    unsigned numKeys_ = 0;
    std::vector<FlatParcel> parcels_;
};

/**
 * A validated Program together with its predecode, frozen for
 * execution.
 *
 * Decoding a program costs one pass over every parcel; a parameter
 * sweep runs the same program under dozens of configurations. A
 * PreparedProgram performs validation and predecode exactly once and
 * is immutable afterwards, so any number of MachineCore instances —
 * including cores running concurrently on different threads — can
 * execute from one shared instance. The thread-safety contract is
 * const-correctness: every accessor is const and no member mutates
 * after construction.
 *
 * Handed around as std::shared_ptr<const PreparedProgram> so the
 * owning batch and every in-flight run keep it alive together.
 */
class PreparedProgram
{
  public:
    /**
     * Validate @p program and predecode it. Throws FatalError when the
     * program is empty or structurally invalid.
     */
    static std::shared_ptr<const PreparedProgram> make(Program program);

    const Program &program() const { return program_; }
    const DecodedProgram &decoded() const { return decoded_; }

    /** The threaded backend's flattened per-FU streams. */
    const FlatProgram &flat() const { return flat_; }

    FuId width() const { return program_.width(); }

  private:
    explicit PreparedProgram(Program program);

    Program program_;
    DecodedProgram decoded_;
    FlatProgram flat_;
};

} // namespace ximd

#endif // XIMD_ISA_DECODED_PROGRAM_HH
