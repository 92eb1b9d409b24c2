/**
 * @file
 * A small value-range (interval) domain over one lockstep class.
 *
 * The race engine needs three things from values: bounds on load and
 * store address expressions (to separate a B[] store from a marker
 * store, or a flag word from a data window), proof that a busy-wait's
 * exit compare is constant, and proof that a flag store writes a
 * non-zero word. A classic interval domain over the signed 32-bit
 * interpretation of register words delivers all three.
 *
 * Soundness decisions:
 *  - all members of a lockstep class execute the same row each cycle
 *    and reads observe beginning-of-cycle register state, so one
 *    analysis per class over merged columns is exact for in-class
 *    dataflow;
 *  - any register also written outside the class is pinned to ⊤ — a
 *    foreign write can land between any two in-class cycles;
 *  - integer add/sub widen to ⊤ whenever the result might leave the
 *    int32 range (the machine wraps mod 2^32); loads produce ⊤;
 *  - loop counters stay finite through *guard refinement*: a compare
 *    `op r, #K` (or against a never-written register with a singleton
 *    range) establishes a fact about cc of the comparing FU, and a
 *    later `if cc` branch trims r's interval on each out-edge. This
 *    keeps `iadd r,#1,r` / `eq r,#N` loops exactly bounded without
 *    needing a widening threshold to converge first.
 *
 * Cost: a class's state holds only the registers its member parcels
 * name (one slot each, in one flat rows x slots array); every other
 * register keeps its entry value (`.init`, 0, or ⊤ when written
 * outside the class) on every visited row, so it needs no storage.
 * A worklist visit costs O(slots + members) and allocates nothing; a
 * counter loop still takes one visit per trip until its rows widen
 * (after 64 changes), and that is the remaining cost.
 */

#ifndef XIMD_ANALYSIS_INTERVAL_HH
#define XIMD_ANALYSIS_INTERVAL_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/cfg.hh"
#include "isa/program.hh"

namespace ximd::analysis {

/** A closed interval of int64 values; lo > hi encodes the empty set. */
struct Interval
{
    // ±kInf are the unbounded sentinels; arithmetic never produces
    // values beyond int32, so the gap to the sentinels cannot wrap.
    static constexpr std::int64_t kInf = std::int64_t{1} << 40;

    std::int64_t lo = -kInf;
    std::int64_t hi = kInf;

    static Interval top() { return {}; }
    static Interval empty() { return {1, 0}; }
    static Interval single(std::int64_t v) { return {v, v}; }
    static Interval range(std::int64_t lo, std::int64_t hi)
    {
        return {lo, hi};
    }

    bool isEmpty() const { return lo > hi; }
    bool isTop() const { return lo <= -kInf && hi >= kInf; }
    bool isSingle() const { return lo == hi; }
    bool contains(std::int64_t v) const { return lo <= v && v <= hi; }

    bool operator==(const Interval &o) const
    {
        return (isEmpty() && o.isEmpty()) ||
               (lo == o.lo && hi == o.hi);
    }

    static Interval join(const Interval &a, const Interval &b);
    static Interval widen(const Interval &prev, const Interval &next);
    static bool overlaps(const Interval &a, const Interval &b);

    /** Wrap-sound add/sub: exact when the result fits int32, else ⊤. */
    Interval add(const Interval &o) const;
    Interval sub(const Interval &o) const;

    /** "[3,3]", "[0,7]", "[64,+inf)", "top", "empty". */
    std::string toString() const;
};

/**
 * Forward interval analysis over one lockstep class.
 *
 * Query results describe the state *entering* a row (reads see
 * beginning-of-cycle values). Rows the class cannot reach answer ⊤ /
 * nullopt and report visited() == false.
 */
class ClassIntervalAnalysis
{
  public:
    /**
     * @p externalReg marks registers written by reachable parcels of
     * FUs outside @p members; those stay ⊤ throughout.
     */
    ClassIntervalAnalysis(const Program &prog, const StreamCfg &cfg,
                          std::vector<FuId> members,
                          std::vector<char> externalReg);

    bool visited(InstAddr row) const;

    /** Interval of register @p r entering @p row. */
    Interval regAt(InstAddr row, RegId r) const;

    /** Interval of @p op (reg or imm) entering @p row. */
    Interval evalOperand(InstAddr row, const Operand &op) const;

    /** Address interval of a load at (@p row, @p fu): val(a)+val(b). */
    Interval loadAddr(InstAddr row, FuId fu) const;

    /** Address interval of a store at (@p row, @p fu): val(b). */
    Interval storeAddr(InstAddr row, FuId fu) const;

    /** Value interval of a store at (@p row, @p fu): val(a). */
    Interval storeValue(InstAddr row, FuId fu) const;

    /**
     * Constant outcome of the integer compare at (@p row, @p fu), if
     * its operand intervals decide it; nullopt otherwise (including
     * float compares and unreached rows).
     */
    std::optional<bool> compareOutcome(InstAddr row, FuId fu) const;

  private:
    struct CcFact
    {
        bool valid = false;
        RegId reg = 0;       ///< Refined register.
        Opcode op = Opcode::Eq;
        bool regLeft = true; ///< reg is the compare's first operand.
        bool isImm = false;  ///< Constant side is an immediate.
        std::int64_t imm = 0;
        RegId kreg = 0;      ///< Constant side's register when !isImm.

        bool operator==(const CcFact &o) const
        {
            return valid == o.valid && reg == o.reg && op == o.op &&
                   regLeft == o.regLeft && isImm == o.isImm &&
                   imm == o.imm && kreg == o.kreg;
        }
    };

    static constexpr std::uint16_t kNoSlot = 0xffff;

    void run();
    /** in_[row] through the row's data ops into out_; marks wrote_. */
    void transfer(InstAddr row);
    /** Send out_ along the row's edges; the successors whose state
     *  changed go to @p changed, and their count is returned. */
    unsigned propagate(InstAddr row, InstAddr changed[2]);
    bool joinInto(InstAddr row, const Interval *state,
                  const CcFact *facts);
    /** @p r in state @p st (one row's slots), or its entry value. */
    Interval valueIn(const Interval *st, RegId r) const;
    Interval evalIn(const Interval *st, const Operand &op) const;
    /** Whether the row being visited writes @p r. */
    bool wrote(RegId r) const;

    const Program &prog_;
    const StreamCfg &cfg_;
    std::vector<FuId> members_;
    std::vector<Interval> entry_;        // per register: row-0 value
    std::vector<std::uint16_t> slotOf_;  // per register, or kNoSlot
    std::size_t slots_ = 0;
    std::vector<Interval> in_;           // rows x slots
    std::vector<CcFact> factsIn_;        // rows x members
    std::vector<char> visited_;
    std::vector<unsigned> visits_;

    // Per-visit work buffers, reused: transfer's output state, the facts
    // leaving the row, and which slots the row writes.
    std::vector<Interval> out_;
    std::vector<CcFact> outFacts_;
    std::vector<char> wrote_;
};

/**
 * Registers written (via a data-op destination) by any reachable
 * parcel of an FU *outside* @p members; indexed by RegId.
 */
std::vector<char> externallyWrittenRegs(const Program &prog,
                                        const ProgramCfg &cfg,
                                        const std::vector<FuId> &members);

} // namespace ximd::analysis

#endif // XIMD_ANALYSIS_INTERVAL_HH
