#include "analysis/interval.hh"

#include <algorithm>
#include <deque>
#include <limits>
#include <sstream>

#include "support/logging.hh"

namespace ximd::analysis {

namespace {

constexpr std::int64_t kI32Min =
    std::numeric_limits<std::int32_t>::min();
constexpr std::int64_t kI32Max =
    std::numeric_limits<std::int32_t>::max();

/** Join or widen loops converge within this many visits per row. */
constexpr unsigned kWidenAfter = 64;

std::int64_t
clampLo(std::int64_t v)
{
    return std::max(v, -Interval::kInf);
}

std::int64_t
clampHi(std::int64_t v)
{
    return std::min(v, Interval::kInf);
}

} // namespace

Interval
Interval::join(const Interval &a, const Interval &b)
{
    if (a.isEmpty())
        return b;
    if (b.isEmpty())
        return a;
    return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

Interval
Interval::widen(const Interval &prev, const Interval &next)
{
    if (prev.isEmpty())
        return next;
    if (next.isEmpty())
        return prev;
    Interval w = prev;
    if (next.lo < prev.lo)
        w.lo = -kInf;
    if (next.hi > prev.hi)
        w.hi = kInf;
    return w;
}

bool
Interval::overlaps(const Interval &a, const Interval &b)
{
    if (a.isEmpty() || b.isEmpty())
        return false;
    return a.lo <= b.hi && b.lo <= a.hi;
}

Interval
Interval::add(const Interval &o) const
{
    if (isEmpty() || o.isEmpty())
        return empty();
    const std::int64_t lo2 = clampLo(lo + o.lo);
    const std::int64_t hi2 = clampHi(hi + o.hi);
    // The machine wraps mod 2^32: any result outside int32 may alias
    // anything, so the sum is only exact when it provably fits.
    if (lo2 < kI32Min || hi2 > kI32Max)
        return top();
    return {lo2, hi2};
}

Interval
Interval::sub(const Interval &o) const
{
    if (isEmpty() || o.isEmpty())
        return empty();
    const std::int64_t lo2 = clampLo(lo - o.hi);
    const std::int64_t hi2 = clampHi(hi - o.lo);
    if (lo2 < kI32Min || hi2 > kI32Max)
        return top();
    return {lo2, hi2};
}

std::string
Interval::toString() const
{
    if (isEmpty())
        return "empty";
    if (isTop())
        return "top";
    std::ostringstream os;
    os << (lo <= -kInf ? std::string("(-inf")
                       : "[" + std::to_string(lo));
    os << ",";
    os << (hi >= kInf ? std::string("+inf)")
                      : std::to_string(hi) + "]");
    return os.str();
}

std::vector<char>
externallyWrittenRegs(const Program &prog, const ProgramCfg &cfg,
                      const std::vector<FuId> &members)
{
    std::vector<char> inClass(prog.width(), 0);
    for (FuId m : members)
        inClass[m] = 1;
    std::vector<char> ext(kNumRegisters, 0);
    for (FuId fu = 0; fu < prog.width(); ++fu) {
        if (inClass[fu])
            continue;
        for (InstAddr r = 0; r < prog.size(); ++r) {
            if (!cfg.executable(r, fu))
                continue;
            const DataOp &d = prog.parcel(r, fu).data;
            if (d.hasDest())
                ext[d.dest] = 1;
        }
    }
    return ext;
}

ClassIntervalAnalysis::ClassIntervalAnalysis(
    const Program &prog, const StreamCfg &cfg,
    std::vector<FuId> members, std::vector<char> externalReg)
    : prog_(prog), cfg_(cfg), members_(std::move(members))
{
    // Entry state: initializers as singletons, everything else 0
    // (the register file zero-fills), externals ⊤. A register the
    // class never names keeps this value on every visited row.
    entry_.assign(kNumRegisters, Interval::single(0));
    for (const auto &[reg, value] : prog_.regInit())
        entry_[reg] = Interval::single(static_cast<SWord>(value));
    for (RegId r = 0; r < kNumRegisters; ++r)
        if (externalReg[r])
            entry_[r] = Interval::top();

    // One slot per register a member parcel reads or writes, except
    // externals: those are pinned to ⊤ and need no state either.
    slotOf_.assign(kNumRegisters, kNoSlot);
    auto name = [&](RegId r) {
        if (r < kNumRegisters && !externalReg[r] && slotOf_[r] == kNoSlot)
            slotOf_[r] = static_cast<std::uint16_t>(slots_++);
    };
    const InstAddr rows = prog_.size();
    for (InstAddr row = 0; row < rows; ++row)
        for (FuId m : members_) {
            const DataOp &d = prog_.row(row)[m].data;
            if (d.a.isReg())
                name(d.a.regId());
            if (d.b.isReg())
                name(d.b.regId());
            if (d.hasDest())
                name(d.dest);
        }

    in_.assign(rows * slots_, Interval::empty());
    factsIn_.assign(rows * members_.size(), CcFact{});
    visited_.assign(rows, 0);
    visits_.assign(rows, 0);
    out_.resize(slots_);
    outFacts_.resize(members_.size());
    wrote_.assign(slots_, 0);
    run();
}

bool
ClassIntervalAnalysis::visited(InstAddr row) const
{
    return row < visited_.size() && visited_[row];
}

Interval
ClassIntervalAnalysis::valueIn(const Interval *st, RegId r) const
{
    if (r >= kNumRegisters)
        return Interval::top();
    const std::uint16_t s = slotOf_[r];
    return s == kNoSlot ? entry_[r] : st[s];
}

Interval
ClassIntervalAnalysis::regAt(InstAddr row, RegId r) const
{
    if (!visited(row))
        return Interval::top();
    return valueIn(in_.data() + row * slots_, r);
}

Interval
ClassIntervalAnalysis::evalIn(const Interval *st,
                              const Operand &op) const
{
    if (op.isImm())
        return Interval::single(static_cast<SWord>(op.immValue()));
    if (op.isReg())
        return valueIn(st, op.regId());
    return Interval::top();
}

Interval
ClassIntervalAnalysis::evalOperand(InstAddr row,
                                   const Operand &op) const
{
    if (op.isImm())
        return Interval::single(static_cast<SWord>(op.immValue()));
    if (!visited(row))
        return Interval::top();
    return evalIn(in_.data() + row * slots_, op);
}

Interval
ClassIntervalAnalysis::loadAddr(InstAddr row, FuId fu) const
{
    const DataOp &d = prog_.parcel(row, fu).data;
    return evalOperand(row, d.a).add(evalOperand(row, d.b));
}

Interval
ClassIntervalAnalysis::storeAddr(InstAddr row, FuId fu) const
{
    return evalOperand(row, prog_.parcel(row, fu).data.b);
}

Interval
ClassIntervalAnalysis::storeValue(InstAddr row, FuId fu) const
{
    return evalOperand(row, prog_.parcel(row, fu).data.a);
}

std::optional<bool>
ClassIntervalAnalysis::compareOutcome(InstAddr row, FuId fu) const
{
    if (!visited(row))
        return std::nullopt;
    const DataOp &d = prog_.parcel(row, fu).data;
    if (opInfo(d.op).cls != OpClass::IntCompare)
        return std::nullopt;
    const Interval a = evalOperand(row, d.a);
    const Interval b = evalOperand(row, d.b);
    if (a.isEmpty() || b.isEmpty())
        return std::nullopt;
    switch (d.op) {
      case Opcode::Eq:
        if (a.isSingle() && b.isSingle())
            return a.lo == b.lo;
        if (!Interval::overlaps(a, b))
            return false;
        return std::nullopt;
      case Opcode::Ne:
        if (a.isSingle() && b.isSingle())
            return a.lo != b.lo;
        if (!Interval::overlaps(a, b))
            return true;
        return std::nullopt;
      case Opcode::Lt:
        if (a.hi < b.lo)
            return true;
        if (a.lo >= b.hi)
            return false;
        return std::nullopt;
      case Opcode::Le:
        if (a.hi <= b.lo)
            return true;
        if (a.lo > b.hi)
            return false;
        return std::nullopt;
      case Opcode::Gt:
        if (a.lo > b.hi)
            return true;
        if (a.hi <= b.lo)
            return false;
        return std::nullopt;
      case Opcode::Ge:
        if (a.lo >= b.hi)
            return true;
        if (a.hi < b.lo)
            return false;
        return std::nullopt;
      default:
        return std::nullopt;
    }
}

void
ClassIntervalAnalysis::transfer(InstAddr row)
{
    // All members execute the row in the same cycle; reads observe
    // beginning-of-cycle state, so every write is evaluated from `in`
    // while landing in out_. Two members writing one register join.
    const Interval *in = in_.data() + row * slots_;
    std::copy(in, in + slots_, out_.begin());
    const InstRow &parcels = prog_.row(row);
    for (FuId m : members_) {
        const DataOp &d = parcels[m].data;
        if (!d.hasDest())
            continue;
        Interval v = Interval::top();
        switch (d.op) {
          case Opcode::Iadd:
            v = evalIn(in, d.a).add(evalIn(in, d.b));
            break;
          case Opcode::Isub:
            v = evalIn(in, d.a).sub(evalIn(in, d.b));
            break;
          case Opcode::Mov:
            v = evalIn(in, d.a);
            break;
          case Opcode::Ineg:
            v = Interval::single(0).sub(evalIn(in, d.a));
            break;
          case Opcode::Imult: {
            const Interval a = evalIn(in, d.a);
            const Interval b = evalIn(in, d.b);
            if (a.isSingle() && b.isSingle()) {
                const std::int64_t p = a.lo * b.lo;
                if (p >= kI32Min && p <= kI32Max)
                    v = Interval::single(p);
            }
            break;
          }
          default:
            // Loads, divisions, logic/shift ops, float ops: ⊤.
            break;
        }
        const std::uint16_t s = slotOf_[d.dest];
        if (s == kNoSlot)
            continue; // external: pinned to ⊤
        out_[s] = wrote_[s] ? Interval::join(out_[s], v) : v;
        wrote_[s] = 1;
    }
}

bool
ClassIntervalAnalysis::wrote(RegId r) const
{
    const std::uint16_t s = r < kNumRegisters ? slotOf_[r] : kNoSlot;
    return s != kNoSlot && wrote_[s];
}

namespace {

/** Trim @p v to the values where `regLeft ? v op K : K op v` is
 *  @p outcome. Endpoint-precision for Eq/Ne keeps counter loops
 *  (`iadd r,#1,r` + `eq r,#N`) exactly bounded. */
Interval
refine(Interval v, Opcode op, bool regLeft, std::int64_t k,
       bool outcome)
{
    // Normalize to a relation with the register on the left.
    if (!regLeft) {
        switch (op) {
          case Opcode::Lt: op = Opcode::Gt; break;
          case Opcode::Le: op = Opcode::Ge; break;
          case Opcode::Gt: op = Opcode::Lt; break;
          case Opcode::Ge: op = Opcode::Le; break;
          default: break; // Eq/Ne symmetric
        }
    }
    // Normalize to the true outcome.
    if (!outcome) {
        switch (op) {
          case Opcode::Eq: op = Opcode::Ne; break;
          case Opcode::Ne: op = Opcode::Eq; break;
          case Opcode::Lt: op = Opcode::Ge; break;
          case Opcode::Le: op = Opcode::Gt; break;
          case Opcode::Gt: op = Opcode::Le; break;
          case Opcode::Ge: op = Opcode::Lt; break;
          default: break;
        }
    }
    switch (op) {
      case Opcode::Eq:
        if (!v.contains(k))
            return Interval::empty();
        return Interval::single(k);
      case Opcode::Ne:
        if (v.isSingle() && v.lo == k)
            return Interval::empty();
        if (v.lo == k)
            v.lo = k + 1;
        if (v.hi == k)
            v.hi = k - 1;
        return v;
      case Opcode::Lt:
        v.hi = std::min(v.hi, k - 1);
        return v;
      case Opcode::Le:
        v.hi = std::min(v.hi, k);
        return v;
      case Opcode::Gt:
        v.lo = std::max(v.lo, k + 1);
        return v;
      case Opcode::Ge:
        v.lo = std::max(v.lo, k);
        return v;
      default:
        return v;
    }
}

} // namespace

bool
ClassIntervalAnalysis::joinInto(InstAddr row, const Interval *state,
                                const CcFact *facts)
{
    Interval *in = in_.data() + row * slots_;
    CcFact *inFacts = factsIn_.data() + row * members_.size();
    if (!visited_[row]) {
        visited_[row] = 1;
        std::copy(state, state + slots_, in);
        std::copy(facts, facts + members_.size(), inFacts);
        visits_[row] = 1;
        return true;
    }
    bool changed = false;
    const bool widen = visits_[row] > kWidenAfter;
    for (std::size_t s = 0; s < slots_; ++s) {
        const Interval merged =
            widen ? Interval::widen(in[s], Interval::join(in[s], state[s]))
                  : Interval::join(in[s], state[s]);
        if (!(merged == in[s])) {
            in[s] = merged;
            changed = true;
        }
    }
    // Facts join by agreement (must-analysis).
    for (std::size_t i = 0; i < members_.size(); ++i) {
        CcFact &cur = inFacts[i];
        if (cur.valid && !(cur == facts[i])) {
            cur = CcFact{};
            changed = true;
        }
    }
    if (changed)
        ++visits_[row];
    return changed;
}

unsigned
ClassIntervalAnalysis::propagate(InstAddr row, InstAddr changed[2])
{
    const InstRow &parcels = prog_.row(row);
    const ControlOp &c = parcels[members_.front()].ctrl;
    const CcFact *inFacts = factsIn_.data() + row * members_.size();

    // Outgoing facts: kill on overwrite (transfer marked wrote_),
    // then gen from this row's compares (the new cc commits at end
    // of cycle, so it governs the successors).
    std::copy(inFacts, inFacts + members_.size(), outFacts_.begin());
    for (CcFact &f : outFacts_)
        if (f.valid && (wrote(f.reg) || (!f.isImm && wrote(f.kreg))))
            f = CcFact{};
    // A fact needs registers the row leaves alone; a member's operand
    // lacks a slot only when it is external.
    auto stable = [&](RegId r) {
        return r < kNumRegisters && slotOf_[r] != kNoSlot && !wrote(r);
    };
    for (std::size_t i = 0; i < members_.size(); ++i) {
        const DataOp &d = parcels[members_[i]].data;
        if (opInfo(d.op).cls != OpClass::IntCompare)
            continue;
        outFacts_[i] = CcFact{};
        const bool aReg = d.a.isReg();
        const bool bReg = d.b.isReg();
        CcFact f;
        f.op = d.op;
        if (aReg && d.b.isImm()) {
            f.reg = d.a.regId();
            f.regLeft = true;
            f.isImm = true;
            f.imm = static_cast<SWord>(d.b.immValue());
        } else if (bReg && d.a.isImm()) {
            f.reg = d.b.regId();
            f.regLeft = false;
            f.isImm = true;
            f.imm = static_cast<SWord>(d.a.immValue());
        } else if (aReg && bReg) {
            f.reg = d.a.regId();
            f.regLeft = true;
            f.kreg = d.b.regId();
        } else {
            continue;
        }
        if (!stable(f.reg) || (!f.isImm && !stable(f.kreg)))
            continue;
        f.valid = true;
        outFacts_[i] = f;
    }

    // A cc-true branch on a member's fact refines each out-edge. The
    // guard points into the row's live facts: when a self-loop's
    // first join resets them, the second edge sees the reset fact and
    // the re-queued row later sends both edges unguarded.
    const CcFact *guard = nullptr;
    if (c.kind == CondKind::CcTrue) {
        for (std::size_t i = 0; i < members_.size(); ++i) {
            if (members_[i] != c.index)
                continue;
            const CcFact &f = inFacts[i];
            // The branch reads the beginning-of-cycle cc, which the
            // incoming fact describes — unless this row just
            // invalidated the compared values.
            if (f.valid && !wrote(f.reg) && (f.isImm || !wrote(f.kreg)))
                guard = &f;
            break;
        }
    }

    unsigned n = 0;
    auto send = [&](InstAddr succ, std::optional<bool> outcome) {
        if (succ >= prog_.size())
            return;
        if (guard && outcome) {
            std::int64_t k = guard->imm;
            bool haveK = guard->isImm;
            if (!haveK) {
                const Interval ki = valueIn(out_.data(), guard->kreg);
                if (ki.isSingle()) {
                    k = ki.lo;
                    haveK = true;
                }
            }
            if (haveK) {
                const Interval v =
                    refine(valueIn(out_.data(), guard->reg), guard->op,
                           guard->regLeft, k, *outcome);
                if (v.isEmpty())
                    return; // edge infeasible
                // Join out_ with the guarded register trimmed, then
                // restore it for the other edge.
                const std::uint16_t s = slotOf_[guard->reg];
                XIMD_ASSERT(s != kNoSlot, "refined register r",
                            guard->reg, " has no slot");
                const Interval saved = out_[s];
                out_[s] = v;
                if (joinInto(succ, out_.data(), outFacts_.data()))
                    changed[n++] = succ;
                out_[s] = saved;
                return;
            }
        }
        if (joinInto(succ, out_.data(), outFacts_.data()))
            changed[n++] = succ;
    };

    switch (c.kind) {
      case CondKind::Halt:
        break;
      case CondKind::Always:
        send(c.t1, std::nullopt);
        break;
      case CondKind::CcTrue:
        send(c.t1, true);
        if (c.t2 != c.t1)
            send(c.t2, false);
        break;
      default:
        send(c.t1, std::nullopt);
        if (c.t2 != c.t1)
            send(c.t2, std::nullopt);
        break;
    }
    return n;
}

void
ClassIntervalAnalysis::run()
{
    if (prog_.empty())
        return;

    visited_[0] = 1;
    visits_[0] = 1;
    for (RegId r = 0; r < kNumRegisters; ++r)
        if (slotOf_[r] != kNoSlot)
            in_[slotOf_[r]] = entry_[r];

    // FIFO worklist; a row is queued at most once at a time, and the
    // successors a visit changed join the queue in increasing order.
    std::deque<InstAddr> work;
    std::vector<char> queued(prog_.size(), 0);
    work.push_back(0);
    queued[0] = 1;
    while (!work.empty()) {
        const InstAddr row = work.front();
        work.pop_front();
        queued[row] = 0;
        if (!cfg_.isReachable(row))
            continue;
        transfer(row);
        InstAddr changed[2];
        const unsigned n = propagate(row, changed);
        std::fill(wrote_.begin(), wrote_.end(), 0);
        if (n == 2 && changed[1] < changed[0])
            std::swap(changed[0], changed[1]);
        for (unsigned i = 0; i < n; ++i)
            if (!queued[changed[i]]) {
                work.push_back(changed[i]);
                queued[changed[i]] = 1;
            }
    }
}

} // namespace ximd::analysis
