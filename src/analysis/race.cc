#include "analysis/race.hh"

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "analysis/interval.hh"
#include "support/logging.hh"

namespace ximd::analysis {

namespace {

// ---------------------------------------------------------------- model

enum class Loc : std::uint8_t { Reg, Mem, Cc };

/** One shared-state access by one member of a lockstep class. */
struct Access
{
    InstAddr row = 0;
    FuId fu = 0;
    Loc loc = Loc::Reg;
    bool isWrite = false;
    int id = -1;     ///< Register / cc index; unused for Mem.
    Interval addr;   ///< Mem only.
    Interval value;  ///< Store value (flag-handshake detection).
};

/**
 * Everything the engine precomputes about one lockstep class. Only
 * class pairs read the accesses, reachPlus and futureDone, so a
 * program with one class leaves them empty, and its intervals and
 * prunedTrue too unless an unbounded wait is still possible
 * (mayStrand).
 */
struct ClassInfo
{
    std::vector<FuId> members;
    std::vector<char> isMember;               // by FuId
    const StreamCfg *cfg = nullptr;           // representative column
    std::unique_ptr<ClassIntervalAnalysis> intervals;
    std::vector<Access> accesses;

    /** reachPlus[a][b]: b reachable from a in >= 1 step. */
    std::vector<std::vector<char>> reachPlus;

    /**
     * futureDone[m][row]: starting at @p row (0 or more steps) the
     * class can reach a row where members[m] drives SS DONE — via its
     * sync field or by halting. False means: once here, that signal
     * is lost forever.
     */
    std::vector<std::vector<char>> futureDone;

    /**
     * prunedTrue[row]: the row is a CcTrue branch on a member's own
     * cc and every reachable compare that sets it is provably false
     * (cc starts false), so the true edge can never be taken.
     */
    std::vector<char> prunedTrue;
};

/** A recognized flag-handshake: gate a poll's exit on the store. */
struct FlagGuard
{
    bool pollOnB = false;     ///< Poll in class B (else in A).
    InstAddr pollRow = 0;     ///< The CcTrue branch row.
    InstAddr exitTarget = 0;  ///< Successor removed until allowed.
    InstAddr loadRow = 0;     ///< The flag load (covered site).
    FuId loadFu = 0;
    InstAddr storeRow = 0;    ///< The flag store (covered site).
    FuId storeFu = 0;
    /** allowed[partnerRow] (+sentinel for HALT): exit reachable. */
    std::vector<char> allowed;
};

/** Order of a co-reachable partner row relative to an access row. */
enum Bucket : unsigned {
    kSame = 1,      ///< Partner is at the access row (same cycle).
    kBefore = 2,    ///< Access strictly in the partner's future.
    kNoFuture = 4,  ///< Access can no longer occur (incl. HALT).
    kLoop = 8,      ///< Access both behind and ahead (loop).
};

struct OrderClass
{
    unsigned buckets = 0;
    std::set<InstAddr> loopRows;

    bool ambiguous() const
    {
        unsigned n = 0;
        for (unsigned b : {kSame, kBefore, kNoFuture, kLoop})
            n += (buckets & b) ? 1 : 0;
        return n >= 2 || loopRows.size() >= 2;
    }
    bool sameOnly() const { return buckets == kSame; }
    bool hasSame() const { return (buckets & kSame) != 0; }
};

// ------------------------------------------------------------- helpers

std::uint32_t
effectiveMask(std::uint32_t mask, FuId width)
{
    const std::uint32_t full =
        width >= 32 ? ~0u : ((1u << width) - 1u);
    return mask & full;
}

/** Collect every shared-state access of @p info's class. */
void
collectAccesses(const Program &prog, ClassInfo &info)
{
    const FuId rep = info.members.front();
    for (InstAddr r = 0; r < prog.size(); ++r) {
        if (!info.cfg->isReachable(r))
            continue;
        for (FuId m : info.members) {
            const DataOp &d = prog.parcel(r, m).data;
            const OpClass cls = opInfo(d.op).cls;
            for (const Operand *op : {&d.a, &d.b}) {
                if (op->isReg())
                    info.accesses.push_back({r, m, Loc::Reg, false,
                                             op->regId(), {}, {}});
            }
            if (d.hasDest())
                info.accesses.push_back(
                    {r, m, Loc::Reg, true, d.dest, {}, {}});
            if (cls == OpClass::MemLoad)
                info.accesses.push_back(
                    {r, m, Loc::Mem, false, -1,
                     info.intervals->loadAddr(r, m), {}});
            if (cls == OpClass::MemStore)
                info.accesses.push_back(
                    {r, m, Loc::Mem, true, -1,
                     info.intervals->storeAddr(r, m),
                     info.intervals->storeValue(r, m)});
            if (setsCondCode(d.op))
                info.accesses.push_back({r, m, Loc::Cc, true,
                                         static_cast<int>(m),
                                         {},
                                         {}});
        }
        // The branch condition is one read of cc[index], identical in
        // every member column; record it once for the class.
        const ControlOp &c = prog.parcel(r, rep).ctrl;
        if (c.kind == CondKind::CcTrue)
            info.accesses.push_back(
                {r, rep, Loc::Cc, false, c.index, {}, {}});
    }
}

/** reachPlus via one forward BFS per reachable row. */
void
computeReachPlus(const Program &prog, ClassInfo &info)
{
    const InstAddr rows = prog.size();
    info.reachPlus.assign(rows, std::vector<char>(rows, 0));
    for (InstAddr from = 0; from < rows; ++from) {
        if (!info.cfg->isReachable(from))
            continue;
        std::vector<char> &seen = info.reachPlus[from];
        const auto first = info.cfg->succs(from);
        std::deque<InstAddr> work(first.begin(), first.end());
        while (!work.empty()) {
            const InstAddr r = work.front();
            work.pop_front();
            if (r >= rows || seen[r])
                continue;
            seen[r] = 1;
            for (InstAddr s : info.cfg->succs(r))
                work.push_back(s);
        }
    }
}

/** futureDone per member: backward closure from DONE-driving rows. */
void
computeFutureDone(const Program &prog, ClassInfo &info)
{
    const InstAddr rows = prog.size();
    info.futureDone.assign(info.members.size(),
                           std::vector<char>(rows, 0));
    for (std::size_t mi = 0; mi < info.members.size(); ++mi) {
        const FuId m = info.members[mi];
        std::vector<char> &fd = info.futureDone[mi];
        std::deque<InstAddr> work;
        for (InstAddr r = 0; r < rows; ++r) {
            if (!info.cfg->isReachable(r))
                continue;
            const Parcel &p = prog.parcel(r, m);
            if (p.sync == SyncVal::Done || p.ctrl.isHalt()) {
                fd[r] = 1;
                work.push_back(r);
            }
        }
        while (!work.empty()) {
            const InstAddr r = work.front();
            work.pop_front();
            for (InstAddr pr : info.cfg->preds(r)) {
                if (!fd[pr] && info.cfg->isReachable(pr)) {
                    fd[pr] = 1;
                    work.push_back(pr);
                }
            }
        }
    }
}

/**
 * Could the intervals prune row @p r's true edge? Only a reachable
 * `if ccK` row whose cc K belongs to the class (a cross-class cc is
 * the product's to decide) and whose two targets differ.
 */
bool
prunable(const Program &prog, const ClassInfo &info, InstAddr r)
{
    if (!info.cfg->isReachable(r))
        return false;
    const ControlOp &c = prog.parcel(r, info.members.front()).ctrl;
    return c.kind == CondKind::CcTrue && c.t1 != c.t2 &&
           c.index < info.isMember.size() && info.isMember[c.index];
}

/** Prove CcTrue edges never taken (own cc, all compares false). */
void
computePrunedTrue(const Program &prog, ClassInfo &info)
{
    const InstAddr rows = prog.size();
    const FuId rep = info.members.front();
    info.prunedTrue.assign(rows, 0);
    for (InstAddr r = 0; r < rows; ++r) {
        if (!prunable(prog, info, r))
            continue;
        const FuId k = prog.parcel(r, rep).ctrl.index;
        bool allFalse = true;
        for (InstAddr q = 0; q < rows && allFalse; ++q) {
            if (!info.cfg->isReachable(q))
                continue;
            if (!setsCondCode(prog.parcel(q, k).data.op))
                continue;
            const auto out = info.intervals->compareOutcome(q, k);
            if (!out.has_value() || *out)
                allFalse = false;
        }
        // With no reachable compare at all, cc starts (and stays)
        // false, so the edge is equally dead.
        info.prunedTrue[r] = allFalse ? 1 : 0;
    }
}

/**
 * Per row: the class can reach a halt from it. A row marked in
 * @p cut (when given) loses its true edge.
 */
std::vector<char>
canHalt(const Program &prog, const ClassInfo &info,
        const std::vector<char> *cut)
{
    const InstAddr rows = prog.size();
    const FuId rep = info.members.front();
    std::vector<char> can(rows, 0);
    bool changed = true;
    while (changed) {
        changed = false;
        for (InstAddr r = 0; r < rows; ++r) {
            if (can[r] || !info.cfg->isReachable(r))
                continue;
            const ControlOp &c = prog.parcel(r, rep).ctrl;
            bool ok = c.isHalt();
            for (InstAddr s : info.cfg->succs(r)) {
                if (cut && (*cut)[r] && s == c.t1 && c.t1 != c.t2)
                    continue;
                ok = ok || (s < rows && can[s]);
            }
            if (ok) {
                can[r] = 1;
                changed = true;
            }
        }
    }
    return can;
}

/**
 * Can checkUnboundedWaits report anything, whatever the intervals
 * prove? It reports a pruned row that reaches a halt in the full
 * graph but not once the pruned true edges are gone. The intervals
 * prune at most every prunable row's true edge, and removing edges
 * only shrinks the set of rows that reach a halt. So a prunable row
 * that still reaches one with every such edge cut, or that reaches
 * none in the full graph, is never reported: false hides no finding.
 */
bool
mayStrand(const Program &prog, const ClassInfo &info)
{
    std::vector<char> cut(prog.size(), 0);
    bool any = false;
    for (InstAddr r = 0; r < prog.size(); ++r) {
        if (prunable(prog, info, r)) {
            cut[r] = 1;
            any = true;
        }
    }
    if (!any)
        return false;
    const std::vector<char> canCut = canHalt(prog, info, &cut);
    const std::vector<char> canFull = canHalt(prog, info, nullptr);
    for (InstAddr r = 0; r < prog.size(); ++r)
        if (cut[r] && !canCut[r] && canFull[r])
            return true;
    return false;
}

/**
 * Unbounded busy-waits: a pruned branch that strands the class — it
 * can no longer reach a halt, though the pruned edge would get there.
 */
void
checkUnboundedWaits(const Program &prog, const ClassInfo &info,
                    DiagnosticList &diags)
{
    const InstAddr rows = prog.size();
    const FuId rep = info.members.front();
    const std::vector<char> canPruned =
        canHalt(prog, info, &info.prunedTrue);
    const std::vector<char> canFull = canHalt(prog, info, nullptr);
    for (InstAddr r = 0; r < rows; ++r) {
        if (!info.prunedTrue[r] || !info.cfg->isReachable(r))
            continue;
        if (canPruned[r] || !canFull[r])
            continue;
        const ControlOp &c = prog.parcel(r, rep).ctrl;
        std::ostringstream os;
        os << "unbounded busy-wait: cc" << int{c.index}
           << " is provably always false here, so the exit to row "
           << c.t1 << " can never be taken";
        diags.error(Check::UnboundedWait, r, rep, os.str());
    }
}

// --------------------------------------------------- flag handshakes

/** Singleton value of @p iv, when it has one. */
std::optional<std::int64_t>
singleValue(const Interval &iv)
{
    if (!iv.isEmpty() && iv.isSingle())
        return iv.lo;
    return std::nullopt;
}

/**
 * Recognize flag polls in @p poller gated by a store in @p storer:
 * row p loads a fixed word F, row p+1 compares it against zero, row
 * p+2 loops on the zero outcome. If exactly one reachable store in
 * the whole program can touch F, it writes a non-zero constant, it
 * lives in @p storer, and F is not initialized non-zero, then the
 * poll cannot exit before the store: gate the exit on the partner
 * being past its store row.
 */
void
findFlagGuards(const Program &prog,
               const std::vector<ClassInfo> &classes,
               std::size_t storerIdx, std::size_t pollerIdx,
               bool pollOnB, std::vector<FlagGuard> &out)
{
    const ClassInfo &storer = classes[storerIdx];
    const ClassInfo &poller = classes[pollerIdx];
    const InstAddr rows = prog.size();
    const FuId rep = poller.members.front();
    for (InstAddr p = 0; p + 2 < rows; ++p) {
        if (!poller.cfg->isReachable(p))
            continue;
        const auto only = [&](InstAddr r, InstAddr next) {
            const auto s = poller.cfg->succs(r);
            return s.size() == 1 && s[0] == next;
        };
        if (!only(p, p + 1) || !only(p + 1, p + 2))
            continue;
        for (FuId f : poller.members) {
            const DataOp &ld = prog.parcel(p, f).data;
            if (opInfo(ld.op).cls != OpClass::MemLoad)
                continue;
            const auto flagAddr =
                singleValue(poller.intervals->loadAddr(p, f));
            if (!flagAddr)
                continue;
            const DataOp &cmp = prog.parcel(p + 1, f).data;
            if (opInfo(cmp.op).cls != OpClass::IntCompare ||
                (cmp.op != Opcode::Eq && cmp.op != Opcode::Ne))
                continue;
            const bool regZero =
                (cmp.a.isReg() && cmp.a.regId() == ld.dest &&
                 cmp.b.isImm() && cmp.b.immValue() == 0) ||
                (cmp.b.isReg() && cmp.b.regId() == ld.dest &&
                 cmp.a.isImm() && cmp.a.immValue() == 0);
            if (!regZero)
                continue;
            const ControlOp &br = prog.parcel(p + 2, rep).ctrl;
            if (br.kind != CondKind::CcTrue || br.index != f)
                continue;
            // Exit must be the flag != 0 outcome.
            InstAddr exit = 0;
            if (cmp.op == Opcode::Eq && br.t1 == p)
                exit = br.t2;
            else if (cmp.op == Opcode::Ne && br.t2 == p)
                exit = br.t1;
            else
                continue;
            // The unique store to F, anywhere in the program.
            int nStores = 0;
            InstAddr storeRow = 0;
            FuId storeFu = 0;
            bool inStorer = false;
            bool nonZero = false;
            for (const ClassInfo &ci : classes) {
                for (const Access &a : ci.accesses) {
                    if (a.loc != Loc::Mem || !a.isWrite)
                        continue;
                    if (!a.addr.contains(*flagAddr))
                        continue;
                    ++nStores;
                    storeRow = a.row;
                    storeFu = a.fu;
                    inStorer = (&ci == &storer);
                    const auto v = singleValue(a.value);
                    nonZero = v.has_value() && *v != 0;
                }
            }
            if (nStores != 1 || !inStorer || !nonZero)
                continue;
            bool initNonZero = false;
            for (const auto &[ad, v] : prog.memInit())
                if (static_cast<std::int64_t>(ad) ==
                        *flagAddr &&
                    v != 0)
                    initNonZero = true;
            if (initNonZero)
                continue;
            FlagGuard g;
            g.pollOnB = pollOnB;
            g.pollRow = static_cast<InstAddr>(p + 2);
            g.exitTarget = exit;
            g.loadRow = p;
            g.loadFu = f;
            g.storeRow = storeRow;
            g.storeFu = storeFu;
            g.allowed.assign(rows + 1, 0);
            g.allowed[rows] = 1; // partner halted: store is behind us
            for (InstAddr ra = 0; ra < rows; ++ra)
                if (storer.cfg->isReachable(ra) &&
                    storer.reachPlus[storeRow][ra])
                    g.allowed[ra] = 1;
            out.push_back(std::move(g));
        }
    }
}

// ------------------------------------------------- the product machine

/** Explores the synchronous product of one class pair. */
class PairProduct
{
  public:
    PairProduct(const Program &prog, const ClassInfo &a,
                const ClassInfo &b, std::vector<FlagGuard> guards)
        : prog_(prog), a_(a), b_(b), guards_(std::move(guards)),
          rows_(prog.size()), halt_(prog.size()),
          visited_((rows_ + 1) * (rows_ + 1), 0)
    {
    }

    /**
     * BFS from (0,0). Returns false when @p budget ran out (remaining
     * states unexplored); @p budget is decremented as states are
     * visited. Lost-signal findings land in @p diags.
     */
    bool
    explore(std::size_t &budget, DiagnosticList &diags)
    {
        std::deque<std::pair<InstAddr, InstAddr>> work;
        visit(0, 0, work);
        while (!work.empty()) {
            if (budget == 0)
                return false;
            const auto [ra, rb] = work.front();
            work.pop_front();
            --budget;
            ++statesVisited_;
            checkLostSignal(ra, rb, diags);
            for (const auto &[na, nb] : successors(ra, rb))
                visit(na, nb, work);
        }
        return true;
    }

    bool seen(InstAddr ra, InstAddr rb) const
    {
        return visited_[ra * (rows_ + 1) + rb] != 0;
    }

    InstAddr halt() const { return halt_; }
    std::size_t statesVisited() const { return statesVisited_; }

  private:
    void
    visit(InstAddr ra, InstAddr rb,
          std::deque<std::pair<InstAddr, InstAddr>> &work)
    {
        char &v = visited_[ra * (rows_ + 1) + rb];
        if (!v) {
            v = 1;
            work.emplace_back(ra, rb);
        }
    }

    /** Tri-state SS value of FU @p j at product state (ra, rb). */
    std::optional<bool>
    syncDone(FuId j, InstAddr ra, InstAddr rb) const
    {
        auto on = [&](InstAddr r) {
            return r == halt_ ||
                   prog_.parcel(r, j).sync == SyncVal::Done;
        };
        if (j < a_.isMember.size() && a_.isMember[j])
            return on(ra);
        if (j < b_.isMember.size() && b_.isMember[j])
            return on(rb);
        return std::nullopt; // third party: unknown
    }

    /** Tri-state outcome of a sync condition at (ra, rb). */
    std::optional<bool>
    syncCond(const ControlOp &c, InstAddr ra, InstAddr rb) const
    {
        if (c.kind == CondKind::SyncDone)
            return syncDone(c.index, ra, rb);
        const std::uint32_t mask =
            effectiveMask(c.mask, prog_.width());
        bool allKnown = true;
        bool anyDone = false;
        bool anyBusy = false;
        for (FuId j = 0; j < prog_.width(); ++j) {
            if (!(mask & (1u << j)))
                continue;
            const auto v = syncDone(j, ra, rb);
            if (!v.has_value())
                allKnown = false;
            else if (*v)
                anyDone = true;
            else
                anyBusy = true;
        }
        if (c.kind == CondKind::AllSync) {
            if (anyBusy)
                return false;
            if (allKnown)
                return true;
            return std::nullopt;
        }
        // AnySync.
        if (anyDone)
            return true;
        if (allKnown)
            return false;
        return std::nullopt;
    }

    /** Do the two sides branch on the same predicate this cycle? */
    bool
    correlated(const ControlOp &ca, const ControlOp &cb) const
    {
        if (!ca.isConditional() || ca.kind != cb.kind)
            return false;
        switch (ca.kind) {
          case CondKind::CcTrue:
          case CondKind::SyncDone:
            return ca.index == cb.index;
          case CondKind::AllSync:
          case CondKind::AnySync:
            return effectiveMask(ca.mask, prog_.width()) ==
                   effectiveMask(cb.mask, prog_.width());
          default:
            return false;
        }
    }

    /** One side's successor rows, partner pinned at @p rp. */
    std::vector<InstAddr>
    sideSuccs(const ClassInfo &side, InstAddr rs, InstAddr ra,
              InstAddr rb) const
    {
        if (rs == halt_)
            return {halt_};
        const ControlOp &c =
            prog_.parcel(rs, side.members.front()).ctrl;
        switch (c.kind) {
          case CondKind::Always:
            return {c.t1};
          case CondKind::Halt:
            return {halt_};
          case CondKind::CcTrue:
            if (side.prunedTrue[rs])
                return {c.t2};
            return c.t1 == c.t2
                       ? std::vector<InstAddr>{c.t1}
                       : std::vector<InstAddr>{c.t1, c.t2};
          default: {
            const auto v = syncCond(c, ra, rb);
            if (v.has_value())
                return {*v ? c.t1 : c.t2};
            return c.t1 == c.t2
                       ? std::vector<InstAddr>{c.t1}
                       : std::vector<InstAddr>{c.t1, c.t2};
          }
        }
    }

    std::vector<std::pair<InstAddr, InstAddr>>
    successors(InstAddr ra, InstAddr rb) const
    {
        std::vector<std::pair<InstAddr, InstAddr>> out;
        if (ra == halt_ && rb == halt_)
            return out;
        bool joint = false;
        if (ra != halt_ && rb != halt_) {
            const ControlOp &ca =
                prog_.parcel(ra, a_.members.front()).ctrl;
            const ControlOp &cb =
                prog_.parcel(rb, b_.members.front()).ctrl;
            if (correlated(ca, cb)) {
                joint = true;
                std::optional<bool> v;
                if (ca.kind == CondKind::CcTrue) {
                    if (a_.prunedTrue[ra] || b_.prunedTrue[rb])
                        v = false;
                } else {
                    v = syncCond(ca, ra, rb);
                }
                if (v.has_value())
                    out.emplace_back(*v ? ca.t1 : ca.t2,
                                     *v ? cb.t1 : cb.t2);
                else {
                    out.emplace_back(ca.t1, cb.t1);
                    out.emplace_back(ca.t2, cb.t2);
                }
            }
        }
        if (!joint) {
            for (InstAddr na : sideSuccs(a_, ra, ra, rb))
                for (InstAddr nb : sideSuccs(b_, rb, ra, rb))
                    out.emplace_back(na, nb);
        }
        // Flag handshakes: the poll cannot exit before the store.
        out.erase(
            std::remove_if(
                out.begin(), out.end(),
                [&](const std::pair<InstAddr, InstAddr> &s) {
                    for (const FlagGuard &g : guards_) {
                        const InstAddr here = g.pollOnB ? rb : ra;
                        const InstAddr next =
                            g.pollOnB ? s.second : s.first;
                        const InstAddr partner =
                            g.pollOnB ? ra : rb;
                        if (here == g.pollRow &&
                            next == g.exitTarget &&
                            !g.allowed[partner])
                            return true;
                    }
                    return false;
                }),
            out.end());
        // Dedup (cross products repeat targets).
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
        return out;
    }

    /**
     * A spin wait whose producer can no longer signal: at (ra, rb)
     * one side sits on `if ss… exit | here` while every masked FU it
     * needs has provably no DONE in its future.
     */
    void
    checkLostSignal(InstAddr ra, InstAddr rb, DiagnosticList &diags)
    {
        auto check = [&](const ClassInfo &waiter,
                         const ClassInfo &other, InstAddr rw,
                         InstAddr ro) {
            if (rw == halt_)
                return;
            const ControlOp &c =
                prog_.parcel(rw, waiter.members.front()).ctrl;
            if (c.t2 != rw || c.t1 == c.t2)
                return;
            auto dead = [&](FuId j) -> std::optional<bool> {
                // Is j's DONE provably unreachable from here on?
                // (Waiter-class members are base-checker territory;
                // third parties belong to a different pair.)
                for (std::size_t mi = 0; mi < other.members.size();
                     ++mi)
                    if (other.members[mi] == j)
                        return ro != halt_ &&
                               !other.futureDone[mi][ro];
                return std::nullopt;
            };
            auto report = [&](FuId j) {
                if (!lostReported_
                         .insert({rw, waiter.members.front(), j})
                         .second)
                    return;
                std::ostringstream os;
                os << "lost signal: this wait needs fu"
                   << static_cast<int>(j)
                   << " to signal DONE, but from row "
                   << (ro == halt_ ? std::string("halt")
                                   : std::to_string(ro))
                   << " that stream can never drive DONE again";
                Diagnostic d{
                    Severity::Error, Check::LostSignal, rw,
                    static_cast<int>(waiter.members.front()),
                    os.str()};
                if (ro != halt_) {
                    d.otherRow = static_cast<int>(ro);
                    d.otherFu = j;
                }
                diags.add(std::move(d));
            };
            if (c.kind == CondKind::SyncDone) {
                if (dead(c.index).value_or(false))
                    report(c.index);
            } else if (c.kind == CondKind::AllSync) {
                const std::uint32_t mask =
                    effectiveMask(c.mask, prog_.width());
                for (FuId j = 0; j < prog_.width(); ++j)
                    if ((mask & (1u << j)) &&
                        dead(j).value_or(false)) {
                        report(j);
                        break;
                    }
            } else if (c.kind == CondKind::AnySync) {
                const std::uint32_t mask =
                    effectiveMask(c.mask, prog_.width());
                bool allDead = true;
                FuId sample = 0;
                for (FuId j = 0; j < prog_.width() && allDead;
                     ++j) {
                    if (!(mask & (1u << j)))
                        continue;
                    if (waiter.isMember[j]) {
                        // Stuck => the waiter loops here forever,
                        // driving whatever this row drives.
                        allDead = prog_.parcel(rw, j).sync ==
                                  SyncVal::Busy;
                    } else {
                        const auto d = dead(j);
                        allDead = d.has_value() && *d;
                        sample = j;
                    }
                }
                if (allDead)
                    report(sample);
            }
        };
        check(a_, b_, ra, rb);
        check(b_, a_, rb, ra);
    }

    const Program &prog_;
    const ClassInfo &a_;
    const ClassInfo &b_;
    std::vector<FlagGuard> guards_;
    InstAddr rows_;
    InstAddr halt_;
    std::vector<char> visited_;
    std::size_t statesVisited_ = 0;
    std::set<std::tuple<InstAddr, FuId, FuId>> lostReported_;
};

// ------------------------------------------------------ pair analysis

bool
conflicting(const Access &x, const Access &y)
{
    if (x.loc != y.loc || (!x.isWrite && !y.isWrite))
        return false;
    if (x.loc == Loc::Mem)
        return Interval::overlaps(x.addr, y.addr);
    return x.id == y.id;
}

std::string
locName(const Access &a, const Program &prog)
{
    std::ostringstream os;
    if (a.loc == Loc::Reg) {
        os << "r" << a.id;
        if (auto n = prog.regName(static_cast<RegId>(a.id)))
            os << " (" << *n << ")";
    } else if (a.loc == Loc::Cc) {
        os << "cc" << a.id;
    } else {
        os << "M" << a.addr.toString();
    }
    return os.str();
}

/** Classify every partner row co-reachable with @p anchor's row. */
OrderClass
classifyOrder(const PairProduct &prod, const ClassInfo &otherSide,
              bool anchorOnB, InstAddr anchorRow, InstAddr otherRow,
              InstAddr rows)
{
    OrderClass oc;
    for (InstAddr rp = 0; rp <= rows; ++rp) {
        const bool seen = anchorOnB ? prod.seen(rp, anchorRow)
                                    : prod.seen(anchorRow, rp);
        if (!seen)
            continue;
        if (rp == rows) {
            oc.buckets |= kNoFuture;
            continue;
        }
        if (rp == otherRow) {
            oc.buckets |= kSame;
            continue;
        }
        const bool fwd = otherSide.reachPlus[rp][otherRow];
        const bool back = otherSide.reachPlus[otherRow][rp];
        if (fwd && back) {
            oc.buckets |= kLoop;
            oc.loopRows.insert(rp);
        } else if (fwd) {
            oc.buckets |= kBefore;
        } else {
            oc.buckets |= kNoFuture;
        }
    }
    return oc;
}

} // namespace

// ------------------------------------------------------------ driver

RaceReport
analyzeRaces(const Program &prog, const ProgramFacts &facts,
             const RaceOptions &opts)
{
    RaceReport report;
    if (prog.empty())
        return report;
    XIMD_ASSERT(facts.cfg.streams.size() == prog.width() &&
                    facts.cfg.streams.front().rows() == prog.size(),
                "race-engine facts were built from another program");

    // The model assumes a structurally valid program (targets in
    // range, no same-row write conflicts, no self-deadlocks); stand
    // down if the base verifier already objects.
    if (facts.base.hasErrors()) {
        report.baseErrors = true;
        return report;
    }

    const LockstepClasses &part = facts.classes;
    report.classes = part.count();
    const bool pairs = part.count() > 1;

    std::vector<ClassInfo> classes(part.count());
    for (std::size_t c = 0; c < part.count(); ++c) {
        ClassInfo &ci = classes[c];
        ci.members = part.members[c];
        ci.isMember.assign(prog.width(), 0);
        for (FuId m : ci.members)
            ci.isMember[m] = 1;
        ci.cfg = &facts.cfg.streams[ci.members.front()];
        // A lone class can only hold an unbounded wait.
        if (!pairs && !mayStrand(prog, ci))
            continue;
        ci.intervals = std::make_unique<ClassIntervalAnalysis>(
            prog, *ci.cfg, ci.members,
            externallyWrittenRegs(prog, facts.cfg, ci.members));
        if (pairs) {
            collectAccesses(prog, ci);
            computeReachPlus(prog, ci);
            computeFutureDone(prog, ci);
        }
        computePrunedTrue(prog, ci);
        checkUnboundedWaits(prog, ci, report.diags);
    }

    const InstAddr rows = prog.size();
    std::size_t budget = opts.stateBudget;
    std::set<std::tuple<int, InstAddr, int, InstAddr, int>> emitted;
    std::set<std::tuple<InstAddr, int, InstAddr, int>> coveredSet;

    auto cover = [&](InstAddr ra, FuId fa, InstAddr rb, FuId fb) {
        if (coveredSet.insert({ra, fa, rb, fb}).second)
            report.covered.push_back(
                {ra, static_cast<int>(fa), rb,
                 static_cast<int>(fb)});
    };

    for (std::size_t cA = 0; cA < classes.size(); ++cA) {
        for (std::size_t cB = cA + 1; cB < classes.size(); ++cB) {
            const ClassInfo &A = classes[cA];
            const ClassInfo &B = classes[cB];
            ++report.pairsAnalyzed;

            std::vector<FlagGuard> guards;
            findFlagGuards(prog, classes, cA, cB, true, guards);
            findFlagGuards(prog, classes, cB, cA, false, guards);

            // Candidate conflicting pairs (x in A, y in B), minus
            // pairs a recognized handshake orders by construction.
            std::vector<std::pair<const Access *, const Access *>>
                cand;
            for (const Access &x : A.accesses) {
                for (const Access &y : B.accesses) {
                    if (!conflicting(x, y))
                        continue;
                    bool idiom = false;
                    for (const FlagGuard &g : guards) {
                        const Access &st = g.pollOnB ? x : y;
                        const Access &lo = g.pollOnB ? y : x;
                        if (st.row == g.storeRow &&
                            st.fu == g.storeFu &&
                            lo.row == g.loadRow &&
                            lo.fu == g.loadFu) {
                            idiom = true;
                            cover(x.row, x.fu, y.row, y.fu);
                        }
                    }
                    if (!idiom)
                        cand.emplace_back(&x, &y);
                }
            }

            PairProduct prod(prog, A, B, std::move(guards));
            const bool complete =
                prod.explore(budget, report.diags);
            report.productStates += prod.statesVisited();
            if (!complete) {
                report.budgetExceeded = true;
                for (const auto &[x, y] : cand)
                    cover(x->row, x->fu, y->row, y->fu);
                continue;
            }

            for (const auto &[x, y] : cand) {
                const OrderClass onY = classifyOrder(
                    prod, A, true, y->row, x->row, rows);
                const OrderClass onX = classifyOrder(
                    prod, B, false, x->row, y->row, rows);
                if (onY.buckets == 0)
                    continue; // sites never co-exist

                // The read's perspective decides what it can observe;
                // for write/write both perspectives must agree.
                bool race = false;
                bool simultaneous = false;
                if (x->isWrite && y->isWrite) {
                    race = onY.ambiguous() || onX.ambiguous();
                    simultaneous =
                        !race && (onY.hasSame() || onX.hasSame());
                } else {
                    const OrderClass &onRead =
                        x->isWrite ? onY : onX;
                    race = onRead.ambiguous();
                    if (!race && onRead.hasSame()) {
                        // Deterministic same-cycle read-old: benign,
                        // but the dynamic observer will see it.
                        cover(x->row, x->fu, y->row, y->fu);
                        continue;
                    }
                }
                if (!race && !simultaneous)
                    continue;

                Check check = Check::RegRace;
                Severity sev = Severity::Error;
                if (x->loc == Loc::Cc)
                    check = Check::CcRace;
                else if (x->loc == Loc::Mem) {
                    const bool exact = x->addr.isSingle() &&
                                       y->addr.isSingle();
                    check =
                        exact ? Check::MemRace : Check::MemMaybeRace;
                    sev = exact ? Severity::Error
                                : Severity::Warning;
                }
                if (sev == Severity::Warning && !opts.warnings) {
                    cover(x->row, x->fu, y->row, y->fu);
                    continue;
                }
                if (!emitted
                         .insert({static_cast<int>(check), x->row,
                                  static_cast<int>(x->fu), y->row,
                                  static_cast<int>(y->fu)})
                         .second)
                    continue;
                std::ostringstream os;
                os << (simultaneous ? "simultaneous writes to "
                                    : "cross-stream race on ")
                   << locName(*x, prog) << ": "
                   << (x->isWrite ? "write" : "read") << " by fu"
                   << static_cast<int>(x->fu) << " is unordered with "
                   << (y->isWrite ? "write" : "read") << " by fu"
                   << static_cast<int>(y->fu);
                Diagnostic d{sev, check, x->row,
                             static_cast<int>(x->fu), os.str()};
                d.otherRow = static_cast<int>(y->row);
                d.otherFu = static_cast<int>(y->fu);
                report.diags.add(std::move(d));
            }
        }
    }

    if (report.budgetExceeded && opts.warnings)
        report.diags.warning(
            Check::RaceBudget, 0, -1,
            "product-state budget exhausted; unexplored access pairs "
            "were conservatively marked covered, not verified");

    report.diags.attachLines(prog);
    report.diags.sort();
    return report;
}

RaceReport
analyzeRaces(const Program &prog, const RaceOptions &opts)
{
    return analyzeRaces(prog, buildFacts(prog), opts);
}

} // namespace ximd::analysis
