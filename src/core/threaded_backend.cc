#include "core/threaded_backend.hh"

#include <algorithm>
#include <map>
#include <tuple>

#include "core/interp_backend.hh"
#include "sim/alu.hh"
#include "support/logging.hh"

// Token-threaded dispatch: computed goto on GCC/Clang, a dense switch
// elsewhere. The macros keep one copy of the handler bodies valid for
// both forms; every handler ends in an explicit jump (XIMD_NEXT to
// finish the FU, XIMD_SEQ to fall into the shared sequencing path), so
// neither form can fall through.
#if defined(__GNUC__) && !defined(XIMD_NO_COMPUTED_GOTO)
#define XIMD_THREADED_GOTO 1
#else
#define XIMD_THREADED_GOTO 0
#endif

#if XIMD_THREADED_GOTO
#define XIMD_OP(name) op_##name:
// Jump through a table with one handler label per ExecKind, in enum
// order; each block loop defines every label.
#define XIMD_DISPATCH_BEGIN(kind)                                         \
    do {                                                                  \
        static const void *const kDispatch[] = {                          \
            &&op_Nop, &&op_Jump, &&op_HaltTok, &&op_PollCc, &&op_PollSs,  \
            &&op_PollAll, &&op_PollAny, &&op_Iadd, &&op_Isub, &&op_Imult, \
            &&op_Idiv, &&op_Imod, &&op_Ineg, &&op_And, &&op_Or, &&op_Xor, \
            &&op_Not, &&op_Shl, &&op_Shr, &&op_Sar, &&op_Mov, &&op_Eq,   \
            &&op_Ne, &&op_Lt, &&op_Le, &&op_Gt, &&op_Ge, &&op_Fadd,       \
            &&op_Fsub, &&op_Fmult, &&op_Fdiv, &&op_Fneg, &&op_Feq,        \
            &&op_Fne, &&op_Flt, &&op_Fle, &&op_Fgt, &&op_Fge, &&op_Itof,  \
            &&op_Ftoi, &&op_Load, &&op_Store,                             \
        };                                                                \
        static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) ==         \
                          kNumExecKinds,                                  \
                      "dispatch table must cover every ExecKind");        \
        goto *kDispatch[static_cast<unsigned>(kind)];                     \
    } while (0);
#define XIMD_DISPATCH_END
#else
#define XIMD_OP(name) case ExecKind::name:
#define XIMD_DISPATCH_BEGIN(kind) switch (kind) {
#define XIMD_DISPATCH_END }
#endif
#define XIMD_NEXT goto fu_done
#define XIMD_SEQ goto do_seq

// The data-op execute bodies, shared between the XIMD and VLIW block
// loops' inline handlers. Names in scope at expansion: `t` (token),
// `fu`, `pend`, `st`, `memPages` (the memory's page table),
// `memWords`, and the member `core_`.
// Semantics mirror InterpBackend::executeParcel exactly, including
// fault points: ALU helpers raise divide-by-zero, and an out-of-range
// load faults before the load counter moves (stores defer their check
// to commitPend).
#define XIMD_DATA_OPS(X)                                                  \
    X(Iadd, PUSH_REG(*t.a + *t.b))                                        \
    X(Isub, PUSH_REG(*t.a - *t.b))                                        \
    X(Imult, PUSH_REG(alu::intBinary(Opcode::Imult, *t.a, *t.b)))         \
    X(Idiv, PUSH_REG(alu::intBinary(Opcode::Idiv, *t.a, *t.b)))           \
    X(Imod, PUSH_REG(alu::intBinary(Opcode::Imod, *t.a, *t.b)))           \
    X(Ineg, PUSH_REG(alu::intUnary(Opcode::Ineg, *t.a)))                  \
    X(And, PUSH_REG(*t.a & *t.b))                                         \
    X(Or, PUSH_REG(*t.a | *t.b))                                          \
    X(Xor, PUSH_REG(*t.a ^ *t.b))                                         \
    X(Not, PUSH_REG(alu::intUnary(Opcode::Not, *t.a)))                    \
    X(Shl, PUSH_REG(*t.a << (*t.b & 31u)))                                \
    X(Shr, PUSH_REG(*t.a >> (*t.b & 31u)))                                \
    X(Sar, PUSH_REG(intToWord(wordToInt(*t.a) >> (*t.b & 31u))))          \
    X(Mov, PUSH_REG(alu::intUnary(Opcode::Mov, *t.a)))                    \
    X(Eq, PUSH_CC(alu::intCompare(Opcode::Eq, *t.a, *t.b)))               \
    X(Ne, PUSH_CC(alu::intCompare(Opcode::Ne, *t.a, *t.b)))               \
    X(Lt, PUSH_CC(alu::intCompare(Opcode::Lt, *t.a, *t.b)))               \
    X(Le, PUSH_CC(alu::intCompare(Opcode::Le, *t.a, *t.b)))               \
    X(Gt, PUSH_CC(alu::intCompare(Opcode::Gt, *t.a, *t.b)))               \
    X(Ge, PUSH_CC(alu::intCompare(Opcode::Ge, *t.a, *t.b)))               \
    X(Fadd, PUSH_REG(alu::floatBinary(Opcode::Fadd, *t.a, *t.b)))         \
    X(Fsub, PUSH_REG(alu::floatBinary(Opcode::Fsub, *t.a, *t.b)))         \
    X(Fmult, PUSH_REG(alu::floatBinary(Opcode::Fmult, *t.a, *t.b)))      \
    X(Fdiv, PUSH_REG(alu::floatBinary(Opcode::Fdiv, *t.a, *t.b)))         \
    X(Fneg, PUSH_REG(alu::floatUnary(Opcode::Fneg, *t.a)))                \
    X(Feq, PUSH_CC(alu::floatCompare(Opcode::Feq, *t.a, *t.b)))           \
    X(Fne, PUSH_CC(alu::floatCompare(Opcode::Fne, *t.a, *t.b)))           \
    X(Flt, PUSH_CC(alu::floatCompare(Opcode::Flt, *t.a, *t.b)))           \
    X(Fle, PUSH_CC(alu::floatCompare(Opcode::Fle, *t.a, *t.b)))           \
    X(Fgt, PUSH_CC(alu::floatCompare(Opcode::Fgt, *t.a, *t.b)))           \
    X(Fge, PUSH_CC(alu::floatCompare(Opcode::Fge, *t.a, *t.b)))           \
    X(Itof, PUSH_REG(alu::convert(Opcode::Itof, *t.a)))                   \
    X(Ftoi, PUSH_REG(alu::convert(Opcode::Ftoi, *t.a)))                   \
    X(Load, do {                                                          \
        const Addr addr = *t.a + *t.b;                                    \
        if (addr >= memWords)                                             \
            core_.mem_.checkAddr(addr); /* throws interp's message */     \
        ++st.loads;                                                       \
        PUSH_REG(Memory::wordAt(memPages, addr));                         \
    } while (0))                                                          \
    X(Store, PUSH_MEM(*t.b, *t.a))

#define PUSH_REG(v)                                                       \
    (pend.regW[pend.nReg].reg = t.dest, pend.regW[pend.nReg].fu = fu,     \
     pend.regW[pend.nReg].val = (v), ++pend.nReg)
#define PUSH_CC(v)                                                        \
    (pend.ccW[pend.nCc].fu = fu,                                          \
     pend.ccW[pend.nCc].val = static_cast<std::uint8_t>(v), ++pend.nCc)
#define PUSH_MEM(a_, v_)                                                  \
    (pend.memW[pend.nMem].addr = (a_), pend.memW[pend.nMem].fu = fu,      \
     pend.memW[pend.nMem].val = (v_), ++pend.nMem)

namespace ximd {

namespace {

inline FuId
lowestSetFu(std::uint32_t m)
{
#if defined(__GNUC__)
    return static_cast<FuId>(__builtin_ctz(m));
#else
    FuId fu = 0;
    while (!(m & 1u)) {
        m >>= 1;
        ++fu;
    }
    return fu;
#endif
}

} // namespace

void
ThreadedBackend::prepare()
{
    const FlatProgram &flat = core_.prepared_->flat();
    const FuId n = core_.numFus();
    rows_ = flat.size();
    tokens_.assign(static_cast<std::size_t>(n) * rows_, Token{});
    Word *const regs = core_.regs_.regs_.data();

    for (FuId fu = 0; fu < n; ++fu) {
        for (InstAddr addr = 0; addr < rows_; ++addr) {
            const FlatParcel &f = flat.at(addr, fu);
            Token &t = tokens_[static_cast<std::size_t>(fu) * rows_ +
                               addr];
            t.kind = f.kind;
            t.ckind = f.ckind;
            t.cindex = f.cindex;
            t.cls = f.cls;
            t.readCount = f.readCount;
            t.flags = f.flags;
            t.dest = f.dest;
            t.keyId = f.keyId;
            t.ssDoneBit = f.ssDoneBit;
            t.cmask = f.cmask;
            t.t1 = f.t1;
            t.t2 = f.t2;
            t.aImm = f.aVal;
            t.bImm = f.bVal;
            // Register operands are bounded at Operand construction,
            // so a register pointer is always in range; immediates
            // point at the token's own inline copy. Tokens never move
            // after this loop (the vector is fully sized above).
            t.a = (f.flags & FlatParcel::kAReg) ? regs + f.aVal : &t.aImm;
            t.b = (f.flags & FlatParcel::kBReg) ? regs + f.bVal : &t.bImm;
            if (f.cls != static_cast<std::uint8_t>(OpClass::Nop))
                tokens_[addr].dataLanes |= 1u << fu;
            tokens_[addr].rowDone |= f.ssDoneBit;
        }
    }

    execs_.assign(tokens_.size(), 0);
    takens_.assign(tokens_.size(), 0);
    rowExecs_.assign(rows_, 0);
    rowTakens_.assign(rows_, 0);
    curSsets_.assign(n, 0);
    keyOwner_.assign(flat.numKeys(), 0);
    curStreams_ = 1;
    groupingValid_ = false;
    regStamp_.assign(kNumRegisters, 0);
    commitEpoch_ = 0;
}

bool
ThreadedBackend::step()
{
    // Single-step callers observe per-cycle state; delegate to the
    // interpreter (same architectural result, full hook fidelity).
    groupingValid_ = false;
    return InterpBackend::stepCore(core_);
}

void
ThreadedBackend::onStateLoaded()
{
    groupingValid_ = false;
}

void
ThreadedBackend::loadBlockState(BlockState &st) const
{
    const FuId n = core_.numFus();
    st.liveMask = 0;
    st.ccEverMask = 0;
    st.ssBusMask = 0;
    st.ssPrevMask = 0;
    for (FuId fu = 0; fu < n; ++fu) {
        const std::uint32_t bit = 1u << fu;
        st.pc[fu] = core_.pcs_[fu];
        if (!core_.haltedFus_[fu])
            st.liveMask |= bit;
        st.cc[fu] = core_.ccs_.cur_[fu] ? 1 : 0;
        if (core_.ccs_.everWritten_[fu])
            st.ccEverMask |= bit;
        if (core_.sync_.get(fu) == SyncVal::Done)
            st.ssBusMask |= bit;
        if (core_.syncPrev_[fu] == SyncVal::Done)
            st.ssPrevMask |= bit;
    }
    st.cyc = core_.cycle_;
    st.streams = curStreams_;
}

void
ThreadedBackend::storeBlockState(const BlockState &st, bool touchSync)
{
    const FuId n = core_.numFus();
    core_.cycle_ = st.cyc;
    for (FuId fu = 0; fu < n; ++fu) {
        const std::uint32_t bit = 1u << fu;
        core_.pcs_[fu] = st.pc[fu];
        core_.haltedFus_[fu] = !(st.liveMask & bit);
        core_.ccs_.cur_[fu] = st.cc[fu] != 0;
        core_.ccs_.everWritten_[fu] = (st.ccEverMask & bit) != 0;
    }
    core_.regs_.reads_ += st.reads;
    core_.regs_.writes_ += st.writes;
    core_.mem_.loads_ += st.loads;
    core_.mem_.stores_ += st.stores;
    if (touchSync) {
        // Leave the bus exactly as the last fetch drove it, and the
        // registered history as the last *committed* cycle drove it
        // (a faulting cycle drives the bus but never advances).
        core_.sync_.beginCycle();
        for (FuId fu = 0; fu < n; ++fu) {
            if (!(st.ssBusMask & (1u << fu)))
                core_.sync_.set(fu, SyncVal::Busy);
            core_.syncPrev_[fu] = (st.ssPrevMask & (1u << fu))
                                      ? SyncVal::Done
                                      : SyncVal::Busy;
        }
    }
    core_.spinHint_ = false;
}

void
ThreadedBackend::seedGroupingFromEvents()
{
    // Reproduce PartitionTracker::update() from the interpreter cycle
    // that just committed: live, un-halted FUs group by control-op
    // key; ids are dense in order of first FU appearance.
    const FuId n = core_.numFus();
    using Key =
        std::tuple<int, unsigned, std::uint32_t, InstAddr, InstAddr>;
    std::map<Key, int> groups;
    int next = 0;
    for (FuId fu = 0; fu < n; ++fu) {
        const FuEvent &e = core_.events_[fu];
        if (!e.executed || e.halted) {
            curSsets_[fu] = -1;
            continue;
        }
        const Key key =
            e.ctrl.isConditional()
                ? Key{static_cast<int>(e.ctrl.kind), e.ctrl.index,
                      e.ctrl.mask, e.ctrl.t1, e.ctrl.t2}
                : Key{static_cast<int>(CondKind::Always), 0u, 0u,
                      e.nextPc, e.nextPc};
        auto it = groups.find(key);
        if (it == groups.end())
            it = groups.emplace(key, next++).first;
        curSsets_[fu] = it->second;
    }
    curStreams_ = static_cast<unsigned>(next);
    groupingValid_ = true;
}

void
ThreadedBackend::assignSsets(const std::uint16_t *keys,
                             std::uint32_t liveMask)
{
    // PartitionTracker::update()'s grouping over interned keys: the
    // live FUs group by key, with dense ids in order of first FU
    // appearance. The lowest FU holding a key leads its SSET.
    const FuId n = core_.numFus();
    for (FuId fu = n; fu-- > 0;)
        if (liveMask & (1u << fu))
            keyOwner_[keys[fu]] = static_cast<std::uint8_t>(fu);
    int next = 0;
    for (FuId fu = 0; fu < n; ++fu) {
        if (!(liveMask & (1u << fu))) {
            curSsets_[fu] = -1;
            continue;
        }
        const FuId lead = keyOwner_[keys[fu]];
        curSsets_[fu] = lead == fu ? next++ : curSsets_[lead];
    }
    curStreams_ = static_cast<unsigned>(next);
}

void
ThreadedBackend::foldCounts(BlockStats &blk)
{
    // The per-FU loop counts per token, the row loop per row. A
    // conditional token goes to T1 when taken and T2 otherwise, so it
    // busy-waits on each target that is its own address. Walking rows
    // within each column keeps that address at hand, with no division
    // of the token index.
    const FuId n = core_.numFus();
    const bool vliw = core_.mode_ == Mode::Vliw;
    const auto branches = [&blk](const Token &t, InstAddr addr,
                                 std::uint64_t execs,
                                 std::uint64_t taken) {
        if (t.flags & FlatParcel::kConditional) {
            blk.condBranches += execs;
            blk.takenBranches += taken;
            if (t.t1 == addr)
                blk.busyWaitFuCycles += taken;
            if (t.t2 == addr)
                blk.busyWaitFuCycles += execs - taken;
        }
    };

    // Row-loop cycles. A VLIW row ran every lane under FU0's control;
    // a one-stream XIMD row ran every FU's token with one outcome, so
    // its counts go to each token.
    for (InstAddr addr = 0; addr < rows_; ++addr) {
        const std::uint64_t execs = rowExecs_[addr];
        if (!execs)
            continue;
        const std::uint64_t taken = rowTakens_[addr];
        rowExecs_[addr] = 0;
        rowTakens_[addr] = 0;
        for (FuId fu = 0; fu < n; ++fu) {
            const std::size_t i =
                static_cast<std::size_t>(fu) * rows_ + addr;
            if (vliw) {
                blk.classCounts[tokens_[i].cls] += execs;
            } else {
                execs_[i] += execs;
                takens_[i] += taken;
            }
        }
        if (vliw) {
            blk.parcels += execs * n;
            branches(tokens_[addr], addr, execs, taken);
        }
    }
    if (vliw)
        return;

    std::size_t i = 0;
    for (FuId fu = 0; fu < n; ++fu) {
        for (InstAddr addr = 0; addr < rows_; ++addr, ++i) {
            const std::uint64_t execs = execs_[i];
            if (!execs)
                continue;
            const std::uint64_t taken = takens_[i];
            execs_[i] = 0;
            takens_[i] = 0;
            blk.parcels += execs;
            blk.classCounts[tokens_[i].cls] += execs;
            branches(tokens_[i], addr, execs, taken);
        }
    }
}

inline void
ThreadedBackend::commitPend(Pend &pend, BlockState &st)
{
    // Mirrors WritePipeline::drainInto + the component commits at unit
    // latency. drainInto queues register writes first (their index
    // check cannot fire: operand construction bounds register ids),
    // then CC writes, then stores — so a store's address check is the
    // first commit-time fault and nothing has applied when it throws.
    const std::size_t memWords = core_.mem_.size();
    for (int i = 0; i < pend.nMem; ++i) {
        if (pend.memW[i].addr >= memWords)
            core_.mem_.checkAddr(pend.memW[i].addr); // throws
    }

    // Registers: stamp each written register with this commit's epoch.
    // A register stamped twice is a same-cycle conflict; only then
    // does the exact sort-and-scan path run.
    if (pend.nReg) {
        const std::uint64_t epoch = ++commitEpoch_;
        std::uint64_t *const stamps = regStamp_.data();
        bool conflict = false;
        for (int i = 0; i < pend.nReg; ++i) {
            std::uint64_t &stamp = stamps[pend.regW[i].reg];
            conflict |= stamp == epoch;
            stamp = epoch;
        }
        if (conflict) {
            commitConflictingRegs(pend, st);
        } else {
            Word *const regs = core_.regs_.regs_.data();
            for (int i = 0; i < pend.nReg; ++i)
                regs[pend.regW[i].reg] = pend.regW[i].val;
            st.writes += static_cast<std::uint64_t>(pend.nReg);
        }
    }

    if (pend.nMem)
        commitStores(pend, st);

    // Condition codes last (CondCodeFile::commit; never faults).
    for (int i = 0; i < pend.nCc; ++i) {
        st.cc[pend.ccW[i].fu] = pend.ccW[i].val;
        st.ccEverMask |= 1u << pend.ccW[i].fu;
    }
}

void
ThreadedBackend::commitStores(Pend &pend, BlockState &st)
{
    // Sort by (addr, fu), scan for cross-FU conflicts, then apply
    // lowest-FU-first with same-address shadowing (matches
    // Memory::commit). A conflict faults *after* the register commit
    // applied, exactly as Memory::commit follows RegisterFile::commit
    // in the interpreter.
    for (int i = 1; i < pend.nMem; ++i) {
        const Pend::MemW w = pend.memW[i];
        int j = i - 1;
        while (j >= 0 && (pend.memW[j].addr > w.addr ||
                          (pend.memW[j].addr == w.addr &&
                           pend.memW[j].fu > w.fu))) {
            pend.memW[j + 1] = pend.memW[j];
            --j;
        }
        pend.memW[j + 1] = w;
    }
    if (core_.config_.conflictPolicy == ConflictPolicy::Fault) {
        for (int i = 1; i < pend.nMem; ++i) {
            const Pend::MemW &prev = pend.memW[i - 1];
            const Pend::MemW &cur = pend.memW[i];
            if (prev.addr == cur.addr && prev.fu != cur.fu)
                fatal("memory write conflict: FU", prev.fu, " and FU",
                      cur.fu, " both store to address ", cur.addr,
                      " this cycle");
        }
    }
    Addr lastAddr = 0;
    bool haveLast = false;
    for (int i = 0; i < pend.nMem; ++i) {
        const Pend::MemW &w = pend.memW[i];
        if (haveLast && w.addr == lastAddr)
            continue;
        core_.mem_.setWord(w.addr, w.val);
        ++st.stores;
        lastAddr = w.addr;
        haveLast = true;
    }
}

void
ThreadedBackend::commitConflictingRegs(Pend &pend, BlockState &st)
{
    // Sort by (reg, fu), scan for cross-FU conflicts before anything
    // applies, then apply lowest-FU-first with same-register shadowing
    // (matches RegisterFile::commit, including which pair a fault
    // names: the lowest conflicting register's two lowest FUs).
    Pend::RegW *const w = pend.regW;
    std::sort(w, w + pend.nReg,
              [](const Pend::RegW &a, const Pend::RegW &b) {
                  return a.reg != b.reg ? a.reg < b.reg : a.fu < b.fu;
              });
    if (core_.config_.conflictPolicy == ConflictPolicy::Fault) {
        for (int i = 1; i < pend.nReg; ++i) {
            if (w[i - 1].reg == w[i].reg)
                fatal("register write conflict: FU", w[i - 1].fu,
                      " and FU", w[i].fu, " both write r", w[i].reg,
                      " this cycle");
        }
    }
    Word *const regs = core_.regs_.regs_.data();
    for (int i = 0; i < pend.nReg; ++i) {
        if (i > 0 && w[i - 1].reg == w[i].reg)
            continue; // shadowed by a lower FU's write
        regs[w[i].reg] = w[i].val;
        ++st.writes;
    }
}

template <bool kStats, bool kPart>
ThreadedBackend::BlockExit
ThreadedBackend::runBlockXimd(Cycle limit, BlockState &st,
                              BlockStats &blk)
{
    static_assert(kStats || !kPart, "partitions are charged as stats");
    MachineCore &core = core_;
    const FuId n = core.numFus();
    const std::uint32_t fullMask = fuMaskAll(n);
    const Word *const *const memPages = core.mem_.table_.data();
    const std::size_t memWords = core.mem_.size();
    const Token *const toks = tokens_.data();
    const InstAddr rows = rows_;
    const bool fastForward = core.config_.fastForward;
    std::uint64_t *const execs = execs_.data();
    std::uint64_t *const takens = takens_.data();
    std::uint8_t *const owner = keyOwner_.data();
    const Cycle startCycle = st.cyc;

    const Token *cur[kMaxFus] = {};
    InstAddr nxPc[kMaxFus];
    Pend pend;

    // The SSET state at exit follows the last committed cycle.
    const auto leave = [&](BlockExit exit) {
        if constexpr (kPart) {
            if (st.cyc != startCycle)
                assignSsets(st.keys, st.liveMask);
        }
        return exit;
    };

    for (;;) {
        // Halt first: a run that halts on its last budgeted cycle is
        // done, not out of budget.
        if (st.liveMask == 0)
            return leave(BlockExit::Halted);
        if (st.cyc >= limit)
            return leave(BlockExit::Limit);

        // One stream: every FU live on one uniform row.
        if (st.liveMask == fullMask &&
            (toks[st.pc[0]].flags & FlatParcel::kRowUniform)) {
            bool onePc = true;
            for (FuId fu = 1; fu < n; ++fu)
                onePc &= st.pc[fu] == st.pc[0];
            if (onePc) {
                const BlockExit exit =
                    runRows<Mode::Ximd, kStats, kPart>(limit, st, blk);
                if (exit != BlockExit::Diverged)
                    return leave(exit);
                continue;
            }
        }

        // Fetch: gather live tokens and drive the combinational sync
        // bus (halted FUs read DONE).
        std::uint32_t ssDone = ~st.liveMask & fullMask;
        for (std::uint32_t m = st.liveMask; m; m &= m - 1) {
            const FuId fu = lowestSetFu(m);
            const Token &t =
                toks[static_cast<std::size_t>(fu) * rows + st.pc[fu]];
            cur[fu] = &t;
            ssDone |= t.ssDoneBit;
        }
        st.ssBusMask = ssDone;

        // Execute + sequence each live FU in FU order, then commit.
        std::uint32_t haltMask = 0;
        std::uint32_t takenMask = 0;
        pend.nReg = pend.nMem = pend.nCc = 0;
        try {
            for (std::uint32_t m = st.liveMask; m; m &= m - 1) {
                const FuId fu = lowestSetFu(m);
                const std::uint32_t bit = 1u << fu;
                const Token &t = *cur[fu];
                st.reads += t.readCount;

                XIMD_DISPATCH_BEGIN(t.kind)

                // Fused superinstructions: control-only parcels whose
                // fetch/execute/sequence collapse into one handler.
                XIMD_OP(Jump)
                    nxPc[fu] = t.t1;
                    XIMD_NEXT;
                XIMD_OP(HaltTok)
                    haltMask |= bit;
                    XIMD_NEXT;
                XIMD_OP(PollCc) {
                    const bool taken = st.cc[t.cindex] != 0;
                    takenMask |= std::uint32_t(taken) << fu;
                    nxPc[fu] = taken ? t.t1 : t.t2;
                    XIMD_NEXT;
                }
                XIMD_OP(PollSs) {
                    const bool taken = (ssDone >> t.cindex) & 1u;
                    takenMask |= std::uint32_t(taken) << fu;
                    nxPc[fu] = taken ? t.t1 : t.t2;
                    XIMD_NEXT;
                }
                XIMD_OP(PollAll) {
                    const bool taken = (t.cmask & ~ssDone) == 0;
                    takenMask |= std::uint32_t(taken) << fu;
                    nxPc[fu] = taken ? t.t1 : t.t2;
                    XIMD_NEXT;
                }
                XIMD_OP(PollAny) {
                    const bool taken = (t.cmask & ssDone) != 0;
                    takenMask |= std::uint32_t(taken) << fu;
                    nxPc[fu] = taken ? t.t1 : t.t2;
                    XIMD_NEXT;
                }
                XIMD_OP(Nop)
                    XIMD_SEQ; // unfused control-only token (reserved)

#define X(name, body)                                                     \
                XIMD_OP(name) {                                           \
                    body;                                                 \
                    XIMD_SEQ;                                             \
                }
                XIMD_DATA_OPS(X)
#undef X

                XIMD_DISPATCH_END

            do_seq:
                // Shared sequencing for data tokens (mirrors
                // evalDecodedControl against the block-local CC mirror
                // and this cycle's SS values).
                switch (t.ckind) {
                  case CondKind::Always:
                    nxPc[fu] = t.t1;
                    break;
                  case CondKind::Halt:
                    haltMask |= bit;
                    break;
                  case CondKind::CcTrue: {
                    const bool taken = st.cc[t.cindex] != 0;
                    takenMask |= std::uint32_t(taken) << fu;
                    nxPc[fu] = taken ? t.t1 : t.t2;
                    break;
                  }
                  case CondKind::SyncDone: {
                    const bool taken = (ssDone >> t.cindex) & 1u;
                    takenMask |= std::uint32_t(taken) << fu;
                    nxPc[fu] = taken ? t.t1 : t.t2;
                    break;
                  }
                  case CondKind::AllSync: {
                    const bool taken = (t.cmask & ~ssDone) == 0;
                    takenMask |= std::uint32_t(taken) << fu;
                    nxPc[fu] = taken ? t.t1 : t.t2;
                    break;
                  }
                  case CondKind::AnySync: {
                    const bool taken = (t.cmask & ssDone) != 0;
                    takenMask |= std::uint32_t(taken) << fu;
                    nxPc[fu] = taken ? t.t1 : t.t2;
                    break;
                  }
                }
            fu_done:;
            }

            commitPend(pend, st);
        } catch (const FatalError &e) {
            st.faultMsg = e.what();
            return leave(BlockExit::Faulted);
        }

        // The cycle committed: charge its starting stream count and
        // its tokens' counters (taken branches are few, so only their
        // FUs are visited), advance control state, and detect a
        // busy-wait fixpoint (every live FU re-selected its own
        // self-spinning nop parcel). Each FU that stays live claims
        // its grouping key in `owner`.
        if constexpr (kPart)
            blk.partitionCycles[st.streams] += 1;
        if constexpr (kStats) {
            for (std::uint32_t m = takenMask; m; m &= m - 1) {
                const FuId fu = lowestSetFu(m);
                ++takens[static_cast<std::size_t>(fu) * rows + st.pc[fu]];
            }
        }
        bool allSpin = fastForward && haltMask == 0;
        for (std::uint32_t m = st.liveMask; m; m &= m - 1) {
            const FuId fu = lowestSetFu(m);
            const Token &t = *cur[fu];
            if constexpr (kStats)
                ++execs[static_cast<std::size_t>(fu) * rows + st.pc[fu]];
            if (!(haltMask & (1u << fu))) {
                if (!(t.flags & FlatParcel::kCanSelfSpin) ||
                    nxPc[fu] != st.pc[fu])
                    allSpin = false;
                st.pc[fu] = nxPc[fu];
                if constexpr (kPart) {
                    st.keys[fu] = t.keyId;
                    owner[t.keyId] = static_cast<std::uint8_t>(fu);
                }
            }
        }
        st.liveMask &= ~haltMask;
        if constexpr (kPart) {
            // One stream per key: count the FUs that still own theirs.
            unsigned streams = 0;
            for (std::uint32_t m = st.liveMask; m; m &= m - 1) {
                const FuId fu = lowestSetFu(m);
                streams += owner[st.keys[fu]] == fu;
            }
            st.streams = streams;
        }
        st.ssPrevMask = ssDone;
        st.cyc += 1;

        if (allSpin) {
            // Fixpoint: no writes were pending (self-spinning parcels
            // are nops), so every remaining cycle repeats this one.
            // Cap the skip at an observer's wake cycle, as
            // tryFastForward does.
            Cycle cap = limit;
            core.cycle_ = st.cyc;
            for (const CycleObserver *o : core.observers_) {
                const Cycle wake = o->nextWake(core);
                if (wake < cap)
                    cap = wake;
            }
            if (cap > st.cyc) {
                const Cycle skip = cap - st.cyc;
                if constexpr (kPart)
                    blk.partitionCycles[st.streams] += skip;
                if constexpr (kStats) {
                    for (std::uint32_t m = st.liveMask; m; m &= m - 1) {
                        const FuId fu = lowestSetFu(m);
                        const std::size_t i =
                            static_cast<std::size_t>(fu) * rows +
                            st.pc[fu];
                        execs[i] += skip;
                        if ((takenMask >> fu) & 1u)
                            takens[i] += skip;
                    }
                }
                st.cyc = cap;
            }
        }
    }
}

template <Mode kMode, bool kStats, bool kPart>
ThreadedBackend::BlockExit
ThreadedBackend::runRows(Cycle limit, BlockState &st, BlockStats &blk)
{
    constexpr bool kXimd = kMode == Mode::Ximd;
    static_assert(kXimd || !kPart, "VLIW partitions are stepped per cycle");
    MachineCore &core = core_;
    const FuId n = core.numFus();
    const Word *const *const memPages = core.mem_.table_.data();
    const std::size_t memWords = core.mem_.size();
    const Token *const toks = tokens_.data();
    const InstAddr rows = rows_;
    const bool fastForward = core.config_.fastForward;
    std::uint64_t *const execs = rowExecs_.data();
    std::uint64_t *const takens = rowTakens_.data();
    const Cycle startCycle = st.cyc;
    // The row every FU sits on (VLIW: FU0's PC) and, in XIMD, the
    // grouping key of the last committed row.
    InstAddr pc = st.pc[0];
    std::uint16_t key = 0;
    Pend pend;

    // XIMD leaves every FU on the row; VLIW sequences FU0's PC alone.
    const auto leave = [&](BlockExit exit) {
        for (FuId fu = 0; fu < (kXimd ? n : 1); ++fu) {
            st.pc[fu] = pc;
            if (kPart && st.cyc != startCycle)
                st.keys[fu] = key;
        }
        return exit;
    };

    for (;;) {
        // Halt first, as in runBlockXimd.
        if (st.liveMask == 0)
            return leave(BlockExit::Halted);
        if (st.cyc >= limit)
            return leave(BlockExit::Limit);

        // FU0's token carries the row's control, data lanes and DONE
        // mask (FU0's stream starts at token 0). The row's control is
        // every FU's: the same on all of them in XIMD, FU0's alone in
        // VLIW, where validation rejects sync conditions and fields.
        const Token &ctrl = toks[pc];
        std::uint32_t ssDone = 0;
        if constexpr (kXimd) {
            ssDone = ctrl.rowDone;
            st.ssBusMask = ssDone;
        }
        bool halt = false;
        bool taken = false;
        InstAddr nx = pc;
        // Sync conditions stay out of VLIW's switch, so that it
        // compiles to two compares rather than an indirect jump.
        switch (ctrl.ckind) {
          case CondKind::Always:
            nx = ctrl.t1;
            break;
          case CondKind::Halt:
            halt = true;
            break;
          case CondKind::CcTrue:
            taken = st.cc[ctrl.cindex] != 0;
            nx = taken ? ctrl.t1 : ctrl.t2;
            break;
          default:
            if constexpr (!kXimd)
                panic("runRows: sync condition on a VLIW machine");
            if (ctrl.ckind == CondKind::SyncDone)
                taken = (ssDone >> ctrl.cindex) & 1u;
            else if (ctrl.ckind == CondKind::AllSync)
                taken = (ctrl.cmask & ~ssDone) == 0;
            else
                taken = (ctrl.cmask & ssDone) != 0;
            nx = taken ? ctrl.t1 : ctrl.t2;
            break;
        }

        // Execute the row's data lanes inline, in FU order, then
        // commit. Nop lanes read no registers and write nothing.
        pend.nReg = pend.nMem = pend.nCc = 0;
        try {
            for (std::uint32_t m = ctrl.dataLanes; m; m &= m - 1) {
                const FuId fu = lowestSetFu(m);
                const Token &t =
                    toks[static_cast<std::size_t>(fu) * rows + pc];
                st.reads += t.readCount;

                XIMD_DISPATCH_BEGIN(t.kind)
                XIMD_OP(Nop)
                XIMD_OP(Jump)
                XIMD_OP(HaltTok)
                XIMD_OP(PollCc)
                XIMD_OP(PollSs)
                XIMD_OP(PollAll)
                XIMD_OP(PollAny)
                    XIMD_NEXT; // unreachable: not a data lane

#define X(name, body)                                                     \
                XIMD_OP(name) {                                           \
                    body;                                                 \
                    XIMD_NEXT;                                            \
                }
                XIMD_DATA_OPS(X)
#undef X

                XIMD_DISPATCH_END
            fu_done:;
            }
            commitPend(pend, st);
        } catch (const FatalError &e) {
            st.faultMsg = e.what();
            return leave(BlockExit::Faulted);
        }

        // The cycle committed. In XIMD it charges the stream count it
        // started with; after it every FU holds the row's key (one
        // stream) or has halted (none).
        if constexpr (kPart)
            blk.partitionCycles[st.streams] += 1;
        if constexpr (kStats) {
            ++execs[pc];
            takens[pc] += taken;
        }
        if constexpr (kXimd) {
            st.streams = halt ? 0 : 1;
            st.ssPrevMask = ssDone;
            key = ctrl.keyId;
        }
        st.cyc += 1;
        if (halt) {
            st.liveMask = 0;
            continue;
        }

        // Busy-wait fixpoint: an all-nop row spinning on itself.
        if (fastForward && nx == pc &&
            (ctrl.flags & FlatParcel::kRowAllNop)) {
            Cycle cap = limit;
            core.cycle_ = st.cyc;
            for (const CycleObserver *o : core.observers_) {
                const Cycle wake = o->nextWake(core);
                if (wake < cap)
                    cap = wake;
            }
            if (cap > st.cyc) {
                const Cycle skip = cap - st.cyc;
                if constexpr (kPart)
                    blk.partitionCycles[st.streams] += skip;
                if constexpr (kStats) {
                    execs[pc] += skip;
                    if (taken)
                        takens[pc] += skip;
                }
                st.cyc = cap;
            }
        }
        pc = nx;
        if constexpr (kXimd) {
            if (!(toks[pc].flags & FlatParcel::kRowUniform))
                return leave(BlockExit::Diverged);
        }
    }
}

void
ThreadedBackend::runTo(Cycle limit)
{
    MachineCore &c = core_;
    while (!c.faulted_ && c.cycle_ < limit && !c.allHalted()) {
        // Unit result latency keeps the write pipeline empty at every
        // cycle boundary; anything else demotes before we get here.
        XIMD_ASSERT(c.pipe_.empty(),
                    "threaded backend entered with writes in flight");

        if (c.hasSyncOverrides()) {
            // Stuck-at SS overrides interleave with the fetch/sync
            // phases; run those cycles through the interpreter.
            groupingValid_ = false;
            if (!InterpBackend::stepCore(c))
                return;
            if (c.config_.fastForward && c.spinHint_)
                c.tryFastForward(limit);
            continue;
        }

        const bool needStats = !c.observers_.empty();
        bool needPart = false;
        for (const CycleObserver *o : c.observers_)
            needPart = needPart || o->wantsPartitions();

        if (needPart && (c.mode_ == Mode::Vliw || !groupingValid_)) {
            // One interpreted cycle resynchronizes the SSET grouping
            // from real events (XIMD); VLIW partition observation is
            // not a Machine configuration and stays per-cycle.
            if (!InterpBackend::stepCore(c))
                return;
            if (c.mode_ == Mode::Ximd)
                seedGroupingFromEvents();
            continue;
        }

        BlockState st;
        loadBlockState(st);
        const Cycle startCycle = st.cyc;
        BlockStats blk;

        BlockExit exit;
        if (c.mode_ == Mode::Ximd) {
            if (needStats && needPart)
                exit = runBlockXimd<true, true>(limit, st, blk);
            else if (needStats)
                exit = runBlockXimd<true, false>(limit, st, blk);
            else
                exit = runBlockXimd<false, false>(limit, st, blk);
        } else {
            if (needStats)
                exit = runRows<Mode::Vliw, true, false>(limit, st, blk);
            else
                exit = runRows<Mode::Vliw, false, false>(limit, st, blk);
        }

        // A block that faulted on its first cycle committed nothing
        // but still fetched, driving the sync bus.
        const bool committed = st.cyc != startCycle;
        storeBlockState(st, c.mode_ == Mode::Ximd &&
                                (committed || exit == BlockExit::Faulted));

        if (needStats && committed) {
            blk.cycles = st.cyc - startCycle;
            foldCounts(blk);
            blk.finalSsetIds = needPart ? &curSsets_ : nullptr;
            for (CycleObserver *o : c.observers_)
                o->onBlock(c, blk);
        }

        if (exit == BlockExit::Faulted) {
            // The faulting cycle began but never committed: observers
            // see its onCycle() alone, as under the interpreter.
            for (CycleObserver *o : c.observers_)
                o->onCycle(c);
            c.fault(st.faultMsg);
            return;
        }
        if (exit == BlockExit::Halted) {
            c.notifyDone();
            return;
        }
        // BlockExit::Limit: the loop condition terminates.
    }
}

} // namespace ximd
