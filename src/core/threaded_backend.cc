#include "core/threaded_backend.hh"

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
#else
#define XIMD_OP(name) case ExecKind::name:
#endif
#define XIMD_NEXT goto fu_done
#define XIMD_SEQ goto do_seq

// The data-op execute bodies, shared between the XIMD hot loop's
// inline handlers and execData() (the VLIW lane executor). Names in
// scope at expansion: `t` (token), `fu`, `pend`, `st`, `memPages`
// (the memory's page table), `memWords`, and the member `core_`.
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
    X(Ineg, PUSH_REG(intToWord(-wordToInt(*t.a))))                        \
    X(And, PUSH_REG(*t.a & *t.b))                                         \
    X(Or, PUSH_REG(*t.a | *t.b))                                          \
    X(Xor, PUSH_REG(*t.a ^ *t.b))                                         \
    X(Not, PUSH_REG(~*t.a))                                               \
    X(Shl, PUSH_REG(*t.a << (*t.b & 31u)))                                \
    X(Shr, PUSH_REG(*t.a >> (*t.b & 31u)))                                \
    X(Sar, PUSH_REG(intToWord(wordToInt(*t.a) >> (*t.b & 31u))))          \
    X(Mov, PUSH_REG(*t.a))                                                \
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
    X(Fneg, PUSH_REG(floatToWord(-wordToFloat(*t.a))))                    \
    X(Feq, PUSH_CC(alu::floatCompare(Opcode::Feq, *t.a, *t.b)))           \
    X(Fne, PUSH_CC(alu::floatCompare(Opcode::Fne, *t.a, *t.b)))           \
    X(Flt, PUSH_CC(alu::floatCompare(Opcode::Flt, *t.a, *t.b)))           \
    X(Fle, PUSH_CC(alu::floatCompare(Opcode::Fle, *t.a, *t.b)))           \
    X(Fgt, PUSH_CC(alu::floatCompare(Opcode::Fgt, *t.a, *t.b)))           \
    X(Fge, PUSH_CC(alu::floatCompare(Opcode::Fge, *t.a, *t.b)))           \
    X(Itof,                                                               \
      PUSH_REG(floatToWord(static_cast<float>(wordToInt(*t.a)))))         \
    X(Ftoi,                                                               \
      PUSH_REG(intToWord(static_cast<SWord>(wordToFloat(*t.a)))))         \
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
        }
    }

    curSsets_.assign(n, 0);
    keyStamp_.assign(flat.numKeys(), 0);
    keyDense_.assign(flat.numKeys(), 0);
    stamp_ = 0;
    curStreams_ = 1;
    groupingValid_ = false;
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
ThreadedBackend::updateGrouping(const Token *const *cur,
                                std::uint32_t liveMask,
                                std::uint32_t haltMask)
{
    // Same grouping as seedGroupingFromEvents(), but over interned
    // keys: an epoch stamp per keyId replaces the tuple map.
    const FuId n = core_.numFus();
    ++stamp_;
    int next = 0;
    for (FuId fu = 0; fu < n; ++fu) {
        const std::uint32_t bit = 1u << fu;
        if (!(liveMask & bit) || (haltMask & bit)) {
            curSsets_[fu] = -1;
            continue;
        }
        const std::uint16_t k = cur[fu]->keyId;
        if (keyStamp_[k] != stamp_) {
            keyStamp_[k] = stamp_;
            keyDense_[k] = next++;
        }
        curSsets_[fu] = keyDense_[k];
    }
    curStreams_ = static_cast<unsigned>(next);
}

void
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

    const ConflictPolicy policy = core_.config_.conflictPolicy;

    // Registers: sort by (reg, fu), scan for cross-FU conflicts before
    // anything applies, then apply lowest-FU-first with same-register
    // shadowing (matches RegisterFile::commit).
    if (pend.nReg) {
        Word *const regs = core_.regs_.regs_.data();
        for (int i = 1; i < pend.nReg; ++i) {
            const Pend::RegW w = pend.regW[i];
            int j = i - 1;
            while (j >= 0 && (pend.regW[j].reg > w.reg ||
                              (pend.regW[j].reg == w.reg &&
                               pend.regW[j].fu > w.fu))) {
                pend.regW[j + 1] = pend.regW[j];
                --j;
            }
            pend.regW[j + 1] = w;
        }
        if (policy == ConflictPolicy::Fault) {
            for (int i = 1; i < pend.nReg; ++i) {
                const Pend::RegW &prev = pend.regW[i - 1];
                const Pend::RegW &cur = pend.regW[i];
                if (prev.reg == cur.reg && prev.fu != cur.fu)
                    fatal("register write conflict: FU", prev.fu,
                          " and FU", cur.fu, " both write r", cur.reg,
                          " this cycle");
            }
        }
        RegId lastReg = 0;
        bool haveLast = false;
        for (int i = 0; i < pend.nReg; ++i) {
            const Pend::RegW &w = pend.regW[i];
            if (haveLast && w.reg == lastReg)
                continue;
            regs[w.reg] = w.val;
            ++st.writes;
            lastReg = w.reg;
            haveLast = true;
        }
    }

    // Memory: same pattern; a conflict faults *after* the register
    // commit applied, exactly as Memory::commit follows
    // RegisterFile::commit in the interpreter.
    if (pend.nMem) {
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
        if (policy == ConflictPolicy::Fault) {
            for (int i = 1; i < pend.nMem; ++i) {
                const Pend::MemW &prev = pend.memW[i - 1];
                const Pend::MemW &cur = pend.memW[i];
                if (prev.addr == cur.addr && prev.fu != cur.fu)
                    fatal("memory write conflict: FU", prev.fu,
                          " and FU", cur.fu, " both store to address ",
                          cur.addr, " this cycle");
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

    // Condition codes last (CondCodeFile::commit; never faults).
    for (int i = 0; i < pend.nCc; ++i) {
        st.cc[pend.ccW[i].fu] = pend.ccW[i].val;
        st.ccEverMask |= 1u << pend.ccW[i].fu;
    }
}

void
ThreadedBackend::execData(const Token &t, FuId fu, Pend &pend,
                          BlockState &st,
                          const Word *const *memPages,
                          std::size_t memWords)
{
    switch (t.kind) {
#define X(name, body)                                                     \
      case ExecKind::name: {                                              \
        body;                                                             \
        break;                                                            \
      }
        XIMD_DATA_OPS(X)
#undef X
      default:
        break; // fused control-only tokens have no data-path effect
    }
}

template <bool kStats, bool kPart>
ThreadedBackend::BlockExit
ThreadedBackend::runBlockXimd(Cycle limit, BlockState &st,
                              BlockStats &blk)
{
    MachineCore &core = core_;
    const std::uint32_t fullMask = fuMaskAll(core.numFus());
    const Word *const *const memPages = core.mem_.table_.data();
    const std::size_t memWords = core.mem_.size();
    const Token *const toks = tokens_.data();
    const InstAddr rows = rows_;
    const bool fastForward = core.config_.fastForward;

    const Token *cur[kMaxFus];
    InstAddr nxPc[kMaxFus];
    Pend pend;

    for (;;) {
        if (st.cyc >= limit)
            return BlockExit::Limit;
        if (st.liveMask == 0)
            return BlockExit::Halted;

        // Beginning-of-cycle partition charge (StatsObserver::onCycle
        // fires before fetch, so a faulting cycle is still charged).
        if constexpr (kStats && kPart)
            blk.partitionCycles[curStreams_] += 1;

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

#if XIMD_THREADED_GOTO
                static const void *const kDispatch[] = {
                    &&op_Nop, &&op_Jump, &&op_HaltTok, &&op_PollCc,
                    &&op_PollSs, &&op_PollAll, &&op_PollAny, &&op_Iadd,
                    &&op_Isub, &&op_Imult, &&op_Idiv, &&op_Imod,
                    &&op_Ineg, &&op_And, &&op_Or, &&op_Xor, &&op_Not,
                    &&op_Shl, &&op_Shr, &&op_Sar, &&op_Mov, &&op_Eq,
                    &&op_Ne, &&op_Lt, &&op_Le, &&op_Gt, &&op_Ge,
                    &&op_Fadd, &&op_Fsub, &&op_Fmult, &&op_Fdiv,
                    &&op_Fneg, &&op_Feq, &&op_Fne, &&op_Flt, &&op_Fle,
                    &&op_Fgt, &&op_Fge, &&op_Itof, &&op_Ftoi, &&op_Load,
                    &&op_Store,
                };
                static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) ==
                                  kNumExecKinds,
                              "dispatch table must cover every ExecKind");
                goto *kDispatch[static_cast<unsigned>(t.kind)];
#else
                switch (t.kind) {
#endif

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
                    if (taken)
                        takenMask |= bit;
                    nxPc[fu] = taken ? t.t1 : t.t2;
                    XIMD_NEXT;
                }
                XIMD_OP(PollSs) {
                    const bool taken = (ssDone >> t.cindex) & 1u;
                    if (taken)
                        takenMask |= bit;
                    nxPc[fu] = taken ? t.t1 : t.t2;
                    XIMD_NEXT;
                }
                XIMD_OP(PollAll) {
                    const bool taken = (t.cmask & ~ssDone) == 0;
                    if (taken)
                        takenMask |= bit;
                    nxPc[fu] = taken ? t.t1 : t.t2;
                    XIMD_NEXT;
                }
                XIMD_OP(PollAny) {
                    const bool taken = (t.cmask & ssDone) != 0;
                    if (taken)
                        takenMask |= bit;
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

#if !XIMD_THREADED_GOTO
                }
#endif

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
                    if (taken)
                        takenMask |= bit;
                    nxPc[fu] = taken ? t.t1 : t.t2;
                    break;
                  }
                  case CondKind::SyncDone: {
                    const bool taken = (ssDone >> t.cindex) & 1u;
                    if (taken)
                        takenMask |= bit;
                    nxPc[fu] = taken ? t.t1 : t.t2;
                    break;
                  }
                  case CondKind::AllSync: {
                    const bool taken = (t.cmask & ~ssDone) == 0;
                    if (taken)
                        takenMask |= bit;
                    nxPc[fu] = taken ? t.t1 : t.t2;
                    break;
                  }
                  case CondKind::AnySync: {
                    const bool taken = (t.cmask & ssDone) != 0;
                    if (taken)
                        takenMask |= bit;
                    nxPc[fu] = taken ? t.t1 : t.t2;
                    break;
                  }
                }
            fu_done:;
            }

            commitPend(pend, st);
        } catch (const FatalError &e) {
            st.faultMsg = e.what();
            return BlockExit::Faulted;
        }

        // Fold the committed cycle's stats, advance control state, and
        // detect a busy-wait fixpoint (every live FU re-selected its
        // own self-spinning nop parcel).
        bool allSpin = fastForward && haltMask == 0;
        for (std::uint32_t m = st.liveMask; m; m &= m - 1) {
            const FuId fu = lowestSetFu(m);
            const std::uint32_t bit = 1u << fu;
            const Token &t = *cur[fu];
            if constexpr (kStats) {
                blk.parcels += 1;
                blk.classCounts[t.cls] += 1;
                if (t.flags & FlatParcel::kConditional) {
                    blk.condBranches += 1;
                    if (takenMask & bit)
                        blk.takenBranches += 1;
                    if (!(haltMask & bit) && nxPc[fu] == st.pc[fu])
                        blk.busyWaitFuCycles += 1;
                }
            }
            if (!(haltMask & bit)) {
                if (!(t.flags & FlatParcel::kCanSelfSpin) ||
                    nxPc[fu] != st.pc[fu])
                    allSpin = false;
                st.pc[fu] = nxPc[fu];
            }
        }
        if constexpr (kStats)
            blk.cycles += 1;
        if constexpr (kPart)
            updateGrouping(cur, st.liveMask, haltMask);
        st.liveMask &= ~haltMask;
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
                if constexpr (kStats) {
                    blk.cycles += skip;
                    if constexpr (kPart)
                        blk.partitionCycles[curStreams_] += skip;
                    for (std::uint32_t m = st.liveMask; m; m &= m - 1) {
                        const FuId fu = lowestSetFu(m);
                        const std::uint32_t bit = 1u << fu;
                        const Token &t = *cur[fu];
                        blk.parcels += skip;
                        blk.classCounts[t.cls] += skip;
                        if (t.flags & FlatParcel::kConditional) {
                            blk.condBranches += skip;
                            if (takenMask & bit)
                                blk.takenBranches += skip;
                            blk.busyWaitFuCycles += skip;
                        }
                    }
                }
                st.cyc = cap;
            }
        }
    }
}

template <bool kStats>
ThreadedBackend::BlockExit
ThreadedBackend::runBlockVliw(Cycle limit, BlockState &st,
                              BlockStats &blk)
{
    MachineCore &core = core_;
    const FuId n = core.numFus();
    const Word *const *const memPages = core.mem_.table_.data();
    const std::size_t memWords = core.mem_.size();
    const Token *const toks = tokens_.data();
    const InstAddr rows = rows_;
    const bool fastForward = core.config_.fastForward;
    Pend pend;

    for (;;) {
        if (st.cyc >= limit)
            return BlockExit::Limit;
        if (st.liveMask == 0)
            return BlockExit::Halted;

        const InstAddr pc0 = st.pc[0];
        const Token &ctrl = toks[pc0]; // FU0's stream starts at 0

        // Sequence via FU0 alone. VLIW validation rejects sync
        // conditions, so only Always / CcTrue / Halt occur.
        bool halt = false;
        bool conditional = false;
        bool taken = false;
        InstAddr nx = pc0;
        switch (ctrl.ckind) {
          case CondKind::Always:
            nx = ctrl.t1;
            break;
          case CondKind::Halt:
            halt = true;
            break;
          case CondKind::CcTrue:
            conditional = true;
            taken = st.cc[ctrl.cindex] != 0;
            nx = taken ? ctrl.t1 : ctrl.t2;
            break;
          default:
            panic("runBlockVliw: sync condition on a VLIW machine");
        }

        // Execute every lane of the row, then commit.
        pend.nReg = pend.nMem = pend.nCc = 0;
        try {
            for (FuId fu = 0; fu < n; ++fu) {
                const Token &t =
                    toks[static_cast<std::size_t>(fu) * rows + pc0];
                st.reads += t.readCount;
                execData(t, fu, pend, st, memPages, memWords);
            }
            commitPend(pend, st);
        } catch (const FatalError &e) {
            st.faultMsg = e.what();
            return BlockExit::Faulted;
        }

        if constexpr (kStats) {
            blk.cycles += 1;
            for (FuId fu = 0; fu < n; ++fu) {
                const Token &t =
                    toks[static_cast<std::size_t>(fu) * rows + pc0];
                blk.parcels += 1;
                blk.classCounts[t.cls] += 1;
            }
            if (conditional) {
                blk.condBranches += 1;
                if (taken)
                    blk.takenBranches += 1;
                if (!halt && nx == pc0)
                    blk.busyWaitFuCycles += 1;
            }
        }

        if (halt)
            st.liveMask = 0;
        else
            st.pc[0] = nx;
        st.cyc += 1;

        // Busy-wait fixpoint: an all-nop row spinning on itself.
        if (fastForward && !halt && nx == pc0 &&
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
                if constexpr (kStats) {
                    blk.cycles += skip;
                    blk.parcels += static_cast<std::uint64_t>(n) * skip;
                    blk.classCounts[static_cast<std::uint8_t>(
                        OpClass::Nop)] +=
                        static_cast<std::uint64_t>(n) * skip;
                    if (conditional) {
                        blk.condBranches += skip;
                        if (taken)
                            blk.takenBranches += skip;
                        blk.busyWaitFuCycles += skip;
                    }
                }
                st.cyc = cap;
            }
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
        blk_ = BlockStats{};

        BlockExit exit;
        if (c.mode_ == Mode::Ximd) {
            if (needStats && needPart)
                exit = runBlockXimd<true, true>(limit, st, blk_);
            else if (needStats)
                exit = runBlockXimd<true, false>(limit, st, blk_);
            else
                exit = runBlockXimd<false, false>(limit, st, blk_);
        } else {
            if (needStats)
                exit = runBlockVliw<true>(limit, st, blk_);
            else
                exit = runBlockVliw<false>(limit, st, blk_);
        }

        // A block that faulted on its first cycle committed nothing
        // but still fetched (driving the sync bus, charging the
        // partition histogram) — "attempted" captures that.
        const bool attempted =
            st.cyc != startCycle || exit == BlockExit::Faulted;
        storeBlockState(st, c.mode_ == Mode::Ximd && attempted);

        if (needStats && attempted) {
            blk_.finalSsetIds = needPart ? &curSsets_ : nullptr;
            for (CycleObserver *o : c.observers_)
                o->onBlock(c, blk_);
        }

        if (exit == BlockExit::Faulted) {
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
