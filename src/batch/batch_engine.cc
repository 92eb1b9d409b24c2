#include "batch/batch_engine.hh"

#include <algorithm>

#include "sim/alu.hh"
#include "support/logging.hh"

// The per-lane execute bodies, cloned from the threaded backend's
// XIMD_DATA_OPS table (core/threaded_backend.cc) with register-index
// operands resolved against the lane's register slab instead of
// per-core pointers. Names in scope at expansion: `t` (FlatParcel),
// `fu`, `pend`, `lregs`, `lpages`, `memWords`. Fault points are
// identical to the scalar path: ALU helpers raise divide-by-zero with
// the interpreter's message, and an out-of-range load faults with
// Memory::checkAddr's exact text.
#define XBATCH_A                                                          \
    ((t.flags & FlatParcel::kAReg) ? lregs[t.aVal] : t.aVal)
#define XBATCH_B                                                          \
    ((t.flags & FlatParcel::kBReg) ? lregs[t.bVal] : t.bVal)

#define XBATCH_DATA_OPS(X)                                                \
    X(Iadd, PUSH_REG(XBATCH_A + XBATCH_B))                                \
    X(Isub, PUSH_REG(XBATCH_A - XBATCH_B))                                \
    X(Imult, PUSH_REG(alu::intBinary(Opcode::Imult, XBATCH_A, XBATCH_B))) \
    X(Idiv, PUSH_REG(alu::intBinary(Opcode::Idiv, XBATCH_A, XBATCH_B)))   \
    X(Imod, PUSH_REG(alu::intBinary(Opcode::Imod, XBATCH_A, XBATCH_B)))   \
    X(Ineg, PUSH_REG(intToWord(-wordToInt(XBATCH_A))))                    \
    X(And, PUSH_REG(XBATCH_A & XBATCH_B))                                 \
    X(Or, PUSH_REG(XBATCH_A | XBATCH_B))                                  \
    X(Xor, PUSH_REG(XBATCH_A ^ XBATCH_B))                                 \
    X(Not, PUSH_REG(~XBATCH_A))                                           \
    X(Shl, PUSH_REG(XBATCH_A << (XBATCH_B & 31u)))                        \
    X(Shr, PUSH_REG(XBATCH_A >> (XBATCH_B & 31u)))                        \
    X(Sar, PUSH_REG(intToWord(wordToInt(XBATCH_A) >>                      \
                              (XBATCH_B & 31u))))                         \
    X(Mov, PUSH_REG(XBATCH_A))                                            \
    X(Eq, PUSH_CC(alu::intCompare(Opcode::Eq, XBATCH_A, XBATCH_B)))       \
    X(Ne, PUSH_CC(alu::intCompare(Opcode::Ne, XBATCH_A, XBATCH_B)))       \
    X(Lt, PUSH_CC(alu::intCompare(Opcode::Lt, XBATCH_A, XBATCH_B)))       \
    X(Le, PUSH_CC(alu::intCompare(Opcode::Le, XBATCH_A, XBATCH_B)))       \
    X(Gt, PUSH_CC(alu::intCompare(Opcode::Gt, XBATCH_A, XBATCH_B)))       \
    X(Ge, PUSH_CC(alu::intCompare(Opcode::Ge, XBATCH_A, XBATCH_B)))       \
    X(Fadd, PUSH_REG(alu::floatBinary(Opcode::Fadd, XBATCH_A, XBATCH_B))) \
    X(Fsub, PUSH_REG(alu::floatBinary(Opcode::Fsub, XBATCH_A, XBATCH_B))) \
    X(Fmult, PUSH_REG(alu::floatBinary(Opcode::Fmult, XBATCH_A,           \
                                       XBATCH_B)))                        \
    X(Fdiv, PUSH_REG(alu::floatBinary(Opcode::Fdiv, XBATCH_A, XBATCH_B))) \
    X(Fneg, PUSH_REG(floatToWord(-wordToFloat(XBATCH_A))))                \
    X(Feq, PUSH_CC(alu::floatCompare(Opcode::Feq, XBATCH_A, XBATCH_B)))   \
    X(Fne, PUSH_CC(alu::floatCompare(Opcode::Fne, XBATCH_A, XBATCH_B)))   \
    X(Flt, PUSH_CC(alu::floatCompare(Opcode::Flt, XBATCH_A, XBATCH_B)))   \
    X(Fle, PUSH_CC(alu::floatCompare(Opcode::Fle, XBATCH_A, XBATCH_B)))   \
    X(Fgt, PUSH_CC(alu::floatCompare(Opcode::Fgt, XBATCH_A, XBATCH_B)))   \
    X(Fge, PUSH_CC(alu::floatCompare(Opcode::Fge, XBATCH_A, XBATCH_B)))   \
    X(Itof, PUSH_REG(floatToWord(                                         \
        static_cast<float>(wordToInt(XBATCH_A)))))                        \
    X(Ftoi, PUSH_REG(intToWord(                                           \
        static_cast<SWord>(wordToFloat(XBATCH_A)))))                      \
    X(Load, do {                                                          \
        const Addr addr = XBATCH_A + XBATCH_B;                            \
        if (addr >= memWords)                                             \
            fatal("memory address ", addr, " out of range (", memWords,   \
                  " words)");                                             \
        const Word *pg = lpages[addr >> kPageShift];                      \
        PUSH_REG(pg ? pg[addr & (kPageWords - 1)] : 0);                   \
    } while (0))                                                          \
    X(Store, PUSH_MEM(XBATCH_B, XBATCH_A))

#define PUSH_REG(v)                                                       \
    (pend.regW[pend.nReg].reg = t.dest, pend.regW[pend.nReg].fu = fu,     \
     pend.regW[pend.nReg].val = (v), ++pend.nReg)
#define PUSH_CC(v)                                                        \
    (pend.ccW[pend.nCc].fu = fu,                                          \
     pend.ccW[pend.nCc].val = static_cast<std::uint8_t>(v), ++pend.nCc)
#define PUSH_MEM(a_, v_)                                                  \
    (pend.memW[pend.nMem].addr = (a_), pend.memW[pend.nMem].fu = fu,      \
     pend.memW[pend.nMem].val = (v_), ++pend.nMem)

namespace ximd::batch {

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

/**
 * MachineCore::validateVliwProgram, reproduced with identical fault
 * messages so a batched cohort rejects a bad VLIW program exactly as
 * each scalar Machine construction would have.
 */
void
validateVliwProgram(const Program &program)
{
    for (InstAddr a = 0; a < program.size(); ++a) {
        for (FuId fu = 0; fu < program.width(); ++fu) {
            const Parcel &p = program.row(a)[fu];
            switch (p.ctrl.kind) {
              case CondKind::SyncDone:
              case CondKind::AllSync:
              case CondKind::AnySync:
                fatal("row ", a, " FU", fu, ": sync-signal branch "
                      "conditions do not exist on a VLIW machine");
              default:
                break;
            }
            if (p.sync != SyncVal::Busy)
                fatal("row ", a, " FU", fu, ": sync fields do not "
                      "exist on a VLIW machine");
        }
    }
}

} // namespace

/** Writes queued by one cycle, committed in component order. */
struct BatchEngine::Pend
{
    struct RegW
    {
        RegId reg;
        FuId fu;
        Word val;
    };
    struct CcW
    {
        FuId fu;
        std::uint8_t val;
    };
    struct MemW
    {
        Addr addr;
        FuId fu;
        Word val;
    };
    RegW regW[kMaxFus];
    CcW ccW[kMaxFus];
    MemW memW[kMaxFus];
    int nReg = 0;
    int nCc = 0;
    int nMem = 0;
};

BatchEngine::BatchEngine(std::shared_ptr<const PreparedProgram> prepared,
                         EngineConfig config, unsigned width)
    : prepared_(std::move(prepared)),
      config_(config),
      width_(width ? width : 1),
      fus_(prepared_->width()),
      rows_(prepared_->flat().size()),
      numPages_((config.memWords + kPageWords - 1) >> kPageShift)
{
    try {
        if (config_.memWords == 0)
            fatal("memory must contain at least one word");
        if (config_.mode == Mode::Vliw)
            validateVliwProgram(prepared_->program());
    } catch (const FatalError &e) {
        ctorError_ = e.what();
    }

    laneJob_.assign(width_, kNoJob);
    regs_.assign(std::size_t(width_) * kNumRegisters, 0);
    cc_.assign(std::size_t(width_) * fus_, 0);
    ccEver_.assign(width_, 0);
    pc_.assign(std::size_t(width_) * fus_, 0);
    live_.assign(width_, 0);
    cyc_.assign(width_, 0);
    limit_.assign(width_, 0);
    streams_.assign(width_, 1);
    stats_.assign(width_, LaneStats{});
    faultMsg_.assign(width_, std::string());
    pages_.resize(std::size_t(width_) * numPages_);
    pageTbl_.assign(std::size_t(width_) * numPages_, nullptr);
    dirty_.resize(width_);
    keyStamp_.assign(prepared_->flat().numKeys(), 0);
    keyDense_.assign(prepared_->flat().numKeys(), 0);
}

std::size_t
BatchEngine::submit(Cycle budget, LaneCheck check)
{
    JobState js;
    js.budget = budget;
    js.check = std::move(check);
    jobs_.push_back(std::move(js));
    return jobs_.size() - 1;
}

/**
 * ArchView over one lane's SoA slices, valid while the lane holds its
 * job (checks run at retirement, before the refill recycles the
 * state). Accessors fault with MachineCore's exact messages so a
 * check failure reads identically either way.
 */
class BatchEngine::LaneView final : public ArchView
{
  public:
    LaneView(const BatchEngine &engine, unsigned lane)
        : engine_(engine), lane_(lane)
    {
    }

    const Program &program() const override
    {
        return engine_.prepared_->program();
    }

    Word readRegByName(const std::string &name) const override
    {
        const auto r = program().regByName(name);
        if (!r)
            fatal("program defines no register named '", name, "'");
        return engine_.regs_[std::size_t(lane_) * kNumRegisters + *r];
    }

    Word peekMem(Addr addr) const override
    {
        if (addr >= engine_.config_.memWords)
            fatal("memory address ", addr, " out of range (",
                  engine_.config_.memWords, " words)");
        const Word *pg =
            engine_.pageTbl_[std::size_t(lane_) * engine_.numPages_ +
                             (addr >> kPageShift)];
        return pg ? pg[addr & (kPageWords - 1)] : 0;
    }

  private:
    const BatchEngine &engine_;
    unsigned lane_;
};

Word *
BatchEngine::ensurePage(unsigned lane, std::size_t pageIdx)
{
    const std::size_t slot = std::size_t(lane) * numPages_ + pageIdx;
    if (Word *pg = pageTbl_[slot])
        return pg;
    std::vector<Word> &store = pages_[slot];
    if (store.empty())
        store.assign(kPageWords, 0);
    else
        std::fill(store.begin(), store.end(), 0);
    pageTbl_[slot] = store.data();
    dirty_[lane].push_back(static_cast<std::uint32_t>(pageIdx));
    return pageTbl_[slot];
}

void
BatchEngine::resetLane(unsigned lane, std::size_t job)
{
    std::fill_n(regs_.begin() + std::size_t(lane) * kNumRegisters,
                kNumRegisters, 0);
    std::fill_n(cc_.begin() + std::size_t(lane) * fus_, fus_, 0);
    ccEver_[lane] = 0;
    std::fill_n(pc_.begin() + std::size_t(lane) * fus_, fus_, 0);
    live_[lane] = fuMaskAll(fus_);
    cyc_[lane] = 0;
    limit_[lane] = jobs_[job].budget;
    streams_[lane] = 1;
    stats_[lane] = LaneStats{};
    faultMsg_[lane].clear();
    for (std::uint32_t p : dirty_[lane])
        pageTbl_[std::size_t(lane) * numPages_ + p] = nullptr;
    dirty_[lane].clear();

    // Initial memory / register images, exactly as MachineCore's
    // applyMemInit() pokes them (an out-of-range address faults with
    // Memory::checkAddr's message, failing this job's construction).
    Word *const lregs = regs_.data() + std::size_t(lane) * kNumRegisters;
    for (const auto &[addr, value] : prepared_->program().memInit()) {
        if (addr >= config_.memWords)
            fatal("memory address ", addr, " out of range (",
                  config_.memWords, " words)");
        ensurePage(lane, addr >> kPageShift)[addr & (kPageWords - 1)] =
            value;
    }
    for (const auto &[reg, value] : prepared_->program().regInit())
        lregs[reg] = value;
}

bool
BatchEngine::refillLane(unsigned lane)
{
    while (nextPending_ < jobs_.size()) {
        const std::size_t job = nextPending_++;
        if (jobs_[job].done)
            continue;
        if (!ctorError_.empty()) {
            jobs_[job].result.ran = false;
            jobs_[job].result.error = ctorError_;
            jobs_[job].done = true;
            continue;
        }
        try {
            resetLane(lane, job);
        } catch (const FatalError &e) {
            jobs_[job].result.ran = false;
            jobs_[job].result.error = e.what();
            jobs_[job].done = true;
            continue;
        }
        laneJob_[lane] = job;
        return true;
    }
    return false;
}

void
BatchEngine::commitPend(Pend &pend, unsigned lane)
{
    // Clone of ThreadedBackend::commitPend over lane-local state: a
    // store's address check is the first commit-time fault; registers
    // sort/conflict/apply next; memory conflicts fault *after* the
    // register commit applied; condition codes never fault.
    const std::size_t memWords = config_.memWords;
    for (int i = 0; i < pend.nMem; ++i) {
        if (pend.memW[i].addr >= memWords)
            fatal("memory address ", pend.memW[i].addr,
                  " out of range (", memWords, " words)");
    }

    const ConflictPolicy policy = config_.conflictPolicy;

    if (pend.nReg) {
        Word *const lregs =
            regs_.data() + std::size_t(lane) * kNumRegisters;
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
            lregs[w.reg] = w.val;
            lastReg = w.reg;
            haveLast = true;
        }
    }

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
            ensurePage(lane, w.addr >> kPageShift)[w.addr &
                                                   (kPageWords - 1)] =
                w.val;
            lastAddr = w.addr;
            haveLast = true;
        }
    }

    std::uint8_t *const lcc = cc_.data() + std::size_t(lane) * fus_;
    for (int i = 0; i < pend.nCc; ++i) {
        lcc[pend.ccW[i].fu] = pend.ccW[i].val;
        ccEver_[lane] |= 1u << pend.ccW[i].fu;
    }
}

void
BatchEngine::updateGrouping(unsigned lane, const FlatParcel *const *cur,
                            std::uint32_t liveMask,
                            std::uint32_t haltMask)
{
    // ThreadedBackend::updateGrouping: PartitionTracker's keying over
    // interned keyIds, an epoch stamp replacing the tuple map.
    ++stamp_;
    int next = 0;
    for (FuId fu = 0; fu < fus_; ++fu) {
        const std::uint32_t bit = 1u << fu;
        if (!(liveMask & bit) || (haltMask & bit))
            continue;
        const std::uint16_t k = cur[fu]->keyId;
        if (keyStamp_[k] != stamp_) {
            keyStamp_[k] = stamp_;
            keyDense_[k] = next++;
        }
    }
    streams_[lane] = static_cast<unsigned>(next);
}

template <bool kStats, bool kPart>
BatchEngine::LaneExit
BatchEngine::runSliceXimd(unsigned lane, Cycle sliceLimit)
{
    const FlatProgram &flat = prepared_->flat();
    const std::uint32_t fullMask = fuMaskAll(fus_);
    const std::size_t memWords = config_.memWords;
    const bool fastForward = config_.fastForward;
    Word *const lregs = regs_.data() + std::size_t(lane) * kNumRegisters;
    std::uint8_t *const lcc = cc_.data() + std::size_t(lane) * fus_;
    InstAddr *const lpc = pc_.data() + std::size_t(lane) * fus_;
    Word *const *const lpages =
        pageTbl_.data() + std::size_t(lane) * numPages_;
    LaneStats &ls = stats_[lane];
    const Cycle laneLimit = limit_[lane];
    std::uint32_t liveMask = live_[lane];
    Cycle cyc = cyc_[lane];

    const FlatParcel *cur[kMaxFus];
    InstAddr nxPc[kMaxFus];
    Pend pend;

    const auto leave = [&](LaneExit e) {
        live_[lane] = liveMask;
        cyc_[lane] = cyc;
        return e;
    };

    for (;;) {
        if (cyc >= laneLimit)
            return leave(LaneExit::Limit);
        if (liveMask == 0)
            return leave(LaneExit::Halted);
        if (cyc >= sliceLimit)
            return leave(LaneExit::Running);

        // Beginning-of-cycle partition charge (StatsObserver::onCycle
        // fires before fetch, so a faulting cycle is still charged).
        if constexpr (kStats && kPart)
            ls.partitionCycles[streams_[lane]] += 1;

        // Fetch: gather live parcels and drive the combinational sync
        // bus (halted FUs read DONE).
        std::uint32_t ssDone = ~liveMask & fullMask;
        for (std::uint32_t m = liveMask; m; m &= m - 1) {
            const FuId fu = lowestSetFu(m);
            const FlatParcel &t = flat.at(lpc[fu], fu);
            cur[fu] = &t;
            ssDone |= t.ssDoneBit;
        }

        // Execute + sequence each live FU in FU order, then commit.
        std::uint32_t haltMask = 0;
        std::uint32_t takenMask = 0;
        pend.nReg = pend.nMem = pend.nCc = 0;
        try {
            for (std::uint32_t m = liveMask; m; m &= m - 1) {
                const FuId fu = lowestSetFu(m);
                const std::uint32_t bit = 1u << fu;
                const FlatParcel &t = *cur[fu];

                switch (t.kind) {
                  // Fused superinstructions: control-only parcels.
                  case ExecKind::Jump:
                    nxPc[fu] = t.t1;
                    continue;
                  case ExecKind::HaltTok:
                    haltMask |= bit;
                    continue;
                  case ExecKind::PollCc: {
                    const bool taken = lcc[t.cindex] != 0;
                    if (taken)
                        takenMask |= bit;
                    nxPc[fu] = taken ? t.t1 : t.t2;
                    continue;
                  }
                  case ExecKind::PollSs: {
                    const bool taken = (ssDone >> t.cindex) & 1u;
                    if (taken)
                        takenMask |= bit;
                    nxPc[fu] = taken ? t.t1 : t.t2;
                    continue;
                  }
                  case ExecKind::PollAll: {
                    const bool taken = (t.cmask & ~ssDone) == 0;
                    if (taken)
                        takenMask |= bit;
                    nxPc[fu] = taken ? t.t1 : t.t2;
                    continue;
                  }
                  case ExecKind::PollAny: {
                    const bool taken = (t.cmask & ssDone) != 0;
                    if (taken)
                        takenMask |= bit;
                    nxPc[fu] = taken ? t.t1 : t.t2;
                    continue;
                  }
#define X(name, body)                                                     \
                  case ExecKind::name:                                    \
                    body;                                                 \
                    break;
                  XBATCH_DATA_OPS(X)
#undef X
                  default:
                    break; // ExecKind::Nop: no data-path effect
                }

                // Shared sequencing for data tokens (mirrors
                // evalDecodedControl against the lane's CC values and
                // this cycle's SS values).
                switch (t.ckind) {
                  case CondKind::Always:
                    nxPc[fu] = t.t1;
                    break;
                  case CondKind::Halt:
                    haltMask |= bit;
                    break;
                  case CondKind::CcTrue: {
                    const bool taken = lcc[t.cindex] != 0;
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
            }

            commitPend(pend, lane);
        } catch (const FatalError &e) {
            faultMsg_[lane] = e.what();
            return leave(LaneExit::Faulted);
        }

        // Fold the committed cycle's stats, advance control state, and
        // detect a busy-wait fixpoint.
        bool allSpin = fastForward && haltMask == 0;
        for (std::uint32_t m = liveMask; m; m &= m - 1) {
            const FuId fu = lowestSetFu(m);
            const std::uint32_t bit = 1u << fu;
            const FlatParcel &t = *cur[fu];
            if constexpr (kStats) {
                ls.parcels += 1;
                ls.classCounts[t.cls] += 1;
                if (t.flags & FlatParcel::kConditional) {
                    ls.condBranches += 1;
                    if (takenMask & bit)
                        ls.takenBranches += 1;
                    if (!(haltMask & bit) && nxPc[fu] == lpc[fu])
                        ls.busyWaitFuCycles += 1;
                }
            }
            if (!(haltMask & bit)) {
                if (!(t.flags & FlatParcel::kCanSelfSpin) ||
                    nxPc[fu] != lpc[fu])
                    allSpin = false;
                lpc[fu] = nxPc[fu];
            }
        }
        if constexpr (kStats)
            ls.cycles += 1;
        if constexpr (kPart)
            updateGrouping(lane, cur, liveMask, haltMask);
        liveMask &= ~haltMask;
        cyc += 1;

        if (allSpin) {
            // Fixpoint: every remaining budget cycle repeats this one
            // (batch-eligible jobs have no observers to cap the skip).
            if (laneLimit > cyc) {
                const Cycle skip = laneLimit - cyc;
                if constexpr (kStats) {
                    ls.cycles += skip;
                    if constexpr (kPart)
                        ls.partitionCycles[streams_[lane]] += skip;
                    for (std::uint32_t m = liveMask; m; m &= m - 1) {
                        const FuId fu = lowestSetFu(m);
                        const std::uint32_t bit = 1u << fu;
                        const FlatParcel &t = *cur[fu];
                        ls.parcels += skip;
                        ls.classCounts[t.cls] += skip;
                        if (t.flags & FlatParcel::kConditional) {
                            ls.condBranches += skip;
                            if (takenMask & bit)
                                ls.takenBranches += skip;
                            ls.busyWaitFuCycles += skip;
                        }
                    }
                }
                cyc = laneLimit;
            }
        }
    }
}

template <bool kStats>
BatchEngine::LaneExit
BatchEngine::runSliceVliw(unsigned lane, Cycle sliceLimit)
{
    const FlatProgram &flat = prepared_->flat();
    const std::size_t memWords = config_.memWords;
    const bool fastForward = config_.fastForward;
    Word *const lregs = regs_.data() + std::size_t(lane) * kNumRegisters;
    std::uint8_t *const lcc = cc_.data() + std::size_t(lane) * fus_;
    InstAddr *const lpc = pc_.data() + std::size_t(lane) * fus_;
    Word *const *const lpages =
        pageTbl_.data() + std::size_t(lane) * numPages_;
    LaneStats &ls = stats_[lane];
    const Cycle laneLimit = limit_[lane];
    std::uint32_t liveMask = live_[lane];
    Cycle cyc = cyc_[lane];
    Pend pend;

    const auto leave = [&](LaneExit e) {
        live_[lane] = liveMask;
        cyc_[lane] = cyc;
        return e;
    };

    for (;;) {
        if (cyc >= laneLimit)
            return leave(LaneExit::Limit);
        if (liveMask == 0)
            return leave(LaneExit::Halted);
        if (cyc >= sliceLimit)
            return leave(LaneExit::Running);

        const InstAddr pc0 = lpc[0];
        const FlatParcel &ctrl = flat.at(pc0, 0);

        // Sequence via FU0 alone; VLIW validation rejected sync
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
            taken = lcc[ctrl.cindex] != 0;
            nx = taken ? ctrl.t1 : ctrl.t2;
            break;
          default:
            panic("batch VLIW lane: sync condition on a VLIW machine");
        }

        pend.nReg = pend.nMem = pend.nCc = 0;
        try {
            for (FuId fu = 0; fu < fus_; ++fu) {
                const FlatParcel &t = flat.at(pc0, fu);
                switch (t.kind) {
#define X(name, body)                                                     \
                  case ExecKind::name:                                    \
                    body;                                                 \
                    break;
                  XBATCH_DATA_OPS(X)
#undef X
                  default:
                    break; // fused control-only tokens: no data path
                }
            }
            commitPend(pend, lane);
        } catch (const FatalError &e) {
            faultMsg_[lane] = e.what();
            return leave(LaneExit::Faulted);
        }

        if constexpr (kStats) {
            ls.cycles += 1;
            for (FuId fu = 0; fu < fus_; ++fu) {
                const FlatParcel &t = flat.at(pc0, fu);
                ls.parcels += 1;
                ls.classCounts[t.cls] += 1;
            }
            if (conditional) {
                ls.condBranches += 1;
                if (taken)
                    ls.takenBranches += 1;
                if (!halt && nx == pc0)
                    ls.busyWaitFuCycles += 1;
            }
        }

        if (halt)
            liveMask = 0;
        else
            lpc[0] = nx;
        cyc += 1;

        // Busy-wait fixpoint: an all-nop row spinning on itself.
        if (fastForward && !halt && nx == pc0 &&
            (ctrl.flags & FlatParcel::kRowAllNop)) {
            if (laneLimit > cyc) {
                const Cycle skip = laneLimit - cyc;
                if constexpr (kStats) {
                    ls.cycles += skip;
                    ls.parcels += static_cast<std::uint64_t>(fus_) * skip;
                    ls.classCounts[static_cast<std::uint8_t>(
                        OpClass::Nop)] +=
                        static_cast<std::uint64_t>(fus_) * skip;
                    if (conditional) {
                        ls.condBranches += skip;
                        if (taken)
                            ls.takenBranches += skip;
                        ls.busyWaitFuCycles += skip;
                    }
                }
                cyc = laneLimit;
            }
        }
    }
}

BatchEngine::LaneExit
BatchEngine::runSlice(unsigned lane, Cycle sliceCycles)
{
    const Cycle sliceLimit = cyc_[lane] + sliceCycles;
    const bool kS = config_.collectStats;
    if (config_.mode == Mode::Ximd) {
        const bool kP = kS && config_.trackPartitions;
        if (kS && kP)
            return runSliceXimd<true, true>(lane, sliceLimit);
        if (kS)
            return runSliceXimd<true, false>(lane, sliceLimit);
        return runSliceXimd<false, false>(lane, sliceLimit);
    }
    return kS ? runSliceVliw<true>(lane, sliceLimit)
              : runSliceVliw<false>(lane, sliceLimit);
}

RunStats
BatchEngine::foldStats(unsigned lane) const
{
    // StatsObserver::onBlock's fold, including the XIMD-only busy-wait
    // accounting and the VLIW fixed single-stream histogram.
    RunStats s(fus_);
    if (!config_.collectStats)
        return s;
    const LaneStats &ls = stats_[lane];
    if (config_.mode == Mode::Ximd) {
        if (config_.trackPartitions) {
            for (unsigned n = 1; n <= kMaxFus; ++n)
                if (ls.partitionCycles[n])
                    s.countPartitions(n, ls.partitionCycles[n]);
        }
    } else if (config_.trackPartitions) {
        s.countPartitions(1, ls.cycles + !faultMsg_[lane].empty());
    }
    for (std::size_t c = 0; c < 8; ++c)
        if (ls.classCounts[c])
            s.countParcels(static_cast<OpClass>(c), ls.classCounts[c]);
    if (ls.takenBranches)
        s.countConditionalBranches(true, ls.takenBranches);
    if (ls.condBranches > ls.takenBranches)
        s.countConditionalBranches(false,
                                   ls.condBranches - ls.takenBranches);
    if (config_.mode == Mode::Ximd && ls.busyWaitFuCycles)
        s.countBusyWaits(ls.busyWaitFuCycles);
    s.countCycles(ls.cycles);
    return s;
}

std::uint64_t
BatchEngine::laneArchHash(unsigned lane) const
{
    // MachineCore::archStateHash: register words, memory as RLE runs,
    // CC values + ever-written flags. The run decomposition replayed
    // here over the page table is identical to a dense scan, as in
    // Memory::hashContents (absent pages contribute zero runs that
    // merge with neighbouring zero words exactly as the scan would).
    Hash64 h;
    const Word *const lregs =
        regs_.data() + std::size_t(lane) * kNumRegisters;
    for (RegId r = 0; r < kNumRegisters; ++r)
        h.u32(lregs[r]);

    const Word *const *const lpages =
        pageTbl_.data() + std::size_t(lane) * numPages_;
    std::uint64_t runLen = 0;
    Word runVal = 0;
    bool haveRun = false;
    const auto flush = [&] {
        if (haveRun) {
            h.u64(runLen);
            h.u32(runVal);
        }
    };
    for (std::size_t p = 0; p < numPages_; ++p) {
        const std::size_t base = p << kPageShift;
        const std::size_t n =
            std::min(kPageWords, config_.memWords - base);
        const Word *pg = lpages[p];
        if (!pg) {
            if (haveRun && runVal == 0) {
                runLen += n;
            } else {
                flush();
                runVal = 0;
                runLen = n;
                haveRun = true;
            }
            continue;
        }
        for (std::size_t i = 0; i < n; ++i) {
            const Word v = pg[i];
            if (haveRun && v == runVal) {
                ++runLen;
            } else {
                flush();
                runVal = v;
                runLen = 1;
                haveRun = true;
            }
        }
    }
    flush();

    const std::uint8_t *const lcc =
        cc_.data() + std::size_t(lane) * fus_;
    for (FuId fu = 0; fu < fus_; ++fu) {
        h.boolean(lcc[fu] != 0);
        h.boolean((ccEver_[lane] >> fu) & 1u);
    }
    return h.digest();
}

void
BatchEngine::retireLane(unsigned lane, LaneExit exit)
{
    (void)exit;
    const std::size_t job = laneJob_[lane];
    JobState &js = jobs_[job];
    LaneResult &res = js.result;
    res.ran = true;
    res.run.cycles = cyc_[lane];
    // Same verdict order as MachineCore::run(): fault wins, then
    // halted, then budget exhaustion.
    if (!faultMsg_[lane].empty()) {
        res.run.reason = StopReason::Fault;
        res.run.faultMessage = faultMsg_[lane];
    } else if (live_[lane] == 0) {
        res.run.reason = StopReason::Halted;
    } else {
        res.run.reason = StopReason::MaxCycles;
    }
    res.stats = foldStats(lane);
    res.archHash = laneArchHash(lane);
    // Checks see only cleanly-halted state (fault / exhausted budget
    // already failed the job), matching Farm::runOne's precedence. A
    // check that itself faults — bad register name, out-of-range peek
    // — fails the job with the FatalError's message, as scalar does.
    if (res.run.reason == StopReason::Halted && js.check) {
        try {
            res.checkError = js.check(LaneView(*this, lane), res.run);
        } catch (const std::exception &e) {
            res.checkError = e.what();
        }
    }
    js.done = true;
    laneJob_[lane] = kNoJob;
}

void
BatchEngine::runAll()
{
    // Lockstep round-robin: every active lane advances one slice, a
    // finished lane retires and its slot refills from the pending
    // queue on the next sweep. Lanes are independent machines, so any
    // interleaving of slices produces identical per-lane results; the
    // slice length only balances cache residency against scheduling
    // granularity.
    constexpr Cycle kSliceCycles = 4096;
    for (;;) {
        bool any = false;
        for (unsigned lane = 0; lane < width_; ++lane) {
            if (laneJob_[lane] == kNoJob && !refillLane(lane))
                continue;
            any = true;
            const LaneExit e = runSlice(lane, kSliceCycles);
            if (e != LaneExit::Running)
                retireLane(lane, e);
        }
        if (!any)
            return;
    }
}

} // namespace ximd::batch
