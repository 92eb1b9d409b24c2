#include "core/machine_core.hh"

#include <algorithm>

#include "core/exec_backend.hh"
#include "support/logging.hh"

namespace ximd {

MachineCore::MachineCore(std::shared_ptr<const PreparedProgram> prepared,
                         MachineConfig config)
    : prepared_(std::move(prepared)),
      decoded_(&prepared_->decoded()),
      config_(config),
      mode_(config.mode),
      regs_(kNumRegisters, config.conflictPolicy),
      mem_(config.memWords, config.conflictPolicy),
      ccs_(prepared_->width()),
      pipe_(config.resultLatency),
      sync_(prepared_->width()),
      regSync_(prepared_->width()),
      syncPrev_(prepared_->width(), SyncVal::Busy),
      pcs_(prepared_->width(), 0),
      haltedFus_(prepared_->width(), false),
      fetched_(prepared_->width(), nullptr),
      next_(prepared_->width()),
      events_(prepared_->width())
{
    if (mode_ == Mode::Vliw)
        validateVliwProgram();
    applyMemInit();
}

MachineCore::~MachineCore() = default;

void
MachineCore::validateVliwProgram() const
{
    for (InstAddr a = 0; a < program().size(); ++a) {
        for (FuId fu = 0; fu < program().width(); ++fu) {
            const Parcel &p = program().row(a)[fu];
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

void
MachineCore::applyMemInit()
{
    for (const auto &[addr, value] : program().memInit())
        mem_.poke(addr, value);
    for (const auto &[reg, value] : program().regInit())
        regs_.poke(reg, value);
}

void
MachineCore::attachDevice(Addr lo, Addr hi, IoDevice *device)
{
    mem_.attachDevice(lo, hi, device);
}

void
MachineCore::addObserver(CycleObserver *observer)
{
    XIMD_ASSERT(observer, "null observer");
    observers_.push_back(observer);
    if (observer->perturbs())
        perturbers_.push_back(observer);
}

void
MachineCore::forceSync(FuId fu, SyncVal val, Cycle untilCycle)
{
    XIMD_ASSERT(fu < numFus(), "FU index out of range");
    syncOverrides_.push_back({fu, val, untilCycle});
}

bool
MachineCore::hasSyncOverrides() const
{
    for (const SyncOverride &o : syncOverrides_)
        if (cycle_ < o.until)
            return true;
    return false;
}

void
MachineCore::applySyncOverrides(SyncBus &bus)
{
    syncOverrides_.erase(
        std::remove_if(syncOverrides_.begin(), syncOverrides_.end(),
                       [this](const SyncOverride &o) {
                           return cycle_ >= o.until;
                       }),
        syncOverrides_.end());
    for (const SyncOverride &o : syncOverrides_)
        bus.set(o.fu, o.val);
}

InstAddr
MachineCore::pc(FuId fu) const
{
    XIMD_ASSERT(fu < numFus(), "FU index out of range");
    return pcs_[fu];
}

bool
MachineCore::haltedFu(FuId fu) const
{
    XIMD_ASSERT(fu < numFus(), "FU index out of range");
    return haltedFus_[fu];
}

bool
MachineCore::allHalted() const
{
    for (bool h : haltedFus_)
        if (!h)
            return false;
    return true;
}

void
MachineCore::fault(const std::string &msg)
{
    faulted_ = true;
    faultMsg_ = msg;
    regs_.squash();
    mem_.squash();
    ccs_.squash();
    pipe_.squash();
    spinHint_ = false;
    notifyDone();
}

void
MachineCore::notifyDone()
{
    if (doneNotified_)
        return;
    doneNotified_ = true;
    for (CycleObserver *o : observers_)
        o->onHalt(*this);
}

void
MachineCore::buildEvents()
{
    const FuId n = numFus();
    for (FuId fu = 0; fu < n; ++fu) {
        FuEvent &e = events_[fu];
        e = FuEvent{};
        const DecodedParcel *d = fetched_[fu];
        if (!d)
            continue;
        const NextPc &nx = mode_ == Mode::Vliw ? next_[0] : next_[fu];
        e.executed = true;
        e.cls = d->cls;
        e.halted = nx.halt;
        e.nextPc = nx.pc;
        if (mode_ == Mode::Ximd || fu == 0) {
            e.conditional = d->conditional;
            e.taken = nx.taken;
            e.busyWait =
                d->conditional && !nx.halt && nx.pc == pcs_[fu];
        }
        e.ctrl = d->controlOp();
    }
}

Backend
MachineCore::effectiveBackend() const
{
    return demotionReason().empty() ? config_.backend : Backend::Interp;
}

const char *
MachineCore::effectiveBackendName() const
{
    return backendName(effectiveBackend());
}

std::string
MachineCore::demotionReason() const
{
    if (config_.backend == Backend::Interp)
        return {};
    if (!perturbers_.empty())
        return std::string("observer '") +
               perturbers_.front()->observerName() +
               "' schedules perturbations";
    for (const CycleObserver *o : observers_) {
        if (!o->acceptsBlocks())
            return std::string("observer '") + o->observerName() +
                   "' requires per-cycle fidelity";
    }
    if (config_.resultLatency != 1)
        return "result latency > 1 keeps the write pipeline in flight";
    if (config_.registeredSync)
        return "registered sync distribution needs per-cycle stepping";
    if (mem_.hasDevices())
        return "memory-mapped devices need per-cycle access ordering";
    return {};
}

void
MachineCore::ensureBackend()
{
    // Recomputed on every step()/run() entry: observers and devices
    // may attach between runs, and each attachment can change the
    // demotion verdict. Backend instances are stateless across runs
    // (the threaded backend resynchronizes from core state), so
    // swapping kinds at a cycle boundary is always safe.
    const Backend kind = effectiveBackend();
    if (backend_ && backendKind_ == kind)
        return;
    backend_ = makeExecBackend(kind, *this);
    backendKind_ = kind;
    backend_->prepare();
}

bool
MachineCore::step()
{
    ensureBackend();
    return backend_->step();
}

bool
MachineCore::tryFastForward(Cycle limit)
{
    // A skip is sound only when the machine state provably maps to
    // itself each remaining cycle (DESIGN.md section 7): no pending
    // write-backs, no devices (device reads are cycle-dependent), and
    // every live FU re-selects its own address around a nop.
    if (limit <= cycle_ || faulted_ || allHalted())
        return false;
    if (!pipe_.empty() || mem_.hasDevices() || hasSyncOverrides())
        return false;

    // An observer with scheduled work (a pending fault injection) caps
    // how far the skip may reach: cycles up to its wake cycle repeat
    // the fixpoint, the wake cycle itself must execute one at a time.
    Cycle cap = limit;
    for (const CycleObserver *o : observers_) {
        const Cycle wake = o->nextWake(*this);
        if (wake < cap)
            cap = wake;
    }
    if (cap <= cycle_)
        return false;
    limit = cap;

    const FuId n = numFus();

    if (mode_ == Mode::Ximd) {
        // Emit the SS values the next cycle would drive.
        sync_.beginCycle();
        for (FuId fu = 0; fu < n; ++fu) {
            if (!haltedFus_[fu])
                sync_.set(fu, decoded_->at(pcs_[fu], fu).sync);
        }
        if (config_.registeredSync) {
            // Branch decisions read last cycle's SS values; those must
            // also be what this cycle re-emits, or SS state changes.
            for (FuId fu = 0; fu < n; ++fu)
                if (sync_.get(fu) != syncPrev_[fu])
                    return false;
        }
        for (FuId fu = 0; fu < n; ++fu) {
            if (haltedFus_[fu]) {
                fetched_[fu] = nullptr;
                continue;
            }
            const DecodedParcel &d = decoded_->at(pcs_[fu], fu);
            if (d.cls != OpClass::Nop)
                return false;
            fetched_[fu] = &d;
            next_[fu] = evalDecodedControl(d, ccs_, sync_);
            if (next_[fu].halt || next_[fu].pc != pcs_[fu])
                return false;
        }
    } else {
        const DecodedParcel *row = &decoded_->at(pcs_[0], 0);
        for (FuId fu = 0; fu < n; ++fu) {
            if (row[fu].cls != OpClass::Nop)
                return false;
            fetched_[fu] = row + fu;
        }
        next_[0] = evalDecodedControl(row[0], ccs_, sync_);
        if (next_[0].halt || next_[0].pc != pcs_[0])
            return false;
    }

    // Fixpoint proven: every remaining cycle repeats these events with
    // unchanged beginning-of-cycle state.
    const Cycle skipped = limit - cycle_;
    if (!observers_.empty()) {
        buildEvents();
        for (CycleObserver *o : observers_)
            o->onFastForward(*this, skipped, events_);
    }
    cycle_ = limit;
    if (mode_ == Mode::Ximd) {
        for (FuId fu = 0; fu < n; ++fu)
            syncPrev_[fu] = sync_.get(fu);
    }
    return true;
}

RunResult
MachineCore::run(Cycle maxCycles)
{
    const Cycle budget =
        maxCycles ? maxCycles : config_.defaultMaxCycles;
    const Cycle limit = cycle_ + budget;

    ensureBackend();
    backend_->runTo(limit);

    RunResult result;
    result.cycles = cycle_;
    if (faulted_) {
        result.reason = StopReason::Fault;
        result.faultMessage = faultMsg_;
    } else if (allHalted()) {
        result.reason = StopReason::Halted;
    } else {
        result.reason = StopReason::MaxCycles;
    }
    return result;
}

Word
MachineCore::readRegByName(const std::string &name) const
{
    auto r = program().regByName(name);
    if (!r)
        fatal("program defines no register named '", name, "'");
    return regs_.peek(*r);
}

void
MachineCore::saveState(StateWriter &w) const
{
    w.tag("MCOR");
    w.u8(static_cast<std::uint8_t>(mode_));
    w.u64(cycle_);
    w.boolean(faulted_);
    w.str(faultMsg_);
    w.boolean(doneNotified_);

    w.count(pcs_.size());
    for (InstAddr pc : pcs_)
        w.u32(pc);
    w.count(haltedFus_.size());
    for (bool h : haltedFus_)
        w.boolean(h);
    w.count(syncPrev_.size());
    for (SyncVal v : syncPrev_)
        w.u8(static_cast<std::uint8_t>(v));
    w.count(syncOverrides_.size());
    for (const SyncOverride &o : syncOverrides_) {
        w.u32(o.fu);
        w.u8(static_cast<std::uint8_t>(o.val));
        w.u64(o.until);
    }

    regs_.saveState(w);
    mem_.saveState(w);
    ccs_.saveState(w);
    pipe_.saveState(w);
    sync_.saveState(w);
}

void
MachineCore::loadState(StateReader &r)
{
    r.checkTag("MCOR");
    const auto mode = static_cast<Mode>(r.u8());
    if (mode != mode_)
        fatal("core state was saved in ",
              mode == Mode::Ximd ? "ximd" : "vliw",
              " mode, this machine runs ",
              mode_ == Mode::Ximd ? "ximd" : "vliw");
    cycle_ = r.u64();
    faulted_ = r.boolean();
    faultMsg_ = r.str();
    doneNotified_ = r.boolean();

    const FuId n = numFus();
    if (r.count(kMaxFus) != n)
        fatal("core state FU count does not match this machine");
    for (InstAddr &pc : pcs_)
        pc = r.u32();
    if (r.count(kMaxFus) != n)
        fatal("core state halt-flag count does not match this machine");
    for (FuId fu = 0; fu < n; ++fu)
        haltedFus_[fu] = r.boolean();
    if (r.count(kMaxFus) != n)
        fatal("core state sync-history count does not match this "
              "machine");
    for (SyncVal &v : syncPrev_)
        v = static_cast<SyncVal>(r.u8());
    syncOverrides_.resize(r.count(1u << 16));
    for (SyncOverride &o : syncOverrides_) {
        o.fu = r.u32();
        o.val = static_cast<SyncVal>(r.u8());
        o.until = r.u64();
    }

    regs_.loadState(r);
    mem_.loadState(r);
    ccs_.loadState(r);
    pipe_.loadState(r);
    sync_.loadState(r);

    // Per-cycle scratch is recomputed by the next step(); the spin
    // hint must not survive a restore (it refers to the pre-restore
    // cycle's fetch).
    spinHint_ = false;
    if (backend_)
        backend_->onStateLoaded();
}

std::uint64_t
MachineCore::archStateHash() const
{
    Hash64 h;
    regs_.hashContents(h);
    mem_.hashContents(h);
    ccs_.hashContents(h);
    return h.digest();
}

} // namespace ximd
