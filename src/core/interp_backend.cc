#include "core/interp_backend.hh"

#include <algorithm>

#include "sim/alu.hh"
#include "support/logging.hh"

namespace ximd {

void
InterpBackend::executeParcel(MachineCore &core, const DecodedParcel &d,
                             FuId fu)
{
    const auto src = [&core](const DecodedSrc &s) {
        return s.isReg ? core.regs_.read(static_cast<RegId>(s.value))
                       : s.value;
    };

    switch (d.cls) {
      case OpClass::Nop:
        return;

      case OpClass::IntAlu: {
        Word result;
        switch (d.op) {
          case Opcode::Ineg:
          case Opcode::Not:
          case Opcode::Mov:
            result = alu::intUnary(d.op, src(d.a));
            break;
          default:
            result = alu::intBinary(d.op, src(d.a), src(d.b));
            break;
        }
        core.pipe_.pushReg(core.cycle_, d.dest, result, fu);
        return;
      }

      case OpClass::IntCompare:
        core.pipe_.pushCc(core.cycle_, fu,
                          alu::intCompare(d.op, src(d.a), src(d.b)));
        return;

      case OpClass::FloatAlu: {
        Word result;
        if (d.op == Opcode::Fneg)
            result = alu::floatUnary(d.op, src(d.a));
        else
            result = alu::floatBinary(d.op, src(d.a), src(d.b));
        core.pipe_.pushReg(core.cycle_, d.dest, result, fu);
        return;
      }

      case OpClass::FloatCompare:
        core.pipe_.pushCc(core.cycle_, fu,
                          alu::floatCompare(d.op, src(d.a), src(d.b)));
        return;

      case OpClass::Convert:
        core.pipe_.pushReg(core.cycle_, d.dest,
                           alu::convert(d.op, src(d.a)), fu);
        return;

      case OpClass::MemLoad: {
        const Addr addr = src(d.a) + src(d.b);
        core.pipe_.pushReg(core.cycle_, d.dest,
                           core.mem_.load(addr, core.cycle_), fu);
        return;
      }

      case OpClass::MemStore: {
        const Word value = src(d.a);
        const Addr addr = src(d.b);
        core.pipe_.pushStore(core.cycle_, addr, value, fu);
        return;
      }
    }
    panic("executeParcel: unhandled op class for ", opcodeName(d.op));
}

bool
InterpBackend::stepCore(MachineCore &core)
{
    // Even with every FU halted, in-flight write-backs must drain
    // (resultLatency > 1) before the machine is architecturally done.
    if (core.faulted_ || (core.allHalted() && core.pipe_.empty()))
        return false;

    const FuId n = core.numFus();
    core.spinHint_ = false;

    // Beginning-of-cycle observation, then scheduled perturbation
    // (fault injection) against the state the cycle is about to read.
    for (CycleObserver *o : core.observers_)
        o->onCycle(core);
    for (CycleObserver *o : core.perturbers_)
        o->onPerturb(core);

    // Fetch; in XIMD mode also drive the sync bus from the executing
    // parcels' SS fields.
    if (core.mode_ == Mode::Ximd) {
        core.sync_.beginCycle(); // halted FUs read DONE
        for (FuId fu = 0; fu < n; ++fu) {
            if (core.haltedFus_[fu]) {
                core.fetched_[fu] = nullptr;
                continue;
            }
            core.fetched_[fu] = &core.decoded_->at(core.pcs_[fu], fu);
            core.sync_.set(fu, core.fetched_[fu]->sync);
        }
        if (!core.syncOverrides_.empty())
            core.applySyncOverrides(core.sync_);
    } else {
        // The single PC selects one row for every lane; a halted VLIW
        // only drains in-flight write-backs.
        const DecodedParcel *row =
            core.haltedFus_[0] ? nullptr
                               : &core.decoded_->at(core.pcs_[0], 0);
        for (FuId fu = 0; fu < n; ++fu)
            core.fetched_[fu] = row ? row + fu : nullptr;
    }

    // Execute data operations against beginning-of-cycle state.
    try {
        for (FuId fu = 0; fu < n; ++fu) {
            if (core.fetched_[fu])
                executeParcel(core, *core.fetched_[fu], fu);
        }
    } catch (const FatalError &e) {
        core.fault(e.what());
        return false;
    }

    // Sequence: select next PCs. CC values are still the beginning-
    // of-cycle ones (commit happens below); SS values are the current
    // cycle's fields (or the previous cycle's, under the registered-
    // sync ablation). A VLIW is steered by FU0's control op alone.
    if (core.mode_ == Mode::Ximd) {
        const SyncBus *branchSync = &core.sync_;
        if (core.config_.registeredSync) {
            for (FuId fu = 0; fu < n; ++fu)
                core.regSync_.set(fu, core.syncPrev_[fu]);
            branchSync = &core.regSync_;
        }
        bool anyLive = false;
        bool allSpin = true;
        for (FuId fu = 0; fu < n; ++fu) {
            if (!core.fetched_[fu])
                continue;
            anyLive = true;
            core.next_[fu] = evalDecodedControl(*core.fetched_[fu],
                                                core.ccs_, *branchSync);
            if (!(core.fetched_[fu]->canSelfSpin && !core.next_[fu].halt &&
                  core.next_[fu].pc == core.pcs_[fu]))
                allSpin = false;
        }
        core.spinHint_ = anyLive && allSpin;
    } else {
        if (core.fetched_[0]) {
            core.next_[0] = evalDecodedControl(*core.fetched_[0],
                                               core.ccs_, core.sync_);
            core.spinHint_ = core.fetched_[0]->canSelfSpin &&
                             !core.next_[0].halt &&
                             core.next_[0].pc == core.pcs_[0];
        } else {
            core.next_[0] = NextPc{};
            core.next_[0].halt = true; // draining in-flight write-backs
        }
    }

    // Snapshot the cycle's events before PCs advance (busy-wait
    // detection compares against this cycle's PCs).
    if (!core.observers_.empty())
        core.buildEvents();

    // Commit the write-backs due this cycle.
    try {
        core.pipe_.drainInto(core.cycle_, core.regs_, core.mem_,
                             core.ccs_);
        core.regs_.commit();
        core.mem_.commit(core.cycle_);
        core.ccs_.commit();
    } catch (const FatalError &e) {
        core.fault(e.what());
        return false;
    }

    // Advance control state.
    if (core.mode_ == Mode::Ximd) {
        for (FuId fu = 0; fu < n; ++fu) {
            if (!core.fetched_[fu])
                continue;
            if (core.next_[fu].halt)
                core.haltedFus_[fu] = true;
            else
                core.pcs_[fu] = core.next_[fu].pc;
        }
        for (FuId fu = 0; fu < n; ++fu)
            core.syncPrev_[fu] = core.sync_.get(fu);
    } else {
        if (core.next_[0].halt)
            std::fill(core.haltedFus_.begin(), core.haltedFus_.end(),
                      true);
        else
            core.pcs_[0] = core.next_[0].pc;
    }

    // End-of-cycle observation.
    for (CycleObserver *o : core.observers_)
        o->onCommit(core, core.events_);

    ++core.cycle_;

    if (core.allHalted() && core.pipe_.empty())
        core.notifyDone();
    return true;
}

void
InterpBackend::runCoreTo(MachineCore &core, Cycle limit)
{
    while (core.cycle_ < limit && stepCore(core)) {
        // A successful skip may be partial (capped at an observer's
        // wake cycle), so keep stepping from wherever it landed.
        if (core.config_.fastForward && core.spinHint_)
            core.tryFastForward(limit);
    }
}

} // namespace ximd
