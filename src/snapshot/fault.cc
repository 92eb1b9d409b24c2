#include "snapshot/fault.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "core/machine_core.hh"
#include "sim/io_port.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "support/state_io.hh"

namespace ximd::snapshot {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::RegFlip:
        return "reg-flip";
      case FaultKind::CcFlip:
        return "cc-flip";
      case FaultKind::MemFlip:
        return "mem-flip";
      case FaultKind::StuckSync:
        return "stuck-sync";
      case FaultKind::IoDelay:
        return "io-delay";
    }
    return "unknown";
}

Result<FaultKind, std::string>
faultKindFromName(const std::string &s)
{
    for (FaultKind k :
         {FaultKind::RegFlip, FaultKind::CcFlip, FaultKind::MemFlip,
          FaultKind::StuckSync, FaultKind::IoDelay}) {
        if (s == faultKindName(k))
            return k;
    }
    return {errTag, "unknown fault kind '" + s + "'"};
}

std::string
FaultEvent::describe() const
{
    std::ostringstream os;
    os << "cycle " << cycle << ": " << faultKindName(kind);
    switch (kind) {
      case FaultKind::RegFlip:
        os << " r" << reg << " bit " << bit;
        break;
      case FaultKind::CcFlip:
        os << " cc" << fu;
        break;
      case FaultKind::MemFlip:
        os << " mem[" << addr << "] bit " << bit;
        break;
      case FaultKind::StuckSync:
        os << " ss" << fu << "="
           << (stuck == SyncVal::Done ? "DONE" : "BUSY") << " for "
           << duration << " cycles";
        break;
      case FaultKind::IoDelay:
        os << " +" << delay << " cycles";
        break;
    }
    return os.str();
}

Result<FaultPlan, std::string>
FaultPlan::parse(const json::Value &v)
{
    if (!v.isObject())
        return {errTag, std::string("fault plan must be a JSON object")};
    FaultPlan plan;
    json::FieldReader f;
    std::vector<std::string> kindNames;
    for (const auto &[key, val] : v.members()) {
        if (key == "seed") {
            f.get(key, &val, plan.seed);
        } else if (key == "trials") {
            f.get(key, &val, plan.trials);
        } else if (key == "faults_per_trial") {
            f.get(key, &val, plan.faultsPerTrial);
        } else if (key == "window") {
            if (!val.isArray() || val.items().size() != 2)
                return {errTag,
                        std::string("'window' must be [lo, hi]")};
            f.get(key, &val.items()[0], plan.windowLo);
            f.get(key, &val.items()[1], plan.windowHi);
        } else if (key == "kinds") {
            f.get(key, &val, kindNames);
        } else if (key == "mem_range") {
            if (!val.isArray() || val.items().size() != 2)
                return {errTag,
                        std::string("'mem_range' must be [lo, hi]")};
            f.get(key, &val.items()[0], plan.memLo);
            f.get(key, &val.items()[1], plan.memHi);
        } else if (key == "watchdog") {
            f.get(key, &val, plan.watchdogCycles);
        } else {
            return {errTag, "unknown fault-plan key '" + key + "'"};
        }
        if (!f.ok())
            return {errTag, f.error()};
    }
    for (const std::string &name : kindNames) {
        auto parsed = faultKindFromName(name);
        if (!parsed)
            return {errTag, parsed.error()};
        plan.kinds.push_back(*parsed);
    }
    if (plan.trials == 0)
        return {errTag, std::string("'trials' must be >= 1")};
    if (plan.faultsPerTrial == 0)
        return {errTag,
                std::string("'faults_per_trial' must be >= 1")};
    if (plan.windowLo > plan.windowHi)
        return {errTag, std::string("'window' lo exceeds hi")};
    if (plan.memLo > plan.memHi)
        return {errTag, std::string("'mem_range' lo exceeds hi")};
    if (plan.watchdogCycles == 0)
        return {errTag, std::string("'watchdog' must be >= 1")};
    return plan;
}

Result<FaultPlan, std::string>
FaultPlan::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return {errTag, "cannot open fault plan '" + path + "'"};
    std::ostringstream text;
    text << in.rdbuf();
    auto doc = json::parse(text.str());
    if (!doc)
        return {errTag, path + ": " + doc.error().formatted()};
    return parse(*doc);
}

std::vector<FaultKind>
FaultPlan::effectiveKinds() const
{
    if (!kinds.empty())
        return kinds;
    return {FaultKind::RegFlip, FaultKind::CcFlip, FaultKind::MemFlip,
            FaultKind::StuckSync, FaultKind::IoDelay};
}

std::vector<FaultEvent>
FaultPlan::expandTrial(unsigned trial, FuId numFus) const
{
    // The trial stream is seeded from (plan seed, trial index) alone,
    // so a trial's events never depend on execution order.
    Hash64 h;
    h.u64(seed);
    h.u64(trial);
    Rng rng(h.digest());

    const std::vector<FaultKind> ks = effectiveKinds();
    std::vector<FaultEvent> events;
    events.reserve(faultsPerTrial);
    for (unsigned i = 0; i < faultsPerTrial; ++i) {
        FaultEvent e;
        e.cycle = windowLo + static_cast<Cycle>(rng.range(
                                 0, static_cast<std::int64_t>(
                                        windowHi - windowLo)));
        e.kind = ks[static_cast<std::size_t>(
            rng.range(0, static_cast<std::int64_t>(ks.size()) - 1))];
        switch (e.kind) {
          case FaultKind::RegFlip:
            e.reg = static_cast<RegId>(
                rng.range(0, kNumRegisters - 1));
            e.bit = static_cast<unsigned>(rng.range(0, 31));
            break;
          case FaultKind::CcFlip:
            e.fu = static_cast<FuId>(rng.range(0, numFus - 1));
            break;
          case FaultKind::MemFlip:
            e.addr = memLo + static_cast<Addr>(rng.range(
                                 0, static_cast<std::int64_t>(
                                        memHi - memLo)));
            e.bit = static_cast<unsigned>(rng.range(0, 31));
            break;
          case FaultKind::StuckSync:
            e.fu = static_cast<FuId>(rng.range(0, numFus - 1));
            e.stuck =
                rng.chance(0.5) ? SyncVal::Done : SyncVal::Busy;
            e.duration = static_cast<Cycle>(rng.range(1, 16));
            break;
          case FaultKind::IoDelay:
            e.delay = static_cast<Cycle>(rng.range(1, 8));
            break;
        }
        events.push_back(e);
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.cycle < b.cycle;
                     });
    return events;
}

std::string
FaultPlan::describe() const
{
    std::ostringstream os;
    os << "seed=" << seed << " trials=" << trials
       << " faults/trial=" << faultsPerTrial << " window=["
       << windowLo << "," << windowHi << "] kinds=";
    bool first = true;
    for (FaultKind k : effectiveKinds()) {
        os << (first ? "" : ",") << faultKindName(k);
        first = false;
    }
    os << " mem=[" << memLo << "," << memHi << "] watchdog="
       << watchdogCycles;
    return os.str();
}

FaultInjector::FaultInjector(std::vector<FaultEvent> events)
    : events_(std::move(events))
{
    std::stable_sort(events_.begin(), events_.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.cycle < b.cycle;
                     });
}

Cycle
FaultInjector::nextWake(const MachineCore &core) const
{
    (void)core;
    return next_ < events_.size() ? events_[next_].cycle : kNeverWake;
}

void
FaultInjector::onPerturb(MachineCore &core)
{
    while (next_ < events_.size() &&
           events_[next_].cycle <= core.cycle()) {
        apply(core, events_[next_]);
        ++next_;
    }
}

void
FaultInjector::apply(MachineCore &core, const FaultEvent &e)
{
    switch (e.kind) {
      case FaultKind::RegFlip: {
        const Word old = core.readReg(e.reg);
        core.registers().poke(e.reg, old ^ (Word(1) << e.bit));
        break;
      }
      case FaultKind::CcFlip:
        if (e.fu >= core.numFus())
            return;
        core.condCodes().poke(e.fu, !core.condCodes().read(e.fu));
        break;
      case FaultKind::MemFlip: {
        Memory &mem = core.memory();
        // A flip aimed at a device window or past the end of memory
        // hits no RAM cell; the event is dropped, not redirected.
        if (e.addr >= mem.size() || mem.inDeviceWindow(e.addr))
            return;
        mem.poke(e.addr, mem.peek(e.addr) ^ (Word(1) << e.bit));
        break;
      }
      case FaultKind::StuckSync:
        // A VLIW has no SS bus to disturb.
        if (core.mode() != Mode::Ximd || e.fu >= core.numFus())
            return;
        core.forceSync(e.fu, e.stuck, core.cycle() + e.duration);
        break;
      case FaultKind::IoDelay:
        for (IoDevice *dev : core.memory().attachedDevices()) {
            if (auto *port = dynamic_cast<ScriptedInputPort *>(dev))
                port->delayPending(e.delay);
        }
        break;
    }
    ++injected_;
    log_.push_back(e.describe());
}

} // namespace ximd::snapshot
