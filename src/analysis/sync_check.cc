#include "analysis/sync_check.hh"

#include <array>
#include <map>
#include <vector>

#include "support/logging.hh"

namespace ximd::analysis {

namespace {

/** One sync-conditioned branch that can execute. */
struct Wait
{
    InstAddr row = 0;
    FuId fu = 0;
    CondKind kind = CondKind::SyncDone;
    std::uint32_t waitMask = 0; ///< Existing FUs the condition reads.
    bool spin = false;          ///< Not-taken target loops back here.
    SyncVal ownSync = SyncVal::Busy; ///< SS this parcel drives.
};

} // namespace

void
checkSync(const Program &prog, const ProgramCfg &cfg,
          DiagnosticList &diags)
{
    const InstAddr n = prog.size();
    const FuId width = prog.width();
    const std::uint32_t existing = fuMaskAll(width);

    // Rows at which each FU drives DONE on the bus: a reachable
    // parcel with a DONE sync field, or a reachable halt (halted FUs
    // read DONE — sync_bus.hh).
    std::vector<std::vector<InstAddr>> doneRows(width);
    for (FuId fu = 0; fu < width; ++fu)
        for (InstAddr r = 0; r < n; ++r)
            if (cfg.executable(r, fu)) {
                const Parcel &p = prog.parcel(r, fu);
                if (p.ctrl.isHalt() || p.sync == SyncVal::Done)
                    doneRows[fu].push_back(r);
            }
    auto hasDone = [&](FuId fu) { return !doneRows[fu].empty(); };

    // Collect executable sync waits; diagnose indices and masks.
    std::vector<Wait> waits;
    for (InstAddr r = 0; r < n; ++r) {
        for (FuId fu = 0; fu < width; ++fu) {
            if (!cfg.executable(r, fu))
                continue;
            const Parcel &p = prog.parcel(r, fu);
            const ControlOp &c = p.ctrl;

            Wait w;
            w.row = r;
            w.fu = fu;
            w.kind = c.kind;
            w.spin = c.isConditional() && c.t2 == r;
            w.ownSync = p.sync;

            switch (c.kind) {
              case CondKind::SyncDone:
                if (c.index >= width) {
                    diags.error(
                        Check::BadSsIndex, r, static_cast<int>(fu),
                        cat("branch on ss", +c.index,
                            " but the machine has only ", width,
                            " FUs (ss0..ss", width - 1, ")"));
                    continue;
                }
                w.waitMask = 1u << c.index;
                break;
              case CondKind::AllSync:
              case CondKind::AnySync: {
                std::uint32_t m = c.mask;
                if (m != ~0u && (m & ~existing) != 0)
                    diags.warning(
                        Check::BadSyncMask, r, static_cast<int>(fu),
                        cat("sync mask selects FUs beyond the "
                            "machine width ", width,
                            "; the extra bits are ignored"));
                m &= existing;
                if (m == 0) {
                    diags.error(
                        Check::EmptySyncMask, r, static_cast<int>(fu),
                        "sync mask selects no existing FU; the "
                        "simulator rejects this barrier");
                    continue;
                }
                w.waitMask = m;
                break;
              }
              default:
                continue;
            }
            waits.push_back(w);
        }
    }

    // Unsatisfiable waits and self-vetoed barriers.
    for (const Wait &w : waits) {
        const int fu = static_cast<int>(w.fu);
        const bool selfInMask = (w.waitMask >> w.fu) & 1u;

        if (w.kind == CondKind::AnySync) {
            // ANY completes if any partner can signal, or this FU's
            // own parcel drives DONE and is in the mask.
            bool satisfiable = selfInMask && w.ownSync == SyncVal::Done;
            for (FuId k = 0; k < width && !satisfiable; ++k)
                if (k != w.fu && ((w.waitMask >> k) & 1u) &&
                    hasDone(k))
                    satisfiable = true;
            if (!satisfiable) {
                const auto msg =
                    cat("any-sync over a mask in which no FU ever "
                        "drives DONE or halts");
                if (w.spin)
                    diags.error(Check::UnsatisfiableWait, w.row, fu,
                                cat("deadlock: FU", w.fu,
                                    " busy-waits here forever — ",
                                    msg));
                else
                    diags.warning(Check::UnsatisfiableWait, w.row, fu,
                                  cat(msg, "; the taken path is "
                                           "unreachable"));
            }
            continue;
        }

        // SyncDone and AllSync: every waited-on FU must be able to
        // signal. The FU's own bit is special: while it waits here
        // it drives this parcel's sync field.
        if (selfInMask && w.ownSync == SyncVal::Busy && w.spin) {
            diags.error(
                Check::SelfDeadlock, w.row, fu,
                cat("deadlock: FU", w.fu, " busy-waits at row ",
                    w.row, " for ",
                    w.kind == CondKind::AllSync
                        ? cat("ALL(SS)==DONE with itself in the mask")
                        : cat("its own ss", w.fu, "==DONE"),
                    " but drives BUSY while waiting; the barrier "
                    "can never complete (drive DONE on the spin "
                    "parcel, as the paper's barriers do)"));
        }
        for (FuId k = 0; k < width; ++k) {
            if (k == w.fu || !((w.waitMask >> k) & 1u) || hasDone(k))
                continue;
            if (w.spin)
                diags.error(
                    Check::UnsatisfiableWait, w.row, fu,
                    cat("deadlock: FU", w.fu, " busy-waits at row ",
                        w.row, " for ss", k, "==DONE, but FU", k,
                        " never drives DONE and never halts"));
            else
                diags.warning(
                    Check::UnsatisfiableWait, w.row, fu,
                    cat("waits for ss", k, "==DONE, but FU", k,
                        " never drives DONE and never halts; the "
                        "taken path is unreachable"));
        }
    }

    // Cyclic waits. Edge a -> b: a has a reachable BUSY-driving spin
    // waiting on b, and every DONE point of b is behind some
    // BUSY-driving spin of b (b cannot signal without first being
    // released itself).
    std::vector<std::vector<InstAddr>> busySpins(width);
    for (const Wait &w : waits)
        if (w.spin && w.ownSync == SyncVal::Busy &&
            (w.kind == CondKind::SyncDone ||
             w.kind == CondKind::AllSync))
            busySpins[w.fu].push_back(w.row);

    std::vector<char> guarded(width, 0);
    for (FuId fu = 0; fu < width; ++fu) {
        if (busySpins[fu].empty() || n == 0)
            continue;
        // Reachability from row 0 that refuses to pass a BUSY spin.
        std::vector<char> blocked(n, 0);
        for (InstAddr r : busySpins[fu])
            blocked[r] = 1;
        std::vector<char> seen(n, 0);
        std::vector<InstAddr> work{0};
        seen[0] = 1;
        while (!work.empty()) {
            const InstAddr r = work.back();
            work.pop_back();
            if (blocked[r])
                continue; // May enter a spin, never assume release.
            for (InstAddr t : cfg.streams[fu].succs(r))
                if (!seen[t]) {
                    seen[t] = 1;
                    work.push_back(t);
                }
        }
        bool unguardedDone = false;
        for (InstAddr r : doneRows[fu])
            if (seen[r] && !blocked[r])
                unguardedDone = true;
        guarded[fu] = !unguardedDone;
    }

    std::map<std::pair<FuId, FuId>, InstAddr> edges;
    for (const Wait &w : waits) {
        if (!w.spin || w.ownSync != SyncVal::Busy)
            continue;
        if (w.kind != CondKind::SyncDone &&
            w.kind != CondKind::AllSync)
            continue;
        for (FuId k = 0; k < width; ++k)
            if (k != w.fu && ((w.waitMask >> k) & 1u) && guarded[k])
                edges.try_emplace({w.fu, k}, w.row);
    }

    // Transitive closure over <= 32 nodes, then report one finding
    // per strongly connected set of mutually-waiting FUs.
    std::array<std::uint32_t, kMaxFus> reach{};
    for (const auto &[e, row] : edges)
        reach[e.first] |= 1u << e.second;
    for (FuId mid = 0; mid < width; ++mid)
        for (FuId f = 0; f < width; ++f)
            if ((reach[f] >> mid) & 1u)
                reach[f] |= reach[mid];

    std::uint32_t reported = 0;
    for (FuId f = 0; f < width; ++f) {
        if (!((reach[f] >> f) & 1u) || ((reported >> f) & 1u))
            continue;
        // Every FU mutually reachable with f waits, transitively, on
        // itself; report the whole component once.
        const auto inScc = [&](FuId k) {
            return k == f ||
                   (((reach[f] >> k) & 1u) && ((reach[k] >> f) & 1u));
        };
        for (FuId k = 0; k < width; ++k)
            if (inScc(k))
                reported |= 1u << k;

        // Extract one concrete cycle: walk inside the component
        // until a node repeats, then describe the repeated segment.
        std::vector<FuId> path{f};
        std::vector<InstAddr> spinRow;
        std::vector<int> posOf(width, -1);
        posOf[f] = 0;
        std::size_t cycleStart = 0;
        for (;;) {
            const FuId cur = path.back();
            FuId next = cur;
            for (FuId k = 0; k < width; ++k) {
                auto it = edges.find({cur, k});
                if (it != edges.end() && inScc(k)) {
                    next = k;
                    spinRow.push_back(it->second);
                    break;
                }
            }
            XIMD_ASSERT(next != cur, "deadlock cycle walk stuck");
            if (posOf[next] >= 0) {
                cycleStart = static_cast<std::size_t>(posOf[next]);
                break;
            }
            posOf[next] = static_cast<int>(path.size());
            path.push_back(next);
        }

        std::string desc;
        for (std::size_t i = cycleStart; i < path.size(); ++i) {
            const FuId waiter = path[i];
            const FuId waited = i + 1 < path.size()
                                    ? path[i + 1]
                                    : path[cycleStart];
            if (!desc.empty())
                desc += "; ";
            desc += cat("FU", waiter, " busy-waits at row ",
                        spinRow[i], " for FU", waited);
        }
        diags.error(
            Check::CrossStreamDeadlock, spinRow[cycleStart],
            static_cast<int>(path[cycleStart]),
            cat("cross-stream deadlock: ", desc,
                " — every FU in the cycle drives BUSY while "
                "waiting, so none of the waited-for sync signals "
                "can ever read DONE"));
    }

    // Same-cycle structural conflicts within one row, between the
    // executable parcels that write a register or store.
    for (InstAddr r = 0; r < n; ++r) {
        const InstRow &row = prog.row(r);
        std::uint32_t writers = 0;
        for (FuId fu = 0; fu < width; ++fu) {
            const DataOp &d = row[fu].data;
            if (cfg.executable(r, fu) &&
                (d.hasDest() || d.op == Opcode::Store))
                writers |= 1u << fu;
        }
        for (FuId f1 = 0; f1 < width; ++f1) {
            if (!((writers >> f1) & 1u))
                continue;
            const DataOp &d1 = row[f1].data;
            for (FuId f2 = f1 + 1; f2 < width; ++f2) {
                if (!((writers >> f2) & 1u))
                    continue;
                const DataOp &d2 = row[f2].data;
                if (d1.hasDest() && d2.hasDest() &&
                    d1.dest == d2.dest)
                    diags.error(
                        Check::RegWriteConflict, r, -1,
                        cat("FU", f1, " and FU", f2,
                            " both write r", d1.dest,
                            " in this row; executed in the same "
                            "cycle this is an undefined register "
                            "write-port conflict (the simulator "
                            "faults)"));
                if (d1.op == Opcode::Store &&
                    d2.op == Opcode::Store && d1.b.isImm() &&
                    d2.b.isImm() &&
                    d1.b.immValue() == d2.b.immValue())
                    diags.error(
                        Check::MemWriteConflict, r, -1,
                        cat("FU", f1, " and FU", f2,
                            " both store to address ",
                            d1.b.immValue(),
                            " in this row; executed in the same "
                            "cycle this is an undefined memory "
                            "write conflict (the simulator "
                            "faults)"));
            }
        }
    }
}

} // namespace ximd::analysis
