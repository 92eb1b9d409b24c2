#include "analysis/cfg.hh"

#include <algorithm>

#include "support/logging.hh"

namespace ximd::analysis {

ProgramCfg
buildCfg(const Program &prog)
{
    const InstAddr n = prog.size();
    const FuId width = prog.width();
    ProgramCfg cfg;
    cfg.streams.resize(width);

    // A column whose control equals an earlier column's at every row
    // has that column's graph; `reps` holds each graph's first column.
    const auto sameControl = [&prog, n](FuId a, FuId b) {
        for (InstAddr r = 0; r < n; ++r) {
            const InstRow &row = prog.row(r);
            if (!(row[a].ctrl == row[b].ctrl))
                return false;
        }
        return true;
    };
    std::vector<FuId> reps;
    for (FuId fu = 0; fu < width; ++fu) {
        const auto rep =
            std::find_if(reps.begin(), reps.end(),
                         [&](FuId r) { return sameControl(r, fu); });
        if (rep != reps.end()) {
            cfg.streams[fu] = cfg.streams[*rep];
            continue;
        }
        reps.push_back(fu);

        auto g = std::make_shared<StreamCfg::Graph>();
        StreamCfg &s = cfg.streams[fu];
        s.g_ = g;
        g->rows = n;
        g->succ.assign(2 * std::size_t(n), StreamCfg::kNoRow);
        g->predStart.assign(std::size_t(n) + 2, 0);
        g->reachable.assign(n, 0);

        // In-range targets, deduplicated. Predecessors go in CSR
        // order: count per target, prefix-sum, then fill by row.
        for (InstAddr r = 0; r < n; ++r) {
            const ControlOp &c = prog.row(r)[fu].ctrl;
            if (c.isHalt())
                continue;
            InstAddr *slot = &g->succ[2 * std::size_t(r)];
            if (c.t1 < n)
                *slot++ = c.t1;
            if (c.isConditional() && c.t2 != c.t1 && c.t2 < n)
                *slot = c.t2;
        }
        for (InstAddr r = 0; r < n; ++r)
            for (InstAddr t : s.succs(r))
                ++g->predStart[t + 2];
        for (InstAddr r = 0; r < n; ++r)
            g->predStart[r + 2] += g->predStart[r + 1];
        g->pred.resize(g->predStart[n + 1]);
        for (InstAddr r = 0; r < n; ++r)
            for (InstAddr t : s.succs(r))
                g->pred[g->predStart[t + 1]++] = r;
        g->predStart.pop_back();

        // Depth-first reachability from the shared entry row 0.
        if (n != 0) {
            std::vector<InstAddr> work{0};
            g->reachable[0] = 1;
            while (!work.empty()) {
                const InstAddr r = work.back();
                work.pop_back();
                for (InstAddr t : s.succs(r)) {
                    if (!g->reachable[t]) {
                        g->reachable[t] = 1;
                        work.push_back(t);
                    }
                }
            }
        }
    }
    return cfg;
}

void
checkCfg(const Program &prog, const ProgramCfg &cfg,
         DiagnosticList &diags)
{
    const InstAddr n = prog.size();
    for (InstAddr r = 0; r < n; ++r) {
        for (FuId fu = 0; fu < prog.width(); ++fu) {
            const Parcel &p = prog.parcel(r, fu);
            const ControlOp &c = p.ctrl;

            if (!c.isHalt()) {
                if (c.t1 >= n)
                    diags.error(
                        Check::BadBranchTarget, r, static_cast<int>(fu),
                        cat("branch target ", c.t1,
                            " is outside the program (", n,
                            " rows)"));
                if (c.isConditional() && c.t2 >= n)
                    diags.error(
                        Check::BadBranchTarget, r, static_cast<int>(fu),
                        cat("fall-back target ", c.t2,
                            " is outside the program (", n,
                            " rows)"));
            }

            // Dead parcels that do real work are almost certainly a
            // mislaid label or a wrong branch target. Filler parcels
            // (nop data, BUSY sync) are normal in packed layouts.
            const bool nontrivial =
                !p.data.isNop() || p.sync == SyncVal::Done;
            if (nontrivial && !cfg.executable(r, fu))
                diags.warning(
                    Check::UnreachableParcel, r, static_cast<int>(fu),
                    cat("parcel '", p.data.toString(),
                        "' can never execute: FU", fu,
                        " cannot reach this row from row 0"));
        }
    }
}

} // namespace ximd::analysis
