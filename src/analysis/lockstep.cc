#include "analysis/lockstep.hh"

namespace ximd::analysis {

namespace {

/**
 * Do columns @p a and @p b execute the same trajectory? True when
 * their control ops agree at every row @p a can reach; identical
 * control on the reachable closure forces identical reachable sets,
 * so the check is symmetric despite being phrased from a's side.
 */
bool
lockstepEquivalent(const Program &prog, const ProgramCfg &cfg,
                   FuId a, FuId b)
{
    const StreamCfg &sa = cfg.streams[a];
    if (sa.sameGraph(cfg.streams[b]))
        return true; // identical control at every row
    for (InstAddr r = 0; r < prog.size(); ++r) {
        if (!sa.isReachable(r))
            continue;
        const InstRow &row = prog.row(r);
        if (!(row[a].ctrl == row[b].ctrl))
            return false;
    }
    return true;
}

} // namespace

LockstepClasses
computeLockstepClasses(const Program &prog, const ProgramCfg &cfg)
{
    LockstepClasses out;
    const FuId width = prog.width();
    out.classOf.assign(width, -1);
    for (FuId fu = 0; fu < width; ++fu) {
        for (std::size_t c = 0; c < out.members.size(); ++c) {
            if (lockstepEquivalent(prog, cfg, out.members[c].front(),
                                   fu)) {
                out.classOf[fu] = static_cast<int>(c);
                out.members[c].push_back(fu);
                break;
            }
        }
        if (out.classOf[fu] < 0) {
            out.classOf[fu] = static_cast<int>(out.members.size());
            out.members.push_back({fu});
        }
    }
    return out;
}

} // namespace ximd::analysis
