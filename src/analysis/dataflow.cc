#include "analysis/dataflow.hh"

#include "support/logging.hh"

namespace ximd::analysis {

namespace {

/** Append the register ids @p d reads to @p out (0..2 entries). */
void
srcRegs(const DataOp &d, RegId out[2], unsigned &count)
{
    count = 0;
    const unsigned n = opInfo(d.op).numSrcs;
    if (n >= 1 && d.a.isReg())
        out[count++] = d.a.regId();
    if (n >= 2 && d.b.isReg())
        out[count++] = d.b.regId();
}

/** "r12 ('tz')" or "r12" when the register has no name. */
std::string
regDesc(const Program &prog, RegId r)
{
    if (auto name = prog.regName(r))
        return cat("r", r, " ('", *name, "')");
    return cat("r", r);
}

} // namespace

DataflowResult
runDataflow(const Program &prog, const ProgramCfg &cfg)
{
    const InstAddr n = prog.size();
    const FuId width = prog.width();

    DataflowResult df;
    df.streams.resize(width);
    df.readBy.resize(width);
    df.writtenBy.resize(width);

    for (const auto &[r, value] : prog.regInit())
        df.initialized.set(r);

    // Pass 1: per-column read/write/compare summaries over the
    // parcels that can actually execute.
    for (FuId fu = 0; fu < width; ++fu) {
        for (InstAddr r = 0; r < n; ++r) {
            if (!cfg.executable(r, fu))
                continue;
            const DataOp &d = prog.parcel(r, fu).data;
            RegId srcs[2];
            unsigned nsrcs;
            srcRegs(d, srcs, nsrcs);
            for (unsigned i = 0; i < nsrcs; ++i)
                df.readBy[fu].set(srcs[i]);
            if (d.hasDest())
                df.writtenBy[fu].set(d.dest);
            if (setsCondCode(d.op))
                df.ccEverSet.set(fu);
        }
        df.everRead |= df.readBy[fu];
        df.everWritten |= df.writtenBy[fu];
    }

    // Registers with a symbolic name are observable outputs (read by
    // tools and tests after the run); treat them as used.
    RegSet named;
    for (const auto &[r, name] : prog.regNames())
        named.set(r);

    // Pass 2: per-column must-defined (forward, intersection) and
    // liveness (backward, union). The out-sets are per-column scratch.
    std::vector<RegSet> regOut;
    std::vector<CcSet> ccOut;
    for (FuId fu = 0; fu < width; ++fu) {
        const StreamCfg &s = cfg.streams[fu];
        StreamDataflow &sd = df.streams[fu];
        sd.regIn.assign(n, RegSet{});
        sd.ccIn.assign(n, CcSet{});
        sd.liveIn.assign(n, RegSet{});
        sd.liveOut.assign(n, RegSet{});
        if (n == 0)
            continue;

        // Definedness assumed on entry: initializers, anything some
        // other column writes (ordering across streams is not
        // modeled), and the CCs of columns that execute compares.
        RegSet regSeed = df.initialized;
        CcSet ccSeed;
        for (FuId k = 0; k < width; ++k) {
            if (k == fu)
                continue;
            regSeed |= df.writtenBy[k];
            if (df.ccEverSet[k])
                ccSeed.set(k);
        }

        // Definedness only grows along a path (no kill), so the
        // intersection over every arrival at row 0 equals the seed.
        // Must-analysis: start everything at TOP (all-defined) and
        // narrow — starting from empty would let a loop back edge
        // pin its header at the wrong (least) fixpoint.
        const RegSet fullRegs = ~RegSet{};
        const CcSet fullCcs = ~CcSet{};
        regOut.assign(n, fullRegs);
        ccOut.assign(n, fullCcs);
        for (InstAddr r = 0; r < n; ++r) {
            sd.regIn[r] = fullRegs;
            sd.ccIn[r] = fullCcs;
        }
        sd.regIn[0] = regSeed;
        sd.ccIn[0] = ccSeed;

        auto genOf = [&](InstAddr r, RegSet &reg, CcSet &cc) {
            const DataOp &d = prog.parcel(r, fu).data;
            reg.reset();
            cc.reset();
            if (d.hasDest())
                reg.set(d.dest);
            if (setsCondCode(d.op))
                cc.set(fu);
        };

        bool changed = true;
        while (changed) {
            changed = false;
            for (InstAddr r = 0; r < n; ++r) {
                if (!s.isReachable(r))
                    continue;
                if (r != 0) {
                    RegSet regIn = fullRegs;
                    CcSet ccIn = fullCcs;
                    for (InstAddr p : s.preds(r)) {
                        if (!s.isReachable(p))
                            continue;
                        regIn &= regOut[p];
                        ccIn &= ccOut[p];
                    }
                    if (regIn != sd.regIn[r] || ccIn != sd.ccIn[r]) {
                        sd.regIn[r] = regIn;
                        sd.ccIn[r] = ccIn;
                        changed = true;
                    }
                }
                RegSet gen;
                CcSet ccGen;
                genOf(r, gen, ccGen);
                const RegSet out = sd.regIn[r] | gen;
                const CcSet ccOutNew = sd.ccIn[r] | ccGen;
                if (out != regOut[r] || ccOutNew != ccOut[r]) {
                    regOut[r] = out;
                    ccOut[r] = ccOutNew;
                    changed = true;
                }
            }
        }

        // Liveness. Registers other columns read can be consumed at
        // any time; registers with names are observable at exit.
        RegSet alwaysLive = named;
        for (FuId k = 0; k < width; ++k)
            if (k != fu)
                alwaysLive |= df.readBy[k];

        changed = true;
        while (changed) {
            changed = false;
            for (InstAddr rr = n; rr-- > 0;) {
                if (!s.isReachable(rr))
                    continue;
                RegSet liveOut = alwaysLive;
                for (InstAddr t : s.succs(rr))
                    liveOut |= sd.liveIn[t];
                const DataOp &d = prog.parcel(rr, fu).data;
                RegSet use, def;
                RegId srcs[2];
                unsigned nsrcs;
                srcRegs(d, srcs, nsrcs);
                for (unsigned i = 0; i < nsrcs; ++i)
                    use.set(srcs[i]);
                if (d.hasDest())
                    def.set(d.dest);
                const RegSet liveIn = use | (liveOut & ~def);
                if (liveOut != sd.liveOut[rr] ||
                    liveIn != sd.liveIn[rr]) {
                    sd.liveOut[rr] = liveOut;
                    sd.liveIn[rr] = liveIn;
                    changed = true;
                }
            }
        }
    }
    return df;
}

void
checkDataflow(const Program &prog, const ProgramCfg &cfg,
              const DataflowResult &df, DiagnosticList &diags)
{
    const InstAddr n = prog.size();
    const FuId width = prog.width();

    RegSet reportedNeverRead;
    RegSet reportedUninit;

    for (InstAddr r = 0; r < n; ++r) {
        for (FuId fu = 0; fu < width; ++fu) {
            if (!cfg.executable(r, fu))
                continue;
            const Parcel &p = prog.parcel(r, fu);
            const StreamDataflow &sd = df.streams[fu];

            // Reads of registers nothing defines.
            RegId srcs[2];
            unsigned nsrcs;
            srcRegs(p.data, srcs, nsrcs);
            for (unsigned i = 0; i < nsrcs; ++i) {
                const RegId reg = srcs[i];
                if (sd.regIn[r][reg] || reportedUninit[reg])
                    continue;
                reportedUninit.set(reg);
                // Registers power up as zero, so a maybe-uninit
                // read computes a deterministic (if dubious) value:
                // error only when no instruction anywhere produces
                // the register, warn on the path-sensitive case.
                const bool neverAnywhere =
                    !df.everWritten[reg] && !df.initialized[reg];
                if (neverAnywhere)
                    diags.error(
                        Check::ReadUninit, r, static_cast<int>(fu),
                        cat("reads ", regDesc(prog, reg),
                            " which is never initialized and "
                            "never written by any instruction"));
                else
                    diags.warning(
                        Check::ReadUninit, r, static_cast<int>(fu),
                        cat("reads ", regDesc(prog, reg),
                            " which may be used before any "
                            "write: some path of FU", fu,
                            " from row 0 reaches this parcel "
                            "without defining it (reads 0 on that "
                            "path)"));
            }

            // Branches on condition codes.
            const ControlOp &c = p.ctrl;
            if (c.kind == CondKind::CcTrue) {
                const FuId k = c.index;
                if (k >= width) {
                    diags.error(
                        Check::BadCcIndex, r, static_cast<int>(fu),
                        cat("branch on cc", k,
                            " but the machine has only ", width,
                            " FUs (cc0..cc", width - 1, ")"));
                } else if (!sd.ccIn[r][k]) {
                    const DataOp &setter = prog.parcel(r, k).data;
                    if (setsCondCode(setter.op) &&
                        cfg.executable(r, k)) {
                        diags.error(
                            Check::CcSameCycleRead, r,
                            static_cast<int>(fu),
                            cat("branch reads cc", k,
                                " in the same cycle as the compare '",
                                setter.toString(),
                                "' that sets it; CC is a register "
                                "(commits at end of cycle), so the "
                                "branch sees the previous value, "
                                "which no earlier compare "
                                "establishes on some path"));
                    } else if (!df.ccEverSet[k]) {
                        diags.error(
                            Check::CcNeverSet, r,
                            static_cast<int>(fu),
                            cat("branch on cc", k, " but FU", k,
                                " never executes a compare; cc", k,
                                " is never set"));
                    } else {
                        diags.error(
                            Check::CcNeverSet, r,
                            static_cast<int>(fu),
                            cat("branch on cc", k,
                                " may execute before any compare "
                                "sets it: some path of FU", k,
                                " from row 0 reaches this row "
                                "without a compare"));
                    }
                }
            }

            // Writes nobody can observe.
            if (p.data.hasDest()) {
                const RegId reg = p.data.dest;
                const bool named = prog.regNames().count(reg) != 0;
                if (!df.everRead[reg] && !named) {
                    if (!reportedNeverRead[reg]) {
                        reportedNeverRead.set(reg);
                        diags.warning(
                            Check::WriteNeverRead, r,
                            static_cast<int>(fu),
                            cat("writes ", regDesc(prog, reg),
                                " which is never read by any FU "
                                "and has no symbolic name; the "
                                "result is unobservable"));
                    }
                } else if (!sd.liveOut[r][reg]) {
                    diags.warning(
                        Check::DeadWrite, r, static_cast<int>(fu),
                        cat("value written to ", regDesc(prog, reg),
                            " is overwritten or discarded on every "
                            "path before it is read"));
                }
            }
        }
    }
}

} // namespace ximd::analysis
