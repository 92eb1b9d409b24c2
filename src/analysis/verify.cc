#include "analysis/verify.hh"

#include <utility>

#include "analysis/dataflow.hh"
#include "analysis/sync_check.hh"
#include "support/logging.hh"

namespace ximd::analysis {

ProgramFacts
buildFacts(const Program &prog)
{
    ProgramFacts facts;
    DiagnosticList &diags = facts.base;

    // Structural pass: a data op the ISA rejects would fault every
    // later consumer; report it and keep going.
    for (InstAddr r = 0; r < prog.size(); ++r) {
        for (FuId fu = 0; fu < prog.width(); ++fu) {
            try {
                prog.parcel(r, fu).data.validate();
            } catch (const FatalError &e) {
                diags.error(Check::MalformedDataOp, r,
                            static_cast<int>(fu), e.what());
            }
        }
    }

    facts.cfg = buildCfg(prog);
    checkCfg(prog, facts.cfg, diags);

    const DataflowResult df = runDataflow(prog, facts.cfg);
    checkDataflow(prog, facts.cfg, df, diags);

    checkSync(prog, facts.cfg, diags);

    facts.classes = computeLockstepClasses(prog, facts.cfg);
    diags.sort();
    return facts;
}

DiagnosticList
analyze(const ProgramFacts &facts, const AnalyzeOptions &opts)
{
    if (opts.warnings)
        return facts.base;
    DiagnosticList errorsOnly;
    for (const Diagnostic &d : facts.base.all())
        if (d.isError())
            errorsOnly.add(d);
    return errorsOnly;
}

DiagnosticList
analyze(const Program &prog, const AnalyzeOptions &opts)
{
    ProgramFacts facts = buildFacts(prog);
    if (opts.warnings)
        return std::move(facts.base);
    return analyze(facts, opts);
}

void
verify(const Program &prog, const ProgramFacts &facts)
{
    AnalyzeOptions opts;
    opts.warnings = false;
    const DiagnosticList diags = analyze(facts, opts);
    if (diags.hasErrors())
        fatal("program verification failed (", diags.summary(),
              "):\n", diags.formatted(&prog));
}

void
verify(const Program &prog)
{
    verify(prog, buildFacts(prog));
}

void
debugVerify(const Program &prog)
{
#ifdef NDEBUG
    (void)prog;
#else
    verify(prog);
#endif
}

} // namespace ximd::analysis
