/**
 * @file
 * livermore-c: compile C kernels and run them, in process.
 *
 * The cases are the four examples/c Livermore kernels x {list, exact}
 * scheduler tier x {direct allocation, spilling into a 6-register
 * window}, plus seeded workloads::randomLoopIr loops on the exact tier.
 * Each case goes the way `xcc --input=c --verify --analyze=race` and
 * then `xsim --verify` would take it: C -> IR -> scheduled program ->
 * assembly text -> assembled program -> static analysis -> prepared
 * program -> Machine run -> archStateHash, and its data memory must
 * match sched::interpretIr on the unallocated IR. Running it as two
 * processes would bury the compiler under process start-up.
 *
 * The exact tier runs with a node cap and no wall-clock budget, so
 * every compile, and therefore every simulated statistic, is
 * reproducible.
 */

#include <atomic>
#include <fstream>
#include <iostream>
#include <thread>
#include <sstream>

#include "analysis/verify.hh"
#include "asm/asm_writer.hh"
#include "asm/assembler.hh"
#include "bench.hh"
#include "core/machine.hh"
#include "frontend/frontend.hh"
#include "sched/pipeline.hh"
#include "support/logging.hh"
#include "workloads/randprog.hh"

namespace perfbench {

namespace {

using namespace ximd;

/** Data words compared against the interpretIr oracle. */
constexpr std::size_t kOracleWords = 4096;

struct Case
{
    std::string name;
    std::string source;  ///< C text; empty for an IR case.
    sched::IrProgram ir; ///< The IR case itself.
    sched::PipelineOptions po;
    std::vector<Word> oracle;
};

struct Outcome
{
    bool ok = false;
    Cycle cycles = 0;
    std::uint64_t archHash = 0;
    RunStats stats{1};
    double compileSec = 0.0;
    double spilledVregs = 0.0;
    double productStates = 0.0;
    double exactNodes = 0.0;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read '", path, "'");
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::vector<Word>
oracleFor(const sched::IrProgram &ir)
{
    std::vector<Word> mem(kOracleWords, 0);
    sched::interpretIr(ir, mem);
    return mem;
}

sched::PipelineOptions
pipelineOptions(bool exact, bool spill)
{
    sched::PipelineOptions po;
    po.verify = true;
    po.analyzeRace = true;
    if (exact) {
        po.schedule = sched::ScheduleTier::Exact;
        po.exact.budgetMs = 0;
        po.exact.maxNodes = 200'000;
    }
    if (spill) {
        po.alloc.window.count = 6;
        po.alloc.spill = true;
    }
    return po;
}

std::vector<Case>
buildCases(const Options &o)
{
    static const char *const kKernels[] = {"livermore1", "livermore2",
                                           "livermore3", "livermore12"};
    std::vector<Case> cases;
    for (const char *kernel : kKernels) {
        const std::string src =
            readFile(o.sourceDir + "/examples/c/" + kernel + ".c");
        auto ir = frontend::compileC(src);
        if (!ir)
            fatal(kernel, ": ", ir.error().format());
        const std::vector<Word> oracle = oracleFor(ir.value());
        for (bool exact : {false, true})
            for (bool spill : {false, true}) {
                Case c;
                c.name = std::string(kernel) + (exact ? "/exact" : "/list") +
                         (spill ? "/spill6" : "/direct");
                c.source = src;
                c.po = pipelineOptions(exact, spill);
                c.oracle = oracle;
                cases.push_back(std::move(c));
            }
    }
    // One loop shape for every seed, so the seed changes which ops a
    // loop holds but not how much work the pass does.
    const unsigned loops = o.tiny ? 2 : 16;
    for (unsigned i = 0; i < loops; ++i) {
        workloads::RandLoopOptions lo;
        lo.seed = o.seed * 1000 + i;
        lo.bodyOps = 8;
        lo.tripCount = 6;
        Case c;
        c.name = "randloop/seed=" + std::to_string(lo.seed);
        c.ir = workloads::randomLoopIr(lo);
        c.po = pipelineOptions(true, false);
        c.oracle = oracleFor(c.ir);
        cases.push_back(std::move(c));
    }
    return cases;
}

/** Span name for a pipeline pass (static storage, as spans need). */
const char *
passSpan(const std::string &pass)
{
    static const char *const kNames[] = {
        "sched.validate-ir",   "sched.merge-blocks", "sched.regalloc",
        "sched.build-ddg",     "sched.list-schedule",
        "sched.exact-schedule", "sched.codegen",     "sched.verify",
        "sched.race-check"};
    for (const char *name : kNames)
        if (pass == name + 6)
            return name;
    return "sched.other";
}

/** One case end to end; with @p log, one span per layer call. */
Outcome
runCaseUnchecked(const Case &c, bool corrupt, SpanLog *log, std::uint64_t jobId)
{
    Outcome out;
    const auto t0 = Clock::now();
    const Scoped root(log, jobId, "kernel.case");

    sched::IrProgram ir;
    if (c.source.empty()) {
        ir = c.ir;
    } else {
        const Scoped s(log, jobId, "frontend.compile_c", root.id());
        auto lowered = frontend::compileC(c.source);
        if (!lowered)
            return out;
        ir = std::move(lowered).value();
    }
    sched::Compiler compiler(c.po);
    auto mark = Clock::now();
    if (log)
        compiler.setAfterPass([&](const std::string &pass,
                                  const sched::CompileContext &) {
            const auto now = Clock::now();
            log->add(jobId, passSpan(pass), root.id(), mark, now);
            mark = now;
        });
    auto code = compiler.compile(std::move(ir));
    if (!code)
        return out;
    for (const sched::PassStat &p : compiler.stats()) {
        if (auto it = p.counters.find("spilled_vregs"); it != p.counters.end())
            out.spilledVregs += it->second;
        if (auto it = p.counters.find("product_states");
            it != p.counters.end())
            out.productStates += it->second;
    }
    for (const sched::ExactLoopStat &l : compiler.context().loopStats)
        out.exactNodes += static_cast<double>(l.nodes);
    std::string text;
    {
        const Scoped s(log, jobId, "asm.write", root.id());
        text = writeAssembly(code.value().program);
    }
    out.compileSec = secondsBetween(t0, Clock::now());

    Result<Program, analysis::Diagnostic> assembled = [&] {
        const Scoped s(log, jobId, "asm.assemble", root.id());
        return assembleStringResult(text);
    }();
    if (!assembled)
        return out;
    {
        const Scoped s(log, jobId, "analysis.analyze", root.id());
        if (analysis::analyze(assembled.value()).hasErrors())
            return out;
    }
    std::shared_ptr<const PreparedProgram> prepared;
    {
        const Scoped s(log, jobId, "isa.prepare", root.id());
        prepared = PreparedProgram::make(std::move(assembled).value());
    }
    std::unique_ptr<Machine> machine;
    {
        const Scoped s(log, jobId, "core.construct", root.id());
        machine = std::make_unique<Machine>(prepared, MachineConfig{});
    }
    RunResult run;
    {
        const Scoped s(log, jobId, "core.run", root.id());
        run = machine->run();
    }
    {
        const Scoped s(log, jobId, "core.arch_hash", root.id());
        out.archHash = machine->archStateHash();
    }
    bool match = run.reason == StopReason::Halted;
    {
        const Scoped s(log, jobId, "kernel.check", root.id());
        for (std::size_t a = 0; match && a < kOracleWords; ++a) {
            Word got = machine->peekMem(static_cast<Addr>(a));
            if (corrupt && a == 0)
                got ^= 1u;
            match = got == c.oracle[a];
        }
    }
    out.cycles = run.cycles;
    out.stats = machine->stats();
    out.ok = match;
    const Scoped s(log, jobId, "core.destroy", root.id());
    machine.reset();
    return out;
}

/** runCaseUnchecked, with a thrown FatalError counting as a failure. */
Outcome
runCase(const Case &c, bool corrupt, SpanLog *log, std::uint64_t jobId)
{
    try {
        return runCaseUnchecked(c, corrupt, log, jobId);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << c.name << ": " << e.what() << "\n";
        return {};
    }
}

/** Every case once, on @p threads workers claiming cases in order. */
struct Pass
{
    std::vector<Outcome> outcomes;
    std::vector<double> caseSec;
    double wallSec = 0.0;
};

Pass
runPass(const std::vector<Case> &cases, unsigned threads, bool corrupt,
        std::vector<SpanLog> *logs, std::uint64_t firstJob)
{
    Pass p;
    p.outcomes.resize(cases.size());
    p.caseSec.resize(cases.size());
    std::atomic<std::size_t> next{0};
    const auto t0 = Clock::now();
    const auto worker = [&](unsigned w) {
        for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= cases.size())
                return;
            const auto c0 = Clock::now();
            // --corrupt spoils the first case of every pass.
            p.outcomes[i] = runCase(cases[i], corrupt && i == 0,
                                    logs ? &(*logs)[w] : nullptr,
                                    firstJob + i);
            p.caseSec[i] = secondsBetween(c0, Clock::now());
        }
    };
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < threads; ++w)
        pool.emplace_back(worker, w);
    for (std::thread &t : pool)
        t.join();
    p.wallSec = secondsBetween(t0, Clock::now());
    return p;
}

} // namespace

Report
runLivermore(const Options &o)
{
    Report r;
    Samples setup;
    (void)buildCases(o); // Warm-up, untimed.
    const auto built = Clock::now();
    const std::vector<Case> cases = buildCases(o);
    setup.add(secondsBetween(built, Clock::now()));
    SetupSampler sampler(setup);

    // Cases compile and run on nproc workers, as `make -j` would drive
    // xcc and xsim; an op is one pass over every case.
    std::vector<SpanLog> logs;
    const auto epoch = Clock::now();
    for (unsigned w = 0; w < o.threads; ++w)
        logs.emplace_back(epoch);
    OpLog ops;
    Samples latency;
    Samples compile;
    SimDigest digest;
    SimDigest tracedDigest;
    Cycle tracedCycles = 0;
    double untracedSec = 0.0;
    double tracedSec = 0.0;
    double spilled = 0.0;
    double states = 0.0;
    double nodes = 0.0;

    const auto start = Clock::now();
    for (std::uint64_t pass = 0;; ++pass) {
        if (pass > 0 && secondsBetween(start, Clock::now()) >= o.seconds)
            break;
        sampler.maybe([&] { return buildCases(o); });

        const Pass p = runPass(cases, o.threads, o.corrupt, nullptr,
                               pass * cases.size());
        untracedSec += p.wallSec;
        std::uint64_t ok = 0;
        Cycle cycles = 0;
        for (std::size_t i = 0; i < cases.size(); ++i) {
            const Outcome &out = p.outcomes[i];
            latency.add(p.caseSec[i]);
            compile.add(out.compileSec);
            ok += out.ok;
            cycles += out.cycles;
            if (pass == 0) {
                digest.add(out.cycles, out.archHash, out.stats);
                spilled += out.spilledVregs;
                states += out.productStates;
                nodes += out.exactNodes;
            }
        }
        r.attempted += cases.size();
        r.failed += cases.size() - ok;
        ops.add(p.wallSec, ok, cycles);

        if (!o.trace)
            continue;
        const Pass t = runPass(cases, o.threads, o.corrupt, &logs,
                               pass * cases.size());
        tracedSec += t.wallSec;
        for (const Outcome &out : t.outcomes) {
            tracedCycles += out.cycles;
            if (pass == 0)
                tracedDigest.add(out.cycles, out.archHash, out.stats);
        }
    }

    r.digest = digest.str();
    r.info["cases"] = static_cast<double>(cases.size());
    if (!o.trace) {
        setEndToEnd(r, setup, ops, latency);
        return r;
    }
    r.tracedDigest = tracedDigest.str();
    initLayerMetrics(r);
    setSimCounts(r, digest);
    const auto totals = finishSpans(logs, o.traceOut);
    setSpanMeans(r, totals);
    const auto run = totals.find("core.run");
    const auto kernel = totals.find("kernel.case");
    if (run != totals.end() && kernel != totals.end()) {
        r.metrics["core.ns_per_sim_cycle"].value =
            run->second.totalSec * 1e9 / static_cast<double>(tracedCycles);
        r.metrics["core.run_share"].value =
            run->second.totalSec / kernel->second.totalSec;
    }
    r.metrics["sched.spilled_vregs"].value = spilled;
    r.metrics["analysis.race_product_states"].value = states;
    r.metrics["sched.exact_nodes"].value = nodes;
    r.metrics["xcc.compile_ms_p50"].value = compile.median() * 1e3;
    r.metrics["xcc.compile_ms_p99"].value = compile.quantile(0.99) * 1e3;
    r.metrics["trace.overhead_ratio"].value = tracedSec / untracedSec;
    r.info["untraced_s"] = untracedSec;
    r.info["traced_s"] = tracedSec;
    return r;
}

} // namespace perfbench
