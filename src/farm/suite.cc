#include "farm/suite.hh"

#include <algorithm>
#include <functional>
#include <map>
#include <utility>

#include "sched/pipeline.hh"
#include "sim/io_port.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "workloads/bitcount.hh"
#include "workloads/kernels.hh"
#include "workloads/loop12.hh"
#include "workloads/minmax.hh"
#include "workloads/nonblocking.hh"
#include "workloads/randprog.hh"
#include "workloads/reference.hh"

namespace ximd::farm {

namespace {

using workloads::kNonblockingValues;

analysis::Diagnostic
loadFailure(std::string message)
{
    return {analysis::Severity::Error, analysis::Check::LoadFailed, 0,
            -1, std::move(message)};
}

/**
 * Figure 12 environment: scripted input ports with seed-derived
 * arrival times, recording output ports, and a post-run check that
 * every value crossed between the two processes.
 */
class NonblockingFixture : public JobFixture
{
  public:
    explicit NonblockingFixture(std::uint64_t seed)
        : seed_(seed)
    {
    }

    void setUp(Machine &machine) override
    {
        const Program &prog = machine.program();
        // Arrival times are the nondeterministic part of the paper's
        // section 3.4 scenario ("the arrival time is outside compiler
        // control"); deriving them from the spec's seed pins them per
        // run, so the batch stays reproducible.
        Rng rng(seed_ ^ 0x9E3779B97F4A7C15ULL);
        Cycle arriveA = 0;
        Cycle arriveB = 0;
        for (unsigned i = 0; i < kNonblockingValues; ++i) {
            arriveA += static_cast<Cycle>(rng.range(1, 40));
            const Word a = static_cast<Word>(rng.range(1, 1 << 20));
            inA_.schedule(arriveA, a);
            expectB_.push_back(a); // FU7 copies a,b,c to OUTB.

            arriveB += static_cast<Cycle>(rng.range(1, 40));
            const Word x = static_cast<Word>(rng.range(1, 1 << 20));
            inB_.schedule(arriveB, x);
            expectA_.push_back(x); // FU3 copies x,y,z to OUTA.
        }

        const Addr ina = prog.symbolOrDie("INA");
        const Addr inb = prog.symbolOrDie("INB");
        const Addr outa = prog.symbolOrDie("OUTA");
        const Addr outb = prog.symbolOrDie("OUTB");
        machine.attachDevice(ina, ina, &inA_);
        machine.attachDevice(inb, inb, &inB_);
        machine.attachDevice(outa, outa, &outA_);
        machine.attachDevice(outb, outb, &outB_);
    }

    std::string check(const Machine &machine,
                      const RunResult &result) override
    {
        (void)machine;
        (void)result;
        if (!inA_.drained() || !inB_.drained())
            return "input ports not fully consumed";
        if (std::string e = checkPort(outA_, expectA_); !e.empty())
            return e;
        return checkPort(outB_, expectB_);
    }

  private:
    static std::string checkPort(const OutputPort &port,
                                 const std::vector<Word> &expect)
    {
        if (port.records().size() != expect.size()) {
            return port.name() + ": expected " +
                   std::to_string(expect.size()) + " writes, saw " +
                   std::to_string(port.records().size());
        }
        for (std::size_t i = 0; i < expect.size(); ++i) {
            if (port.records()[i].value != expect[i])
                return port.name() + ": value " + std::to_string(i) +
                       " mismatch";
        }
        return {};
    }

    std::uint64_t seed_;
    ScriptedInputPort inA_{"INA"};
    ScriptedInputPort inB_{"INB"};
    OutputPort outA_{"OUTA"};
    OutputPort outB_{"OUTB"};
    std::vector<Word> expectA_;
    std::vector<Word> expectB_;
};

FixtureFactory
nonblockingFixtureFactory()
{
    return [](const RunSpec &spec) {
        return std::make_unique<NonblockingFixture>(spec.config.seed);
    };
}

std::vector<SWord>
signedData(Rng &rng, unsigned n)
{
    std::vector<SWord> data(n);
    for (SWord &v : data)
        v = static_cast<SWord>(rng.range(0, 100000));
    return data;
}

// Each build below draws the request's inputs from Rng(seed) once and
// builds the program from them. If the check it is handed is still
// empty, it sets it to a RunSpec::check against the plain-C++ reference
// model on that same draw; workloads that draw the same inputs are
// handed the same check (ProgramCache::check), so the reference runs
// once per draw. Every
// deterministic workload gets a check, so a failed job means wrong
// *results*, not just a fault, which is also what lets fault campaigns
// (farm/campaign.hh) separate "degraded but correct" from "produced
// wrong answers". A check reads only final state through ArchView, so
// it holds no per-run objects and attaches no devices. The program is
// built first, so an input size it rejects fails before the reference
// runs.

Program
buildTproc(const WorkloadRequest &, ResultCheck &check)
{
    Program prog = workloads::tprocPaper(3, -4, 7, 11);
    if (!check) {
        check = [f = workloads::referenceTproc(3, -4, 7, 11)](
                    const ArchView &m, const RunResult &) -> std::string {
            if (wordToInt(m.readRegByName("f")) != f)
                return "tproc: f differs from reference";
            return {};
        };
    }
    return prog;
}

/** loop12 (float pipeline) keeps its coverage in tests/workloads/. */
Program
buildLoop12(const WorkloadRequest &req, ResultCheck &)
{
    Rng rng(req.seed);
    std::vector<float> y(req.n + 1);
    for (float &v : y)
        v = static_cast<float>(rng.range(-50, 50));
    return workloads::loop12Pipelined(y);
}

Program
buildMinmax(const WorkloadRequest &req, ResultCheck &check)
{
    Rng rng(req.seed);
    const auto data = signedData(rng, req.n);
    Program prog = req.mode == Mode::Ximd ? workloads::minmaxXimd(data)
                                          : workloads::minmaxVliw(data);
    if (!check) {
        const auto [lo, hi] = workloads::referenceMinmax(data);
        check = [lo = lo, hi = hi](const ArchView &m,
                                   const RunResult &) -> std::string {
            if (wordToInt(m.readRegByName("min")) != lo)
                return "minmax: min differs from reference";
            if (wordToInt(m.readRegByName("max")) != hi)
                return "minmax: max differs from reference";
            return {};
        };
    }
    return prog;
}

Program
buildMultiSearch(const WorkloadRequest &req, ResultCheck &check)
{
    Rng rng(req.seed);
    const auto data = signedData(rng, req.n);
    Program prog = req.mode == Mode::Ximd
                       ? workloads::multiSearchXimd(6, data)
                       : workloads::multiSearchVliw(6, data);
    if (!check) {
        check = [expect = workloads::referenceMultiSearch(6, data)](
                    const ArchView &m, const RunResult &) -> std::string {
            for (unsigned s = 0; s < expect.size(); ++s)
                if (m.readRegByName("c" + std::to_string(s)) != expect[s])
                    return "multisearch: c" + std::to_string(s) +
                           " differs from reference";
            return {};
        };
    }
    return prog;
}

/**
 * bitcount and bitcount-lockstep: n words, rounded up to a multiple
 * of 4 (at least 4), built by @p make and checked through the
 * cumulative counts B[0..n].
 */
Program
bitcountProgram(const WorkloadRequest &req, ResultCheck &check,
                Program (*make)(const std::vector<Word> &))
{
    Rng rng(req.seed);
    std::vector<Word> data(std::max(4u, (req.n + 3u) & ~3u));
    for (Word &v : data)
        v = static_cast<Word>(rng.next64() & 0xFFFFF);
    Program prog = make(data);
    if (!check) {
        // Shared, not copied, by every spec that copies the check.
        auto expect = std::make_shared<const std::vector<Word>>(
            workloads::referenceBitcountCumulative(data));
        check = [expect](const ArchView &m,
                         const RunResult &) -> std::string {
            const Word b0 = m.program().symbolOrDie("B0");
            for (std::size_t i = 0; i < expect->size(); ++i)
                if (m.peekMem(static_cast<Addr>(b0 + i)) != (*expect)[i])
                    return "bitcount: B[" + std::to_string(i) +
                           "] differs from reference";
            return {};
        };
    }
    return prog;
}

Program
buildBitcount(const WorkloadRequest &req, ResultCheck &check)
{
    return bitcountProgram(req, check,
                           req.mode == Mode::Ximd
                               ? workloads::bitcountXimd
                               : workloads::bitcountVliwSerial);
}

Program
buildBitcountLockstep(const WorkloadRequest &req, ResultCheck &check)
{
    return bitcountProgram(req, check, workloads::bitcountVliwLockstep);
}

/**
 * Compiled random loops (workloads/randprog.hh) on scheduler @p tier,
 * checked against interpretIr on the same IR: randloop on the list
 * scheduler, randloop-exact on the exact tier, the exact-vs-heuristic
 * sweep axis. The same (n, seed) pair is the same loop, so paired jobs
 * are comparable.
 */
Program
randloopProgram(const WorkloadRequest &req, ResultCheck &check,
                sched::ScheduleTier tier)
{
    workloads::RandLoopOptions lo;
    lo.seed = req.seed;
    lo.bodyOps = 2 + req.n % 11;
    lo.tripCount = 3 + static_cast<unsigned>(req.seed % 5);
    const sched::IrProgram ir = workloads::randomLoopIr(lo);
    sched::PipelineOptions po;
    po.schedule = tier;
    po.verify = true;
    sched::Compiler c(po);
    Program prog = valueOrFatal(c.compile(ir)).program;
    if (!check) {
        std::vector<Word> mem(4096, 0);
        const Word acc = sched::interpretIr(ir, mem, 1u << 20)[1];
        std::vector<Word> out(mem.begin() + lo.outBase,
                              mem.begin() + lo.outBase + lo.tripCount + 1);
        check = [acc, base = lo.outBase, out = std::move(out)](
                    const ArchView &m, const RunResult &) -> std::string {
            if (m.readRegByName("v1") != acc)
                return "randloop: accumulator differs from interpretIr "
                       "reference";
            for (Addr i = 0; i < out.size(); ++i)
                if (m.peekMem(base + i) != out[i])
                    return "randloop: mem[" + std::to_string(base + i) +
                           "] differs from interpretIr reference";
            return {};
        };
    }
    return prog;
}

Program
buildRandloop(const WorkloadRequest &req, ResultCheck &check)
{
    return randloopProgram(req, check, sched::ScheduleTier::Heuristic);
}

Program
buildRandloopExact(const WorkloadRequest &req, ResultCheck &check)
{
    return randloopProgram(req, check, sched::ScheduleTier::Exact);
}

/** One workload of the table in suite.hh. */
struct Workload
{
    const char *name;
    bool ximd = false;
    bool vliw = false;
    bool modeInvariant = false; ///< One program serves both modes.
    bool usesData = false;      ///< Input size / seed shape the program.
    bool usesIo = false;        ///< Needs the Figure 12 fixture.
    /** Workload whose inputs and check this one shares (default: own). */
    const char *draw = nullptr;
    Program (*build)(const WorkloadRequest &req, ResultCheck &check) =
        nullptr;
};

/** Every workload, in suite order. */
const Workload kWorkloads[] = {
    {.name = "tproc", .ximd = true, .vliw = true, .modeInvariant = true,
     .build = buildTproc},
    {.name = "loop12", .ximd = true, .vliw = true, .modeInvariant = true,
     .usesData = true, .build = buildLoop12},
    {.name = "minmax", .ximd = true, .vliw = true, .usesData = true,
     .build = buildMinmax},
    {.name = "multisearch", .ximd = true, .vliw = true, .usesData = true,
     .build = buildMultiSearch},
    {.name = "bitcount", .ximd = true, .vliw = true, .usesData = true,
     .build = buildBitcount},
    {.name = "bitcount-lockstep", .vliw = true, .usesData = true,
     .draw = "bitcount", .build = buildBitcountLockstep},
    {.name = "randloop", .ximd = true, .vliw = true,
     .modeInvariant = true, .usesData = true, .build = buildRandloop},
    {.name = "randloop-exact", .ximd = true, .vliw = true,
     .modeInvariant = true, .usesData = true, .draw = "randloop",
     .build = buildRandloopExact},
    {.name = "nonblocking", .ximd = true, .usesIo = true,
     .build = [](const WorkloadRequest &, ResultCheck &) {
         return workloads::nonblockingXimd();
     }},
    {.name = "nonblocking-barrier", .ximd = true, .usesIo = true,
     .build = [](const WorkloadRequest &, ResultCheck &) {
         return workloads::lockstepBarrier();
     }},
    {.name = "nonblocking-memflag", .ximd = true, .usesIo = true,
     .build = [](const WorkloadRequest &, ResultCheck &) {
         return workloads::memoryFlagXimd();
     }},
};

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

/** "/n=N/seed=S" for workloads whose inputs depend on them. */
std::string
drawSuffix(const Workload &w, const WorkloadRequest &req)
{
    if (!w.usesData)
        return {};
    return "/n=" + std::to_string(req.n) +
           "/seed=" + std::to_string(req.seed);
}

/**
 * Identity of the generated machine code. Mode-invariant workloads
 * share one PreparedProgram between their ximd and vliw specs.
 */
std::string
programKey(const Workload &w, const WorkloadRequest &req)
{
    std::string key = w.name;
    if (!w.modeInvariant)
        key += std::string("/") + modeName(req.mode);
    return key + drawSuffix(w, req);
}

/** Identity of the drawn inputs, and so of the check's reference. */
std::string
drawKey(const Workload &w, const WorkloadRequest &req)
{
    return (w.draw ? w.draw : w.name) + drawSuffix(w, req);
}

/** "workload/mode/n=N/seed=S". */
std::string
specName(const WorkloadRequest &req)
{
    return req.workload + "/" + modeName(req.mode) +
           "/n=" + std::to_string(req.n) +
           "/seed=" + std::to_string(req.seed);
}

} // namespace

const std::vector<std::string> &
suiteWorkloads()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const Workload &w : kWorkloads)
            v.emplace_back(w.name);
        return v;
    }();
    return names;
}

Result<RunSpec, analysis::Diagnostic>
makeWorkloadSpec(const WorkloadRequest &req, ProgramCache *cache)
{
    const Workload *w = findWorkload(req.workload);
    if (!w) {
        return {errTag, loadFailure("unknown workload '" +
                                    req.workload + "'")};
    }
    if (!(req.mode == Mode::Ximd ? w->ximd : w->vliw)) {
        return {errTag,
                loadFailure("workload '" + req.workload +
                            "' does not support mode '" +
                            modeName(req.mode) + "'")};
    }

    RunSpec spec;
    spec.name = specName(req);
    spec.config = req.config;
    spec.config.mode = req.mode;
    spec.config.seed = req.seed;
    spec.maxCycles = req.maxCycles;
    if (w->usesIo)
        spec.fixture = nonblockingFixtureFactory();

    try {
        ResultCheck unshared;
        ResultCheck &check = cache ? cache->check(drawKey(*w, req)) : unshared;
        const auto build = [&] { return w->build(req, check); };
        spec.program = cache ? cache->getOrBuild(programKey(*w, req), build)
                             : PreparedProgram::make(build());
        spec.check = check;
    } catch (const FatalError &e) {
        return {errTag, loadFailure(e.what())};
    }
    return spec;
}

RunSpec
workloadSpecOrFailure(const WorkloadRequest &req, ProgramCache *cache)
{
    auto spec = makeWorkloadSpec(req, cache);
    if (spec.hasValue())
        return std::move(spec.value());
    RunSpec broken;
    broken.name = specName(req);
    broken.loadError = spec.error();
    return broken;
}

std::shared_ptr<const PreparedProgram>
ProgramCache::getOrBuild(const std::string &key,
                         const std::function<Program()> &build)
{
    auto it = map_.find(key);
    if (it != map_.end())
        return it->second;
    auto prepared = PreparedProgram::make(build());
    map_.emplace(key, prepared);
    return prepared;
}

ResultCheck &
ProgramCache::check(const std::string &drawKey)
{
    return checks_[drawKey];
}

std::vector<RunSpec>
builtinSuite(const SuiteOptions &opts)
{
    std::vector<RunSpec> out;
    ProgramCache cache;

    const auto add = [&](const std::string &workload, Mode mode,
                         bool regSync = false) {
        WorkloadRequest req;
        req.workload = workload;
        req.mode = mode;
        req.n = opts.n;
        req.seed = opts.seed;
        req.config.registeredSync = regSync;
        RunSpec spec = workloadSpecOrFailure(req, &cache);
        if (regSync)
            spec.name += "/regsync";
        out.push_back(std::move(spec));
    };

    for (const Workload &w : kWorkloads) {
        if (w.ximd)
            add(w.name, Mode::Ximd);
        if (w.vliw)
            add(w.name, Mode::Vliw);
    }
    if (opts.registeredSyncAxis) {
        // The ablation only affects sync-signal evaluation, so run it
        // on the workloads that synchronize.
        add("minmax", Mode::Ximd, true);
        add("bitcount", Mode::Ximd, true);
        add("nonblocking", Mode::Ximd, true);
    }
    return out;
}

} // namespace ximd::farm
