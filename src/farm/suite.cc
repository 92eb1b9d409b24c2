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

/** What a workload name maps to, before mode/size specialization. */
struct WorkloadDef
{
    bool ximdOk;
    bool vliwOk;
    bool usesData; ///< Input size / seed shape the program.
    bool usesIo;   ///< Needs the Figure 12 fixture.
};

const std::map<std::string, WorkloadDef> &
defs()
{
    static const std::map<std::string, WorkloadDef> table = {
        {"tproc",               {true, true, false, false}},
        {"loop12",              {true, true, true, false}},
        {"minmax",              {true, true, true, false}},
        {"multisearch",         {true, true, true, false}},
        {"bitcount",            {true, true, true, false}},
        {"bitcount-lockstep",   {false, true, true, false}},
        // Compiled random loops (workloads/randprog.hh), one per
        // scheduler tier — the exact-vs-heuristic sweep axis. Same
        // (n, seed) pair = same loop, so paired jobs are comparable.
        {"randloop",            {true, true, true, false}},
        {"randloop-exact",      {true, true, true, false}},
        {"nonblocking",         {true, false, false, true}},
        {"nonblocking-barrier", {true, false, false, true}},
        {"nonblocking-memflag", {true, false, false, true}},
    };
    return table;
}

Program
buildProgram(const std::string &workload, Mode mode, unsigned n,
             std::uint64_t seed)
{
    Rng rng(seed);
    if (workload == "tproc")
        return workloads::tprocPaper(3, -4, 7, 11);
    if (workload == "loop12") {
        std::vector<float> y(n + 1);
        for (float &v : y)
            v = static_cast<float>(rng.range(-50, 50));
        return workloads::loop12Pipelined(y);
    }
    if (workload == "minmax") {
        const auto data = signedData(rng, n);
        return mode == Mode::Ximd ? workloads::minmaxXimd(data)
                                  : workloads::minmaxVliw(data);
    }
    if (workload == "multisearch") {
        const auto data = signedData(rng, n);
        return mode == Mode::Ximd
                   ? workloads::multiSearchXimd(6, data)
                   : workloads::multiSearchVliw(6, data);
    }
    if (workload == "bitcount" || workload == "bitcount-lockstep") {
        const unsigned rounded = std::max(4u, (n + 3u) & ~3u);
        std::vector<Word> data(rounded);
        for (Word &v : data)
            v = static_cast<Word>(rng.next64() & 0xFFFFF);
        if (workload == "bitcount-lockstep")
            return workloads::bitcountVliwLockstep(data);
        return mode == Mode::Ximd
                   ? workloads::bitcountXimd(data)
                   : workloads::bitcountVliwSerial(data);
    }
    if (workload == "randloop" || workload == "randloop-exact") {
        workloads::RandLoopOptions lo;
        lo.seed = seed;
        lo.bodyOps = 2 + n % 11;
        lo.tripCount = 3 + static_cast<unsigned>(seed % 5);
        sched::PipelineOptions po;
        po.schedule = workload == "randloop-exact"
                          ? sched::ScheduleTier::Exact
                          : sched::ScheduleTier::Heuristic;
        po.verify = true;
        sched::Compiler c(po);
        return valueOrFatal(c.compile(workloads::randomLoopIr(lo)))
            .program;
    }
    if (workload == "nonblocking")
        return workloads::nonblockingXimd();
    if (workload == "nonblocking-barrier")
        return workloads::lockstepBarrier();
    if (workload == "nonblocking-memflag")
        return workloads::memoryFlagXimd();
    panic("buildProgram: unhandled workload '", workload, "'");
}

/**
 * Identity of the generated machine code. Mode only matters for
 * workloads that emit different programs per mode, so mode-invariant
 * workloads share one PreparedProgram between their ximd and vliw
 * specs.
 */
std::string
programKey(const std::string &workload, Mode mode, unsigned n,
           std::uint64_t seed, const WorkloadDef &def)
{
    std::string key = workload;
    const bool modeInvariant =
        workload == "tproc" || workload == "loop12" ||
        workload == "randloop" || workload == "randloop-exact";
    if (!modeInvariant)
        key += std::string("/") + modeName(mode);
    if (def.usesData)
        key += "/n=" + std::to_string(n) +
               "/seed=" + std::to_string(seed);
    return key;
}

/**
 * Post-run correctness check against the plain-C++ reference models.
 * Every deterministic workload gets one, so a failed job means wrong
 * *results*, not just a fault — which is also what lets fault
 * campaigns (farm/campaign.hh) separate "degraded but correct" from
 * "produced wrong answers". Inputs are regenerated from (n, seed)
 * with the same recipe buildProgram used.
 *
 * These are RunSpec::check functions, not fixtures: they read only
 * final state through ArchView, so they hold no per-run objects and
 * attach no devices.
 */
ResultCheck
referenceCheck(const std::string &workload, unsigned n,
               std::uint64_t seed)
{
    if (workload == "tproc") {
        return [](const ArchView &m, const RunResult &) -> std::string {
            if (wordToInt(m.readRegByName("f")) !=
                workloads::referenceTproc(3, -4, 7, 11))
                return "tproc: f differs from reference";
            return {};
        };
    }
    if (workload == "minmax") {
        return [n, seed](const ArchView &m,
                         const RunResult &) -> std::string {
            Rng rng(seed);
            const auto data = signedData(rng, n);
            const auto [lo, hi] = workloads::referenceMinmax(data);
            if (wordToInt(m.readRegByName("min")) != lo)
                return "minmax: min differs from reference";
            if (wordToInt(m.readRegByName("max")) != hi)
                return "minmax: max differs from reference";
            return {};
        };
    }
    if (workload == "multisearch") {
        return [n, seed](const ArchView &m,
                         const RunResult &) -> std::string {
            Rng rng(seed);
            const auto data = signedData(rng, n);
            const auto expect =
                workloads::referenceMultiSearch(6, data);
            for (unsigned s = 0; s < 6; ++s) {
                if (m.readRegByName("c" + std::to_string(s)) !=
                    expect[s])
                    return "multisearch: c" + std::to_string(s) +
                           " differs from reference";
            }
            return {};
        };
    }
    if (workload == "bitcount" || workload == "bitcount-lockstep") {
        return [n, seed](const ArchView &m,
                         const RunResult &) -> std::string {
            const unsigned rounded = std::max(4u, (n + 3u) & ~3u);
            std::vector<Word> data(rounded);
            Rng rng(seed);
            for (Word &v : data)
                v = static_cast<Word>(rng.next64() & 0xFFFFF);
            const auto expect =
                workloads::referenceBitcountCumulative(data);
            const Word b0 = m.program().symbolOrDie("B0");
            for (std::size_t i = 0; i <= data.size(); ++i)
                if (m.peekMem(static_cast<Addr>(b0 + i)) != expect[i])
                    return "bitcount: B[" + std::to_string(i) +
                           "] differs from reference";
            return {};
        };
    }
    if (workload == "randloop" || workload == "randloop-exact") {
        return [n, seed](const ArchView &m,
                         const RunResult &) -> std::string {
            workloads::RandLoopOptions lo;
            lo.seed = seed;
            lo.bodyOps = 2 + n % 11;
            lo.tripCount = 3 + static_cast<unsigned>(seed % 5);
            const sched::IrProgram ir = workloads::randomLoopIr(lo);
            std::vector<Word> mem(4096, 0);
            const std::vector<Word> vregs =
                sched::interpretIr(ir, mem, 1u << 20);
            if (m.readRegByName("v1") != vregs[1])
                return "randloop: accumulator differs from "
                       "interpretIr reference";
            for (Addr a = lo.outBase;
                 a <= lo.outBase + lo.tripCount; ++a)
                if (m.peekMem(a) != mem[a])
                    return "randloop: mem[" + std::to_string(a) +
                           "] differs from interpretIr reference";
            return {};
        };
    }
    // loop12 (float pipeline) keeps its coverage in tests/workloads/.
    return {};
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
    static const std::vector<std::string> names = {
        "tproc",
        "loop12",
        "minmax",
        "multisearch",
        "bitcount",
        "bitcount-lockstep",
        "randloop",
        "randloop-exact",
        "nonblocking",
        "nonblocking-barrier",
        "nonblocking-memflag",
    };
    return names;
}

Result<RunSpec, analysis::Diagnostic>
makeWorkloadSpec(const WorkloadRequest &req, ProgramCache *cache)
{
    const auto it = defs().find(req.workload);
    if (it == defs().end()) {
        return {errTag, loadFailure("unknown workload '" +
                                    req.workload + "'")};
    }
    const WorkloadDef &def = it->second;
    const bool modeOk =
        req.mode == Mode::Ximd ? def.ximdOk : def.vliwOk;
    if (!modeOk) {
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
    if (def.usesIo)
        spec.fixture = nonblockingFixtureFactory();
    else
        spec.check = referenceCheck(req.workload, req.n, req.seed);

    try {
        const std::string key =
            programKey(req.workload, req.mode, req.n, req.seed, def);
        if (cache) {
            spec.program = cache->getOrBuild(key, [&] {
                return buildProgram(req.workload, req.mode, req.n,
                                    req.seed);
            });
        } else {
            spec.program = PreparedProgram::make(buildProgram(
                req.workload, req.mode, req.n, req.seed));
        }
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

    for (const std::string &w : suiteWorkloads()) {
        const WorkloadDef &def = defs().at(w);
        if (def.ximdOk)
            add(w, Mode::Ximd);
        if (def.vliwOk)
            add(w, Mode::Vliw);
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
