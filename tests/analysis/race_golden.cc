#include "race_golden.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <tuple>

#include "analysis/cfg.hh"
#include "analysis/interval.hh"
#include "analysis/lockstep.hh"
#include "analysis/race.hh"
#include "asm/assembler.hh"
#include "farm/suite.hh"
#include "frontend/frontend.hh"
#include "sched/pipeline.hh"
#include "support/logging.hh"
#include "support/state_io.hh"
#include "workloads/randprog.hh"

#ifndef XIMD_SOURCE_DIR
#error "XIMD_SOURCE_DIR must point at the repo root"
#endif

namespace ximd::analysis {

namespace {

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

Program
compileOrDie(const std::string &name, sched::IrProgram ir,
             const sched::PipelineOptions &po)
{
    sched::Compiler compiler(po);
    auto code = compiler.compile(std::move(ir));
    if (!code)
        fatal(name, ": ", code.error().format());
    return std::move(code).value().program;
}

/** Every *.ximd under examples/@p dir, in file-name order. */
void
addExamples(std::vector<RaceGoldenCase> &cases, const std::string &dir)
{
    std::vector<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::string(XIMD_SOURCE_DIR) + "/examples/" + dir))
        if (entry.path().extension() == ".ximd")
            names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    for (const std::string &name : names)
        cases.push_back({dir + "/" + name,
                         assembleFile(std::string(XIMD_SOURCE_DIR) +
                                      "/examples/" + dir + "/" + name)});
}

void
hashInterval(Hash64 &h, const Interval &v)
{
    h.u64(static_cast<std::uint64_t>(v.lo));
    h.u64(static_cast<std::uint64_t>(v.hi));
}

/** Digest of every answer @p ia gives about @p prog. */
std::uint64_t
queryDigest(const Program &prog, const ClassIntervalAnalysis &ia,
            const std::vector<FuId> &members)
{
    Hash64 h;
    for (InstAddr row = 0; row < prog.size(); ++row) {
        h.boolean(ia.visited(row));
        for (RegId r = 0; r < kNumRegisters; ++r)
            hashInterval(h, ia.regAt(row, r));
        for (FuId m : members) {
            hashInterval(h, ia.loadAddr(row, m));
            hashInterval(h, ia.storeAddr(row, m));
            hashInterval(h, ia.storeValue(row, m));
            const std::optional<bool> c = ia.compareOutcome(row, m);
            h.u8(c ? (*c ? 1 : 0) : 2);
        }
    }
    return h.digest();
}

} // namespace

std::vector<RaceGoldenCase>
raceGoldenCases()
{
    std::vector<RaceGoldenCase> cases;

    farm::SuiteOptions suite;
    suite.n = 64;
    suite.seed = 1;
    for (const farm::RunSpec &spec : farm::builtinSuite(suite))
        if (spec.program)
            cases.push_back({"suite/" + spec.name,
                             spec.program->program()});

    addExamples(cases, "programs");
    addExamples(cases, "ir/golden");
    addExamples(cases, "c/golden");

    // The shapes RaceEngine.RandprogCorpusIsRaceFree uses.
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        workloads::RandProgOptions o;
        o.seed = seed;
        o.width = 1 + seed % 8;
        o.rows = 20 + seed % 60;
        o.branchPercent = 10 + seed % 40;
        cases.push_back({"randprog/" + std::to_string(seed),
                         workloads::randomLockstepProgram(o)});
    }

    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        workloads::RandLoopOptions lo;
        lo.seed = seed;
        lo.bodyOps = 2 + static_cast<unsigned>(seed % 10);
        lo.tripCount = 3 + static_cast<unsigned>(seed % 4);
        for (bool exact : {false, true}) {
            sched::PipelineOptions po;
            po.width = static_cast<FuId>(1 + seed % 4);
            if (exact) {
                // Node cap only: reproducible at any host speed.
                po.schedule = sched::ScheduleTier::Exact;
                po.exact.budgetMs = 0;
                po.exact.maxNodes = 200'000;
            }
            const std::string name = "randloop/" +
                                     std::to_string(seed) +
                                     (exact ? "/exact" : "/list");
            cases.push_back({name,
                             compileOrDie(name,
                                          workloads::randomLoopIr(lo),
                                          po)});
        }
    }

    for (const char *kernel :
         {"livermore1", "livermore2", "livermore3", "livermore12"}) {
        auto ir = frontend::compileC(readFile(
            std::string(XIMD_SOURCE_DIR) + "/examples/c/" + kernel +
            ".c"));
        if (!ir)
            fatal(kernel, ": ", ir.error().format());
        for (unsigned window : {0u, 6u, 5u}) {
            sched::PipelineOptions po;
            if (window > 0) {
                po.alloc.window.count = window;
                po.alloc.spill = true;
            }
            const std::string name =
                std::string("livermore/") + kernel +
                (window ? "/spill" + std::to_string(window)
                        : std::string("/direct"));
            cases.push_back({name, compileOrDie(name, ir.value(), po)});
        }
    }
    return cases;
}

std::string
serializeRaceCase(const RaceGoldenCase &c)
{
    const Program &prog = c.program;
    std::ostringstream os;
    os << "== " << c.name << " ==\n";

    const ProgramCfg cfg = buildCfg(prog);
    const LockstepClasses part = computeLockstepClasses(prog, cfg);
    for (const std::vector<FuId> &members : part.members) {
        const ClassIntervalAnalysis ia(
            prog, cfg.streams[members.front()], members,
            externallyWrittenRegs(prog, cfg, members));
        std::size_t visited = 0;
        for (InstAddr row = 0; row < prog.size(); ++row)
            visited += ia.visited(row) ? 1 : 0;
        os << "class fus=";
        for (std::size_t i = 0; i < members.size(); ++i)
            os << (i ? "," : "") << members[i];
        os << " visited=" << visited << " queries=" << std::hex
           << std::setw(16) << std::setfill('0')
           << queryDigest(prog, ia, members) << std::dec << "\n";
    }

    const RaceReport r = analyzeRaces(prog);
    os << "report classes=" << r.classes << " pairs=" << r.pairsAnalyzed
       << " states=" << r.productStates
       << " budget=" << r.budgetExceeded << " base=" << r.baseErrors
       << "\n";
    std::vector<std::tuple<InstAddr, int, InstAddr, int>> covered;
    for (const SitePair &p : r.covered)
        covered.emplace_back(p.rowA, p.fuA, p.rowB, p.fuB);
    std::sort(covered.begin(), covered.end());
    os << "covered " << covered.size();
    for (const auto &[ra, fa, rb, fb] : covered)
        os << " " << ra << ":" << fa << "/" << rb << ":" << fb;
    os << "\n" << r.diags.formatted(&prog);
    return os.str();
}

} // namespace ximd::analysis
