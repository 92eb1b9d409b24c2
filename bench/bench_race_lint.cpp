/**
 * @file
 * RACE_LINT — host cost of the cross-stream race engine
 * (analysis::analyzeRaces: what `ximd-lint --race`, the
 * `xcc --analyze=race` pass and `--verify-between` run) over four
 * corpora: the built-in workload grid, the committed xcc and C
 * goldens, 200 random lockstep programs, and the Livermore C kernels
 * as the livermore-c benchmark compiles them (list and exact tiers,
 * direct and spill@6). The reproduction table reports each corpus's
 * shape; the raceLint/<corpus> rows report microseconds per program,
 * the number that decides whether the engine can run always-on. The
 * facts/<corpus> rows time analysis::buildFacts alone, the base
 * verifier that `xcc --verify` and `xsim --verify` run.
 *
 * checkedCompile/livermore compiles the Livermore corpus's IR the way
 * `xcc --verify --analyze=race` does and reports the verify and
 * race-check passes' wall time per program (Compiler::stats()): the
 * cost of checking a program the compiler has just emitted.
 */

#include "bench_util.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/race.hh"
#include "analysis/verify.hh"
#include "asm/assembler.hh"
#include "farm/suite.hh"
#include "livermore_corpus.hh"
#include "sched/pipeline.hh"
#include "workloads/randprog.hh"

namespace {

using namespace ximd;
using namespace ximd::bench;

enum Corpus { kGrid, kGoldens, kRandprog, kLivermore, kCorpora };

const char *const kCorpusNames[kCorpora] = {"grid", "goldens",
                                            "randprog", "livermore"};

std::vector<Program>
gridCorpus()
{
    std::vector<Program> progs;
    for (const farm::RunSpec &spec : farm::builtinSuite())
        if (spec.program)
            progs.push_back(spec.program->program());
    return progs;
}

std::vector<Program>
goldenCorpus()
{
    std::vector<std::string> paths;
    for (const char *dir : {"/examples/ir/golden", "/examples/c/golden"})
        for (const auto &entry : std::filesystem::directory_iterator(
                 std::string(XIMD_SOURCE_DIR) + dir))
            if (entry.path().extension() == ".ximd")
                paths.push_back(entry.path().string());
    std::sort(paths.begin(), paths.end());
    std::vector<Program> progs;
    for (const std::string &path : paths)
        progs.push_back(assembleFile(path));
    return progs;
}

std::vector<Program>
randprogCorpus()
{
    // The shapes RaceEngine.RandprogCorpusIsRaceFree lints.
    std::vector<Program> progs;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        workloads::RandProgOptions o;
        o.seed = seed;
        o.width = 1 + seed % 8;
        o.rows = 20 + seed % 60;
        o.branchPercent = 10 + seed % 40;
        progs.push_back(workloads::randomLockstepProgram(o));
    }
    return progs;
}

const std::vector<LivermoreCase> &
livermore()
{
    static const std::vector<LivermoreCase> cases = livermoreCases(0);
    return cases;
}

const std::vector<Program> &
corpus(int which)
{
    static const std::vector<Program> corpora[kCorpora] = {
        gridCorpus(), goldenCorpus(), randprogCorpus(),
        livermorePrograms(0)};
    return corpora[which];
}

void
printTables()
{
    std::cout << "# RACE_LINT: analysis::analyzeRaces over the lint "
                 "corpora\n";

    section("corpus shape and engine outcome");
    Table t({{"corpus", 11},
             {"programs", 10},
             {"rows/prog", 11},
             {"classes", 9},
             {"states", 9},
             {"findings", 10}});
    t.header();
    for (int c = 0; c < kCorpora; ++c) {
        std::uint64_t rows = 0, classes = 0, states = 0, findings = 0;
        for (const Program &p : corpus(c)) {
            const analysis::RaceReport r = analysis::analyzeRaces(p);
            rows += p.size();
            classes += r.classes;
            states += r.productStates;
            findings += r.diags.size();
        }
        const std::size_t n = corpus(c).size();
        t.row({kCorpusNames[c], num(n),
               fixed(static_cast<double>(rows) /
                         static_cast<double>(n ? n : 1),
                     1),
               num(classes), num(states), num(findings)});
    }
    std::cout << "shape: every corpus lints clean. Random and compiled "
                 "programs are one lockstep\nclass each, with no product "
                 "states: the base verifier is their cost, plus the\n"
                 "interval domain for a program whose poll could be an "
                 "unbounded wait. Only\nthe grid and goldens explore "
                 "class pairs.\n";
}

/** Time @p analyze over every program of corpus @p which. */
template <typename Analyze>
void
perProgram(benchmark::State &state, int which, Analyze analyze)
{
    const std::vector<Program> &progs = corpus(which);
    const auto t0 = std::chrono::steady_clock::now();
    for (auto _ : state)
        for (const Program &p : progs)
            benchmark::DoNotOptimize(analyze(p));
    const std::chrono::duration<double, std::micro> elapsed =
        std::chrono::steady_clock::now() - t0;
    state.counters["us_per_program"] =
        elapsed.count() / static_cast<double>(state.iterations() *
                                              progs.size());
    state.counters["programs"] = static_cast<double>(progs.size());
}

void
raceLint(benchmark::State &state, int which)
{
    perProgram(state, which,
               [](const Program &p) { return analysis::analyzeRaces(p); });
}

void
facts(benchmark::State &state, int which)
{
    perProgram(state, which, analysis::buildFacts);
}

void
checkedCompile(benchmark::State &state)
{
    const std::vector<LivermoreCase> &cases = livermore();
    double verifyMs = 0.0;
    double raceMs = 0.0;
    for (auto _ : state)
        for (const LivermoreCase &c : cases) {
            sched::PipelineOptions po = c.po;
            po.verify = true;
            po.analyzeRace = true;
            sched::Compiler cc(po);
            benchmark::DoNotOptimize(orDie(cc.compile(c.ir)));
            for (const sched::PassStat &p : cc.stats()) {
                if (p.pass == "verify")
                    verifyMs += p.wallMs;
                else if (p.pass == "race-check")
                    raceMs += p.wallMs;
            }
        }
    const double programs =
        static_cast<double>(state.iterations() * cases.size());
    state.counters["verify_us"] = verifyMs * 1e3 / programs;
    state.counters["race_check_us"] = raceMs * 1e3 / programs;
    state.counters["programs"] = static_cast<double>(cases.size());
}

BENCHMARK_CAPTURE(raceLint, grid, kGrid)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(raceLint, goldens, kGoldens)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(raceLint, randprog, kRandprog)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(raceLint, livermore, kLivermore)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(facts, grid, kGrid)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(facts, goldens, kGoldens)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(facts, randprog, kRandprog)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(facts, livermore, kLivermore)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(checkedCompile)
    ->Name("checkedCompile/livermore")
    ->Unit(benchmark::kMicrosecond);

} // namespace

XIMD_BENCH_MAIN(printTables)
