/**
 * @file
 * ASSEMBLE — host cost of the assembler (assembleString) and the
 * writer (writeAssembly), the text boundary every program crosses:
 * the built-in workloads are written as text and assembled, and xcc
 * hands its code to xsim as text. Three corpora:
 *
 *  - suite: the writer's text of every distinct program of the
 *    built-in suite at n = 64 (many short parcel fields);
 *  - livermore: the programs of the livermore-c benchmark at seed 7:
 *    the Livermore C kernels (list and exact tiers, direct and
 *    spill@6) and 16 random loops (exact tier), the text `asm.write`
 *    produces and `asm.assemble` re-reads;
 *  - data65536: minmax at n = 65536, one 65536-value `.word` line (a
 *    long-jobs data set).
 *
 * assemble/<corpus> rows report microseconds per source line;
 * write/<corpus> rows report microseconds per program.
 */

#include "bench_util.hh"

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <vector>

#include "asm/asm_writer.hh"
#include "asm/assembler.hh"
#include "farm/suite.hh"
#include "livermore_corpus.hh"
#include "workloads/minmax.hh"

namespace {

using namespace ximd;
using namespace ximd::bench;

enum Corpus { kSuite, kLivermore, kData, kCorpora };

const char *const kCorpusNames[kCorpora] = {"suite", "livermore",
                                            "data65536"};

std::vector<Program>
suitePrograms()
{
    farm::SuiteOptions o;
    o.n = 64;
    std::vector<Program> progs;
    std::set<const void *> seen; // specs share mode-invariant programs
    for (const farm::RunSpec &spec : farm::builtinSuite(o))
        if (spec.program && seen.insert(spec.program.get()).second)
            progs.push_back(spec.program->program());
    return progs;
}

std::vector<Program>
dataPrograms()
{
    std::vector<SWord> data(65536);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<SWord>((i * 2654435761u) % 200001) - 100000;
    return {workloads::minmaxXimd(data)};
}

/** A corpus's programs and the writer's text of each. */
struct CorpusData
{
    std::vector<Program> programs;
    std::vector<std::string> texts;
    std::size_t lines = 0;
    std::size_t bytes = 0;
};

CorpusData
withTexts(std::vector<Program> programs)
{
    CorpusData d;
    d.programs = std::move(programs);
    for (const Program &p : d.programs) {
        const std::string &t = d.texts.emplace_back(writeAssembly(p));
        d.lines += static_cast<std::size_t>(
            std::count(t.begin(), t.end(), '\n'));
        d.bytes += t.size();
    }
    return d;
}

const CorpusData &
corpus(int which)
{
    static const CorpusData corpora[kCorpora] = {
        withTexts(suitePrograms()), withTexts(livermorePrograms()),
        withTexts(dataPrograms())};
    return corpora[which];
}

void
printTables()
{
    std::cout << "# ASSEMBLE: assembleString and writeAssembly over "
                 "three text corpora\n";

    section("corpus shape");
    Table t({{"corpus", 11},
             {"programs", 10},
             {"lines", 9},
             {"bytes", 10},
             {"bytes/line", 12}});
    t.header();
    for (int c = 0; c < kCorpora; ++c) {
        const CorpusData &d = corpus(c);
        t.row({kCorpusNames[c], num(d.programs.size()), num(d.lines),
               num(d.bytes),
               fixed(static_cast<double>(d.bytes) /
                         static_cast<double>(d.lines ? d.lines : 1),
                     1)});
    }
    std::cout << "shape: suite and livermore are many short parcel "
                 "fields; data65536 is one\nlong numeric line, the "
                 "shape of a long-jobs data set.\n";
}

double
microsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

void
assemble(benchmark::State &state, int which)
{
    const CorpusData &d = corpus(which);
    const auto t0 = std::chrono::steady_clock::now();
    for (auto _ : state)
        for (const std::string &text : d.texts)
            benchmark::DoNotOptimize(assembleString(text));
    state.counters["us_per_line"] =
        microsSince(t0) /
        static_cast<double>(state.iterations() * d.lines);
    state.counters["lines"] = static_cast<double>(d.lines);
}

void
write(benchmark::State &state, int which)
{
    const CorpusData &d = corpus(which);
    const auto t0 = std::chrono::steady_clock::now();
    for (auto _ : state)
        for (const Program &p : d.programs)
            benchmark::DoNotOptimize(writeAssembly(p));
    state.counters["us_per_program"] =
        microsSince(t0) /
        static_cast<double>(state.iterations() * d.programs.size());
    state.counters["programs"] = static_cast<double>(d.programs.size());
}

BENCHMARK_CAPTURE(assemble, suite, kSuite)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(assemble, livermore, kLivermore)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(assemble, data65536, kData)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(write, suite, kSuite)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(write, livermore, kLivermore)
    ->Unit(benchmark::kMicrosecond);

} // namespace

XIMD_BENCH_MAIN(printTables)
