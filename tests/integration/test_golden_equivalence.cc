/**
 * @file
 * Golden equivalence for the MachineCore refactor.
 *
 * tests/integration/golden/core_refactor.golden was captured from the
 * pre-refactor simulators (inline observation, per-cycle Parcel
 * parsing, no fast-forward) by running exactly the scenarios below and
 * recording, for each: stop reason, cycle count, partition histogram,
 * the full formatted statistics block, and — where tracing was on —
 * the compact Figure-10 trace, plus spot-checked memory words.
 *
 * The test regenerates that report with the current implementation and
 * compares byte-for-byte. Any divergence in trace content, statistics,
 * partition evolution, or architectural results is a regression in the
 * shared-core / predecode / observer / fast-forward machinery.
 *
 * Note the deadlock_cap500 scenario: the golden output was captured by
 * stepping all 500 cycles, while the current core fast-forwards the
 * busy-wait fixpoint after two stepped cycles — the comparison proves
 * the O(1) skip is accounted identically to stepping.
 */

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "core/machine.hh"
#include "support/random.hh"
#include "workloads/bitcount.hh"
#include "workloads/kernels.hh"
#include "workloads/loop12.hh"
#include "workloads/minmax.hh"

namespace {

using namespace ximd;
using namespace ximd::workloads;

std::string
hist(const RunStats &s)
{
    std::ostringstream os;
    for (const auto &[n, c] : s.partitionHistogram())
        os << n << ":" << c << ";";
    return os.str();
}

void
report(std::ostream &os, const char *name, const Machine &m,
       const RunResult &r)
{
    os << "=== " << name << " ===\n";
    os << "reason=" << static_cast<int>(r.reason)
       << " cycles=" << r.cycles << "\n";
    os << "hist=" << hist(m.stats()) << "\n";
    os << "--- stats ---\n" << m.stats().formatted();
    if (!m.trace().empty())
        os << "--- trace ---\n" << m.trace().compact();
    os << "=== end ===\n";
}

std::string
example(const char *file)
{
    return std::string(XIMD_SOURCE_DIR "/examples/programs/") + file;
}

/** Regenerate the full golden report with the current simulators. */
std::string
generateReport()
{
    std::ostringstream os;
    MachineConfig traced;
    traced.recordTrace = true;
    const MachineConfig tracedVliw =
        MachineConfig(traced).withMode(Mode::Vliw);

    { // minmax paper kernel, terminating, traced.
        Machine m(minmaxPaper(true), traced);
        auto r = m.run();
        report(os, "minmax_paper", m, r);
    }
    { // tproc XIMD + VLIW.
        Machine x(tprocPaper(3, -4, 7, 11), traced);
        auto rx = x.run();
        report(os, "tproc_ximd", x, rx);
        Machine v(tprocPaper(3, -4, 7, 11), tracedVliw);
        auto rv = v.run();
        report(os, "tproc_vliw", v, rv);
    }
    { // bitcount XIMD, fixed data.
        Rng rng(77);
        std::vector<Word> data(16);
        for (auto &v : data)
            v = static_cast<Word>(rng.next64() & 0xFFFFF);
        Machine m(bitcountXimd(data), traced);
        auto r = m.run();
        report(os, "bitcount_ximd", m, r);
    }
    { // loop12 pipelined on both machines (single stream).
        Rng rng(9);
        std::vector<float> y(12);
        for (auto &v : y)
            v = static_cast<float>(rng.range(-50, 50));
        Machine x(loop12Pipelined(y), traced);
        auto rx = x.run();
        report(os, "loop12_ximd", x, rx);
        Machine v(loop12Pipelined(y), tracedVliw);
        auto rv = v.run();
        report(os, "loop12_vliw", v, rv);
    }
    { // barrier.ximd from the shipped corpus.
        Machine m(assembleFile(example("barrier.ximd")), traced);
        auto r = m.run();
        report(os, "barrier", m, r);
        os << "mem32=" << m.peekMem(32) << " mem33=" << m.peekMem(33)
           << "\n";
    }
    { // deadlock.ximd capped at 500 cycles (fast-forward territory).
        Machine m(assembleFile(example("deadlock.ximd")));
        auto r = m.run(500);
        report(os, "deadlock_cap500", m, r);
    }
    return os.str();
}

/** Split a report into per-scenario chunks keyed by "=== name ===". */
std::vector<std::pair<std::string, std::string>>
splitScenarios(const std::string &text)
{
    std::vector<std::pair<std::string, std::string>> out;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("=== ", 0) == 0 && line != "=== end ===") {
            out.emplace_back(line.substr(4, line.size() - 8), "");
        } else if (!out.empty()) {
            out.back().second += line + "\n";
        }
    }
    return out;
}

TEST(GoldenEquivalence, MatchesPreRefactorCapture)
{
    std::ifstream in(
        XIMD_SOURCE_DIR
        "/tests/integration/golden/core_refactor.golden");
    ASSERT_TRUE(in) << "golden file missing";
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string golden = buf.str();

    const std::string current = generateReport();

    // Compare scenario-by-scenario so a failure names the workload.
    const auto want = splitScenarios(golden);
    const auto got = splitScenarios(current);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].first, got[i].first);
        EXPECT_EQ(want[i].second, got[i].second)
            << "scenario '" << want[i].first
            << "' diverged from the pre-refactor capture";
    }

    // And the whole report, byte for byte.
    EXPECT_EQ(golden, current);
}

} // namespace
