/**
 * @file
 * Reproduces the paper's Figure 10 — the MINMAX address trace for
 * IZ() = (5,3,4,7) — cycle for cycle: per-FU instruction addresses,
 * condition-code registers at the beginning of each cycle, and the
 * SSET partition.
 */

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "workloads/kernels.hh"

namespace ximd::workloads {
namespace {

// Figure 10, transcribed. (The paper prints cycle 11's condition codes
// as "FITX" — an obvious typesetting artifact of FTTX, since no
// compare executes between cycles 11 and 12, where it prints FTTX.)
const char *const kFigure10 =
    "0 | 00 00 00 00 | XXXX | {0,1,2,3}\n"
    "1 | 01 01 01 01 | XXFX | {0,1,2,3}\n"
    "2 | 02 02 02 02 | TTFX | {0,1,2,3}\n"
    "3 | 03 03 04 04 | TTFX | {0,1}{2}{3}\n"
    "4 | 05 05 05 05 | TTFX | {0,1,2,3}\n"
    "5 | 02 02 02 02 | TFFX | {0,1,2,3}\n"
    "6 | 03 03 04 03 | TFFX | {0,1}{2}{3}\n"
    "7 | 05 05 05 05 | TFFX | {0,1,2,3}\n"
    "8 | 02 02 02 02 | FFFX | {0,1,2,3}\n"
    "9 | 03 03 03 03 | FFTX | {0,1}{2}{3}\n"
    "10 | 05 05 05 05 | FFTX | {0,1,2,3}\n"
    "11 | 08 08 08 08 | FTTX | {0,1,2,3}\n"
    "12 | 0a 0a 0a 09 | FTTX | {0,1}{2}{3}\n"
    "13 | 0a 0a 0a 0a | FTTX | {0,1,2,3}\n";

TEST(Figure10, AddressTraceMatchesPaperExactly)
{
    MachineConfig cfg;
    cfg.recordTrace = true;
    Machine m(minmaxPaper(/*terminate=*/false), cfg);
    for (int i = 0; i < 14; ++i)
        ASSERT_TRUE(m.step());
    EXPECT_EQ(m.trace().compact(), kFigure10);
}

TEST(Figure10, ResultsAfterTrace)
{
    MachineConfig cfg;
    cfg.recordTrace = true;
    Machine m(minmaxPaper(/*terminate=*/false), cfg);
    for (int i = 0; i < 14; ++i)
        ASSERT_TRUE(m.step());
    EXPECT_EQ(wordToInt(m.readRegByName("min")), 3);
    EXPECT_EQ(wordToInt(m.readRegByName("max")), 7);
}

TEST(Figure10, ThreeThreadForkCyclesMatchComments)
{
    // The paper annotates cycles 3, 6, 9 and 12 as three-stream
    // partitions ("Update min & max" etc.) and every other cycle as a
    // single stream.
    MachineConfig cfg;
    cfg.recordTrace = true;
    Machine m(minmaxPaper(false), cfg);
    for (int i = 0; i < 14; ++i)
        ASSERT_TRUE(m.step());
    for (int c : {3, 6, 9, 12})
        EXPECT_EQ(m.trace().entry(c).partition, "{0,1}{2}{3}") << c;
    for (int c : {0, 1, 2, 4, 5, 7, 8, 10, 11, 13})
        EXPECT_EQ(m.trace().entry(c).partition, "{0,1,2,3}") << c;
}

TEST(Figure10, PartitionHistogramSplits)
{
    MachineConfig cfg;
    Machine m(minmaxPaper(false), cfg);
    for (int i = 0; i < 14; ++i)
        ASSERT_TRUE(m.step());
    const auto &hist = m.stats().partitionHistogram();
    EXPECT_EQ(hist.at(1), 10u);
    EXPECT_EQ(hist.at(3), 4u);
}

TEST(Figure10, TerminatingVariantPreservesPrefix)
{
    // The terminating kernel differs from the paper listing only at
    // address 0a: (halt instead of "Continue"); the trace prefix up to
    // cycle 12 must be identical.
    MachineConfig cfg;
    cfg.recordTrace = true;
    Machine m(minmaxPaper(/*terminate=*/true), cfg);
    EXPECT_TRUE(m.run().ok());
    const std::string got = m.trace().compact();
    const std::string want(kFigure10);
    // Compare the first 13 lines (cycles 0..12).
    std::size_t pos = 0;
    for (int i = 0; i < 13; ++i)
        pos = want.find('\n', pos) + 1;
    EXPECT_EQ(got.substr(0, pos), want.substr(0, pos));
}

} // namespace
} // namespace ximd::workloads
