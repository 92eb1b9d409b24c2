#include "workloads/kernels.hh"

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "isa/disasm.hh"
#include "support/logging.hh"
#include "workloads/reference.hh"

namespace ximd::workloads {
namespace {

TEST(Tproc, MatchesReference)
{
    const SWord a = 3, b = -4, c = 7, d = 11;
    Machine m(tprocPaper(a, b, c, d));
    EXPECT_TRUE(m.run().ok());
    EXPECT_EQ(wordToInt(m.readRegByName("f")),
              referenceTproc(a, b, c, d));
}

TEST(Tproc, RunsIdenticallyOnVliw)
{
    // Example 1 is VLIW-style code: same program, same result, same
    // cycle count on both machines.
    Machine x(tprocPaper(1, 2, 3, 4));
    Machine v(tprocPaper(1, 2, 3, 4), MachineConfig::vliw());
    ASSERT_EQ(v.mode(), Mode::Vliw);
    EXPECT_TRUE(x.run().ok());
    EXPECT_TRUE(v.run().ok());
    EXPECT_EQ(x.cycle(), v.cycle());
    EXPECT_EQ(x.readRegByName("f"), v.readRegByName("f"));
}

TEST(Tproc, SweepAgainstReference)
{
    for (SWord a : {-7, 0, 5})
        for (SWord b : {-1, 9})
            for (SWord c : {2, -3})
                for (SWord d : {0, 100}) {
                    Machine m(tprocPaper(a, b, c, d));
                    ASSERT_TRUE(m.run().ok());
                    EXPECT_EQ(wordToInt(m.readRegByName("f")),
                              referenceTproc(a, b, c, d))
                        << a << "," << b << "," << c << "," << d;
                }
}

TEST(Tproc, TakesFiveCyclesPlusHalt)
{
    Machine m(tprocPaper(1, 1, 1, 1));
    EXPECT_TRUE(m.run().ok());
    EXPECT_EQ(m.cycle(), 6u);
}

TEST(MinmaxPaper, SampleDataResults)
{
    Machine m(minmaxPaper());
    EXPECT_TRUE(m.run().ok());
    EXPECT_EQ(wordToInt(m.readRegByName("min")), 3);
    EXPECT_EQ(wordToInt(m.readRegByName("max")), 7);
}

TEST(MinmaxPaper, ArbitraryData)
{
    const std::vector<SWord> data = {9, -2, 14, 3, 3, -2, 8};
    Machine m(minmaxPaperData(data));
    EXPECT_TRUE(m.run().ok());
    const auto [lo, hi] = referenceMinmax(data);
    EXPECT_EQ(wordToInt(m.readRegByName("min")), lo);
    EXPECT_EQ(wordToInt(m.readRegByName("max")), hi);
}

TEST(MinmaxPaper, SingleElement)
{
    Machine m(minmaxPaperData({42}));
    EXPECT_TRUE(m.run().ok());
    EXPECT_EQ(wordToInt(m.readRegByName("min")), 42);
    EXPECT_EQ(wordToInt(m.readRegByName("max")), 42);
}

TEST(MinmaxPaper, NonTerminatingVariantSpins)
{
    Machine m(minmaxPaper(/*terminate=*/false));
    EXPECT_EQ(m.run(50).reason, StopReason::MaxCycles);
}

TEST(Bitcount1Paper, AsPrintedSemantics)
{
    const std::vector<Word> data = {0x3, 0xFF, 0x0, 0x10,
                                    0x7, 0x1,  0xF, 0xF0,
                                    0x5, 0xAA, 0x1, 0x80000001};
    Machine m(bitcount1Paper(data));
    ASSERT_TRUE(m.run().ok());
    const Word b0 = m.program().symbolOrDie("B0");
    const auto expect = referenceBitcount1Paper(data);
    for (std::size_t i = 0; i <= data.size(); ++i)
        EXPECT_EQ(m.peekMem(b0 + i), expect[i]) << "B[" << i << "]";
}

TEST(Bitcount1Paper, RejectsUnsupportedSizes)
{
    EXPECT_THROW(bitcount1Paper(std::vector<Word>(8, 1)), FatalError);
    EXPECT_THROW(bitcount1Paper(std::vector<Word>(13, 1)), FatalError);
}

TEST(Bitcount1Paper, UsesMultipleStreams)
{
    std::vector<Word> data(12);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<Word>(1) << (i % 20);
    Machine m(bitcount1Paper(data));
    ASSERT_TRUE(m.run().ok());
    const auto &hist = m.stats().partitionHistogram();
    // The inner loops diverge: some cycles must show > 1 stream.
    bool multi = false;
    for (const auto &[streams, cycles] : hist)
        if (streams > 1 && cycles > 0)
            multi = true;
    EXPECT_TRUE(multi);
    EXPECT_GT(m.stats().busyWaitCycles(), 0u);
}

TEST(Loop12Naive, MatchesReference)
{
    const std::vector<float> y = {1.0f, 4.0f, 2.5f, 2.5f, -1.0f, 7.0f};
    Machine m(loop12Naive(y));
    ASSERT_TRUE(m.run().ok());
    const Word x0 = m.program().symbolOrDie("X0");
    const auto expect = referenceLoop12(y);
    for (std::size_t k = 0; k < expect.size(); ++k)
        EXPECT_FLOAT_EQ(wordToFloat(m.peekMem(x0 + 1 + k)), expect[k])
            << "X(" << k + 1 << ")";
}

TEST(Loop12Naive, ThreeCyclesPerIteration)
{
    std::vector<float> y(11, 1.0f); // n = 10
    Machine m(loop12Naive(y));
    EXPECT_TRUE(m.run().ok());
    EXPECT_EQ(m.cycle(), 3u * 10u + 1u); // + halt row
}

TEST(Loop12Naive, WiderMachinePadsWithNops)
{
    const std::vector<float> y = {0.0f, 1.0f, 3.0f};
    Machine m(loop12Naive(y, 8));
    ASSERT_TRUE(m.run().ok());
    const Word x0 = m.program().symbolOrDie("X0");
    EXPECT_FLOAT_EQ(wordToFloat(m.peekMem(x0 + 1)), 1.0f);
    EXPECT_FLOAT_EQ(wordToFloat(m.peekMem(x0 + 2)), 2.0f);
}

TEST(Loop12Naive, SameOnVliw)
{
    const std::vector<float> y = {1.0f, 2.0f, 4.0f, 8.0f};
    Machine x(loop12Naive(y));
    Machine v(loop12Naive(y), MachineConfig::vliw());
    ASSERT_EQ(v.mode(), Mode::Vliw);
    EXPECT_TRUE(x.run().ok());
    EXPECT_TRUE(v.run().ok());
    EXPECT_EQ(x.cycle(), v.cycle());
}

TEST(Kernels, DisassembleCleanly)
{
    // Every paper kernel must produce a listing that names its
    // symbolic registers and uses the paper's notation.
    const std::string minmax = formatProgram(minmaxPaper());
    EXPECT_NE(minmax.find("lt tz,#2147483647"), std::string::npos);
    EXPECT_NE(minmax.find("if cc2 08:|02:"), std::string::npos);
    EXPECT_NE(minmax.find("iadd tz,#0,min"), std::string::npos);

    const std::string bc =
        formatProgram(bitcount1Paper(std::vector<Word>(12, 1)));
    EXPECT_NE(bc.find("if all"), std::string::npos);
    EXPECT_NE(bc.find("; done"), std::string::npos);
    EXPECT_NE(bc.find("shr d0,#1,d0"), std::string::npos);

    const std::string tp = formatProgram(tprocPaper(1, 2, 3, 4));
    EXPECT_NE(tp.find("imult c,a,f"), std::string::npos);
    // VLIW-mode listing: no sync column at all.
    EXPECT_EQ(tp.find("busy"), std::string::npos);
}

TEST(Reference, Popcount)
{
    EXPECT_EQ(referencePopcount(0), 0u);
    EXPECT_EQ(referencePopcount(0xFF), 8u);
    EXPECT_EQ(referencePopcount(0x80000001), 2u);
    EXPECT_EQ(referencePopcount(~0u), 32u);
}

} // namespace
} // namespace ximd::workloads
