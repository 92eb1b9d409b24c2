#include "workloads/bitcount.hh"

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "workloads/reference.hh"

namespace ximd::workloads {
namespace {

std::vector<Word>
randomData(std::size_t n, double density, std::uint64_t seed)
{
    // Each element gets its bits set with probability `density`.
    Rng rng(seed);
    std::vector<Word> data(n);
    for (auto &v : data) {
        v = 0;
        for (int bit = 0; bit < 20; ++bit)
            if (rng.chance(density))
                v |= 1u << bit;
    }
    return data;
}

void
checkCumulative(const Machine &machine, const std::vector<Word> &data)
{
    const Word b0 = machine.program().symbolOrDie("B0");
    const auto expect = referenceBitcountCumulative(data);
    for (std::size_t i = 0; i <= data.size(); ++i)
        ASSERT_EQ(machine.peekMem(b0 + i), expect[i]) << "B[" << i
                                                      << "]";
}

TEST(BitcountXimd, MatchesReference)
{
    const auto data = randomData(16, 0.4, 1);
    Machine m(bitcountXimd(data));
    ASSERT_TRUE(m.run().ok());
    checkCumulative(m, data);
}

TEST(BitcountXimd, AllZeroElements)
{
    std::vector<Word> data(8, 0);
    Machine m(bitcountXimd(data));
    ASSERT_TRUE(m.run().ok());
    checkCumulative(m, data);
}

TEST(BitcountXimd, DenseElements)
{
    std::vector<Word> data(8, 0xFFFFFu);
    Machine m(bitcountXimd(data));
    ASSERT_TRUE(m.run().ok());
    checkCumulative(m, data);
}

TEST(BitcountXimd, MinimumSizeFourElements)
{
    std::vector<Word> data = {1, 2, 3, 4};
    Machine m(bitcountXimd(data));
    ASSERT_TRUE(m.run().ok());
    checkCumulative(m, data);
}

TEST(BitcountXimd, RejectsBadSizes)
{
    EXPECT_THROW(bitcountXimd(std::vector<Word>(3, 1)), FatalError);
    EXPECT_THROW(bitcountXimd(std::vector<Word>(9, 1)), FatalError);
}

TEST(BitcountVliwSerial, MatchesReference)
{
    const auto data = randomData(11, 0.3, 2); // any n works
    Machine m(bitcountVliwSerial(data), MachineConfig::vliw());
    ASSERT_TRUE(m.run().ok());
    checkCumulative(m, data);
}

TEST(BitcountVliwSerial, SingleElement)
{
    std::vector<Word> data = {0xDEADu};
    Machine m(bitcountVliwSerial(data), MachineConfig::vliw());
    ASSERT_TRUE(m.run().ok());
    checkCumulative(m, data);
}

TEST(BitcountVliwLockstep, MatchesReference)
{
    const auto data = randomData(16, 0.5, 3);
    Machine m(bitcountVliwLockstep(data), MachineConfig::vliw());
    ASSERT_TRUE(m.run().ok());
    checkCumulative(m, data);
}

TEST(BitcountVliwLockstep, SkewedGroup)
{
    // One long element per group forces the lockstep loop to run to
    // the group maximum.
    std::vector<Word> data = {0x80000u, 1, 0, 1, 1, 0, 0x80000u, 1};
    Machine m(bitcountVliwLockstep(data), MachineConfig::vliw());
    ASSERT_TRUE(m.run().ok());
    checkCumulative(m, data);
}

TEST(Bitcount, XimdBeatsSerialVliw)
{
    const auto data = randomData(32, 0.5, 4);
    Machine x(bitcountXimd(data));
    Machine v(bitcountVliwSerial(data), MachineConfig::vliw());
    ASSERT_TRUE(x.run().ok());
    ASSERT_TRUE(v.run().ok());
    // Four concurrent inner loops vs one: expect a substantial win.
    const double speedup = static_cast<double>(v.cycle()) /
                           static_cast<double>(x.cycle());
    EXPECT_GT(speedup, 2.0);
}

TEST(Bitcount, XimdBeatsLockstepVliw)
{
    const auto data = randomData(32, 0.5, 5);
    Machine x(bitcountXimd(data));
    Machine v(bitcountVliwLockstep(data), MachineConfig::vliw());
    ASSERT_TRUE(x.run().ok());
    ASSERT_TRUE(v.run().ok());
    EXPECT_LT(x.cycle(), v.cycle());
}

TEST(Bitcount, ReferencePaperVsCumulativeDiffer)
{
    // The as-printed listing resets its accumulator between groups of
    // four; the cumulative variant does not. Their outputs agree only
    // on the first group.
    std::vector<Word> data(12, 0x3);
    const auto paper = referenceBitcount1Paper(data);
    const auto cumulative = referenceBitcountCumulative(data);
    EXPECT_EQ(paper[4], cumulative[4]);
    EXPECT_NE(paper[5], cumulative[5]);
}

} // namespace
} // namespace ximd::workloads
