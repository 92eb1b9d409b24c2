#include "workloads/minmax.hh"

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "workloads/reference.hh"

namespace ximd::workloads {
namespace {

std::vector<SWord>
randomData(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<SWord> data(n);
    for (auto &v : data)
        v = static_cast<SWord>(rng.range(-1000, 1000));
    return data;
}

TEST(MinmaxVliw, MatchesReferenceOnSamples)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        const auto data = randomData(17, seed);
        Machine m(minmaxVliw(data), MachineConfig::vliw());
        ASSERT_TRUE(m.run().ok());
        const auto [lo, hi] = referenceMinmax(data);
        EXPECT_EQ(wordToInt(m.readRegByName("min")), lo);
        EXPECT_EQ(wordToInt(m.readRegByName("max")), hi);
    }
}

TEST(MinmaxVliw, SingleAndDoubleElement)
{
    for (const auto &data :
         {std::vector<SWord>{5}, std::vector<SWord>{5, -9},
          std::vector<SWord>{-9, 5}}) {
        Machine m(minmaxVliw(data), MachineConfig::vliw());
        ASSERT_TRUE(m.run().ok());
        const auto [lo, hi] = referenceMinmax(data);
        EXPECT_EQ(wordToInt(m.readRegByName("min")), lo);
        EXPECT_EQ(wordToInt(m.readRegByName("max")), hi);
    }
}

TEST(MinmaxXimd, BeatsVliwPerIteration)
{
    const auto data = randomData(256, 42);
    Machine x(minmaxXimd(data));
    Machine v(minmaxVliw(data), MachineConfig::vliw());
    ASSERT_TRUE(x.run().ok());
    ASSERT_TRUE(v.run().ok());
    // XIMD: 3 cycles/element; VLIW: 5 cycles/element (both + O(1)).
    const double speedup = static_cast<double>(v.cycle()) /
                           static_cast<double>(x.cycle());
    EXPECT_GT(speedup, 1.5);
    EXPECT_LT(speedup, 1.8);
}

class MultiSearchParam
    : public ::testing::TestWithParam<std::tuple<unsigned, int>>
{
};

TEST_P(MultiSearchParam, XimdMatchesReference)
{
    const auto [searches, n] = GetParam();
    Rng rng(searches * 100 + n);
    std::vector<SWord> data(n);
    for (auto &v : data)
        v = static_cast<SWord>(rng.range(0, 5000));

    Machine m(multiSearchXimd(searches, data));
    ASSERT_TRUE(m.run().ok());
    const auto expect = referenceMultiSearch(searches, data);
    for (unsigned s = 0; s < searches; ++s)
        EXPECT_EQ(m.readRegByName("c" + std::to_string(s)), expect[s])
            << "search " << s;
}

TEST_P(MultiSearchParam, VliwMatchesReference)
{
    const auto [searches, n] = GetParam();
    Rng rng(searches * 331 + n);
    std::vector<SWord> data(n);
    for (auto &v : data)
        v = static_cast<SWord>(rng.range(0, 5000));

    Machine m(multiSearchVliw(searches, data), MachineConfig::vliw());
    ASSERT_TRUE(m.run().ok());
    const auto expect = referenceMultiSearch(searches, data);
    for (unsigned s = 0; s < searches; ++s)
        EXPECT_EQ(m.readRegByName("c" + std::to_string(s)), expect[s])
            << "search " << s;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MultiSearchParam,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 6u),
                       ::testing::Values(1, 7, 64)));

TEST(MultiSearch, XimdIterationCostIndependentOfSearches)
{
    const auto data = randomData(100, 7);
    std::vector<SWord> nonneg;
    for (SWord v : data)
        nonneg.push_back(v < 0 ? -v : v);

    Machine m1(multiSearchXimd(1, nonneg));
    Machine m6(multiSearchXimd(6, nonneg));
    ASSERT_TRUE(m1.run().ok());
    ASSERT_TRUE(m6.run().ok());
    EXPECT_EQ(m1.cycle(), m6.cycle());
}

TEST(MultiSearch, VliwIterationCostGrowsWithSearches)
{
    const auto data = randomData(100, 8);
    std::vector<SWord> nonneg;
    for (SWord v : data)
        nonneg.push_back(v < 0 ? -v : v);

    Machine m1(multiSearchVliw(1, nonneg), MachineConfig::vliw());
    Machine m6(multiSearchVliw(6, nonneg), MachineConfig::vliw());
    ASSERT_TRUE(m1.run().ok());
    ASSERT_TRUE(m6.run().ok());
    // 2S+4 cycles per iteration: 6 vs 16.
    const double ratio = static_cast<double>(m6.cycle()) /
                         static_cast<double>(m1.cycle());
    EXPECT_GT(ratio, 2.3);
    EXPECT_LT(ratio, 2.9);
}

TEST(MultiSearch, ForkJoinVisibleInPartitionHistogram)
{
    std::vector<SWord> data = {6, 10, 15, 30, 7, 9};
    Machine m(multiSearchXimd(3, data));
    ASSERT_TRUE(m.run().ok());
    const auto &hist = m.stats().partitionHistogram();
    EXPECT_TRUE(hist.count(1));
    bool forked = false;
    for (const auto &[streams, cycles] : hist)
        if (streams >= 3)
            forked = true;
    EXPECT_TRUE(forked);
}

TEST(MultiSearch, ArgumentValidation)
{
    EXPECT_THROW(multiSearchXimd(0, {1}), FatalError);
    EXPECT_THROW(multiSearchXimd(7, {1}), FatalError);
    EXPECT_THROW(multiSearchXimd(2, {}), FatalError);
    EXPECT_THROW(multiSearchXimd(2, {-1}), FatalError);
    EXPECT_THROW(multiSearchVliw(0, {1}), FatalError);
}

} // namespace
} // namespace ximd::workloads
