#include "workloads/loop12.hh"

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "workloads/kernels.hh"
#include "workloads/reference.hh"

namespace ximd::workloads {
namespace {

std::vector<float>
randomY(std::size_t m, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> y(m);
    for (auto &v : y)
        v = static_cast<float>(rng.range(-64, 64)) * 0.25f;
    return y;
}

void
checkX(const Machine &machine, const std::vector<float> &y)
{
    const Word x0 = machine.program().symbolOrDie("X0");
    const auto expect = referenceLoop12(y);
    for (std::size_t k = 0; k < expect.size(); ++k)
        ASSERT_FLOAT_EQ(wordToFloat(machine.peekMem(x0 + 1 + k)),
                        expect[k])
            << "X(" << k + 1 << ")";
}

TEST(Loop12Pipelined, MatchesReference)
{
    const auto y = randomY(13, 1);
    Machine m(loop12Pipelined(y));
    ASSERT_TRUE(m.run().ok());
    checkX(m, y);
}

TEST(Loop12Pipelined, MinimumSize)
{
    const auto y = randomY(5, 2); // n = 4
    Machine m(loop12Pipelined(y));
    ASSERT_TRUE(m.run().ok());
    checkX(m, y);
}

TEST(Loop12Pipelined, RejectsTinyInputs)
{
    EXPECT_THROW(loop12Pipelined(std::vector<float>(4, 0.0f)),
                 FatalError);
}

TEST(Loop12Pipelined, InitiationIntervalIsOne)
{
    const auto y = randomY(101, 3); // n = 100
    Machine m(loop12Pipelined(y));
    ASSERT_TRUE(m.run().ok());
    // n + 2 pipeline cycles + 1 halt cycle.
    EXPECT_EQ(m.cycle(), 100u + 3u);
}

TEST(Loop12Pipelined, ThreeTimesFasterThanNaive)
{
    const auto y = randomY(201, 4); // n = 200
    Machine pipe(loop12Pipelined(y));
    Machine naive(loop12Naive(y, 8));
    ASSERT_TRUE(pipe.run().ok());
    ASSERT_TRUE(naive.run().ok());
    const double speedup = static_cast<double>(naive.cycle()) /
                           static_cast<double>(pipe.cycle());
    EXPECT_GT(speedup, 2.8);
    EXPECT_LT(speedup, 3.2);
}

TEST(Loop12Pipelined, IdenticalOnVliwAndXimd)
{
    // A software-pipelined loop is still one instruction stream: the
    // paper's "fully synchronous VLIW-style execution model".
    const auto y = randomY(33, 5);
    Machine x(loop12Pipelined(y));
    Machine v(loop12Pipelined(y), MachineConfig::vliw());
    ASSERT_EQ(v.mode(), Mode::Vliw);
    ASSERT_TRUE(x.run().ok());
    ASSERT_TRUE(v.run().ok());
    EXPECT_EQ(x.cycle(), v.cycle());
    checkX(x, y);
    checkX(v, y);
}

TEST(Loop12Pipelined, OneFlopPerCycleInSteadyState)
{
    const auto y = randomY(501, 6);
    Machine m(loop12Pipelined(y));
    ASSERT_TRUE(m.run().ok());
    const double flops_per_cycle =
        static_cast<double>(m.stats().flops()) /
        static_cast<double>(m.cycle());
    EXPECT_GT(flops_per_cycle, 0.95);
}

} // namespace
} // namespace ximd::workloads
