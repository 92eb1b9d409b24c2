#include "workloads/nonblocking.hh"

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "support/logging.hh"

namespace ximd::workloads {
namespace {

struct Harness
{
    explicit Harness(Program prog,
                     std::vector<Cycle> arrivalsA = {0, 0, 0},
                     std::vector<Cycle> arrivalsB = {0, 0, 0})
        : machine(std::move(prog)), inA("INA"), inB("INB"),
          outA("OUTA"), outB("OUTB")
    {
        const Word a[3] = {11, 12, 13}; // a, b, c
        const Word x[3] = {21, 22, 23}; // x, y, z
        for (unsigned i = 0; i < 3; ++i) {
            inA.schedule(arrivalsA[i], a[i]);
            inB.schedule(arrivalsB[i], x[i]);
        }
        attach();
    }

    void
    attach()
    {
        const auto &p = machine.program();
        machine.attachDevice(p.symbolOrDie("INA"),
                             p.symbolOrDie("INA"), &inA);
        machine.attachDevice(p.symbolOrDie("INB"),
                             p.symbolOrDie("INB"), &inB);
        machine.attachDevice(p.symbolOrDie("OUTA"),
                             p.symbolOrDie("OUTA"), &outA);
        machine.attachDevice(p.symbolOrDie("OUTB"),
                             p.symbolOrDie("OUTB"), &outB);
    }

    std::vector<Word>
    written(const OutputPort &port) const
    {
        std::vector<Word> vals;
        for (const auto &rec : port.records())
            vals.push_back(rec.value);
        return vals;
    }

    Machine machine;
    ScriptedInputPort inA, inB;
    OutputPort outA, outB;
};

void
expectCorrectTransfer(Harness &h)
{
    ASSERT_TRUE(h.machine.run(100000).ok());
    EXPECT_EQ(h.written(h.outA), (std::vector<Word>{21, 22, 23}));
    EXPECT_EQ(h.written(h.outB), (std::vector<Word>{11, 12, 13}));
    EXPECT_TRUE(h.inA.drained());
    EXPECT_TRUE(h.inB.drained());
}

TEST(Nonblocking, TransfersAllValuesImmediateArrivals)
{
    Harness h(nonblockingXimd());
    expectCorrectTransfer(h);
}

TEST(Nonblocking, TransfersWithSkewedArrivals)
{
    Harness h(nonblockingXimd(), {5, 50, 55}, {40, 45, 90});
    expectCorrectTransfer(h);
}

TEST(Nonblocking, ProducerNotBlockedByConsumer)
{
    // a,b,c arrive early; x,y,z very late. P1 should finish all its
    // reads long before P2's data exists — the non-blocking property.
    Harness h(nonblockingXimd(), {0, 0, 0}, {200, 210, 220});
    ASSERT_TRUE(h.machine.run(100000).ok());
    // OUTB got a,b,c before x even arrived (FU7 waits only on SS0-2).
    ASSERT_EQ(h.outB.records().size(), 3u);
    EXPECT_LT(h.outB.records()[2].cycle, 200u);
}

TEST(Nonblocking, LatencyTracksSlowestChain)
{
    Harness fast(nonblockingXimd(), {0, 0, 0}, {0, 0, 0});
    ASSERT_TRUE(fast.machine.run(100000).ok());
    const Cycle base = fast.machine.cycle();

    Harness slow(nonblockingXimd(), {0, 0, 0}, {0, 0, 300});
    ASSERT_TRUE(slow.machine.run(100000).ok());
    // Finishing time is bounded by the late arrival plus a small
    // constant, not by the sum of arrivals.
    EXPECT_GT(slow.machine.cycle(), 300u);
    EXPECT_LT(slow.machine.cycle(), 300u + base + 10);
}

TEST(LockstepBarrier, TransfersAllValues)
{
    Harness h(lockstepBarrier());
    expectCorrectTransfer(h);
}

TEST(LockstepBarrier, TransfersWithSkewedArrivals)
{
    Harness h(lockstepBarrier(), {5, 50, 55}, {40, 45, 90});
    expectCorrectTransfer(h);
}

TEST(LockstepBarrier, SerializesStages)
{
    // b (stage 1) arrives at cycle 0 but cannot be consumed until the
    // stage-0 barrier passes, which waits for x at cycle 100.
    Harness h(lockstepBarrier(), {0, 0, 0}, {100, 100, 100});
    ASSERT_TRUE(h.machine.run(100000).ok());
    // All three x,y,z arrive at 100, so total only slightly above 100.
    EXPECT_GT(h.machine.cycle(), 100u);
    // But OUTB's first value is also delayed past 100 — the barrier
    // blocked it even though 'a' was ready at cycle 0.
    ASSERT_FALSE(h.outB.records().empty());
    EXPECT_GT(h.outB.records()[0].cycle, 100u);
}

TEST(MemoryFlag, TransfersAllValues)
{
    Harness h(memoryFlagXimd());
    expectCorrectTransfer(h);
}

TEST(MemoryFlag, TransfersWithSkewedArrivals)
{
    Harness h(memoryFlagXimd(), {5, 50, 55}, {40, 45, 90});
    expectCorrectTransfer(h);
}

TEST(MemoryFlag, SlowerThanSyncBits)
{
    // Same dataflow, same arrivals: the SS-bit version's 1-cycle tests
    // beat the 3-cycle memory-flag polls (the paper's section 3.4
    // claim).
    Harness ss(nonblockingXimd());
    Harness mf(memoryFlagXimd());
    ASSERT_TRUE(ss.machine.run(100000).ok());
    ASSERT_TRUE(mf.machine.run(100000).ok());
    EXPECT_LT(ss.machine.cycle(), mf.machine.cycle());
}

TEST(Nonblocking, UsesMultipleStreams)
{
    Harness h(nonblockingXimd(), {3, 9, 15}, {5, 11, 17});
    ASSERT_TRUE(h.machine.run(100000).ok());
    bool multi = false;
    for (const auto &[streams, cycles] :
         h.machine.stats().partitionHistogram())
        if (streams >= 4 && cycles > 0)
            multi = true;
    EXPECT_TRUE(multi);
}

} // namespace
} // namespace ximd::workloads
