/**
 * @file
 * Property tests for the explicit synchronization mechanisms of
 * section 3.3: barrier join timing, masked (partial) barriers, and
 * ANY-sync wakeups.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/machine.hh"
#include "support/random.hh"

namespace ximd {
namespace {

/**
 * Build a program where FU i runs an independent loop of n_i
 * iterations (3 cycles each) and then enters an ALL barrier; after the
 * barrier every FU halts.
 *
 * Layout: 0: decrement, 1: compare, 2: loop branch, 3: barrier,
 * 4: halt.
 */
Program
barrierProgram(const std::vector<unsigned> &iters)
{
    const FuId width = static_cast<FuId>(iters.size());
    Program p(width);
    for (InstAddr r = 0; r < 5; ++r) {
        InstRow row;
        for (FuId fu = 0; fu < width; ++fu) {
            const RegId c = static_cast<RegId>(fu);
            Parcel parcel;
            switch (r) {
              case 0:
                parcel = Parcel(ControlOp::jump(1),
                                DataOp::make(Opcode::Isub,
                                             Operand::reg(c),
                                             Operand::immInt(1), c));
                break;
              case 1:
                parcel = Parcel(ControlOp::jump(2),
                                DataOp::makeCompare(
                                    Opcode::Eq, Operand::reg(c),
                                    Operand::immInt(0)));
                break;
              case 2:
                parcel = Parcel(ControlOp::onCc(fu, 3, 0),
                                DataOp::nop());
                break;
              case 3:
                parcel = Parcel(ControlOp::onAllSync(4, 3),
                                DataOp::nop(), SyncVal::Done);
                break;
              case 4:
                parcel = Parcel(ControlOp::halt(), DataOp::nop());
                break;
            }
            row.push_back(parcel);
        }
        p.addRow(std::move(row));
    }
    for (FuId fu = 0; fu < width; ++fu)
        p.addRegInit(static_cast<RegId>(fu), iters[fu]);
    p.validate();
    return p;
}

unsigned
maxIter(const std::vector<unsigned> &iters)
{
    unsigned m = 0;
    for (unsigned v : iters)
        m = std::max(m, v);
    return m;
}

class BarrierProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BarrierProperty, JoinCostsLongestThreadPlusConstant)
{
    Rng rng(GetParam());
    const FuId width = static_cast<FuId>(rng.range(2, 8));
    std::vector<unsigned> iters(width);
    for (auto &v : iters)
        v = static_cast<unsigned>(rng.range(1, 40));

    Machine m(barrierProgram(iters));
    const RunResult r = m.run(10000);
    ASSERT_TRUE(r.ok());
    // Each thread reaches the barrier after 3*n_i cycles; the join
    // fires in the cycle the slowest arrives (combinational SS), all
    // FUs halt together the next cycle.
    EXPECT_EQ(r.cycles, 3u * maxIter(iters) + 2u);
}

TEST_P(BarrierProperty, BusyWaitEqualsSlackSum)
{
    Rng rng(GetParam() ^ 0xABCDEFu);
    const FuId width = static_cast<FuId>(rng.range(2, 8));
    std::vector<unsigned> iters(width);
    for (auto &v : iters)
        v = static_cast<unsigned>(rng.range(1, 30));

    Machine m(barrierProgram(iters));
    ASSERT_TRUE(m.run(10000).ok());
    // FU i spins at the barrier for 3*(max-n_i) cycles.
    std::uint64_t slack = 0;
    for (unsigned v : iters)
        slack += 3 * (maxIter(iters) - v);
    EXPECT_EQ(m.stats().busyWaitCycles(), slack);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BarrierProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u, 9u, 10u));

TEST(MaskedBarrier, GroupsJoinIndependently)
{
    // FUs 0-1 barrier on mask {0,1}; FUs 2-3 on mask {2,3} after a
    // much longer loop. Group A must finish well before group B.
    Program p(4);
    const std::uint32_t maskA = 0b0011, maskB = 0b1100;
    for (InstAddr r = 0; r < 5; ++r) {
        InstRow row;
        for (FuId fu = 0; fu < 4; ++fu) {
            const RegId c = static_cast<RegId>(fu);
            const std::uint32_t mask = fu < 2 ? maskA : maskB;
            Parcel parcel;
            switch (r) {
              case 0:
                parcel = Parcel(ControlOp::jump(1),
                                DataOp::make(Opcode::Isub,
                                             Operand::reg(c),
                                             Operand::immInt(1), c));
                break;
              case 1:
                parcel = Parcel(ControlOp::jump(2),
                                DataOp::makeCompare(
                                    Opcode::Eq, Operand::reg(c),
                                    Operand::immInt(0)));
                break;
              case 2:
                parcel = Parcel(ControlOp::onCc(fu, 3, 0),
                                DataOp::nop());
                break;
              case 3:
                parcel = Parcel(ControlOp::onAllSync(4, 3, mask),
                                DataOp::nop(), SyncVal::Done);
                break;
              case 4:
                parcel = Parcel(ControlOp::halt(), DataOp::nop());
                break;
            }
            row.push_back(parcel);
        }
        p.addRow(std::move(row));
    }
    // Group A: 2 and 3 iterations; group B: 20 and 25.
    p.addRegInit(0, 2);
    p.addRegInit(1, 3);
    p.addRegInit(2, 20);
    p.addRegInit(3, 25);

    Machine m(p);
    std::vector<Cycle> haltCycle(4, 0);
    while (m.step()) {
        for (FuId fu = 0; fu < 4; ++fu)
            if (m.halted(fu) && haltCycle[fu] == 0)
                haltCycle[fu] = m.cycle();
    }
    ASSERT_TRUE(m.allHalted());
    // Group A joins at 3*3+2, long before group B at 3*25+2.
    EXPECT_EQ(haltCycle[0], 3u * 3u + 2u);
    EXPECT_EQ(haltCycle[1], 3u * 3u + 2u);
    EXPECT_EQ(haltCycle[2], 3u * 25u + 2u);
    EXPECT_EQ(haltCycle[3], 3u * 25u + 2u);
}

TEST(AnySync, WakesWaitersTheCycleTheFirstSignals)
{
    // FU0 loops 5 iterations then parks DONE; FUs 1-2 wait on ANY.
    Program p(3);
    for (InstAddr r = 0; r < 5; ++r) {
        InstRow row;
        for (FuId fu = 0; fu < 3; ++fu) {
            Parcel parcel;
            if (fu == 0) {
                switch (r) {
                  case 0:
                    parcel = Parcel(ControlOp::jump(1),
                                    DataOp::make(Opcode::Isub,
                                                 Operand::reg(0),
                                                 Operand::immInt(1),
                                                 0));
                    break;
                  case 1:
                    parcel = Parcel(ControlOp::jump(2),
                                    DataOp::makeCompare(
                                        Opcode::Eq, Operand::reg(0),
                                        Operand::immInt(0)));
                    break;
                  case 2:
                    parcel = Parcel(ControlOp::onCc(0, 3, 0),
                                    DataOp::nop());
                    break;
                  default:
                    parcel = Parcel(ControlOp::halt(), DataOp::nop(),
                                    SyncVal::Done);
                    break;
                }
            } else {
                // Waiters: ANY-sync over {0} — SyncDone would do, use
                // the AnySync kind to exercise it.
                if (r == 0)
                    parcel = Parcel(ControlOp::onAnySync(1, 0, 0b001),
                                    DataOp::nop());
                else
                    parcel = Parcel(ControlOp::halt(), DataOp::nop());
            }
            row.push_back(parcel);
        }
        p.addRow(std::move(row));
    }
    p.addRegInit(0, 5);

    Machine m(p);
    std::vector<Cycle> haltCycle(3, 0);
    while (m.step()) {
        for (FuId fu = 0; fu < 3; ++fu)
            if (m.halted(fu) && haltCycle[fu] == 0)
                haltCycle[fu] = m.cycle();
    }
    // FU0 reaches row 3 at cycle 15 and halts there emitting DONE; the
    // waiters see the signal combinationally in that same cycle 15,
    // branch, and halt one cycle after FU0 — both waiters together.
    ASSERT_TRUE(m.allHalted());
    EXPECT_EQ(haltCycle[1], haltCycle[0] + 1);
    EXPECT_EQ(haltCycle[2], haltCycle[0] + 1);
    EXPECT_EQ(haltCycle[0], 16u);
}

} // namespace
} // namespace ximd
