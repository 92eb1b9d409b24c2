/**
 * @file
 * The per-FU sequencer (Figure 8): evalDecodedControl selects a
 * parcel's next PC from condition codes and sync signals.
 */

#include "core/exec_backend.hh"

#include <gtest/gtest.h>

namespace ximd {
namespace {

class SequencerTest : public ::testing::Test
{
  protected:
    SequencerTest() : ccs(4), ss(4) { ss.beginCycle(); }

    /** Sequence a parcel carrying @p ctrl, decoded as the machine
     *  decodes it (row 0 of a one-row, 4-FU program). */
    NextPc eval(const ControlOp &ctrl) const
    {
        Program program(4);
        Parcel parcel;
        parcel.ctrl = ctrl;
        program.addUniformRow(parcel);
        const DecodedProgram decoded(program);
        return evalDecodedControl(decoded.at(0, 0), ccs, ss);
    }

    CondCodeFile ccs;
    SyncBus ss;
};

TEST_F(SequencerTest, UnconditionalTakesT1)
{
    const NextPc n = eval(ControlOp::jump(7));
    EXPECT_FALSE(n.halt);
    EXPECT_TRUE(n.taken);
    EXPECT_EQ(n.pc, 7u);
}

TEST_F(SequencerTest, HaltStopsFu)
{
    const NextPc n = eval(ControlOp::halt());
    EXPECT_TRUE(n.halt);
}

TEST_F(SequencerTest, CcTrueSelectsTargets)
{
    ccs.poke(2, true);
    NextPc n = eval(ControlOp::onCc(2, 8, 2));
    EXPECT_EQ(n.pc, 8u);
    EXPECT_TRUE(n.taken);

    ccs.poke(2, false);
    n = eval(ControlOp::onCc(2, 8, 2));
    EXPECT_EQ(n.pc, 2u);
    EXPECT_FALSE(n.taken);
}

TEST_F(SequencerTest, AnyFuMayTestAnyCc)
{
    // The condition-code selection hardware sees every CC register.
    ccs.poke(3, true);
    EXPECT_EQ(eval(ControlOp::onCc(3, 1, 0)).pc, 1u);
}

TEST_F(SequencerTest, SyncDoneCondition)
{
    ss.set(1, SyncVal::Busy);
    EXPECT_EQ(eval(ControlOp::onSync(1, 1, 0)).pc, 0u);
    ss.set(1, SyncVal::Done);
    EXPECT_EQ(eval(ControlOp::onSync(1, 1, 0)).pc, 1u);
}

TEST_F(SequencerTest, BarrierCondition)
{
    for (FuId fu = 0; fu < 4; ++fu)
        ss.set(fu, SyncVal::Busy);
    EXPECT_EQ(eval(ControlOp::onAllSync(1, 0)).pc, 0u);
    for (FuId fu = 0; fu < 4; ++fu)
        ss.set(fu, SyncVal::Done);
    EXPECT_EQ(eval(ControlOp::onAllSync(1, 0)).pc, 1u);
}

TEST_F(SequencerTest, MaskedBarrierIgnoresUnmasked)
{
    for (FuId fu = 0; fu < 4; ++fu)
        ss.set(fu, SyncVal::Busy);
    ss.set(0, SyncVal::Done);
    ss.set(2, SyncVal::Done);
    EXPECT_EQ(eval(ControlOp::onAllSync(1, 0, 0b0101)).pc, 1u);
    EXPECT_EQ(eval(ControlOp::onAllSync(1, 0, 0b0111)).pc, 0u);
}

TEST_F(SequencerTest, AnySyncCondition)
{
    for (FuId fu = 0; fu < 4; ++fu)
        ss.set(fu, SyncVal::Busy);
    EXPECT_EQ(eval(ControlOp::onAnySync(1, 0)).pc, 0u);
    ss.set(3, SyncVal::Done);
    EXPECT_EQ(eval(ControlOp::onAnySync(1, 0)).pc, 1u);
}

} // namespace
} // namespace ximd
