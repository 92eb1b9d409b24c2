#include "analysis/cfg.hh"

#include <gtest/gtest.h>

#include "analysis/lockstep.hh"
#include "asm/assembler.hh"

namespace ximd::analysis {
namespace {

/**
 * Two streams with different shapes over one grid: FU0 runs a
 * countdown loop (diamond back edge), FU1 goes straight to the
 * barrier row and halts.
 */
const char *kTwoStream = R"(
    .fus 2
    .reg c 0
    .init c 3
    top:  -> body ; nop              || -> join ; nop
    body: -> test ; isub c,#1,c      || halt ; nop
    test: -> br   ; eq c,#0          || halt ; nop
    br:   if cc0 join top ; nop      || halt ; nop
    join: halt ; store c,#32         || halt ; nop
)";

TEST(Cfg, SuccessorsFollowTwoTargetBranches)
{
    const Program p = assembleString(kTwoStream);
    const ProgramCfg cfg = buildCfg(p);
    ASSERT_EQ(cfg.streams.size(), 2u);

    const StreamCfg &s0 = cfg.streams[0];
    // Unconditional: one successor.
    ASSERT_EQ(s0.succs(0).size(), 1u);
    EXPECT_EQ(s0.succs(0)[0], 1u);
    // Conditional: both targets, t1=join(4), t2=top(0).
    ASSERT_EQ(s0.succs(3).size(), 2u);
    EXPECT_EQ(s0.succs(3)[0], 4u);
    EXPECT_EQ(s0.succs(3)[1], 0u);
    // Halt: no successors.
    EXPECT_TRUE(s0.succs(4).empty());
}

TEST(Cfg, PredecessorsMirrorSuccessors)
{
    const Program p = assembleString(kTwoStream);
    const ProgramCfg cfg = buildCfg(p);
    const StreamCfg &s0 = cfg.streams[0];

    // top (row 0) is entered from the back edge of br (row 3).
    ASSERT_EQ(s0.preds(0).size(), 1u);
    EXPECT_EQ(s0.preds(0)[0], 3u);
    // join (row 4) only from br.
    ASSERT_EQ(s0.preds(4).size(), 1u);
    EXPECT_EQ(s0.preds(4)[0], 3u);
}

TEST(Cfg, ColumnsWithIdenticalControlShareOneGraph)
{
    // FU0 and FU2 run the same loop; FU1's control differs only at
    // row 2, which none of the columns can reach.
    const Program p = assembleString(R"(
        .fus 3
        top:  -> b ; eq #0,#1 || -> b ; nop || -> b ; nop
        b:    if cc0 top o ; nop || if cc0 top o ; nop || if cc0 top o ; nop
        dead: halt ; nop || -> top ; nop || halt ; nop
        o:    halt ; nop || halt ; nop || halt ; nop
    )");
    const ProgramCfg cfg = buildCfg(p);
    ASSERT_EQ(cfg.streams.size(), 3u);
    EXPECT_TRUE(cfg.streams[0].sameGraph(cfg.streams[2]));
    EXPECT_FALSE(cfg.streams[0].sameGraph(cfg.streams[1]));
    for (FuId fu = 0; fu < 3; ++fu) {
        const StreamCfg &s = cfg.streams[fu];
        EXPECT_EQ(s.rows(), 4u);
        ASSERT_EQ(s.succs(1).size(), 2u) << fu;
        EXPECT_EQ(s.succs(1)[0], 0u);
        EXPECT_EQ(s.succs(1)[1], 3u);
        EXPECT_EQ(s.succs(2).size(), fu == 1 ? 1u : 0u);
        EXPECT_EQ(s.preds(0).size(), fu == 1 ? 2u : 1u);
        EXPECT_FALSE(s.isReachable(2)) << fu;
        EXPECT_TRUE(s.isReachable(3)) << fu;
    }
    // Lockstep equivalence reads only reachable rows: still one class.
    EXPECT_EQ(computeLockstepClasses(p, cfg).count(), 1u);
}

TEST(Cfg, ReachabilityIsPerColumn)
{
    const Program p = assembleString(kTwoStream);
    const ProgramCfg cfg = buildCfg(p);

    // FU0 walks every row.
    for (InstAddr r = 0; r < p.size(); ++r)
        EXPECT_TRUE(cfg.executable(r, 0)) << "row " << r;

    // FU1 jumps straight to join: the loop body is its dead zone.
    EXPECT_TRUE(cfg.executable(0, 1));
    EXPECT_FALSE(cfg.executable(1, 1));
    EXPECT_FALSE(cfg.executable(2, 1));
    EXPECT_FALSE(cfg.executable(3, 1));
    EXPECT_TRUE(cfg.executable(4, 1));

    // Out-of-range queries are simply not executable.
    EXPECT_FALSE(cfg.executable(99, 0));
    EXPECT_FALSE(cfg.executable(0, 7));
}

TEST(Cfg, BadBranchTargetIsDroppedAndDiagnosed)
{
    // The assembler refuses out-of-range targets, so build by hand.
    Program p(1);
    p.addRow(InstRow(1, Parcel(ControlOp::jump(17), DataOp::nop())));
    p.addRow(InstRow(1, Parcel(ControlOp::halt(), DataOp::nop())));

    const ProgramCfg cfg = buildCfg(p);
    EXPECT_TRUE(cfg.streams[0].succs(0).empty());

    DiagnosticList diags;
    checkCfg(p, cfg, diags);
    ASSERT_EQ(diags.errorCount(), 1u);
    EXPECT_EQ(diags.all()[0].check, Check::BadBranchTarget);
    EXPECT_EQ(diags.all()[0].row, 0u);
}

TEST(Cfg, UnreachableNontrivialParcelWarns)
{
    // Row 1 is skipped by FU0's jump but holds a real data op.
    Program p(1);
    p.addRow(InstRow(1, Parcel(ControlOp::jump(2), DataOp::nop())));
    p.addRow(InstRow(
        1, Parcel(ControlOp::halt(),
                  DataOp::make(Opcode::Iadd, Operand::immInt(1),
                               Operand::immInt(2), 0))));
    p.addRow(InstRow(1, Parcel(ControlOp::halt(), DataOp::nop())));

    const ProgramCfg cfg = buildCfg(p);
    DiagnosticList diags;
    checkCfg(p, cfg, diags);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags.all()[0].check, Check::UnreachableParcel);
    EXPECT_EQ(diags.all()[0].severity, Severity::Warning);
    EXPECT_EQ(diags.all()[0].row, 1u);
}

TEST(Cfg, UnreachableTrivialFillerIsSilent)
{
    // Composed programs pad with halt/nop filler; that is expected.
    Program p(1);
    p.addRow(InstRow(1, Parcel(ControlOp::jump(2), DataOp::nop())));
    p.addRow(InstRow(1, Parcel(ControlOp::halt(), DataOp::nop())));
    p.addRow(InstRow(1, Parcel(ControlOp::halt(), DataOp::nop())));

    const ProgramCfg cfg = buildCfg(p);
    DiagnosticList diags;
    checkCfg(p, cfg, diags);
    EXPECT_TRUE(diags.empty()) << diags.formatted(&p);
}

} // namespace
} // namespace ximd::analysis
