#include "sched/ir.hh"

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "sched/codegen.hh"
#include "support/logging.hh"


namespace ximd::sched {
namespace {

IrProgram
sumLoop(SWord n)
{
    // sum = 1 + 2 + ... + n
    IrBuilder b;
    const VregId i = b.newVreg();
    const VregId sum = b.newVreg();
    b.setInit(i, 0);
    b.setInit(sum, 0);
    b.startBlock("loop");
    b.emitTo(i, Opcode::Iadd, IrValue::reg(i), IrValue::immInt(1));
    b.emitTo(sum, Opcode::Iadd, IrValue::reg(sum), IrValue::reg(i));
    const int cmp =
        b.emitCompare(Opcode::Eq, IrValue::reg(i), IrValue::immInt(n));
    b.branch(cmp, "end", "loop");
    b.startBlock("end");
    b.halt();
    return b.finish();
}

TEST(Ir, BuilderProducesValidProgram)
{
    IrProgram p = sumLoop(5);
    EXPECT_EQ(p.blocks.size(), 2u);
    EXPECT_EQ(p.numVregs, 2);
    EXPECT_TRUE(p.validateChecked().hasValue());
    EXPECT_NE(p.findBlock("loop"), nullptr);
    EXPECT_EQ(p.findBlock("nope"), nullptr);
}

TEST(Ir, InterpreterComputesSum)
{
    IrProgram p = sumLoop(10);
    std::vector<Word> mem(64, 0);
    const auto vregs = interpretIr(p, mem);
    EXPECT_EQ(vregs[1], 55u);
}

TEST(Ir, InterpreterMemoryOps)
{
    IrBuilder b;
    b.startBlock("entry");
    const IrValue v = b.emitLoad(IrValue::immInt(10), IrValue::immInt(0));
    const IrValue w =
        b.emit(Opcode::Imult, v, IrValue::immInt(3));
    b.emitStore(w, IrValue::immInt(11));
    b.halt();
    IrProgram p = b.finish();

    std::vector<Word> mem(64, 0);
    mem[10] = 7;
    interpretIr(p, mem);
    EXPECT_EQ(mem[11], 21u);
}

TEST(Ir, InterpreterFloatAgreesWithDatapath)
{
    IrBuilder b;
    b.startBlock("entry");
    const IrValue x = b.emit(Opcode::Fadd, IrValue::immFloat(1.5f),
                             IrValue::immFloat(2.25f));
    const IrValue y = b.emit(Opcode::Fmult, x, IrValue::immFloat(2.0f));
    b.emitStore(y, IrValue::immInt(5));
    b.halt();
    IrProgram p = b.finish();

    std::vector<Word> mem(16, 0);
    interpretIr(p, mem);
    EXPECT_FLOAT_EQ(wordToFloat(mem[5]), 7.5f);
}

TEST(Ir, ValidateRejectsUnknownBranchTarget)
{
    IrBuilder b;
    b.startBlock("entry");
    b.jump("missing");
    EXPECT_THROW(b.finish(), FatalError);
}

TEST(Ir, ValidateRejectsNonCompareCondition)
{
    IrProgram p;
    p.numVregs = 1;
    IrBlock blk;
    blk.name = "a";
    IrOp add;
    add.op = Opcode::Iadd;
    add.a = IrValue::immInt(1);
    add.b = IrValue::immInt(2);
    add.dest = 0;
    blk.ops.push_back(add);
    blk.term.kind = Terminator::Kind::CondBranch;
    blk.term.compareIdx = 0; // not a compare
    blk.term.taken = "a";
    blk.term.fallthrough = "a";
    p.blocks.push_back(blk);
    EXPECT_FALSE(p.validateChecked().hasValue());
}

TEST(Ir, ValidateRejectsDuplicateBlocks)
{
    IrBuilder b;
    b.startBlock("x");
    b.halt();
    b.startBlock("x"); // same name again
    b.halt();
    EXPECT_THROW(b.finish(), FatalError);
}

TEST(Ir, UnterminatedBlockRejected)
{
    IrBuilder b;
    b.startBlock("y");
    EXPECT_THROW(b.finish(), FatalError);
    IrBuilder b2;
    b2.startBlock("a");
    EXPECT_THROW(b2.startBlock("b"), FatalError);
}

TEST(Ir, InterpreterStepBudget)
{
    IrBuilder b;
    b.startBlock("spin");
    b.emit(Opcode::Iadd, IrValue::immInt(0), IrValue::immInt(0));
    b.jump("spin");
    IrProgram p = b.finish();
    std::vector<Word> mem(8, 0);
    EXPECT_THROW(interpretIr(p, mem, 1000), FatalError);
}

TEST(Ir, VregInitApplied)
{
    IrBuilder b;
    const VregId v = b.newVreg();
    b.setInit(v, 42);
    b.startBlock("entry");
    b.emitStore(IrValue::reg(v), IrValue::immInt(0));
    b.halt();
    IrProgram p = b.finish();
    std::vector<Word> mem(8, 0);
    interpretIr(p, mem);
    EXPECT_EQ(mem[0], 42u);
}

TEST(Ir, MergeStraightLineChains)
{
    // entry -> a -> b (all single-pred jumps): collapses to one block.
    IrBuilder b;
    b.startBlock("entry");
    IrValue x = b.emit(Opcode::Iadd, IrValue::immInt(1),
                       IrValue::immInt(2));
    b.jump("a");
    b.startBlock("a");
    IrValue y = b.emit(Opcode::Imult, x, IrValue::immInt(3));
    b.jump("b");
    b.startBlock("b");
    b.emitStore(y, IrValue::immInt(50));
    b.halt();
    IrProgram ir = b.finish();

    IrProgram merged = mergeStraightLineBlocks(ir);
    ASSERT_EQ(merged.blocks.size(), 1u);
    EXPECT_EQ(merged.blocks[0].ops.size(), 3u);
    EXPECT_EQ(merged.blocks[0].term.kind, Terminator::Kind::Halt);

    // Semantics preserved.
    std::vector<Word> m1(64, 0), m2(64, 0);
    interpretIr(ir, m1);
    interpretIr(merged, m2);
    EXPECT_EQ(m1[50], m2[50]);
    EXPECT_EQ(m1[50], 9u);
}

TEST(Ir, MergePreservesBranchCompareIndex)
{
    // entry (2 ops) -> body whose terminator branches on its own
    // compare: after the merge the compareIdx must shift by 2.
    IrBuilder b;
    b.startBlock("entry");
    b.emit(Opcode::Iadd, IrValue::immInt(1), IrValue::immInt(1));
    b.emit(Opcode::Iadd, IrValue::immInt(2), IrValue::immInt(2));
    b.jump("body");
    b.startBlock("body");
    const int cmp = b.emitCompare(Opcode::Lt, IrValue::immInt(1),
                                  IrValue::immInt(2));
    b.branch(cmp, "t", "f");
    b.startBlock("t");
    b.emitStore(IrValue::immInt(7), IrValue::immInt(40));
    b.halt();
    b.startBlock("f");
    b.emitStore(IrValue::immInt(8), IrValue::immInt(40));
    b.halt();
    IrProgram merged = mergeStraightLineBlocks(b.finish());

    EXPECT_EQ(merged.blocks.size(), 3u); // entry+body merged; t, f
    EXPECT_EQ(merged.blocks[0].term.compareIdx, 2);
    std::vector<Word> mem(64, 0);
    interpretIr(merged, mem);
    EXPECT_EQ(mem[40], 7u);
}

TEST(Ir, MergeKeepsLoopsIntact)
{
    // A loop header targeted by a backedge has two predecessors and
    // must not be merged away.
    IrBuilder b;
    const VregId i = b.newVreg();
    b.setInit(i, 0);
    b.startBlock("entry");
    b.jump("loop");
    b.startBlock("loop");
    b.emitTo(i, Opcode::Iadd, IrValue::reg(i), IrValue::immInt(1));
    const int cmp = b.emitCompare(Opcode::Eq, IrValue::reg(i),
                                  IrValue::immInt(5));
    b.branch(cmp, "end", "loop");
    b.startBlock("end");
    b.emitStore(IrValue::reg(i), IrValue::immInt(30));
    b.halt();
    IrProgram merged = mergeStraightLineBlocks(b.finish());

    // "loop" has predecessors entry and itself: survives. "end" is
    // single-pred but reached by a CondBranch, not a Jump: survives.
    EXPECT_EQ(merged.blocks.size(), 3u);
    std::vector<Word> mem(64, 0);
    interpretIr(merged, mem);
    EXPECT_EQ(mem[30], 5u);
}

TEST(Ir, MergeShrinksSchedules)
{
    // Chained blocks each pay scheduling overhead; merging lets the
    // list scheduler pack across the old boundaries.
    IrBuilder b;
    b.startBlock("e");
    std::vector<IrValue> vals;
    vals.push_back(b.emit(Opcode::Iadd, IrValue::immInt(1),
                          IrValue::immInt(2)));
    b.jump("m1");
    b.startBlock("m1");
    vals.push_back(b.emit(Opcode::Iadd, IrValue::immInt(3),
                          IrValue::immInt(4)));
    b.jump("m2");
    b.startBlock("m2");
    vals.push_back(b.emit(Opcode::Iadd, IrValue::immInt(5),
                          IrValue::immInt(6)));
    b.emitStore(vals[0], IrValue::immInt(41));
    b.emitStore(vals[1], IrValue::immInt(42));
    b.emitStore(vals[2], IrValue::immInt(43));
    b.halt();
    IrProgram ir = b.finish();
    IrProgram merged = mergeStraightLineBlocks(ir);

    const auto before = valueOrFatal(generateCodeChecked(ir, {.width = 8}));
    const auto after = valueOrFatal(generateCodeChecked(merged, {.width = 8}));
    EXPECT_LT(after.program.size(), before.program.size());

    Machine m(after.program);
    ASSERT_TRUE(m.run(1000).ok());
    EXPECT_EQ(m.peekMem(41), 3u);
    EXPECT_EQ(m.peekMem(42), 7u);
    EXPECT_EQ(m.peekMem(43), 11u);
}

TEST(Ir, MemInitApplied)
{
    IrBuilder b;
    b.startBlock("entry");
    const IrValue v =
        b.emitLoad(IrValue::immInt(3), IrValue::immInt(0));
    b.emitStore(v, IrValue::immInt(4));
    b.halt();
    b.setMemInit(3, 99);
    IrProgram p = b.finish();
    std::vector<Word> mem(8, 0);
    interpretIr(p, mem);
    EXPECT_EQ(mem[4], 99u);
}

} // namespace
} // namespace ximd::sched
