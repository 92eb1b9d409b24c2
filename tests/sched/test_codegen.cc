#include "sched/codegen.hh"

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "support/logging.hh"
#include "support/random.hh"


namespace ximd::sched {
namespace {

IrProgram
sumLoop(SWord n)
{
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
    b.emitStore(IrValue::reg(sum), IrValue::immInt(100));
    b.halt();
    return b.finish();
}

TEST(Codegen, SumLoopRunsOnBothMachines)
{
    IrProgram ir = sumLoop(10);
    CodegenResult code = valueOrFatal(generateCodeChecked(ir, {.width = 4}));

    Machine x(code.program);
    ASSERT_TRUE(x.run().ok());
    EXPECT_EQ(x.peekMem(100), 55u);

    Machine v(code.program, MachineConfig::vliw());
    ASSERT_TRUE(v.run().ok());
    EXPECT_EQ(v.peekMem(100), 55u);
    EXPECT_EQ(x.cycle(), v.cycle());
}

TEST(Codegen, BlockAddressesAndLabels)
{
    IrProgram ir = sumLoop(3);
    CodegenResult code = valueOrFatal(generateCodeChecked(ir, {.width = 4}));
    ASSERT_TRUE(code.blockAddr.count("loop"));
    ASSERT_TRUE(code.blockAddr.count("end"));
    EXPECT_EQ(code.blockAddr.at("loop"), 0u);
    EXPECT_EQ(code.program.label("end"),
              std::optional<InstAddr>(code.blockAddr.at("end")));
}

TEST(Codegen, RegBaseOffsetsAllRegisters)
{
    IrProgram ir = sumLoop(4);
    CodegenResult code = valueOrFatal(generateCodeChecked(ir, {.width = 2, .alloc = {.window = {.base = 50}}}));
    Machine m(code.program);
    ASSERT_TRUE(m.run().ok());
    // vreg 1 (sum) lives at r51.
    EXPECT_EQ(m.readReg(51), 10u);
    EXPECT_EQ(m.readRegByName("v1"), 10u);
    // Registers below the base untouched.
    for (RegId r = 0; r < 50; ++r)
        EXPECT_EQ(m.readReg(r), 0u);
}

TEST(Codegen, RegisterFileExhaustionCaught)
{
    IrBuilder b;
    b.startBlock("entry");
    for (int i = 0; i < 10; ++i)
        b.emit(Opcode::Iadd, IrValue::immInt(i), IrValue::immInt(1));
    b.halt();
    IrProgram ir = b.finish();
    EXPECT_THROW(valueOrFatal(generateCodeChecked(ir, {.width = 4, .alloc = {.window = {.base = 250}}})),
                 FatalError);
}

TEST(Codegen, WidthOneSerializes)
{
    IrBuilder b;
    b.startBlock("entry");
    IrValue x = b.emit(Opcode::Iadd, IrValue::immInt(1),
                       IrValue::immInt(2));
    IrValue y = b.emit(Opcode::Iadd, IrValue::immInt(3),
                       IrValue::immInt(4));
    IrValue z = b.emit(Opcode::Iadd, x, y);
    b.emitStore(z, IrValue::immInt(7));
    b.halt();
    IrProgram ir = b.finish();

    CodegenResult narrow = valueOrFatal(generateCodeChecked(ir, {.width = 1}));
    CodegenResult wide = valueOrFatal(generateCodeChecked(ir, {.width = 4}));
    EXPECT_GT(narrow.program.size(), wide.program.size());

    Machine m1(narrow.program);
    Machine m2(wide.program);
    ASSERT_TRUE(m1.run().ok());
    ASSERT_TRUE(m2.run().ok());
    EXPECT_EQ(m1.peekMem(7), 10u);
    EXPECT_EQ(m2.peekMem(7), 10u);
}

/** Random straight-line + diamond programs: simulator state must
 *  match the IR interpreter exactly. */
class CodegenProperty
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>>
{
};

TEST_P(CodegenProperty, SimulatorMatchesInterpreter)
{
    const auto [width, seed] = GetParam();
    Rng rng(seed);

    IrBuilder b;
    std::vector<IrValue> vals;
    auto randVal = [&]() {
        if (!vals.empty() && rng.chance(0.7))
            return vals[static_cast<std::size_t>(
                rng.range(0, static_cast<int>(vals.size()) - 1))];
        return IrValue::immInt(static_cast<SWord>(rng.range(-20, 20)));
    };
    static const Opcode kOps[] = {Opcode::Iadd, Opcode::Isub,
                                  Opcode::Imult, Opcode::And,
                                  Opcode::Or, Opcode::Xor};

    b.startBlock("entry");
    for (int i = 0; i < 12; ++i)
        vals.push_back(b.emit(kOps[rng.range(0, 5)], randVal(),
                              randVal()));
    const int cmp = b.emitCompare(
        rng.chance(0.5) ? Opcode::Lt : Opcode::Ge, randVal(),
        randVal());
    b.branch(cmp, "then", "else");

    b.startBlock("then");
    for (int i = 0; i < 4; ++i)
        vals.push_back(b.emit(kOps[rng.range(0, 5)], randVal(),
                              randVal()));
    b.emitStore(vals.back(), IrValue::immInt(200));
    b.jump("join");

    b.startBlock("else");
    b.emitStore(randVal(), IrValue::immInt(200));
    b.jump("join");

    b.startBlock("join");
    for (int i = 0; i < 3; ++i)
        vals.push_back(b.emit(kOps[rng.range(0, 5)], randVal(),
                              randVal()));
    b.emitStore(vals.back(), IrValue::immInt(201));
    b.halt();

    IrProgram ir = b.finish();

    // Oracle.
    std::vector<Word> refMem(1024, 0);
    const auto refVregs = interpretIr(ir, refMem);

    // Machine.
    CodegenResult code =
        valueOrFatal(generateCodeChecked(ir, {.width = static_cast<FuId>(width)}));
    MachineConfig cfg;
    cfg.memWords = 1024;
    Machine m(code.program, cfg);
    const RunResult r = m.run(100000);
    ASSERT_TRUE(r.ok()) << r.faultMessage;

    EXPECT_EQ(m.peekMem(200), refMem[200]);
    EXPECT_EQ(m.peekMem(201), refMem[201]);
    for (VregId v = 0; v < ir.numVregs; ++v)
        EXPECT_EQ(m.readReg(static_cast<RegId>(v)),
                  refVregs[static_cast<std::size_t>(v)])
            << "vreg " << v;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CodegenProperty,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(7u, 14u, 21u, 28u, 35u, 42u)));

} // namespace
} // namespace ximd::sched
