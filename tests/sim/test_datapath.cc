#include "sim/datapath.hh"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <tuple>

#include "support/logging.hh"

namespace ximd {
namespace {

/** Mock context over small register/memory maps. */
class MockContext : public ExecContext
{
  public:
    std::map<RegId, Word> regs;
    std::map<Addr, Word> mem;

    // Captured effects.
    bool wroteReg = false;
    RegId regDst = 0;
    Word regVal = 0;
    bool wroteCc = false;
    bool ccVal = false;
    bool stored = false;
    Addr storeAddr = 0;
    Word storeVal = 0;

    Word
    readOperand(const Operand &op) override
    {
        if (op.isImm())
            return op.immValue();
        return regs[op.regId()];
    }

    Word loadMem(Addr addr) override { return mem[addr]; }

    void
    storeMem(Addr addr, Word value) override
    {
        stored = true;
        storeAddr = addr;
        storeVal = value;
    }

    void
    writeReg(RegId reg, Word value) override
    {
        wroteReg = true;
        regDst = reg;
        regVal = value;
    }

    void
    writeCc(bool value) override
    {
        wroteCc = true;
        ccVal = value;
    }
};

SWord
runIntBinary(Opcode op, SWord a, SWord b)
{
    MockContext ctx;
    executeDataOp(DataOp::make(op, Operand::immInt(a),
                               Operand::immInt(b), 0),
                  ctx);
    EXPECT_TRUE(ctx.wroteReg);
    EXPECT_FALSE(ctx.wroteCc);
    return wordToInt(ctx.regVal);
}

bool
runIntCompare(Opcode op, SWord a, SWord b)
{
    MockContext ctx;
    executeDataOp(DataOp::makeCompare(op, Operand::immInt(a),
                                      Operand::immInt(b)),
                  ctx);
    EXPECT_TRUE(ctx.wroteCc);
    EXPECT_FALSE(ctx.wroteReg);
    return ctx.ccVal;
}

float
runFloatBinary(Opcode op, float a, float b)
{
    MockContext ctx;
    executeDataOp(DataOp::make(op, Operand::immFloat(a),
                               Operand::immFloat(b), 0),
                  ctx);
    EXPECT_TRUE(ctx.wroteReg);
    return wordToFloat(ctx.regVal);
}

TEST(Datapath, NopHasNoEffects)
{
    MockContext ctx;
    executeDataOp(DataOp::nop(), ctx);
    EXPECT_FALSE(ctx.wroteReg);
    EXPECT_FALSE(ctx.wroteCc);
    EXPECT_FALSE(ctx.stored);
}

TEST(Datapath, IntegerArithmetic)
{
    EXPECT_EQ(runIntBinary(Opcode::Iadd, 2, 3), 5);
    EXPECT_EQ(runIntBinary(Opcode::Isub, 2, 3), -1);
    EXPECT_EQ(runIntBinary(Opcode::Imult, -4, 6), -24);
    EXPECT_EQ(runIntBinary(Opcode::Idiv, 7, 2), 3);
    EXPECT_EQ(runIntBinary(Opcode::Idiv, -7, 2), -3); // truncating
    EXPECT_EQ(runIntBinary(Opcode::Imod, 7, 3), 1);
    EXPECT_EQ(runIntBinary(Opcode::Imod, -7, 3), -1);
}

TEST(Datapath, IntegerWraparound)
{
    const SWord maxv = std::numeric_limits<SWord>::max();
    EXPECT_EQ(runIntBinary(Opcode::Iadd, maxv, 1),
              std::numeric_limits<SWord>::min());
    EXPECT_EQ(runIntBinary(Opcode::Imult, 1 << 20, 1 << 20), 0);
}

TEST(Datapath, DivideByZeroFaults)
{
    EXPECT_THROW(runIntBinary(Opcode::Idiv, 1, 0), FatalError);
    EXPECT_THROW(runIntBinary(Opcode::Imod, 1, 0), FatalError);
}

TEST(Datapath, DivideOverflowWraps)
{
    const SWord minv = std::numeric_limits<SWord>::min();
    EXPECT_EQ(runIntBinary(Opcode::Idiv, minv, -1), minv);
    EXPECT_EQ(runIntBinary(Opcode::Imod, minv, -1), 0);
}

TEST(Datapath, Logic)
{
    EXPECT_EQ(runIntBinary(Opcode::And, 0b1100, 0b1010), 0b1000);
    EXPECT_EQ(runIntBinary(Opcode::Or, 0b1100, 0b1010), 0b1110);
    EXPECT_EQ(runIntBinary(Opcode::Xor, 0b1100, 0b1010), 0b0110);
}

TEST(Datapath, Shifts)
{
    EXPECT_EQ(runIntBinary(Opcode::Shl, 1, 4), 16);
    EXPECT_EQ(runIntBinary(Opcode::Shr, -1, 28), 15); // logical
    EXPECT_EQ(runIntBinary(Opcode::Sar, -16, 2), -4); // arithmetic
    EXPECT_EQ(runIntBinary(Opcode::Shl, 1, 33), 2);   // amount masked
}

TEST(Datapath, UnaryOps)
{
    MockContext ctx;
    executeDataOp(DataOp::makeUnary(Opcode::Ineg, Operand::immInt(5), 1),
                  ctx);
    EXPECT_EQ(wordToInt(ctx.regVal), -5);

    // Negation wraps: INT_MIN is its own negation.
    executeDataOp(
        DataOp::makeUnary(Opcode::Ineg,
                          Operand::immInt(std::numeric_limits<SWord>::min()),
                          1),
        ctx);
    EXPECT_EQ(ctx.regVal, 0x80000000u);

    executeDataOp(DataOp::makeUnary(Opcode::Not, Operand::imm(0), 1),
                  ctx);
    EXPECT_EQ(ctx.regVal, ~0u);

    ctx.regs[4] = 77;
    executeDataOp(DataOp::makeUnary(Opcode::Mov, Operand::reg(4), 1),
                  ctx);
    EXPECT_EQ(ctx.regVal, 77u);
}

TEST(Datapath, IntCompares)
{
    EXPECT_TRUE(runIntCompare(Opcode::Eq, 3, 3));
    EXPECT_FALSE(runIntCompare(Opcode::Eq, 3, 4));
    EXPECT_TRUE(runIntCompare(Opcode::Ne, 3, 4));
    EXPECT_TRUE(runIntCompare(Opcode::Lt, -1, 0)); // signed
    EXPECT_FALSE(runIntCompare(Opcode::Lt, 0, -1));
    EXPECT_TRUE(runIntCompare(Opcode::Le, 3, 3));
    EXPECT_TRUE(runIntCompare(Opcode::Gt, 7, 5));
    EXPECT_TRUE(runIntCompare(Opcode::Ge, 5, 5));
}

TEST(Datapath, FloatArithmetic)
{
    EXPECT_FLOAT_EQ(runFloatBinary(Opcode::Fadd, 1.5f, 2.25f), 3.75f);
    EXPECT_FLOAT_EQ(runFloatBinary(Opcode::Fsub, 1.0f, 0.5f), 0.5f);
    EXPECT_FLOAT_EQ(runFloatBinary(Opcode::Fmult, 3.0f, -2.0f), -6.0f);
    EXPECT_FLOAT_EQ(runFloatBinary(Opcode::Fdiv, 1.0f, 4.0f), 0.25f);
}

TEST(Datapath, FloatCompares)
{
    MockContext ctx;
    executeDataOp(DataOp::makeCompare(Opcode::Flt,
                                      Operand::immFloat(1.0f),
                                      Operand::immFloat(2.0f)),
                  ctx);
    EXPECT_TRUE(ctx.ccVal);
    executeDataOp(DataOp::makeCompare(Opcode::Fge,
                                      Operand::immFloat(1.0f),
                                      Operand::immFloat(2.0f)),
                  ctx);
    EXPECT_FALSE(ctx.ccVal);
}

TEST(Datapath, Conversions)
{
    MockContext ctx;
    executeDataOp(DataOp::makeUnary(Opcode::Itof, Operand::immInt(-3),
                                    0),
                  ctx);
    EXPECT_FLOAT_EQ(wordToFloat(ctx.regVal), -3.0f);
    executeDataOp(DataOp::makeUnary(Opcode::Itof,
                                    Operand::immInt(
                                        std::numeric_limits<SWord>::min()),
                                    0),
                  ctx);
    EXPECT_EQ(wordToFloat(ctx.regVal), -2147483648.0f);

    const auto ftoi = [](float f) {
        MockContext c;
        executeDataOp(DataOp::makeUnary(Opcode::Ftoi,
                                        Operand::imm(floatToWord(f)), 0),
                      c);
        return c.regVal;
    };
    EXPECT_EQ(wordToInt(ftoi(2.9f)), 2);   // truncation
    EXPECT_EQ(wordToInt(ftoi(-2.9f)), -2); // toward zero
    // The largest float below 2^31, and -2^31 itself, are in range.
    EXPECT_EQ(ftoi(2147483520.0f), 2147483520u);
    EXPECT_EQ(ftoi(-2147483648.0f), 0x80000000u);
    // NaN, the infinities and anything outside [-2^31, 2^31) give
    // 0x80000000, as x86-64's cvttss2si does.
    constexpr float kInf = std::numeric_limits<float>::infinity();
    for (float f : {std::numeric_limits<float>::quiet_NaN(), kInf, -kInf,
                    3e9f, -3e9f, 2147483648.0f})
        EXPECT_EQ(ftoi(f), 0x80000000u) << f;
}

TEST(Datapath, LoadComputesAplusB)
{
    MockContext ctx;
    ctx.regs[1] = 3;
    ctx.mem[67] = 1234;
    executeDataOp(DataOp::makeLoad(Operand::immInt(64), Operand::reg(1),
                                   9),
                  ctx);
    EXPECT_TRUE(ctx.wroteReg);
    EXPECT_EQ(ctx.regDst, 9);
    EXPECT_EQ(ctx.regVal, 1234u);
}

TEST(Datapath, StoreRoutesValueToAddress)
{
    MockContext ctx;
    ctx.regs[2] = 55;
    executeDataOp(DataOp::makeStore(Operand::reg(2),
                                    Operand::immInt(101)),
                  ctx);
    EXPECT_TRUE(ctx.stored);
    EXPECT_EQ(ctx.storeAddr, 101u);
    EXPECT_EQ(ctx.storeVal, 55u);
    EXPECT_FALSE(ctx.wroteReg);
}

/** Property sweep: opcode semantics against a C++ oracle. */
using IntCase = std::tuple<Opcode, SWord, SWord>;

class IntBinaryProperty : public ::testing::TestWithParam<IntCase>
{
};

TEST_P(IntBinaryProperty, MatchesOracle)
{
    const auto [op, a, b] = GetParam();
    std::int64_t expect64 = 0;
    switch (op) {
      case Opcode::Iadd: expect64 = std::int64_t(a) + b; break;
      case Opcode::Isub: expect64 = std::int64_t(a) - b; break;
      case Opcode::Imult: expect64 = std::int64_t(a) * b; break;
      case Opcode::And: expect64 = wordToInt(intToWord(a) &
                                             intToWord(b)); break;
      case Opcode::Or: expect64 = wordToInt(intToWord(a) |
                                            intToWord(b)); break;
      case Opcode::Xor: expect64 = wordToInt(intToWord(a) ^
                                             intToWord(b)); break;
      default: FAIL();
    }
    const SWord expect =
        wordToInt(static_cast<Word>(static_cast<std::uint64_t>(expect64)));
    EXPECT_EQ(runIntBinary(op, a, b), expect);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IntBinaryProperty,
    ::testing::Combine(
        ::testing::Values(Opcode::Iadd, Opcode::Isub, Opcode::Imult,
                          Opcode::And, Opcode::Or, Opcode::Xor),
        ::testing::Values(SWord(0), SWord(1), SWord(-1), SWord(12345),
                          std::numeric_limits<SWord>::max(),
                          std::numeric_limits<SWord>::min()),
        ::testing::Values(SWord(0), SWord(1), SWord(-1), SWord(-987),
                          std::numeric_limits<SWord>::max())));

} // namespace
} // namespace ximd
