#include "asm/asm_writer.hh"

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "workloads/kernels.hh"
#include "workloads/loop12.hh"

namespace ximd {
namespace {

/** Grid + state equivalence, ignoring labelAt alias preference. */
void
expectEquivalent(const Program &a, const Program &b)
{
    ASSERT_EQ(a.width(), b.width());
    ASSERT_EQ(a.size(), b.size());
    for (InstAddr r = 0; r < a.size(); ++r)
        for (FuId fu = 0; fu < a.width(); ++fu)
            EXPECT_EQ(a.parcel(r, fu), b.parcel(r, fu))
                << "row " << r << " fu " << unsigned(fu);
    EXPECT_EQ(a.regInit(), b.regInit());
    EXPECT_EQ(a.memInit(), b.memInit());
    EXPECT_EQ(a.symbols(), b.symbols());
    EXPECT_EQ(a.labels(), b.labels());
    EXPECT_EQ(a.regNames(), b.regNames());
}

TEST(AsmWriter, RoundTripsMinmax)
{
    const Program p = workloads::minmaxPaper();
    expectEquivalent(p, assembleString(writeAssembly(p)));
}

TEST(AsmWriter, RoundTripsBitcountWithSyncFields)
{
    const Program p =
        workloads::bitcount1Paper(std::vector<Word>(12, 0xA5A5A5A5u));
    expectEquivalent(p, assembleString(writeAssembly(p)));
}

TEST(AsmWriter, RoundTripsFloatDataBitExactly)
{
    const Program p = workloads::loop12Pipelined(
        {0.5f, 1.25f, -3.75f, 2.0f, 0.125f, 9.5f});
    expectEquivalent(p, assembleString(writeAssembly(p)));
}

TEST(AsmWriter, SecondGenerationIsAFixpoint)
{
    const Program p = workloads::minmaxPaper();
    const std::string once = writeAssembly(p);
    const std::string twice = writeAssembly(assembleString(once));
    EXPECT_EQ(once, twice);
}

TEST(AsmWriter, WordLinePrintsRawWords)
{
    EXPECT_EQ(wordLine(64, std::vector<Word>{0, 4294967295u}),
              ".word 64 0 4294967295\n");
    EXPECT_EQ(wordLine(8, std::vector<SWord>{-1, 7}),
              ".word 8 4294967295 7\n");
    const std::vector<float> floats{1.5f, -0.0f};
    const Program p =
        assembleString(".fus 1\n" + wordLine(100, floats) + "halt\n");
    ASSERT_EQ(p.memInit().size(), 2u);
    EXPECT_EQ(p.memInit()[0].second, floatToWord(1.5f));
    EXPECT_EQ(p.memInit()[1].second, 0x80000000u);
}

TEST(AsmWriter, InitAcceptsNumericRegisterForm)
{
    const Program p = assembleString(".fus 1\n"
                                     ".init r7 42\n"
                                     "halt ; nop\n");
    ASSERT_EQ(p.regInit().size(), 1u);
    EXPECT_EQ(p.regInit()[0].first, 7);
    EXPECT_EQ(p.regInit()[0].second, 42u);
}

} // namespace
} // namespace ximd
