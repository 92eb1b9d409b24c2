/**
 * @file
 * Answer-identity pin for the assembler and writer: every case of the
 * corpus in asm_golden.hh must serialize exactly as captured in
 * golden/asm_equivalence.golden — each program's grid, initializers,
 * symbol tables, row→line map and writer bytes, and each rejected
 * source's line and message.
 */

#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asm_golden.hh"

namespace ximd {
namespace {

TEST(AsmEquivalence, MatchesCapture)
{
    std::ifstream in(XIMD_SOURCE_DIR
                     "/tests/asm/golden/asm_equivalence.golden");
    ASSERT_TRUE(in) << "missing golden capture";
    std::vector<std::string> want;
    for (std::string line; std::getline(in, line);)
        want.push_back(line + "\n");

    const std::vector<AsmGoldenCase> cases = asmGoldenCases();
    ASSERT_EQ(cases.size(), want.size());
    for (std::size_t i = 0; i < cases.size(); ++i)
        EXPECT_EQ(serializeAsmCase(cases[i]), want[i])
            << cases[i].name
            << ": assembler answers drifted from the capture; if the "
               "change is intentional, rerun regen_asm_golden";
}

} // namespace
} // namespace ximd
