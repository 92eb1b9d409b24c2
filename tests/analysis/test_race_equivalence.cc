/**
 * @file
 * Answer-identity pin for the race engine: every case of the corpus
 * in race_golden.hh must serialize exactly as captured in
 * golden/race_equivalence.golden — every interval query of every
 * lockstep class and every RaceReport field.
 */

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "race_golden.hh"

namespace ximd::analysis {
namespace {

/** Split a capture into its "== name ==" blocks, in order. */
std::vector<std::string>
splitCases(const std::string &text)
{
    std::vector<std::string> blocks;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("== ", 0) == 0 || blocks.empty())
            blocks.emplace_back();
        blocks.back() += line + "\n";
    }
    return blocks;
}

TEST(RaceEquivalence, MatchesCapture)
{
    std::ifstream in(XIMD_SOURCE_DIR
                     "/tests/analysis/golden/race_equivalence.golden");
    ASSERT_TRUE(in) << "missing golden capture";
    std::ostringstream text;
    text << in.rdbuf();
    const std::vector<std::string> want = splitCases(text.str());

    const std::vector<RaceGoldenCase> cases = raceGoldenCases();
    ASSERT_EQ(cases.size(), want.size());
    for (std::size_t i = 0; i < cases.size(); ++i)
        EXPECT_EQ(serializeRaceCase(cases[i]), want[i])
            << cases[i].name
            << ": race-engine answers drifted from the capture; if the "
               "change is intentional, rerun regen_race_golden";
}

} // namespace
} // namespace ximd::analysis
