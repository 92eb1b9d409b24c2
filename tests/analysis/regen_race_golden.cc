/**
 * @file
 * Regenerate tests/analysis/golden/race_equivalence.golden.
 *
 * Run by hand only when the race engine's or the interval domain's
 * answers are *intentionally* changed; the committed golden otherwise
 * pins every ClassIntervalAnalysis query and RaceReport over the
 * corpus, so layout and worklist rewrites must stay answer-identical.
 */

#include <fstream>
#include <iostream>

#include "race_golden.hh"

int
main(int argc, char **argv)
{
    using namespace ximd::analysis;

    std::string path = std::string(XIMD_SOURCE_DIR) +
                       "/tests/analysis/golden/race_equivalence.golden";
    if (argc > 1)
        path = argv[1];

    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot open " << path << "\n";
        return 1;
    }
    for (const RaceGoldenCase &c : raceGoldenCases())
        out << serializeRaceCase(c);
    std::cout << "wrote " << path << "\n";
    return 0;
}
