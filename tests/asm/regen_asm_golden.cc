/**
 * @file
 * Regenerate tests/asm/golden/asm_equivalence.golden.
 *
 * Run by hand only when the assembler's or the writer's answers are
 * *intentionally* changed; the committed golden otherwise pins every
 * assembled program, every writeAssembly() rendering and every
 * rejection (line and message) over the corpus, so parser and writer
 * rewrites must stay answer-identical.
 */

#include <fstream>
#include <iostream>

#include "asm_golden.hh"

int
main(int argc, char **argv)
{
    using namespace ximd;

    std::string path = std::string(XIMD_SOURCE_DIR) +
                       "/tests/asm/golden/asm_equivalence.golden";
    if (argc > 1)
        path = argv[1];

    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot open " << path << "\n";
        return 1;
    }
    for (const AsmGoldenCase &c : asmGoldenCases())
        out << serializeAsmCase(c);
    std::cout << "wrote " << path << "\n";
    return 0;
}
