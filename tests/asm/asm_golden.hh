/**
 * @file
 * Shared fixture for the assembler equivalence golden.
 *
 * asmGoldenCases() enumerates a deterministic corpus: ~300
 * hand-picked literal, directive and layout corners, every shipped
 * .ximd example, the built-in suite at three sizes and two seeds (each
 * program built through its workload generator), random lockstep
 * sources, random loops compiled and written back to text, and a
 * thousand seeded mutants of those texts (a token deleted, duplicated
 * or swapped, a line truncated, a digit flipped, or "||", ";" or ":"
 * injected). serializeAsmCase() renders one line per case: for a
 * program, digests of its parcel grid, initializers, symbol tables,
 * row→line map and writeAssembly() bytes; for a rejected source, the
 * diagnostic's line and raw message. The regen tool committed that
 * text as golden/asm_equivalence.golden; the equivalence test
 * recomputes it, so a parser or writer rewrite that changes any
 * answer, or any error, is caught.
 */

#ifndef XIMD_TESTS_ASM_ASM_GOLDEN_HH
#define XIMD_TESTS_ASM_ASM_GOLDEN_HH

#include <optional>
#include <string>
#include <vector>

#include "isa/program.hh"

namespace ximd {

/** One corpus entry and its stable name. */
struct AsmGoldenCase
{
    std::string name;
    std::string source;             ///< Assembled when !program.
    std::optional<Program> program; ///< Built through a generator.
};

/** The full corpus (stable order and content). */
std::vector<AsmGoldenCase> asmGoldenCases();

/**
 * "name ok rows=R grid=… init=… names=… lines=… text=…" for a
 * program, "name err line=L msg" for a rejected source.
 */
std::string serializeAsmCase(const AsmGoldenCase &c);

} // namespace ximd

#endif // XIMD_TESTS_ASM_ASM_GOLDEN_HH
