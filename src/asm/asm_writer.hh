/**
 * @file
 * Assembly writer: renders a Program back into the assembler's source
 * notation (assembler.hh), such that re-assembling the text rebuilds
 * an equivalent program.
 *
 * This is the inverse the compiler driver (xcc) needs: scheduler-
 * emitted Programs become `.ximd` files that xsim/vsim/ximd-lint can
 * consume without any C++ glue, and golden tests can diff compiler
 * output as stable text instead of binary dumps.
 *
 * Round-trip guarantee (tested in tests/asm/test_asm_writer.cc):
 * `assembleString(writeAssembly(p))` reproduces p's parcel grid,
 * register/memory initializers, named constants, register names and
 * row labels. Immediates are written as raw integers (floats by bit
 * pattern), so the round trip is bit-exact. Where one row carries
 * several labels, each is emitted; the label↔address maps survive,
 * though labelAt() may prefer a different one of the aliases.
 */

#ifndef XIMD_ASM_ASM_WRITER_HH
#define XIMD_ASM_ASM_WRITER_HH

#include <span>
#include <string>

#include "isa/program.hh"

namespace ximd {

/** Render @p prog as assembler source text. */
std::string writeAssembly(const Program &prog);

/**
 * One `.word ADDR V0 V1 ...` line, newline included. Values print as
 * raw unsigned words, signed data as two's complement and float data
 * by bit pattern, so assembling the line rebuilds them bit-exactly.
 * writeAssembly() prints its memory image through the same formatter.
 */
std::string wordLine(Addr addr, std::span<const Word> values);
std::string wordLine(Addr addr, std::span<const SWord> values);
std::string wordLine(Addr addr, std::span<const float> values);

} // namespace ximd

#endif // XIMD_ASM_ASM_WRITER_HH
