/**
 * @file
 * Assembler for XIMD programs in the paper's listing notation.
 *
 * The source format mirrors Figure 9 ("Example Code Format"): each
 * instruction-memory address holds one parcel per FU; a parcel is a
 * control operation, a data operation and a sync field.
 *
 * Grammar (line oriented; `//` starts a comment):
 *
 *   .fus N                    number of functional units (before rows)
 *   .reg NAME [INDEX]         bind a symbolic register (auto index if
 *                             omitted); NAME must not look like rN
 *   .const NAME VALUE         named integer constant
 *   .word ADDR V0 V1 ...      initial memory words at ADDR
 *   .float ADDR F0 F1 ...     initial memory floats at ADDR
 *   .init NAME VALUE          initial integer value of register NAME
 *                             (NAME may be the rN numeric form)
 *   .initf NAME VALUE         initial float value of register NAME
 *   LABEL:                    label the next instruction row
 *   P0 || P1 || ... || Pn-1   one instruction row, one parcel per FU
 *
 * Parcel P: `CTRL ; DATA ; SYNC` — all three fields optional:
 *
 *   CTRL:  -> TARGET
 *          if ccK T1 T2
 *          if ssK T1 T2
 *          if all T1 T2         (barrier over every FU)
 *          if all(0,2,5) T1 T2  (masked barrier, paper section 3.3)
 *          if any T1 T2
 *          if any(0,2,5) T1 T2
 *          halt
 *          (empty: falls through as `-> <next row>`)
 *   DATA:  MNEMONIC OP,OP[,OP]  — registers by name or rN; immediates
 *          as #INT, #0xHEX, #FLOAT (contains '.'), or #CONSTNAME;
 *          builtins #maxint and #minint. (empty: nop)
 *   SYNC:  busy | done          (empty: busy)
 *
 * TARGET is a label or an absolute row number.
 *
 * Literals: an integer is whatever strtoll(text, &end, 0) consumes in
 * full (leading whitespace, a sign, 0x hex, 0-led octal, decimal) and
 * must fit in 32 bits signed or unsigned; a float (`.float`, `.initf`,
 * a '#' immediate containing '.') is whatever strtof consumes in full.
 * Mnemonics, branch conditions and sync fields fold case; directives,
 * names and labels do not.
 *
 * The assembler works in three stages over views of the source, with
 * no per-line copies: statements (directives, labels, and rows cut
 * into parcels and `ctrl ; data ; sync` fields), then the symbol table
 * (directives run and labels bind in line order), then encoding (rows
 * become parcels). The first error stops it with an AsmError carrying
 * the source line and the undecorated message.
 */

#ifndef XIMD_ASM_ASSEMBLER_HH
#define XIMD_ASM_ASSEMBLER_HH

#include <string>
#include <string_view>
#include <utility>

#include "analysis/diagnostics.hh"
#include "isa/program.hh"
#include "support/logging.hh"
#include "support/result.hh"

namespace ximd {

/**
 * Assembly rejection. Subclasses FatalError so existing catch sites
 * keep working and what() keeps its historical shape
 * ("fatal: asm line N: msg"), but additionally carries the source line
 * and the undecorated message for structured reporting.
 */
class AsmError : public FatalError
{
  public:
    AsmError(int line, std::string raw)
        : FatalError(cat("fatal: asm line ", line, ": ", raw)),
          line_(line),
          raw_(std::move(raw))
    {
    }

    /** 1-based source line of the offending construct. */
    int line() const { return line_; }

    /** The message without the "fatal: asm line N:" decoration. */
    const std::string &rawMessage() const { return raw_; }

  private:
    int line_;
    std::string raw_;
};

/** Assemble XIMD assembly text into a validated Program. */
Program assembleString(std::string_view source);

/** Assemble the file at @p path. */
Program assembleFile(const std::string &path);

/**
 * Non-throwing assembly: the error arm carries a structured
 * analysis::Diagnostic (Check::AsmParse with the source line in `row`,
 * or Check::LoadFailed for file problems) instead of unwinding with
 * FatalError. This is the form batch drivers (farm/) use so one bad
 * program fails one job, not the whole sweep.
 */
Result<Program, analysis::Diagnostic>
assembleStringResult(std::string_view source);

/** Non-throwing counterpart of assembleFile. */
Result<Program, analysis::Diagnostic>
assembleFileResult(const std::string &path);

} // namespace ximd

#endif // XIMD_ASM_ASSEMBLER_HH
