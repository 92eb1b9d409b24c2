#include "asm/assembler.hh"

#include <gtest/gtest.h>

#include <fstream>

#include "isa/disasm.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "support/str.hh"

namespace ximd {
namespace {

TEST(Assembler, MinimalProgram)
{
    Program p = assembleString(".fus 2\nhalt || halt\n");
    EXPECT_EQ(p.width(), 2u);
    EXPECT_EQ(p.size(), 1u);
    EXPECT_TRUE(p.parcel(0, 0).ctrl.isHalt());
}

TEST(Assembler, MissingFusDirectiveFails)
{
    EXPECT_THROW(assembleString("halt || halt\n"), FatalError);
}

TEST(Assembler, WrongParcelCountFails)
{
    EXPECT_THROW(assembleString(".fus 3\nhalt || halt\n"), FatalError);
}

TEST(Assembler, LabelsResolveForwardAndBackward)
{
    Program p = assembleString(
        ".fus 1\n"
        "start: -> end ; nop\n"
        "-> start ; nop\n"
        "end: halt\n");
    EXPECT_EQ(p.label("start"), std::optional<InstAddr>(0));
    EXPECT_EQ(p.label("end"), std::optional<InstAddr>(2));
    EXPECT_EQ(p.parcel(0, 0).ctrl.t1, 2u);
    EXPECT_EQ(p.parcel(1, 0).ctrl.t1, 0u);
}

TEST(Assembler, LabelOnOwnLine)
{
    Program p = assembleString(
        ".fus 1\n"
        "loop:\n"
        "-> loop ; nop\n");
    EXPECT_EQ(p.label("loop"), std::optional<InstAddr>(0));
}

TEST(Assembler, DuplicateLabelFails)
{
    EXPECT_THROW(assembleString(".fus 1\na: halt\na: halt\n"),
                 FatalError);
}

TEST(Assembler, UndefinedLabelFails)
{
    EXPECT_THROW(assembleString(".fus 1\n-> nowhere ; nop\n"),
                 FatalError);
}

TEST(Assembler, DefaultFieldsFallThrough)
{
    // Empty control falls through; empty data is a nop; empty sync is
    // busy.
    Program p = assembleString(
        ".fus 2\n"
        " ; iadd #1,#2,r0 || \n"
        "halt || halt\n");
    const Parcel &p0 = p.parcel(0, 0);
    EXPECT_EQ(p0.ctrl, ControlOp::jump(1));
    EXPECT_EQ(p0.data.op, Opcode::Iadd);
    EXPECT_EQ(p0.sync, SyncVal::Busy);
    const Parcel &p1 = p.parcel(0, 1);
    EXPECT_TRUE(p1.data.isNop());
}

TEST(Assembler, FallThroughPastEndFails)
{
    EXPECT_THROW(assembleString(".fus 1\n ; nop\n"), FatalError);
}

TEST(Assembler, ConditionalBranches)
{
    Program p = assembleString(
        ".fus 2\n"
        "a: if cc1 a b ; nop || if ss0 b a ; nop\n"
        "b: if all a b ; nop ; done || if any(0,1) a b ; nop\n");
    EXPECT_EQ(p.parcel(0, 0).ctrl, ControlOp::onCc(1, 0, 1));
    EXPECT_EQ(p.parcel(0, 1).ctrl, ControlOp::onSync(0, 1, 0));
    EXPECT_EQ(p.parcel(1, 0).ctrl, ControlOp::onAllSync(0, 1));
    EXPECT_EQ(p.parcel(1, 0).sync, SyncVal::Done);
    EXPECT_EQ(p.parcel(1, 1).ctrl, ControlOp::onAnySync(0, 1, 0b11));
}

TEST(Assembler, MaskedBarrier)
{
    Program p = assembleString(
        ".fus 4\n"
        "a: if all(0,2) a a ; nop || -> a ; nop || -> a ; nop "
        "|| -> a ; nop\n");
    EXPECT_EQ(p.parcel(0, 0).ctrl.mask, 0b101u);
}

TEST(Assembler, CcIndexOutOfWidthFails)
{
    EXPECT_THROW(assembleString(".fus 2\na: if cc2 a a ; nop || halt\n"),
                 FatalError);
}

TEST(Assembler, RegistersNamedAndNumeric)
{
    Program p = assembleString(
        ".fus 1\n"
        ".reg foo 7\n"
        ".reg bar\n" // auto: lowest free = 0
        "halt ; iadd foo,r12,bar\n");
    const DataOp &d = p.parcel(0, 0).data;
    EXPECT_EQ(d.a, Operand::reg(7));
    EXPECT_EQ(d.b, Operand::reg(12));
    EXPECT_EQ(d.dest, 0);
    EXPECT_EQ(p.regByName("foo"), std::optional<RegId>(7));
}

TEST(Assembler, AutoRegSkipsTakenIndices)
{
    Program p = assembleString(
        ".fus 1\n.reg a 0\n.reg b\n.reg c\nhalt ; iadd a,b,c\n");
    EXPECT_EQ(p.regByName("b"), std::optional<RegId>(1));
    EXPECT_EQ(p.regByName("c"), std::optional<RegId>(2));
}

TEST(Assembler, RegNameCollidingWithNumericFormFails)
{
    EXPECT_THROW(assembleString(".fus 1\n.reg r5\nhalt\n"), FatalError);
}

TEST(Assembler, UnknownRegisterFails)
{
    EXPECT_THROW(assembleString(".fus 1\nhalt ; iadd qq,#1,r0\n"),
                 FatalError);
}

TEST(Assembler, Immediates)
{
    Program p = assembleString(
        ".fus 1\n"
        ".const big 0x7fffffff\n"
        "halt ; iadd #-5,#big,r0\n");
    EXPECT_EQ(wordToInt(p.parcel(0, 0).data.a.immValue()), -5);
    EXPECT_EQ(p.parcel(0, 0).data.b.immValue(), 0x7fffffffu);
}

TEST(Assembler, BuiltinConstants)
{
    Program p = assembleString(
        ".fus 1\nhalt ; lt #minint,#maxint\n");
    EXPECT_EQ(p.parcel(0, 0).data.a.immValue(), 0x80000000u);
    EXPECT_EQ(p.parcel(0, 0).data.b.immValue(), 0x7fffffffu);
}

TEST(Assembler, FloatImmediates)
{
    Program p = assembleString(".fus 1\nhalt ; fadd #1.5,#-0.25,r0\n");
    EXPECT_FLOAT_EQ(wordToFloat(p.parcel(0, 0).data.a.immValue()),
                    1.5f);
    EXPECT_FLOAT_EQ(wordToFloat(p.parcel(0, 0).data.b.immValue()),
                    -0.25f);
}

TEST(Assembler, OperandCountMismatchFails)
{
    EXPECT_THROW(assembleString(".fus 1\nhalt ; iadd #1,#2\n"),
                 FatalError);
    EXPECT_THROW(assembleString(".fus 1\nhalt ; nop #1\n"), FatalError);
}

TEST(Assembler, WordAndFloatDirectives)
{
    Program p = assembleString(
        ".fus 1\n"
        ".const base 100\n"
        ".word base 5 -3 0x10\n"
        ".float 200 1.5 2\n"
        "halt\n");
    ASSERT_EQ(p.memInit().size(), 5u);
    EXPECT_EQ(p.memInit()[0], (std::pair<Addr, Word>{100, 5}));
    EXPECT_EQ(wordToInt(p.memInit()[1].second), -3);
    EXPECT_EQ(p.memInit()[2], (std::pair<Addr, Word>{102, 0x10}));
    EXPECT_FLOAT_EQ(wordToFloat(p.memInit()[3].second), 1.5f);
    EXPECT_FLOAT_EQ(wordToFloat(p.memInit()[4].second), 2.0f);
}

TEST(Assembler, InitDirectives)
{
    Program p = assembleString(
        ".fus 1\n.reg n 3\n.init n 12\n.reg f 4\n.initf f 0.5\nhalt\n");
    ASSERT_EQ(p.regInit().size(), 2u);
    EXPECT_EQ(p.regInit()[0], (std::pair<RegId, Word>{3, 12}));
    EXPECT_FLOAT_EQ(wordToFloat(p.regInit()[1].second), 0.5f);
}

TEST(Assembler, InitOfUndeclaredRegisterFails)
{
    EXPECT_THROW(assembleString(".fus 1\n.init n 1\nhalt\n"),
                 FatalError);
}

TEST(Assembler, CommentsIgnored)
{
    Program p = assembleString(
        ".fus 1 // width\n"
        "// whole-line comment\n"
        "halt ; nop // trailing\n");
    EXPECT_EQ(p.size(), 1u);
}

TEST(Assembler, NumericBranchTargets)
{
    Program p = assembleString(".fus 1\n-> 1 ; nop\nhalt\n");
    EXPECT_EQ(p.parcel(0, 0).ctrl.t1, 1u);
    EXPECT_THROW(assembleString(".fus 1\n-> 9 ; nop\nhalt\n"),
                 FatalError);
}

TEST(Assembler, ErrorsCarryLineNumbers)
{
    try {
        assembleString(".fus 1\nhalt\nbogus op here\n");
        FAIL();
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 3"),
                  std::string::npos);
    }
}

TEST(Assembler, FuzzRandomTokenStreams)
{
    // Random token soup must either assemble or throw FatalError —
    // never PanicError (internal bug) and never crash.
    static const char *const tokens[] = {
        ".fus",  "4",     ".reg",  "x",    ".const", "z",   "64",
        "halt",  "->",    "if",    "cc0",  "ss1",    "all", "any",
        "nop",   "iadd",  "load",  "store", "#1",    "#z",  "r300",
        "x,",    "x,x,x", "||",    ";",    "L:",     "L",   "0x10",
        ".word", ".init", "done",  "busy", "#1.5",   "-9",  "(",
    };
    Rng rng(424242);
    int assembled = 0;
    for (int trial = 0; trial < 500; ++trial) {
        std::string src;
        const int lines = static_cast<int>(rng.range(1, 8));
        for (int l = 0; l < lines; ++l) {
            const int words = static_cast<int>(rng.range(1, 10));
            for (int w = 0; w < words; ++w) {
                src += tokens[rng.range(
                    0, std::size(tokens) - 1)];
                src += " ";
            }
            src += "\n";
        }
        try {
            Program p = assembleString(src);
            ++assembled;
        } catch (const FatalError &) {
            // expected for malformed input
        }
        // PanicError or a crash fails the test by escaping here.
    }
    // A few trivially-valid programs should slip through.
    (void)assembled;
}

TEST(Assembler, FileRoundTrip)
{
    const std::string path = ::testing::TempDir() + "/prog.ximd";
    {
        std::ofstream out(path);
        out << ".fus 1\n.reg a\nhalt ; iadd #1,#2,a\n";
    }
    Program p = assembleFile(path);
    EXPECT_EQ(p.size(), 1u);
    EXPECT_EQ(p.parcel(0, 0).data.op, Opcode::Iadd);
    EXPECT_THROW(assembleFile("/nonexistent/file.ximd"), FatalError);
}

TEST(Assembler, DisasmRoundTrip)
{
    // Assemble a single-FU program, print it, mechanically rewrite the
    // paper-style listing back into assembler syntax, re-assemble, and
    // compare parcel-for-parcel.
    const char *src =
        ".fus 1\n"
        "a: if cc0 b a ; iadd r1,#2,r3 ; done\n"
        "b: halt ; store r3,#64\n";
    Program p1 = assembleString(src);
    DisasmOptions opts;
    opts.useRegNames = false;
    std::string listing = formatProgram(p1, opts);

    std::string src2 = ".fus 1\n";
    for (auto line : split(listing, '\n')) {
        auto t = trim(line);
        if (t.empty())
            continue;
        std::string s(t);
        s = s.substr(s.find(':') + 1); // drop the "NN:" prefix
        std::string cleaned;
        for (char c : s) {
            if (c == ':')
                continue; // "05:" targets -> "05"
            cleaned += c == '|' ? ' ' : c; // "t1:|t2:" -> "t1 t2"
        }
        // single-digit addresses: hex form == decimal form
        src2 += cleaned + "\n";
    }
    Program p2 = assembleString(src2);
    ASSERT_EQ(p2.size(), p1.size());
    for (InstAddr a = 0; a < p1.size(); ++a)
        EXPECT_EQ(p1.parcel(a, 0), p2.parcel(a, 0)) << "addr " << a;
}

TEST(Assembler, ErrorsCarryLineAndRawMessage)
{
    try {
        assembleString(".fus 2\nhalt || halt\nhalt\n");
        FAIL() << "expected AsmError";
    } catch (const AsmError &e) {
        EXPECT_EQ(e.line(), 3);
        EXPECT_NE(e.rawMessage().find("parcel"), std::string::npos);
        // what() keeps the historical decorated shape.
        EXPECT_NE(std::string(e.what()).find("fatal: asm line 3:"),
                  std::string::npos);
    }
}

/** "LINE: message" of the AsmError @p src raises. */
std::string
asmErrorOf(const std::string &src)
{
    try {
        assembleString(src);
    } catch (const AsmError &e) {
        return std::to_string(e.line()) + ": " + e.rawMessage();
    }
    return "no error";
}

TEST(Assembler, LabelPastLastRowCarriesItsLine)
{
    EXPECT_EQ(asmErrorOf(".fus 1\nhalt\nend:\n"),
              "3: label 'end' points past the last row");
    // Several trailing labels: the first by line is reported.
    EXPECT_EQ(asmErrorOf(".fus 1\nhalt\nzz:\naa:\n"),
              "3: label 'zz' points past the last row");
}

TEST(Assembler, MissingFusCarriesFirstRowLine)
{
    EXPECT_EQ(asmErrorOf(""), "1: missing .fus directive");
    EXPECT_EQ(asmErrorOf("// nothing\n\n"), "1: missing .fus directive");
    EXPECT_EQ(asmErrorOf("\n.reg a\nL:\n  halt || halt\n"),
              "4: missing .fus directive");
    auto r = assembleStringResult("");
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().row, 1u);
    EXPECT_EQ(r.error().message, "missing .fus directive");
}

TEST(Assembler, TrailingTokensAfterDirectivesFail)
{
    EXPECT_EQ(asmErrorOf(".fus 1abc\nhalt\n"),
              "1: .fus expects a count in 1..32");
    EXPECT_EQ(asmErrorOf(".fus 1 junk\nhalt\n"),
              "1: unexpected token 'junk' after .fus");
    EXPECT_EQ(asmErrorOf(".fus 1\n.reg x 3 junk\nhalt\n"),
              "2: unexpected token 'junk' after .reg");
    EXPECT_EQ(asmErrorOf(".fus 1\n.const K 5 junk\nhalt\n"),
              "2: unexpected token 'junk' after .const");
    EXPECT_EQ(asmErrorOf(".fus 1\n.reg x\n.init x 5 junk\nhalt\n"),
              "3: unexpected token 'junk' after .init");
    EXPECT_EQ(asmErrorOf(".fus 1\n.reg x\n.initf x 1.5 2.5\nhalt\n"),
              "3: unexpected token '2.5' after .initf");
    // Comments are not tokens.
    EXPECT_NO_THROW(assembleString(".fus 1 // width\n.reg x 3 // x\n"
                                   ".const K 5 // k\nhalt\n"));
}

TEST(Assembler, FusCountIsAnIntegerLiteral)
{
    EXPECT_EQ(assembleString(".fus 0x2\nhalt || halt\n").width(), 2u);
    EXPECT_EQ(assembleString(".fus 010\n"
                             "halt || halt || halt || halt || "
                             "halt || halt || halt || halt\n")
                  .width(),
              8u);
    EXPECT_EQ(asmErrorOf(".fus -4294967295\nhalt\n"),
              "1: .fus expects a count in 1..32");
}

TEST(Assembler, ResultValueArmMatchesThrowingApi)
{
    const char *src = ".fus 2\nhalt || halt\n";
    auto r = assembleStringResult(src);
    ASSERT_TRUE(r.hasValue());
    EXPECT_EQ(r.value().width(), 2u);
    EXPECT_EQ(r.value().size(), assembleString(src).size());
}

TEST(Assembler, ResultErrorArmIsStructured)
{
    auto r = assembleStringResult(".fus 2\nhalt || halt\nhalt\n");
    ASSERT_FALSE(r.hasValue());
    const analysis::Diagnostic &d = r.error();
    EXPECT_EQ(d.check, analysis::Check::AsmParse);
    EXPECT_EQ(d.severity, analysis::Severity::Error);
    EXPECT_EQ(d.row, 3u); // source line, not instruction row
    EXPECT_NE(d.message.find("parcel"), std::string::npos);
    const std::string rendered =
        analysis::DiagnosticList::formatOne(d);
    EXPECT_NE(rendered.find("error[asm-parse] line 3:"),
              std::string::npos);
}

TEST(Assembler, ResultFileErrorIsLoadFailed)
{
    auto r = assembleFileResult("/nonexistent/path/prog.ximd");
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().check, analysis::Check::LoadFailed);
    EXPECT_NE(analysis::DiagnosticList::formatOne(r.error())
                  .find("error[load-failed]:"),
              std::string::npos);
}

} // namespace
} // namespace ximd
