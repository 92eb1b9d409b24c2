#include "asm_golden.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "asm/asm_writer.hh"
#include "asm/assembler.hh"
#include "farm/suite.hh"
#include "sched/pipeline.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "support/state_io.hh"
#include "workloads/randprog.hh"

#ifndef XIMD_SOURCE_DIR
#error "XIMD_SOURCE_DIR must point at the repo root"
#endif

namespace ximd {

namespace {

constexpr int kMutants = 1000;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read '", path, "'");
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Every *.ximd under examples/@p dir, in file-name order. */
void
addExamples(std::vector<AsmGoldenCase> &cases, const std::string &dir)
{
    const std::string root = std::string(XIMD_SOURCE_DIR) + "/examples/";
    std::vector<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(root + dir))
        if (entry.path().extension() == ".ximd")
            names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    for (const std::string &name : names)
        cases.push_back({dir + "/" + name,
                         readFile(root + dir + "/" + name), std::nullopt});
}

void
hashOperand(Hash64 &h, const Operand &o)
{
    h.u8(static_cast<std::uint8_t>(o.kind()));
    h.u32(o.isReg() ? o.regId() : o.isImm() ? o.immValue() : 0);
    h.boolean(o.isFloatHint());
}

std::uint64_t
gridDigest(const Program &p)
{
    Hash64 h;
    h.u32(p.width()).u32(p.size());
    for (InstAddr a = 0; a < p.size(); ++a) {
        for (const Parcel &pc : p.row(a)) {
            h.u8(static_cast<std::uint8_t>(pc.ctrl.kind))
                .u8(pc.ctrl.index)
                .u32(pc.ctrl.mask)
                .u32(pc.ctrl.t1)
                .u32(pc.ctrl.t2);
            h.u32(static_cast<std::uint32_t>(pc.data.op));
            hashOperand(h, pc.data.a);
            hashOperand(h, pc.data.b);
            h.u32(pc.data.dest);
            h.u8(static_cast<std::uint8_t>(pc.sync));
        }
    }
    return h.digest();
}

std::uint64_t
initDigest(const Program &p)
{
    Hash64 h;
    h.u64(p.memInit().size());
    for (const auto &[addr, value] : p.memInit())
        h.u32(addr).u32(value);
    h.u64(p.regInit().size());
    for (const auto &[reg, value] : p.regInit())
        h.u32(reg).u32(value);
    return h.digest();
}

/** Labels (with each row's preferred alias), symbols, register names. */
std::uint64_t
namesDigest(const Program &p)
{
    Hash64 h;
    h.u64(p.labels().size());
    for (const auto &[name, addr] : p.labels())
        h.str(name).u32(addr);
    for (InstAddr a = 0; a < p.size(); ++a)
        h.str(p.labelAt(a).value_or("-"));
    h.u64(p.symbols().size());
    for (const auto &[name, value] : p.symbols())
        h.str(name).u32(value);
    h.u64(p.regNames().size());
    for (const auto &[reg, name] : p.regNames())
        h.u32(reg).str(name);
    return h.digest();
}

std::uint64_t
linesDigest(const Program &p)
{
    Hash64 h;
    for (InstAddr a = 0; a < p.size(); ++a)
        h.u32(static_cast<std::uint32_t>(p.rowLine(a)));
    return h.digest();
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
programLine(const Program &p)
{
    Hash64 text;
    text.str(writeAssembly(p));
    return "ok rows=" + std::to_string(p.size()) +
           " grid=" + hex16(gridDigest(p)) +
           " init=" + hex16(initDigest(p)) +
           " names=" + hex16(namesDigest(p)) +
           " lines=" + hex16(linesDigest(p)) +
           " text=" + hex16(text.digest());
}

/** [begin, end) of each whitespace-separated token of @p line. */
std::vector<std::pair<std::size_t, std::size_t>>
tokenSpans(const std::string &line)
{
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    std::size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() &&
               std::isspace(static_cast<unsigned char>(line[i])))
            ++i;
        const std::size_t b = i;
        while (i < line.size() &&
               !std::isspace(static_cast<unsigned char>(line[i])))
            ++i;
        if (i > b)
            spans.emplace_back(b, i);
    }
    return spans;
}

/**
 * One seeded edit of @p text. Returns the operation's name; the
 * mutant may or may not still assemble.
 */
std::string
mutate(std::string &text, Rng &rng)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string l; std::getline(in, l);)
        lines.push_back(l);
    std::vector<std::size_t> nonBlank;
    for (std::size_t i = 0; i < lines.size(); ++i)
        if (!tokenSpans(lines[i]).empty())
            nonBlank.push_back(i);
    if (nonBlank.empty())
        return "none";
    std::string &line = lines[nonBlank[static_cast<std::size_t>(
        rng.range(0, static_cast<std::int64_t>(nonBlank.size()) - 1))]];
    const auto spans = tokenSpans(line);
    const auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(
            rng.range(0, static_cast<std::int64_t>(n) - 1));
    };

    std::string op;
    switch (rng.range(0, 5)) {
      case 0: { // delete a token
        const auto [b, e] = spans[pick(spans.size())];
        line.erase(b, e - b);
        op = "delete";
        break;
      }
      case 1: { // duplicate a token
        const auto [b, e] = spans[pick(spans.size())];
        line.insert(e, " " + line.substr(b, e - b));
        op = "duplicate";
        break;
      }
      case 2: { // swap two tokens of the line
        const std::size_t i = pick(spans.size());
        const std::size_t j = pick(spans.size());
        const auto [lo, hi] = std::minmax(i, j);
        const std::string a =
            line.substr(spans[lo].first, spans[lo].second - spans[lo].first);
        const std::string b =
            line.substr(spans[hi].first, spans[hi].second - spans[hi].first);
        line.replace(spans[hi].first, b.size(), a);
        line.replace(spans[lo].first, a.size(), b);
        op = "swap";
        break;
      }
      case 3: // truncate the line
        line.resize(pick(line.size()));
        op = "truncate";
        break;
      case 4: { // flip a digit (anywhere when the line has none)
        std::vector<std::pair<std::string *, std::size_t>> digits;
        const auto collect = [&](std::string &l) {
            for (std::size_t i = 0; i < l.size(); ++i)
                if (std::isdigit(static_cast<unsigned char>(l[i])))
                    digits.emplace_back(&l, i);
        };
        collect(line);
        for (std::size_t i = 0; digits.empty() && i < lines.size(); ++i)
            collect(lines[i]);
        if (digits.empty())
            return "none";
        const auto [l, i] = digits[pick(digits.size())];
        (*l)[i] = static_cast<char>(
            '0' + ((*l)[i] - '0' + 1 + rng.range(0, 8)) % 10);
        op = "digit";
        break;
      }
      default: { // inject a separator
        static const char *const seps[] = {"||", ";", ":"};
        const char *sep = seps[rng.range(0, 2)];
        line.insert(pick(line.size() + 1), sep);
        op = std::string("inject") + sep;
        break;
      }
    }
    text.clear();
    for (const std::string &l : lines)
        text += l + "\n";
    return op;
}

/** Substitute each @p values entry for "@" in @p shape. */
void
addEdges(std::vector<AsmGoldenCase> &cases, const std::string &kind,
         const std::string &shape, std::initializer_list<const char *> values)
{
    for (const char *v : values) {
        std::string src = shape;
        src.replace(src.find('@'), 1, v);
        // Names stay on one golden line: control characters escaped.
        std::string name = "edge/" + kind + "/";
        for (const char *c = v; *c; ++c)
            name += *c == '\n' ? "\\n" : *c == '\t' ? "\\t"
                  : *c == '\r' ? "\\r" : std::string(1, *c);
        cases.push_back({name, src, std::nullopt});
    }
}

/**
 * Hand-picked corners: literal spellings at the edges of strtoll(…, 0)
 * and strtof, case folding, separators, whitespace, and every
 * directive's malformed forms.
 */
void
addEdgeCases(std::vector<AsmGoldenCase> &cases)
{
    addEdges(cases, "imm", ".fus 1\n.reg a\n.const K 7\nhalt ; iadd #@,#0,a\n",
             {"5", "-5", "+5", " 5", "\t-5", "0x1F", "0X1f", "0x", "0xg",
              "017", "08", "0", "-0", "00", "4294967295", "4294967296",
              "-2147483648", "-2147483649", "99999999999999999999",
              "-99999999999999999999", "9223372036854775807",
              "9223372036854775808", "-9223372036854775808", "+-5", "-+5",
              "--5", "5x", "0x-5", "0x+5", "-0x80000000", "maxint", "MAXINT",
              "minint", "K", "k", "", "1.5", "-1.5", "+1.5", "1.", ".5", ".",
              "-.5", "1.5e3", "1.5e", "1.5e+", "1.5E-3", "0x1.8p3", "0x.8",
              "1.5f", "1e40.", "1.0e-50", "nan.0", "inf.", "1..2",
              "0x1.8", "-0.0", " 1.5", "K.5"});
    addEdges(cases, "float", ".fus 1\n.float 64 @\nhalt\n",
             {"1", "-0", "inf", "-INF", "infinity", "nan", "NaN", "-nan",
              "nan(123)", "nan(abc_1)", "nan()", "1e40", "-1e40", "1e-50",
              "1e-40", "0x1p-3", "0x1.8P3", "1e", "+1", "+-1", "0x", ".",
              "1.5.", "abc", "1.5 2.5 -3", "0x10"});
    addEdges(cases, "initf", ".fus 1\n.reg a\n.initf @\nhalt\n",
             {"a 1.5", "a -2", "a inf", "a x", "r3 0.25", "a", "",
              "a 1.5 junk", "b 1.0"});
    addEdges(cases, "init", ".fus 1\n.reg a\n.const K 9\n.init @\nhalt\n",
             {"a 5", "a -5", "a K", "a k", "r7 1", "r256 1", "r0x1 1",
              "R7 1", "a", "", "a 5 junk", "a 0x100000000", "b 1"});
    addEdges(cases, "word", ".fus 1\n.const K 96\n.word @\nhalt\n",
             {"64 1", "K 1 2 3", "k 1", "64", "", "64 -1 4294967295",
              "64 4294967296", "64 K", "64 1.5", "0x40 0x7fffffff", "-1 5",
              "64 1 2 x"});
    addEdges(cases, "reg", ".fus 1\n.reg @\nhalt ; iadd a,#1,a\n",
             {"a", "a 3", "a 0x10", "a 010", "a -1", "a 256", "a 255",
              "a 1.5", "a x", "a 3 junk", "", "r5", "r", "r05", "rx", "R5"});
    addEdges(cases, "const", ".fus 1\n.const @\nhalt ; iadd #K,#0,r0\n",
             {"K 5", "K -5", "K 0x10", "K", "", "K 5 junk", "K maxint",
              "maxint 1", "K 4294967296", "K 1.5", "K K"});
    addEdges(cases, "fus", ".fus @\nhalt\n",
             {"1", "2", "0", "33", "-1", "-4294967295", "+1", "0x1", "01",
              "1abc", "1 junk", "1.5", "", "4294967297", "x"});
    addEdges(cases, "operand", ".fus 1\n.reg a\nhalt ; iadd @,#1,a\n",
             {"a", "r0", "r255", "r256", "r007", "r0x1", "R5", "A", "#",
              "", " a", "r", "r-1", "a b"});
    addEdges(cases, "target", ".fus 1\nL: -> @ ; nop\nhalt\n",
             {"L", "0", "1", "0x1", "01", "-1", "2", "1.0", "+1", "l",
              "L junk", "", "M"});
    addEdges(cases, "cond",
             ".fus 4\nL: if @ L M ; nop || halt || halt || halt\n"
             "M: halt || halt || halt || halt\n",
             {"cc0", "CC3", "cc4", "cc01", "cc0x1", "cc", "cc-1", "cc+1",
              "cc 1", "ss0", "SS3", "ss4", "ssx", "all", "ALL", "any",
              "Any", "all(0,1)", "ALL(0,3)", "all(4)", "all()", "all(0,,1)",
              "any(1)", "all(0", "allx", "all(0x1,2)", "any(-1)",
              "all(1,1)", "all( 1)", "all(0,1", "xx"});
    addEdges(cases, "if", ".fus 1\nL: @ ; nop\nhalt\n",
             {"if cc0 L 1", "if cc0 L", "if cc0", "if", "if cc0 L 1 2",
              "IF cc0 L 1", "halt x", "HALT", "->", "-> L 1", "->L",
              "goto L"});
    addEdges(cases, "sync", ".fus 1\nhalt ; nop ; @\n",
             {"done", "DONE", "Done", "busy", "BUSY", "", "don",
              "done x", "done ; x", " \t"});
    addEdges(cases, "data", ".fus 1\n.reg a\nhalt ; @\n",
             {"IADD #1,#2,a", "Iadd #1,#2,a", "nop", "NOP", "",
              "iadd #1, #2, a", "iadd #1,,a", "iadd", "iadd #1,#2,a,",
              "iadd\t#1,#2,a", "store #1,#64", "load #64,#0,a",
              "load #64,#0,#1", "iadd #1,#2,#3", "nop #1", "bogus #1",
              "fadd #1.5,#2.5,a", "mov #1,a", "iadd #1 #2 a"});
    addEdges(cases, "label", ".fus 1\n@\n",
             {"a: halt", "a: b: halt", "a:\nhalt", "a: -> a ; nop",
              "a b: halt", "a,b: halt", "#a: halt", "5: -> 5 ; nop\nhalt",
              ": halt", "a:: halt", "a:halt", "a: halt\na: halt",
              "halt\nend:", "halt\nzz:\naa:", "a:\nb:\nhalt",
              "x: -> a:b ; nop\nhalt"});
    addEdges(cases, "layout", "@",
             {"", "\n\n", "halt\n", "// only\n", ".fus 1\n",
              "\t.fus\t1\r\nhalt\r\n", ".fus 1 // w\n  halt  // c\n",
              ".fus 2\nhalt ||\n", ".fus 2\n|| halt\n",
              ".fus 2\nhalt ||| halt\n", ".fus 2\nhalt || halt || halt\n",
              ".fus 1\nhalt ; nop ; done ; x\n", ".fus 1\n.fus 1\nhalt\n",
              ".fus 1\nhalt\n.fus 1\n", ".fus 1\n.foo\nhalt\n",
              ".fus 1\n.\nhalt\n", ".fus 1\nhalt ; iadd #K,#0,r0\n.const K 5\n",
              ".fus 1\n.init a 1\n.reg a\nhalt\n", ".fus 1\n; nop\n",
              ".fus 1\n-> 0 ; nop ; done\n", ".fus 1\nhalt\n.word 64 1\n",
              ".fus 1\n.reg a\n.reg b 0\nhalt ; iadd a,b,a\n",
              ".fus 1\n.reg x\n.reg x\nhalt\n",
              ".fus 1\n.const K 1\n.const K 2\nhalt\n"});

    // Auto-allocation runs the register file dry on the 257th name.
    std::string regs = ".fus 1\n";
    for (int i = 0; i <= static_cast<int>(kNumRegisters); ++i)
        regs += ".reg v" + std::to_string(i) + "\n";
    cases.push_back({"edge/layout/register-file-exhausted",
                     regs + "halt\n", std::nullopt});
}

} // namespace

std::vector<AsmGoldenCase>
asmGoldenCases()
{
    std::vector<AsmGoldenCase> cases;

    addEdgeCases(cases);
    const std::size_t firstExample = cases.size();
    addExamples(cases, "programs");
    const std::size_t handWritten = cases.size() - firstExample;
    addExamples(cases, "ir/golden");
    addExamples(cases, "c/golden");

    for (unsigned n : {16u, 64u, 256u}) {
        for (std::uint64_t seed : {1u, 2u}) {
            farm::SuiteOptions suite;
            suite.n = n;
            suite.seed = seed;
            for (const farm::RunSpec &spec : farm::builtinSuite(suite))
                if (spec.program)
                    cases.push_back({"suite/" + spec.name, {},
                                     spec.program->program()});
        }
    }

    // Mutants start from texts that stay fixed while the assembler and
    // the workload generators change: the shipped files and the
    // writer's rendering of generated programs.
    std::vector<std::pair<std::string, std::string>> bases;
    for (std::size_t i = firstExample; i < cases.size(); ++i) {
        const AsmGoldenCase &c = cases[i];
        if (!c.program)
            bases.emplace_back(c.name, c.source);
        else if (c.name.find("/n=16/seed=1") != std::string::npos)
            bases.emplace_back(c.name, writeAssembly(*c.program));
    }

    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        workloads::RandProgOptions o;
        o.seed = seed;
        o.width = static_cast<FuId>(1 + seed % 8);
        o.rows = static_cast<unsigned>(2 + seed % 50);
        o.branchPercent = static_cast<unsigned>(seed % 60);
        const std::string name = "randprog/" + std::to_string(seed);
        cases.push_back(
            {name, workloads::randomLockstepSource(o), std::nullopt});
        if (seed <= 50)
            bases.emplace_back(name, writeAssembly(assembleString(
                                         cases.back().source)));
    }

    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        workloads::RandLoopOptions lo;
        lo.seed = seed;
        lo.bodyOps = 2 + static_cast<unsigned>(seed % 12);
        lo.tripCount = 1 + static_cast<unsigned>(seed % 6);
        sched::PipelineOptions po;
        po.width = static_cast<FuId>(1 + seed % 8);
        sched::Compiler compiler(po);
        auto code = compiler.compile(workloads::randomLoopIr(lo));
        const std::string name = "randloop/" + std::to_string(seed);
        if (!code)
            fatal(name, ": ", code.error().format());
        cases.push_back({name, writeAssembly(code.value().program),
                         std::nullopt});
        bases.emplace_back(name, cases.back().source);
    }

    // Half the mutants edit the hand-written programs (named registers,
    // constants, labels, comments); the rest edit any base text.
    Rng rng(0xA55E'3B1E'2026ULL);
    for (int k = 0; k < kMutants; ++k) {
        const std::size_t pool = k % 2 == 0 ? handWritten : bases.size();
        const auto &[from, text] = bases[static_cast<std::size_t>(
            rng.range(0, static_cast<std::int64_t>(pool) - 1))];
        std::string source = text;
        const std::string op = mutate(source, rng);
        cases.push_back({"mutant/" + std::to_string(k) + "/" + op + "/" +
                             from,
                         std::move(source), std::nullopt});
    }
    return cases;
}

std::string
serializeAsmCase(const AsmGoldenCase &c)
{
    if (c.program)
        return c.name + " " + programLine(*c.program) + "\n";
    auto r = assembleStringResult(c.source);
    if (!r)
        return c.name + " err line=" + std::to_string(r.error().row) +
               " " + r.error().message + "\n";
    return c.name + " " + programLine(r.value()) + "\n";
}

} // namespace ximd
