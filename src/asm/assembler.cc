#include "asm/assembler.hh"

#include <algorithm>
#include <array>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <optional>
#include <vector>

#include "support/logging.hh"
#include "support/str.hh"

namespace ximd {

namespace {

char
lower(char c)
{
    return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/** Case-insensitive prefix test against a lower-case @p prefix. */
bool
startsWithNoCase(std::string_view s, std::string_view prefix)
{
    if (s.size() < prefix.size())
        return false;
    for (std::size_t i = 0; i < prefix.size(); ++i)
        if (lower(s[i]) != prefix[i])
            return false;
    return true;
}

bool
equalsNoCase(std::string_view s, std::string_view word)
{
    return s.size() == word.size() && startsWithNoCase(s, word);
}

/** Pop the next whitespace-delimited token off @p s; "" at the end. */
std::string_view
nextToken(std::string_view &s)
{
    std::size_t b = 0;
    while (b < s.size() && isSpace(s[b]))
        ++b;
    std::size_t e = b;
    while (e < s.size() && !isSpace(s[e]))
        ++e;
    const std::string_view tok = s.substr(b, e - b);
    s.remove_prefix(e);
    return tok;
}

/** "rN": the numeric register form, which names may not take. */
bool
isNumericRegName(std::string_view s)
{
    return s.size() >= 2 && s[0] == 'r' &&
           s.find_first_not_of("0123456789", 1) == std::string_view::npos;
}

/** Each byte's digit value in bases up to 36; 36 for a non-digit. */
constexpr std::array<std::uint8_t, 256> kDigitValue = [] {
    std::array<std::uint8_t, 256> v{};
    v.fill(36);
    for (int c = 0; c < 10; ++c)
        v['0' + c] = static_cast<std::uint8_t>(c);
    for (int c = 0; c < 26; ++c)
        v['a' + c] = v['A' + c] = static_cast<std::uint8_t>(10 + c);
    return v;
}();

/**
 * strtoll(text, &end, 0), accepted only when the literal spans all of
 * @p s: leading whitespace, an optional sign, then 0x/0X hex, 0-led
 * octal or decimal digits. Out-of-range values saturate to
 * LLONG_MIN/LLONG_MAX exactly as strtoll's do.
 */
std::optional<long long>
parseIntLiteral(std::string_view s)
{
    std::size_t i = 0;
    while (i < s.size() && isSpace(s[i]))
        ++i;
    bool neg = false;
    if (i < s.size() && (s[i] == '+' || s[i] == '-'))
        neg = s[i++] == '-';
    unsigned base = 10;
    if (i < s.size() && s[i] == '0') {
        base = 8; // the leading 0 is itself an octal digit
        if (i + 1 < s.size() && (s[i + 1] == 'x' || s[i + 1] == 'X')) {
            base = 16;
            i += 2;
        }
    }
    const std::size_t first = i;
    unsigned long long mag = 0;
    bool overflow = false;
    for (; i < s.size(); ++i) {
        const unsigned d = kDigitValue[static_cast<unsigned char>(s[i])];
        if (d >= base)
            break;
        // Below 2^60 one more digit cannot wrap; at or past it the
        // value is at least 2^63, so it saturates either way.
        if (mag > (ULLONG_MAX >> 4))
            overflow = true;
        else
            mag = mag * base + d;
    }
    if (i == first || i != s.size())
        return std::nullopt;
    const unsigned long long limit =
        neg ? 1ULL + static_cast<unsigned long long>(LLONG_MAX)
            : static_cast<unsigned long long>(LLONG_MAX);
    if (overflow || mag > limit)
        return neg ? LLONG_MIN : LLONG_MAX;
    return neg ? static_cast<long long>(0ULL - mag)
               : static_cast<long long>(mag);
}

/**
 * Name → value bindings over views of the source: open addressing in
 * a power-of-two slot array, so a lookup is one short hash and
 * usually one compare.
 */
template <typename T>
class NameTable
{
  public:
    /** Bind @p name; false, and no change, when it is already bound. */
    bool insert(std::string_view name, T value)
    {
        if (2 * (entries_.size() + 1) > slots_.size())
            rehash(std::max<std::size_t>(16, 2 * slots_.size()));
        const std::size_t i = probe(name);
        if (slots_[i])
            return false;
        entries_.emplace_back(name, value);
        slots_[i] = static_cast<std::uint32_t>(entries_.size());
        return true;
    }

    const T *find(std::string_view name) const
    {
        if (slots_.empty())
            return nullptr;
        const std::uint32_t slot = slots_[probe(name)];
        return slot ? &entries_[slot - 1].second : nullptr;
    }

    /** Every binding, sorted by name. */
    std::vector<std::pair<std::string_view, T>> sorted() const
    {
        auto v = entries_;
        std::sort(v.begin(), v.end());
        return v;
    }

  private:
    /** @p name's slot, or the empty slot where it would go. */
    std::size_t probe(std::string_view name) const
    {
        std::uint32_t h = 2166136261u; // FNV-1a
        for (const char c : name)
            h = (h ^ static_cast<unsigned char>(c)) * 16777619u;
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = h & mask;
        while (slots_[i] && entries_[slots_[i] - 1].first != name)
            i = (i + 1) & mask;
        return i;
    }

    void rehash(std::size_t size)
    {
        slots_.assign(size, 0);
        for (std::size_t k = 0; k < entries_.size(); ++k)
            slots_[probe(entries_[k].first)] =
                static_cast<std::uint32_t>(k + 1);
    }

    std::vector<std::pair<std::string_view, T>> entries_;
    std::vector<std::uint32_t> slots_; ///< Entry index + 1; 0 is empty.
};

/** One parcel's `ctrl ; data ; sync` fields, trimmed. */
struct ParcelFields
{
    std::string_view ctrl;
    std::string_view data;
    std::string_view sync;
    bool extra = false; ///< A fourth ';' field follows.
};

/** One source statement; the statement list is in line order. */
struct Statement
{
    enum class Kind : std::uint8_t { Directive, Label, Row };

    Kind kind;
    int line;
    InstAddr addr;         ///< Row: its address; else rows before it.
    std::string_view text; ///< Directive: the line; Label: the name.
    std::uint32_t firstParcel = 0; ///< Row: its first ParcelFields.
    std::uint32_t parcels = 0;     ///< Row: parcels cut from it.
};

/**
 * Three stages over views of the source: buildStatements() cuts lines
 * into directives, labels and rows (rows into parcels and fields);
 * buildSymbolTable() runs the directives and binds labels in line
 * order; encode() turns each row into parcels. Every rejection goes
 * through fail(), which throws the first AsmError.
 */
class Assembler
{
  public:
    explicit Assembler(std::string_view source);

    Program run();

  private:
    /** Throw AsmError at line_ with the streamed @p parts as message. */
    template <typename... Parts>
    [[noreturn, gnu::cold]] void fail(const Parts &...parts) const
    {
        throw AsmError(line_, cat(parts...));
    }

    void buildStatements(std::string_view source);
    void cutRow(Statement &row, std::string_view text);

    void buildSymbolTable();
    void directive(std::string_view text, InstAddr rowsBefore);
    void expectEnd(std::string_view rest, std::string_view word);
    void setWidth(std::string_view rest, InstAddr rowsBefore);
    void declareRegister(std::string_view rest);
    void initRegister(std::string_view word, std::string_view rest);
    void initMemory(std::string_view word, std::string_view rest);

    void encode();
    Parcel encodeParcel(const ParcelFields &f, InstAddr addr);
    ControlOp encodeCtrl(std::string_view text, InstAddr addr);
    DataOp encodeData(std::string_view text);
    Operand operand(std::string_view text);
    RegId reg(std::string_view text);
    InstAddr target(std::string_view text);
    std::uint32_t fuMask(std::string_view list);
    unsigned fuIndex(std::string_view digits, const char *range);
    Word intValue(std::string_view text);
    long long strictInt(std::string_view text);
    float floatValue(std::string_view text, const char *what);

    Program finish();

    std::vector<Statement> statements_;
    std::vector<ParcelFields> parcels_;
    InstAddr rowCount_ = 0;
    int line_ = 0; ///< Line of the statement at hand; the error anchor.

    NameTable<InstAddr> labels_;
    NameTable<Word> consts_;
    NameTable<RegId> regs_;
    std::array<bool, kNumRegisters> regUsed_{};
    std::string floatText_; ///< NUL-terminated copy for strtof.

    FuId width_ = 0;
    Program prog_{1};
};

Assembler::Assembler(std::string_view source)
{
    // Builtin constants used throughout the paper's examples.
    consts_.insert("maxint", 0x7FFFFFFFu);
    consts_.insert("minint", 0x80000000u);
    buildStatements(source);
}

// ---- Stage 1: statements ----------------------------------------------

void
Assembler::buildStatements(std::string_view source)
{
    // At most one statement per line; rows usually hold several
    // parcels.
    std::size_t lines = 1;
    for (std::size_t at = 0;
         (at = source.find('\n', at)) != std::string_view::npos; ++at)
        ++lines;
    statements_.reserve(lines);
    parcels_.reserve(4 * lines);
    int line = 0;
    for (std::size_t pos = 0; pos <= source.size();) {
        std::size_t eol = source.find('\n', pos);
        if (eol == std::string_view::npos)
            eol = source.size();
        std::string_view text = source.substr(pos, eol - pos);
        pos = eol + 1;
        ++line;
        text = trim(text.substr(0, text.find("//")));
        if (text.empty())
            continue;

        if (text[0] == '.') {
            statements_.push_back(
                {Statement::Kind::Directive, line, rowCount_, text});
            continue;
        }

        // One or more labels may prefix a row on the same line:
        //   "loop:  -> loop ; iadd k,#1,k"
        // A label is a single identifier; any other head leaves the
        // ':' in the row, where encoding rejects it.
        for (std::size_t colon; !text.empty() &&
                                (colon = text.find(':')) !=
                                    std::string_view::npos;) {
            const std::string_view head = trim(text.substr(0, colon));
            if (head.empty() ||
                head.find_first_of(" \t,;|#") != std::string_view::npos)
                break;
            statements_.push_back(
                {Statement::Kind::Label, line, rowCount_, head});
            text = trim(text.substr(colon + 1));
        }
        if (text.empty())
            continue;

        Statement row{Statement::Kind::Row, line, rowCount_++, text};
        cutRow(row, text);
        statements_.push_back(row);
    }
}

/** Cut @p text into `||` parcels and each parcel into ';' fields. */
void
Assembler::cutRow(Statement &row, std::string_view text)
{
    row.firstParcel = static_cast<std::uint32_t>(parcels_.size());
    std::array<std::string_view, 3> fields;
    std::size_t count = 0; // fields of the parcel at hand
    std::size_t start = 0;
    const auto endField = [&](std::size_t end) {
        if (count < fields.size())
            fields[count] = trim(text.substr(start, end - start));
        ++count;
        start = end + 1;
    };
    for (std::size_t i = 0;; ++i) {
        const bool last = i == text.size();
        if (last || (text[i] == '|' && i + 1 < text.size() &&
                     text[i + 1] == '|')) {
            endField(i);
            parcels_.push_back({fields[0], count > 1 ? fields[1] : "",
                                count > 2 ? fields[2] : "", count > 3});
            ++row.parcels;
            if (last)
                return;
            start = ++i + 1;
            count = 0;
        } else if (text[i] == ';') {
            endField(i);
        }
    }
}

// ---- Stage 2: symbol table ----------------------------------------------

void
Assembler::buildSymbolTable()
{
    for (const Statement &s : statements_) {
        line_ = s.line;
        if (s.kind == Statement::Kind::Directive) {
            directive(s.text, s.addr);
        } else if (s.kind == Statement::Kind::Label) {
            if (!labels_.insert(s.text, s.addr))
                fail("label '", s.text, "' redefined");
        }
    }
    if (width_ == 0) {
        const auto row = std::find_if(
            statements_.begin(), statements_.end(), [](const Statement &s) {
                return s.kind == Statement::Kind::Row;
            });
        line_ = row == statements_.end() ? 1 : row->line;
        fail("missing .fus directive");
    }
}

/** Reject anything after a directive's last operand. */
void
Assembler::expectEnd(std::string_view rest, std::string_view word)
{
    if (const std::string_view extra = nextToken(rest); !extra.empty())
        fail("unexpected token '", extra, "' after ", word);
}

void
Assembler::directive(std::string_view text, InstAddr rowsBefore)
{
    std::string_view rest = text;
    const std::string_view word = nextToken(rest);

    if (word == ".fus") {
        setWidth(rest, rowsBefore);
    } else if (word == ".reg") {
        declareRegister(rest);
    } else if (word == ".const") {
        const std::string_view name = nextToken(rest);
        const std::string_view value = nextToken(rest);
        if (value.empty())
            fail(".const expects a name and a value");
        expectEnd(rest, word);
        if (consts_.find(name))
            fail("constant '", name, "' redefined");
        consts_.insert(name, intValue(value));
    } else if (word == ".init" || word == ".initf") {
        initRegister(word, rest);
    } else if (word == ".word" || word == ".float") {
        initMemory(word, rest);
    } else {
        fail("unknown directive '", word, "'");
    }
}

void
Assembler::setWidth(std::string_view rest, InstAddr rowsBefore)
{
    const std::optional<long long> n = parseIntLiteral(nextToken(rest));
    if (!n || *n < 1 || *n > kMaxFus)
        fail(".fus expects a count in 1..", kMaxFus);
    expectEnd(rest, ".fus");
    if (width_ != 0)
        fail("duplicate .fus directive");
    if (rowsBefore > 0)
        fail(".fus must precede instruction rows");
    width_ = static_cast<FuId>(*n);
    // Initializers declared before .fus move into the sized program.
    Program sized(width_);
    for (const auto &[addr, value] : prog_.memInit())
        sized.addMemInit(addr, value);
    for (const auto &[r, value] : prog_.regInit())
        sized.addRegInit(r, value);
    prog_ = std::move(sized);
}

void
Assembler::declareRegister(std::string_view rest)
{
    const std::string_view name = nextToken(rest);
    if (name.empty())
        fail(".reg expects a name");
    if (isNumericRegName(name))
        fail("register name '", name, "' collides with rN numeric form");
    if (regs_.find(name))
        fail("register '", name, "' redefined");
    long long idx = -1;
    if (const std::string_view tok = nextToken(rest); !tok.empty()) {
        const std::optional<long long> v = parseIntLiteral(tok);
        if (!v || *v < 0 || *v >= kNumRegisters)
            fail("bad register index '", tok, "'");
        idx = *v;
        expectEnd(rest, ".reg");
    } else {
        // Auto-allocate the lowest unused register.
        const auto it = std::find(regUsed_.begin(), regUsed_.end(), false);
        if (it == regUsed_.end())
            fail("register file exhausted");
        idx = it - regUsed_.begin();
    }
    regUsed_[static_cast<std::size_t>(idx)] = true;
    regs_.insert(name, static_cast<RegId>(idx));
}

void
Assembler::initRegister(std::string_view word, std::string_view rest)
{
    const std::string_view name = nextToken(rest);
    const std::string_view value = nextToken(rest);
    if (value.empty())
        fail(word, " expects a register name and a value");
    expectEnd(rest, word);
    RegId r;
    if (const RegId *bound = regs_.find(name))
        r = *bound;
    else if (isNumericRegName(name))
        r = reg(name);
    else
        fail("unknown register '", name, "' (declare with .reg first)");
    prog_.addRegInit(r, word == ".initf"
                            ? floatToWord(floatValue(value, "literal"))
                            : intValue(value));
}

/** `.word`/`.float` values go straight into the memory image. */
void
Assembler::initMemory(std::string_view word, std::string_view rest)
{
    const std::string_view addrTok = nextToken(rest);
    if (addrTok.empty())
        fail(word, " expects an address");
    Addr addr = intValue(addrTok);
    const bool isFloat = word == ".float";
    bool any = false;
    for (std::string_view tok; !(tok = nextToken(rest)).empty();) {
        any = true;
        prog_.addMemInit(addr++,
                         isFloat ? floatToWord(floatValue(tok, "literal"))
                                 : intValue(tok));
    }
    if (!any)
        fail(word, " expects at least one value");
}

// ---- Literals and names -------------------------------------------------

Word
Assembler::intValue(std::string_view text)
{
    if (const std::optional<long long> v = parseIntLiteral(text)) {
        if (*v < -2147483648LL || *v > 4294967295LL)
            fail("integer '", text, "' does not fit in 32 bits");
        return static_cast<Word>(static_cast<std::uint64_t>(*v));
    }
    const Word *value = consts_.find(text);
    if (!value)
        fail("undefined constant '", text, "'");
    return *value;
}

long long
Assembler::strictInt(std::string_view text)
{
    const std::optional<long long> v = parseIntLiteral(text);
    if (!v)
        fail("bad integer literal '", text, "'");
    return *v;
}

float
Assembler::floatValue(std::string_view text, const char *what)
{
    floatText_.assign(text);
    const char *begin = floatText_.c_str();
    char *end = nullptr;
    const float f = std::strtof(begin, &end);
    if (end == begin || end != begin + floatText_.size())
        fail("bad float ", what, " '", floatText_, "'");
    return f;
}

RegId
Assembler::reg(std::string_view text)
{
    if (isNumericRegName(text)) {
        const long long v = strictInt(text.substr(1));
        if (v < 0 || v >= kNumRegisters)
            fail("register ", text, " out of range");
        return static_cast<RegId>(v);
    }
    const RegId *r = regs_.find(text);
    if (!r)
        fail("unknown register '", text, "'");
    return *r;
}

InstAddr
Assembler::target(std::string_view text)
{
    if (const InstAddr *addr = labels_.find(text))
        return *addr;
    const std::optional<long long> v = parseIntLiteral(text);
    if (v && *v >= 0 && *v < static_cast<long long>(rowCount_))
        return static_cast<InstAddr>(*v);
    if (v)
        fail("branch target ", text, " out of range");
    fail("undefined label '", text, "'");
}

Operand
Assembler::operand(std::string_view text)
{
    if (text[0] != '#')
        return Operand::reg(reg(text));
    const std::string_view lit = text.substr(1);
    if (lit.empty())
        fail("empty immediate");
    // Float immediates contain a '.' (hex literals never do).
    if (lit.find('.') != std::string_view::npos)
        return Operand::immFloat(floatValue(lit, "immediate"));
    return Operand::imm(intValue(lit));
}

// ---- Stage 3: encoding --------------------------------------------------

void
Assembler::encode()
{
    for (const Statement &s : statements_) {
        if (s.kind != Statement::Kind::Row)
            continue;
        line_ = s.line;
        if (s.parcels != width_)
            fail("row has ", s.parcels, " parcels; .fus is ", width_);
        InstRow row;
        row.reserve(width_);
        const ParcelFields *fields = &parcels_[s.firstParcel];
        for (FuId fu = 0; fu < width_; ++fu) {
            // FUs of a row often repeat a parcel (VLIW-style rows share
            // their control op), and the same text encodes the same way.
            const ParcelFields &f = fields[fu];
            if (fu > 0 && f.ctrl == fields[fu - 1].ctrl &&
                f.data == fields[fu - 1].data &&
                f.sync == fields[fu - 1].sync && !f.extra)
                row.push_back(row.back());
            else
                row.push_back(encodeParcel(f, s.addr));
        }
        prog_.addRow(std::move(row));
        prog_.setRowLine(s.addr, s.line);
    }
}

Parcel
Assembler::encodeParcel(const ParcelFields &f, InstAddr addr)
{
    if (f.extra)
        fail("parcel has more than three ';' fields");
    Parcel p;
    p.ctrl = encodeCtrl(f.ctrl, addr);
    p.data = encodeData(f.data);
    if (f.sync.empty() || equalsNoCase(f.sync, "busy"))
        p.sync = SyncVal::Busy;
    else if (equalsNoCase(f.sync, "done"))
        p.sync = SyncVal::Done;
    else
        fail("bad sync field '", f.sync, "'");
    return p;
}

ControlOp
Assembler::encodeCtrl(std::string_view text, InstAddr addr)
{
    if (text.empty()) {
        // Default: fall through to the next row.
        if (addr + 1 >= rowCount_)
            fail("fall-through past end of program (add an explicit "
                 "branch or halt)");
        return ControlOp::jump(addr + 1);
    }

    std::string_view rest = text;
    const std::string_view op = nextToken(rest);

    if (op == "halt") {
        if (!nextToken(rest).empty())
            fail("halt takes no operands");
        return ControlOp::halt();
    }

    if (op == "->") {
        const std::string_view t = nextToken(rest);
        if (t.empty())
            fail("-> expects a target");
        if (const std::string_view extra = nextToken(rest); !extra.empty())
            fail("unexpected token '", extra, "' after target");
        return ControlOp::jump(target(t));
    }

    if (op == "if") {
        const std::string_view cond = nextToken(rest);
        const std::string_view t1 = nextToken(rest);
        const std::string_view t2 = nextToken(rest);
        if (t2.empty())
            fail("if expects: condition target1 target2");
        if (const std::string_view extra = nextToken(rest); !extra.empty())
            fail("unexpected token '", extra, "'");
        const InstAddr a1 = target(t1);
        const InstAddr a2 = target(t2);

        // Conditions fold case; messages quote the folded spelling.
        if (startsWithNoCase(cond, "cc"))
            return ControlOp::onCc(
                fuIndex(cond.substr(2), "condition code index out of range"),
                a1, a2);
        if (startsWithNoCase(cond, "ss"))
            return ControlOp::onSync(
                fuIndex(cond.substr(2), "sync signal index out of range"),
                a1, a2);
        if (equalsNoCase(cond, "all"))
            return ControlOp::onAllSync(a1, a2);
        if (equalsNoCase(cond, "any"))
            return ControlOp::onAnySync(a1, a2);
        if (cond.size() >= 5 && cond.back() == ')') {
            const std::string_view inner = cond.substr(4, cond.size() - 5);
            if (startsWithNoCase(cond, "all("))
                return ControlOp::onAllSync(a1, a2, fuMask(inner));
            if (startsWithNoCase(cond, "any("))
                return ControlOp::onAnySync(a1, a2, fuMask(inner));
        }
        fail("unknown branch condition '", cond, "'");
    }

    fail("unrecognized control operation '", text, "'");
}

/** A CC, SS or mask FU index below .fus; @p range names the failure. */
unsigned
Assembler::fuIndex(std::string_view digits, const char *range)
{
    const std::optional<long long> v = parseIntLiteral(digits);
    if (!v)
        fail("bad integer literal '", toLower(digits), "'");
    if (*v < 0 || *v >= static_cast<long long>(width_))
        fail(range);
    return static_cast<unsigned>(*v);
}

std::uint32_t
Assembler::fuMask(std::string_view list)
{
    std::uint32_t mask = 0;
    while (true) {
        const std::size_t comma = list.find(',');
        mask |= 1u << fuIndex(list.substr(0, comma),
                              "mask FU index out of range");
        if (comma == std::string_view::npos)
            return mask;
        list.remove_prefix(comma + 1);
    }
}

DataOp
Assembler::encodeData(std::string_view text)
{
    if (text.empty())
        return DataOp::nop();

    const std::string_view mnemonic =
        text.substr(0, std::find_if(text.begin(), text.end(),
                                    [](char c) {
                                        return c == ' ' || c == '\t';
                                    }) -
                           text.begin());
    const std::size_t sp = mnemonic.size() < text.size()
                               ? mnemonic.size()
                               : std::string_view::npos;
    std::optional<Opcode> opc;
    if (std::array<char, 32> buf; mnemonic.size() <= buf.size()) {
        std::transform(mnemonic.begin(), mnemonic.end(), buf.begin(), lower);
        opc = parseOpcode({buf.data(), mnemonic.size()});
    }
    if (!opc)
        fail("unknown mnemonic '", mnemonic, "'");

    // Every field is checked for emptiness before the count, as the
    // operands are cut; at most three are kept.
    std::array<std::string_view, 3> ops;
    std::size_t count = 0;
    if (sp != std::string_view::npos) {
        std::string_view list = text.substr(sp + 1);
        while (true) {
            const std::size_t comma = list.find(',');
            const std::string_view f = trim(list.substr(0, comma));
            if (f.empty())
                fail("empty operand in '", text, "'");
            if (count < ops.size())
                ops[count] = f;
            ++count;
            if (comma == std::string_view::npos)
                break;
            list.remove_prefix(comma + 1);
        }
    }

    const OpInfo &info = opInfo(*opc);
    const std::size_t expected =
        static_cast<std::size_t>(info.numSrcs) + (info.hasDest ? 1 : 0);
    if (count != expected)
        fail(info.name, " expects ", expected, " operands, got ", count);

    DataOp d;
    d.op = *opc;
    if (info.numSrcs >= 1)
        d.a = operand(ops[0]);
    if (info.numSrcs >= 2)
        d.b = operand(ops[1]);
    if (info.hasDest)
        d.dest = reg(ops[count - 1]);
    return d;
}

// ---- Program ------------------------------------------------------------

Program
Assembler::finish()
{
    for (const Statement &s : statements_) {
        if (s.kind == Statement::Kind::Label && s.addr >= rowCount_) {
            line_ = s.line;
            fail("label '", s.text, "' points past the last row");
        }
    }
    // Name order decides labelAt()/regName() among aliases.
    for (const auto &[name, addr] : labels_.sorted())
        prog_.setLabel(std::string(name), addr);
    for (const auto &[name, value] : consts_.sorted())
        prog_.setSymbol(std::string(name), value);
    for (const auto &[name, r] : regs_.sorted())
        prog_.nameRegister(std::string(name), r);
    prog_.validate();
    return std::move(prog_);
}

Program
Assembler::run()
{
    buildSymbolTable();
    encode();
    return finish();
}

/** Whole-file read; std::nullopt when the file cannot be opened. */
std::optional<std::string>
readSource(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

} // namespace

Program
assembleString(std::string_view source)
{
    return Assembler(source).run();
}

Program
assembleFile(const std::string &path)
{
    const std::optional<std::string> text = readSource(path);
    if (!text)
        fatal("cannot open assembly file '", path, "'");
    return assembleString(*text);
}

namespace {

/** Map an assembler exception onto a structured diagnostic. */
analysis::Diagnostic
asmDiagnostic(const AsmError &e)
{
    return {analysis::Severity::Error, analysis::Check::AsmParse,
            static_cast<InstAddr>(e.line()), -1, e.rawMessage()};
}

} // namespace

Result<Program, analysis::Diagnostic>
assembleStringResult(std::string_view source)
{
    try {
        return assembleString(source);
    } catch (const AsmError &e) {
        return {errTag, asmDiagnostic(e)};
    } catch (const FatalError &e) {
        // Post-assembly validation failures carry no line anchor.
        return {errTag,
                analysis::Diagnostic{analysis::Severity::Error,
                                     analysis::Check::AsmParse, 0, -1,
                                     e.what()}};
    }
}

Result<Program, analysis::Diagnostic>
assembleFileResult(const std::string &path)
{
    const std::optional<std::string> text = readSource(path);
    if (!text) {
        return {errTag,
                analysis::Diagnostic{
                    analysis::Severity::Error,
                    analysis::Check::LoadFailed, 0, -1,
                    "cannot open assembly file '" + path + "'"}};
    }
    return assembleStringResult(*text);
}

} // namespace ximd
