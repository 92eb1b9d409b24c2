#include "asm/asm_writer.hh"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <type_traits>
#include <vector>

namespace ximd {

namespace {

/** Appends the assembler notation of program pieces to one buffer. */
class Writer
{
  public:
    explicit Writer(std::string &out) : out_(out) {}

    Writer &operator<<(std::string_view s)
    {
        out_ += s;
        return *this;
    }

    Writer &operator<<(char c)
    {
        out_ += c;
        return *this;
    }

    /** Decimal; immediates and data words are raw bits, floats too. */
    template <std::unsigned_integral T>
    Writer &operator<<(T v)
    {
        char buf[20];
        out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
        return *this;
    }

    /** Registers print as rN: unambiguous regardless of name bindings. */
    void operand(const Operand &o)
    {
        if (o.isReg())
            *this << 'r' << o.regId();
        else
            *this << '#' << o.immValue();
    }

    void data(const DataOp &d)
    {
        if (d.isNop()) {
            *this << "nop";
            return;
        }
        const OpInfo &info = opInfo(d.op);
        *this << info.name;
        char sep = ' ';
        if (info.numSrcs >= 1) {
            *this << sep;
            operand(d.a);
            sep = ',';
        }
        if (info.numSrcs >= 2) {
            *this << sep;
            operand(d.b);
        }
        if (info.hasDest)
            *this << sep << 'r' << d.dest;
    }

    /** "(0,2,5)" for a partial FU mask; nothing for every FU. */
    void mask(std::uint32_t m)
    {
        if (m == ~0u)
            return;
        char sep = '(';
        for (FuId i = 0; i < kMaxFus; ++i) {
            if (m & (1u << i)) {
                *this << sep << i;
                sep = ',';
            }
        }
        *this << ')';
    }

    void ctrl(const ControlOp &c)
    {
        switch (c.kind) {
          case CondKind::Always:
            *this << "-> " << c.t1;
            return;
          case CondKind::CcTrue:
            *this << "if cc" << c.index;
            break;
          case CondKind::SyncDone:
            *this << "if ss" << c.index;
            break;
          case CondKind::AllSync:
            *this << "if all";
            mask(c.mask);
            break;
          case CondKind::AnySync:
            *this << "if any";
            mask(c.mask);
            break;
          case CondKind::Halt:
            *this << "halt";
            return;
        }
        *this << ' ' << c.t1 << ' ' << c.t2;
    }

    /** `.word ADDR V0 V1 ...`: @p word(i) is the i-th of @p n values. */
    template <typename WordAt>
    void wordLine(Addr addr, std::size_t n, WordAt word)
    {
        *this << ".word " << addr;
        for (std::size_t i = 0; i < n; ++i)
            *this << ' ' << word(i);
        *this << '\n';
    }

    /** One `.word` line per run of consecutive addresses. */
    void memInit(const std::vector<std::pair<Addr, Word>> &mem)
    {
        for (std::size_t i = 0; i < mem.size();) {
            std::size_t j = i + 1;
            while (j < mem.size() && mem[j].first == mem[j - 1].first + 1)
                ++j;
            wordLine(mem[i].first, j - i,
                     [&](std::size_t k) { return mem[i + k].second; });
            i = j;
        }
    }

  private:
    std::string &out_;
};

/** wordLine() over Word, SWord or float data, each as its raw word. */
template <typename T>
std::string
wordLineOf(Addr addr, std::span<const T> values)
{
    std::string text;
    text.reserve(16 + 11 * values.size());
    Writer(text).wordLine(addr, values.size(), [&](std::size_t i) {
        if constexpr (std::is_same_v<T, float>)
            return floatToWord(values[i]);
        else
            return static_cast<Word>(values[i]);
    });
    return text;
}

} // namespace

std::string
wordLine(Addr addr, std::span<const Word> values)
{
    return wordLineOf(addr, values);
}

std::string
wordLine(Addr addr, std::span<const SWord> values)
{
    return wordLineOf(addr, values);
}

std::string
wordLine(Addr addr, std::span<const float> values)
{
    return wordLineOf(addr, values);
}

std::string
writeAssembly(const Program &prog)
{
    // ~40 bytes a parcel and ~11 a data word covers typical output, so
    // the buffer is allocated once.
    std::string text;
    text.reserve(64 + 40 * std::size_t(prog.size()) * prog.width() +
                 11 * prog.memInit().size() +
                 32 * (prog.regNames().size() + prog.symbols().size() +
                       prog.regInit().size() + prog.labels().size()));
    Writer w(text);
    w << ".fus " << prog.width() << '\n';

    // Register names, by index so auto-allocation never interferes.
    for (const auto &[r, name] : prog.regNames())
        w << ".reg " << name << ' ' << r << '\n';

    // The assembler pre-defines maxint/minint and would reject a
    // redefinition, so those builtins are never re-emitted.
    for (const auto &[name, value] : prog.symbols()) {
        if ((name == "maxint" && value == 0x7FFFFFFFu) ||
            (name == "minint" && value == 0x80000000u))
            continue;
        w << ".const " << name << ' ' << value << '\n';
    }

    // Initializers keep program order (later writes win, like the
    // loader); .init accepts the rN numeric form for unnamed regs.
    for (const auto &[r, value] : prog.regInit())
        w << ".init r" << r << ' ' << value << '\n';

    w.memInit(prog.memInit());

    // Labels by address (names in order within one address) so each
    // can prefix its row.
    std::vector<std::pair<InstAddr, const std::string *>> labels;
    labels.reserve(prog.labels().size());
    for (const auto &[name, addr] : prog.labels())
        labels.emplace_back(addr, &name);
    std::stable_sort(labels.begin(), labels.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });

    auto label = labels.begin();
    for (InstAddr a = 0; a < prog.size(); ++a) {
        for (; label != labels.end() && label->first == a; ++label)
            w << *label->second << ":\n";
        const InstRow &row = prog.row(a);
        for (FuId fu = 0; fu < prog.width(); ++fu) {
            if (fu)
                w << " || ";
            w.ctrl(row[fu].ctrl);
            w << " ; ";
            w.data(row[fu].data);
            if (row[fu].sync == SyncVal::Done)
                w << " ; done";
        }
        w << '\n';
    }
    return text;
}

} // namespace ximd
