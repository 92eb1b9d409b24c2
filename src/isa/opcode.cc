#include "isa/opcode.hh"

#include <unordered_map>

#include "support/logging.hh"

namespace ximd {

namespace {

constexpr std::size_t kNumOps =
    static_cast<std::size_t>(Opcode::NumOpcodes);

} // namespace

namespace detail {

const OpInfo kOpTable[kNumOps] = {
    // name      class                   srcs  dest
    {"nop",    OpClass::Nop,          0, false},

    {"iadd",   OpClass::IntAlu,       2, true},
    {"isub",   OpClass::IntAlu,       2, true},
    {"imult",  OpClass::IntAlu,       2, true},
    {"idiv",   OpClass::IntAlu,       2, true},
    {"imod",   OpClass::IntAlu,       2, true},
    {"ineg",   OpClass::IntAlu,       1, true},

    {"and",    OpClass::IntAlu,       2, true},
    {"or",     OpClass::IntAlu,       2, true},
    {"xor",    OpClass::IntAlu,       2, true},
    {"not",    OpClass::IntAlu,       1, true},
    {"shl",    OpClass::IntAlu,       2, true},
    {"shr",    OpClass::IntAlu,       2, true},
    {"sar",    OpClass::IntAlu,       2, true},

    {"mov",    OpClass::IntAlu,       1, true},

    {"eq",     OpClass::IntCompare,   2, false},
    {"ne",     OpClass::IntCompare,   2, false},
    {"lt",     OpClass::IntCompare,   2, false},
    {"le",     OpClass::IntCompare,   2, false},
    {"gt",     OpClass::IntCompare,   2, false},
    {"ge",     OpClass::IntCompare,   2, false},

    {"fadd",   OpClass::FloatAlu,     2, true},
    {"fsub",   OpClass::FloatAlu,     2, true},
    {"fmult",  OpClass::FloatAlu,     2, true},
    {"fdiv",   OpClass::FloatAlu,     2, true},
    {"fneg",   OpClass::FloatAlu,     1, true},

    {"feq",    OpClass::FloatCompare, 2, false},
    {"fne",    OpClass::FloatCompare, 2, false},
    {"flt",    OpClass::FloatCompare, 2, false},
    {"fle",    OpClass::FloatCompare, 2, false},
    {"fgt",    OpClass::FloatCompare, 2, false},
    {"fge",    OpClass::FloatCompare, 2, false},

    {"itof",   OpClass::Convert,      1, true},
    {"ftoi",   OpClass::Convert,      1, true},

    {"load",   OpClass::MemLoad,      2, true},
    {"store",  OpClass::MemStore,     2, false},
};

void
badOpcode(std::size_t idx)
{
    panic("opcode out of range: ", idx);
}

} // namespace detail

std::string_view
opcodeName(Opcode op)
{
    return opInfo(op).name;
}

std::optional<Opcode>
parseOpcode(std::string_view name)
{
    static const std::unordered_map<std::string_view, Opcode> byName = [] {
        std::unordered_map<std::string_view, Opcode> m;
        for (std::size_t i = 0; i < kNumOps; ++i)
            m.emplace(detail::kOpTable[i].name, static_cast<Opcode>(i));
        return m;
    }();
    auto it = byName.find(name);
    if (it == byName.end())
        return std::nullopt;
    return it->second;
}

bool
isMemOp(Opcode op)
{
    const OpClass c = opInfo(op).cls;
    return c == OpClass::MemLoad || c == OpClass::MemStore;
}

bool
isFloatOp(Opcode op)
{
    const OpClass c = opInfo(op).cls;
    return c == OpClass::FloatAlu || c == OpClass::FloatCompare;
}

} // namespace ximd
