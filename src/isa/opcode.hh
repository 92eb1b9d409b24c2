/**
 * @file
 * The XIMD-1 data-path operation set.
 *
 * Section 2.2 of the paper defines 3-address register-to-register
 * operations on 32-bit integers and 32-bit floats, plus load/store and
 * compare operations that set the executing FU's condition-code
 * register. Figure 7 lists representative instructions (iadd, isub,
 * imult, idiv, load, store); the text adds "the common integer and
 * floating point arithmetic, logical, and compare instructions".
 */

#ifndef XIMD_ISA_OPCODE_HH
#define XIMD_ISA_OPCODE_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace ximd {

/** Every data-path operation executable by a universal FU in one cycle. */
enum class Opcode : std::uint8_t {
    Nop,

    // Integer arithmetic (Figure 7 plus the usual complement).
    Iadd, Isub, Imult, Idiv, Imod, Ineg,

    // Bitwise / shifts.
    And, Or, Xor, Not, Shl, Shr, Sar,

    // Register move (a -> d); shorthand for iadd a, #0, d.
    Mov,

    // Integer compares; set the executing FU's CC register.
    Eq, Ne, Lt, Le, Gt, Ge,

    // Floating-point arithmetic.
    Fadd, Fsub, Fmult, Fdiv, Fneg,

    // Floating-point compares; set the executing FU's CC register.
    Feq, Fne, Flt, Fle, Fgt, Fge,

    // Conversions.
    Itof, Ftoi,

    // Memory: load M(a+b) -> d ; store a -> M(b).
    Load, Store,

    NumOpcodes,
};

/** Broad functional classification used by stats and the scheduler. */
enum class OpClass : std::uint8_t {
    Nop,
    IntAlu,
    FloatAlu,
    IntCompare,
    FloatCompare,
    Convert,
    MemLoad,
    MemStore,
};

/** Static description of one opcode. */
struct OpInfo
{
    std::string_view name;  ///< Assembler mnemonic.
    OpClass cls;            ///< Functional class.
    std::uint8_t numSrcs;   ///< Source operands consumed (0..2).
    bool hasDest;           ///< Writes a destination register.
};

namespace detail {
/** Every opcode's descriptor, indexed by Opcode (opcode.cc). */
extern const OpInfo kOpTable[];
/** opInfo()'s out-of-range panic. */
[[noreturn]] void badOpcode(std::size_t idx);
} // namespace detail

/** Look up the static descriptor for @p op. */
inline const OpInfo &
opInfo(Opcode op)
{
    const auto idx = static_cast<std::size_t>(op);
    if (idx >= static_cast<std::size_t>(Opcode::NumOpcodes))
        detail::badOpcode(idx);
    return detail::kOpTable[idx];
}

/** Assembler mnemonic for @p op. */
std::string_view opcodeName(Opcode op);

/** Parse a mnemonic (lower case); std::nullopt when unknown. */
std::optional<Opcode> parseOpcode(std::string_view name);

/** True when @p op sets the executing FU's condition code. */
inline bool
setsCondCode(Opcode op)
{
    const OpClass c = opInfo(op).cls;
    return c == OpClass::IntCompare || c == OpClass::FloatCompare;
}

/** True when @p op touches memory. */
bool isMemOp(Opcode op);

/** True when @p op belongs to the floating-point data path. */
bool isFloatOp(Opcode op);

} // namespace ximd

#endif // XIMD_ISA_OPCODE_HH
