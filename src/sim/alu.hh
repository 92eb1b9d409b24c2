/**
 * @file
 * Scalar arithmetic of the universal FU datapath, as inline helpers.
 *
 * The semantics pinned down in datapath.hh (two's-complement
 * wraparound, 5-bit shift amounts, signed-truncating idiv/imod with a
 * divide-by-zero fault, host IEEE single-precision floats, ftoi's
 * out-of-range value) live here so every executor shares one
 * definition: executeDataOp (sim/datapath.cc, which interpretIr also
 * runs), the interpreter backend (core/interp_backend.cc), the
 * threaded backend's handlers (core/threaded_backend.cc) and the C
 * frontend's constant folding. No operand value makes any of them
 * undefined behaviour in C++.
 */

#ifndef XIMD_SIM_ALU_HH
#define XIMD_SIM_ALU_HH

#include <limits>

#include "isa/opcode.hh"
#include "support/logging.hh"
#include "support/types.hh"

namespace ximd::alu {

inline Word
intBinary(Opcode op, Word wa, Word wb)
{
    const SWord a = wordToInt(wa);
    const SWord b = wordToInt(wb);
    switch (op) {
      case Opcode::Iadd:
        return wa + wb;
      case Opcode::Isub:
        return wa - wb;
      case Opcode::Imult:
        return intToWord(static_cast<SWord>(
            static_cast<std::int64_t>(a) * static_cast<std::int64_t>(b)));
      case Opcode::Idiv:
        if (b == 0)
            fatal("integer divide by zero");
        if (a == std::numeric_limits<SWord>::min() && b == -1)
            return intToWord(std::numeric_limits<SWord>::min());
        return intToWord(a / b);
      case Opcode::Imod:
        if (b == 0)
            fatal("integer modulo by zero");
        if (a == std::numeric_limits<SWord>::min() && b == -1)
            return 0;
        return intToWord(a % b);
      case Opcode::And:
        return wa & wb;
      case Opcode::Or:
        return wa | wb;
      case Opcode::Xor:
        return wa ^ wb;
      case Opcode::Shl:
        return wa << (wb & 31u);
      case Opcode::Shr:
        return wa >> (wb & 31u);
      case Opcode::Sar:
        return intToWord(a >> (wb & 31u));
      default:
        panic("intBinary: unexpected opcode ", opcodeName(op));
    }
}

/** Ineg, Not, Mov. Ineg wraps: the negation of INT_MIN is INT_MIN. */
inline Word
intUnary(Opcode op, Word a)
{
    switch (op) {
      case Opcode::Ineg: return 0u - a;
      case Opcode::Not:  return ~a;
      case Opcode::Mov:  return a;
      default:
        panic("intUnary: unexpected opcode ", opcodeName(op));
    }
}

inline bool
intCompare(Opcode op, Word wa, Word wb)
{
    const SWord a = wordToInt(wa);
    const SWord b = wordToInt(wb);
    switch (op) {
      case Opcode::Eq: return a == b;
      case Opcode::Ne: return a != b;
      case Opcode::Lt: return a < b;
      case Opcode::Le: return a <= b;
      case Opcode::Gt: return a > b;
      case Opcode::Ge: return a >= b;
      default:
        panic("intCompare: unexpected opcode ", opcodeName(op));
    }
}

inline Word
floatBinary(Opcode op, Word wa, Word wb)
{
    const float a = wordToFloat(wa);
    const float b = wordToFloat(wb);
    switch (op) {
      case Opcode::Fadd:  return floatToWord(a + b);
      case Opcode::Fsub:  return floatToWord(a - b);
      case Opcode::Fmult: return floatToWord(a * b);
      case Opcode::Fdiv:  return floatToWord(a / b);
      default:
        panic("floatBinary: unexpected opcode ", opcodeName(op));
    }
}

/** Fneg: flips the sign, of NaN and infinities too. */
inline Word
floatUnary(Opcode op, Word a)
{
    if (op != Opcode::Fneg)
        panic("floatUnary: unexpected opcode ", opcodeName(op));
    return floatToWord(-wordToFloat(a));
}

inline bool
floatCompare(Opcode op, Word wa, Word wb)
{
    const float a = wordToFloat(wa);
    const float b = wordToFloat(wb);
    switch (op) {
      case Opcode::Feq: return a == b;
      case Opcode::Fne: return a != b;
      case Opcode::Flt: return a < b;
      case Opcode::Fle: return a <= b;
      case Opcode::Fgt: return a > b;
      case Opcode::Fge: return a >= b;
      default:
        panic("floatCompare: unexpected opcode ", opcodeName(op));
    }
}

/**
 * Itof, and Ftoi truncating toward zero. NaN and any float outside
 * [-2^31, 2^31) convert to 0x80000000 (INT_MIN), what x86-64's
 * cvttss2si returns for them; C++ leaves that cast undefined.
 */
inline Word
convert(Opcode op, Word a)
{
    switch (op) {
      case Opcode::Itof:
        return floatToWord(static_cast<float>(wordToInt(a)));
      case Opcode::Ftoi: {
        const float f = wordToFloat(a);
        if (!(f >= -2147483648.0f && f < 2147483648.0f))
            return 0x80000000u;
        return intToWord(static_cast<SWord>(f));
      }
      default:
        panic("convert: unexpected opcode ", opcodeName(op));
    }
}

} // namespace ximd::alu

#endif // XIMD_SIM_ALU_HH
