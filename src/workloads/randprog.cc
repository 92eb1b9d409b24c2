#include "workloads/randprog.hh"

#include <sstream>
#include <vector>

#include "asm/asm_writer.hh"
#include "asm/assembler.hh"
#include "support/logging.hh"
#include "support/random.hh"

namespace ximd::workloads {

namespace {

constexpr unsigned kRegsPerFu = 4;

std::string
regName(FuId fu, unsigned r)
{
    return "f" + std::to_string(fu) + "r" + std::to_string(r);
}

/** A source operand: one of the FU's own registers or an immediate. */
std::string
source(Rng &rng, FuId fu)
{
    if (rng.range(0, 2) == 0)
        return "#" + std::to_string(rng.range(0, 15));
    return regName(fu, static_cast<unsigned>(
                           rng.range(0, kRegsPerFu - 1)));
}

/** One wrap-safe data op for @p fu (no division, bounded shifts). */
std::string
dataOp(Rng &rng, const RandProgOptions &o, FuId fu)
{
    const Addr lo = o.memBase + fu * o.memWordsPerFu;
    const std::string dest = regName(
        fu, static_cast<unsigned>(rng.range(0, kRegsPerFu - 1)));
    switch (rng.range(0, 9)) {
      case 0:
        return "load #" +
               std::to_string(lo + static_cast<Addr>(rng.range(
                                       0, o.memWordsPerFu - 1))) +
               ",#0," + dest;
      case 1:
        return "store " + source(rng, fu) + ",#" +
               std::to_string(lo + static_cast<Addr>(rng.range(
                                       0, o.memWordsPerFu - 1)));
      case 2:
        return "shl " + source(rng, fu) + ",#" +
               std::to_string(rng.range(1, 3)) + "," + dest;
      case 3:
        return "nop";
      default: {
        static const char *alu[] = {"iadd", "isub", "and", "or",
                                    "xor"};
        return std::string(alu[rng.range(0, 4)]) + " " +
               source(rng, fu) + "," + source(rng, fu) + "," + dest;
      }
    }
}

/** FU 0's compare flavor (writes cc0). */
std::string
compareOp(Rng &rng)
{
    static const char *cmp[] = {"lt", "gt", "eq", "ne", "le", "ge"};
    return std::string(cmp[rng.range(0, 5)]) + " " +
           regName(0, static_cast<unsigned>(
                          rng.range(0, kRegsPerFu - 1))) +
           "," + source(rng, 0);
}

} // namespace

std::string
randomLockstepSource(const RandProgOptions &o)
{
    if (o.width < 1 || o.width > 8)
        fatal("randprog: width must be 1..8, got ", o.width);
    if (o.rows < 2)
        fatal("randprog: need at least 2 rows, got ", o.rows);
    if (o.memWordsPerFu < 1)
        fatal("randprog: empty memory windows");

    Rng rng(o.seed);
    std::ostringstream os;
    os << ".fus " << o.width << "\n";
    for (FuId f = 0; f < o.width; ++f)
        for (unsigned r = 0; r < kRegsPerFu; ++r)
            os << ".reg " << regName(f, r) << "\n.init "
               << regName(f, r) << " " << rng.range(-100, 100)
               << "\n";
    std::vector<SWord> words(o.memWordsPerFu);
    for (FuId f = 0; f < o.width; ++f) {
        for (SWord &w : words)
            w = static_cast<SWord>(rng.range(-100, 100));
        os << wordLine(o.memBase + f * o.memWordsPerFu, words);
    }

    // Row 0 is always a compare so cc0 dominates every branch row.
    // Ops are drawn per FU even on branch rows, keeping the data and
    // control streams independent draws of the same generator state.
    for (unsigned row = 0; row < o.rows; ++row) {
        const bool canBranch = row > 0 && row + 2 <= o.rows;
        const bool branch =
            canBranch &&
            rng.range(0, 99) < static_cast<std::int64_t>(
                                   o.branchPercent);
        std::string control;
        if (branch) {
            const unsigned target = static_cast<unsigned>(
                rng.range(row + 1, o.rows));
            control = "if cc0 L" + std::to_string(target) + " L" +
                      std::to_string(row + 1);
        } else {
            control = "-> L" + std::to_string(row + 1);
        }
        os << "L" << row << ":";
        for (FuId f = 0; f < o.width; ++f) {
            std::string op;
            if (f == 0 && (row == 0 || rng.range(0, 4) == 0))
                op = compareOp(rng);
            else
                op = dataOp(rng, o, f);
            os << (f ? " || " : " ") << control << " ; " << op;
        }
        os << "\n";
    }
    os << "L" << o.rows << ":";
    for (FuId f = 0; f < o.width; ++f)
        os << (f ? " || " : " ") << "halt";
    os << "\n";
    return os.str();
}

Program
randomLockstepProgram(const RandProgOptions &o)
{
    return assembleString(randomLockstepSource(o));
}

sched::IrProgram
randomLoopIr(const RandLoopOptions &o)
{
    XIMD_ASSERT(o.tripCount >= 1, "randomLoopIr: tripCount >= 1");
    using sched::IrValue;
    using sched::VregId;
    Rng rng(o.seed ^ 0xC0DE'5EED'1991'0403ULL);
    sched::IrBuilder b;

    const VregId vInd = b.newVreg(); // v0: induction counter
    const VregId vAcc = b.newVreg(); // v1: accumulator
    b.setInit(vInd, 0);
    b.setInit(vAcc, static_cast<Word>(rng.range(0, 999)));
    for (unsigned k = 1; k <= o.tripCount; ++k)
        b.setMemInit(o.inBase + k,
                     static_cast<Word>(rng.range(0, 100000)));

    b.startBlock("loop");
    b.emitTo(vInd, Opcode::Iadd, IrValue::reg(vInd),
             IrValue::immInt(1));

    // Wrap-safe integer/bitwise body over the live values. Word
    // arithmetic wraps identically in the machine and in
    // interpretIr, so nothing here can fault or diverge.
    static const Opcode kArith[] = {Opcode::Iadd, Opcode::Isub,
                                    Opcode::Imult, Opcode::Xor,
                                    Opcode::And,   Opcode::Or};
    std::vector<VregId> live = {vInd, vAcc};
    const auto liveSrc = [&] {
        return IrValue::reg(live[static_cast<std::size_t>(rng.range(
            0, static_cast<int>(live.size()) - 1))]);
    };
    bool stored = false;
    for (unsigned i = 0; i < o.bodyOps; ++i) {
        switch (rng.range(0, 5)) {
          case 0: { // load from the input window
            const IrValue v = b.emitLoad(
                IrValue::immInt(static_cast<SWord>(o.inBase)),
                IrValue::reg(vInd));
            live.push_back(v.vreg);
            break;
          }
          case 1: // fold a value into the accumulator (RAW chain)
            b.emitTo(vAcc,
                     kArith[static_cast<std::size_t>(rng.range(0, 2))],
                     IrValue::reg(vAcc), liveSrc());
            break;
          case 2: { // store to this iteration's output slot
            if (stored)
                break; // one store/iteration: no in-loop WAW on memory
            const IrValue addr = b.emit(
                Opcode::Iadd, IrValue::reg(vInd),
                IrValue::immInt(static_cast<SWord>(o.outBase)));
            b.emitStore(liveSrc(), addr);
            live.push_back(addr.vreg);
            stored = true;
            break;
          }
          default: { // fresh temp from two live/immediate sources
            const IrValue rhs =
                rng.chance(0.3)
                    ? IrValue::immInt(
                          static_cast<SWord>(rng.range(1, 63)))
                    : liveSrc();
            const IrValue v = b.emit(
                kArith[static_cast<std::size_t>(rng.range(0, 5))],
                liveSrc(), rhs);
            live.push_back(v.vreg);
            break;
          }
        }
    }

    const int cmp = b.emitCompare(
        Opcode::Eq, IrValue::reg(vInd),
        IrValue::immInt(static_cast<SWord>(o.tripCount)));
    b.branch(cmp, "end", "loop");

    b.startBlock("end");
    b.emitStore(IrValue::reg(vAcc),
                IrValue::immInt(static_cast<SWord>(o.outBase)));
    b.halt();
    return b.finish();
}

} // namespace ximd::workloads
