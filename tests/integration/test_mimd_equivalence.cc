/**
 * @file
 * Property test for the paper's section 2.1 MIMD claim: "By selecting
 * functions for delta_1 ... delta_n which disregard the state of
 * other functional units, XIMD can be a functional equivalent of this
 * MIMD model."
 *
 * We generate N completely independent single-FU programs (each with
 * its own registers, memory window and control flow), run each alone
 * on a one-FU machine, then run all of them together as the columns
 * of one width-N XIMD program. Requirements: identical per-program
 * results, and a combined runtime equal to the longest individual
 * runtime — the streams neither help nor hinder each other.
 */

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "support/random.hh"

namespace ximd {
namespace {

/** One independent random column program (terminating loops). */
struct ColumnProgram
{
    std::vector<Parcel> parcels; ///< One per row; pure column code.
    RegId counter;               ///< Loop counter register.
    Word iterations;
    Addr resultAddr;
};

/**
 * Build: `iters` loop iterations of a few random ALU ops, then store
 * an accumulator and halt. Rows: 0..k-1 body, k test, k+1 branch,
 * k+2 store+halt.
 */
ColumnProgram
makeColumn(FuId fu, Rng &rng)
{
    ColumnProgram col;
    col.counter = static_cast<RegId>(fu * 8);
    const RegId acc = static_cast<RegId>(fu * 8 + 1);
    col.iterations = static_cast<Word>(rng.range(1, 12));
    col.resultAddr = 900 + fu;

    const int bodyOps = static_cast<int>(rng.range(1, 4));
    const InstAddr testRow = static_cast<InstAddr>(bodyOps);
    const InstAddr branchRow = testRow + 1;
    const InstAddr exitRow = branchRow + 1;

    for (int i = 0; i < bodyOps; ++i) {
        const Opcode op = rng.chance(0.5) ? Opcode::Iadd : Opcode::Xor;
        DataOp d = DataOp::make(
            op, Operand::reg(acc),
            Operand::immInt(static_cast<SWord>(rng.range(1, 99))),
            acc);
        col.parcels.push_back(
            Parcel(ControlOp::jump(static_cast<InstAddr>(i + 1)), d));
    }
    // Decrement-and-test: counter counts down to zero.
    col.parcels.push_back(Parcel(
        ControlOp::jump(branchRow),
        DataOp::make(Opcode::Isub, Operand::reg(col.counter),
                     Operand::immInt(1), col.counter)));
    col.parcels.push_back(Parcel(
        ControlOp::onCc(fu, exitRow, 0),
        DataOp::makeCompare(Opcode::Le, Operand::reg(col.counter),
                            Operand::immInt(1))));
    col.parcels.push_back(
        Parcel(ControlOp::halt(),
               DataOp::makeStore(Operand::reg(acc),
                                 Operand::imm(col.resultAddr))));
    return col;
}

/** Rebase a column's parcels so its CC index / targets fit @p fu on a
 *  machine of the given width (the column was built for its fu). */
Program
columnsToProgram(const std::vector<ColumnProgram> &cols)
{
    const FuId width = static_cast<FuId>(cols.size());
    std::size_t rows = 0;
    for (const auto &c : cols)
        rows = std::max(rows, c.parcels.size());

    Program p(width);
    for (std::size_t r = 0; r < rows; ++r) {
        InstRow row;
        for (FuId fu = 0; fu < width; ++fu) {
            if (r < cols[fu].parcels.size())
                row.push_back(cols[fu].parcels[r]);
            else
                row.push_back(Parcel(ControlOp::halt(), DataOp::nop()));
        }
        p.addRow(std::move(row));
    }
    for (FuId fu = 0; fu < width; ++fu)
        p.addRegInit(cols[fu].counter, cols[fu].iterations);
    p.validate();
    return p;
}

/** Extract column @p fu as a standalone single-FU program. */
Program
soloProgram(const ColumnProgram &col, FuId originalFu)
{
    Program p(1);
    for (const Parcel &src : col.parcels) {
        Parcel parcel = src;
        if (parcel.ctrl.kind == CondKind::CcTrue)
            parcel.ctrl.index = 0; // its own CC on a 1-FU machine
        (void)originalFu;
        p.addRow({parcel});
    }
    p.addRegInit(col.counter, col.iterations);
    p.validate();
    return p;
}

class MimdEquivalence : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MimdEquivalence, IndependentStreamsNeitherHelpNorHinder)
{
    Rng rng(GetParam());
    const FuId width = static_cast<FuId>(rng.range(2, 8));

    std::vector<ColumnProgram> cols;
    for (FuId fu = 0; fu < width; ++fu)
        cols.push_back(makeColumn(fu, rng));

    // Solo runs.
    std::vector<Word> soloResult(width);
    std::vector<Cycle> soloCycles(width);
    for (FuId fu = 0; fu < width; ++fu) {
        Machine m(soloProgram(cols[fu], fu));
        const RunResult r = m.run(100000);
        ASSERT_TRUE(r.ok()) << r.faultMessage;
        soloResult[fu] = m.peekMem(cols[fu].resultAddr);
        soloCycles[fu] = r.cycles;
    }

    // Combined run: one machine, width columns, zero interaction.
    Machine m(columnsToProgram(cols));
    const RunResult r = m.run(100000);
    ASSERT_TRUE(r.ok()) << r.faultMessage;

    Cycle longest = 0;
    for (FuId fu = 0; fu < width; ++fu) {
        EXPECT_EQ(m.peekMem(cols[fu].resultAddr), soloResult[fu])
            << "FU" << fu;
        longest = std::max(longest, soloCycles[fu]);
    }
    EXPECT_EQ(r.cycles, longest);

    // The whole run is fully partitioned: once streams diverge, the
    // tracker must report more than one SSET somewhere.
    if (width > 1) {
        bool multi = false;
        for (const auto &[streams, cycles] :
             m.stats().partitionHistogram())
            if (streams > 1 && cycles > 0)
                multi = true;
        EXPECT_TRUE(multi);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MimdEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u, 9u, 10u, 11u, 12u));

} // namespace
} // namespace ximd
