/**
 * @file
 * Property test for the paper's section 2.1 claim: "If for a given
 * program, the functions delta_1 ... delta_n are identical and the
 * initial values of the state variables S1 ... Sn are identical, then
 * the XIMD machine will be the functional equivalent of a VLIW
 * machine."
 *
 * We generate random VLIW-style programs (identical control fields in
 * every parcel, forward-only branches so they terminate), run each on
 * xsim and vsim, and require identical cycle counts, architectural
 * state, and lock-step PCs.
 */

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "support/random.hh"

namespace ximd {
namespace {

/** Random terminating VLIW-style program on @p width FUs. */
Program
randomVliwProgram(FuId width, std::uint64_t seed)
{
    Rng rng(seed);
    const InstAddr rows =
        static_cast<InstAddr>(rng.range(4, 24));
    Program p(width);

    // Each FU writes only registers in its own bank and memory in its
    // own window, so races cannot occur; reads may touch anything
    // already deterministic (any register, any memory word).
    auto randomDataOp = [&](FuId fu) -> DataOp {
        const RegId bank = static_cast<RegId>(fu * 8);
        auto anyReg = [&] {
            return Operand::reg(
                static_cast<RegId>(rng.range(0, width * 8 - 1)));
        };
        auto ownDest = [&] {
            return static_cast<RegId>(bank + rng.range(0, 7));
        };
        switch (rng.range(0, 6)) {
          case 0:
            return DataOp::nop();
          case 1:
            return DataOp::make(Opcode::Iadd, anyReg(),
                                Operand::immInt(static_cast<SWord>(
                                    rng.range(-9, 9))),
                                ownDest());
          case 2:
            return DataOp::make(Opcode::Xor, anyReg(), anyReg(),
                                ownDest());
          case 3:
            return DataOp::makeCompare(Opcode::Lt, anyReg(), anyReg());
          case 4:
            return DataOp::make(Opcode::Imult, anyReg(),
                                Operand::immInt(static_cast<SWord>(
                                    rng.range(0, 5))),
                                ownDest());
          case 5: {
            const Addr a =
                static_cast<Addr>(512 + fu * 16 + rng.range(0, 15));
            return DataOp::makeStore(anyReg(), Operand::imm(a));
          }
          default: {
            const Addr a =
                static_cast<Addr>(512 + rng.range(0, width * 16 - 1));
            return DataOp::makeLoad(Operand::imm(a),
                                    Operand::immInt(0), ownDest());
          }
        }
    };

    for (InstAddr r = 0; r < rows; ++r) {
        ControlOp ctrl;
        if (r + 1 == rows) {
            ctrl = ControlOp::halt();
        } else if (rng.chance(0.3) && r + 2 < rows) {
            // Forward conditional branch: both targets after this row.
            const auto t1 = static_cast<InstAddr>(
                rng.range(r + 1, rows - 1));
            const auto t2 = static_cast<InstAddr>(
                rng.range(r + 1, rows - 1));
            ctrl = ControlOp::onCc(
                static_cast<unsigned>(rng.range(0, width - 1)), t1,
                t2);
        } else if (rng.chance(0.1) && r + 2 < rows) {
            ctrl = ControlOp::jump(static_cast<InstAddr>(
                rng.range(r + 1, rows - 1)));
        } else {
            ctrl = ControlOp::jump(r + 1);
        }
        InstRow row;
        for (FuId fu = 0; fu < width; ++fu)
            row.push_back(Parcel(ctrl, randomDataOp(fu)));
        p.addRow(std::move(row));
    }
    p.validate();
    return p;
}

class VliwEquivalence
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>>
{
};

TEST_P(VliwEquivalence, XimdEmulatesVliwExactly)
{
    const auto [width, seed] = GetParam();
    Program prog = randomVliwProgram(static_cast<FuId>(width), seed);

    MachineConfig cfg;
    cfg.recordTrace = true;
    Machine x(prog, cfg);
    Machine v(prog, cfg.withMode(Mode::Vliw));
    ASSERT_EQ(v.mode(), Mode::Vliw);

    const RunResult rx = x.run(100000);
    const RunResult rv = v.run(100000);

    ASSERT_TRUE(rx.ok()) << rx.faultMessage;
    ASSERT_TRUE(rv.ok()) << rv.faultMessage;
    ASSERT_EQ(rx.cycles, rv.cycles);

    // Lock-step PCs: every XIMD FU tracked the single VLIW PC.
    ASSERT_EQ(x.trace().size(), v.trace().size());
    for (std::size_t c = 0; c < x.trace().size(); ++c) {
        const TraceEntry &ex = x.trace().entry(c);
        const TraceEntry &ev = v.trace().entry(c);
        for (FuId fu = 0; fu < prog.width(); ++fu)
            ASSERT_EQ(ex.pcs[fu], ev.pcs[0])
                << "cycle " << c << " FU" << fu;
        // One instruction stream throughout.
        std::string lockstep = "{";
        for (FuId fu = 0; fu < prog.width(); ++fu)
            lockstep += (fu ? "," : "") + std::to_string(fu);
        lockstep += "}";
        ASSERT_EQ(ex.partition, lockstep) << "cycle " << c;
    }

    // Identical architectural state.
    for (RegId r = 0; r < kNumRegisters; ++r)
        ASSERT_EQ(x.readReg(r), v.readReg(r)) << "r" << unsigned(r);
    for (Addr a = 512; a < 512 + prog.width() * 16; ++a)
        ASSERT_EQ(x.peekMem(a), v.peekMem(a)) << "mem " << a;

    // Identical statistics for the shared counters.
    EXPECT_EQ(x.stats().parcels(), v.stats().parcels());
    EXPECT_EQ(x.stats().dataOps(), v.stats().dataOps());
}

INSTANTIATE_TEST_SUITE_P(
    RandomPrograms, VliwEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u,
                                         77u, 88u)));

} // namespace
} // namespace ximd
