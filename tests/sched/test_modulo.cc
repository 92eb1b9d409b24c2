#include "sched/modulo.hh"

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "support/logging.hh"
#include "support/random.hh"


namespace ximd::sched {
namespace {

/** Loop 12 as a PipelineLoop: X(k) = Y(k+1) - Y(k). */
PipelineLoop
loop12(Word n, Addr y0, Addr x0)
{
    PipelineLoop loop;
    loop.numLocals = 4; // y0, y1, x, ax
    loop.tripCount = n;
    PipeOp ld0{Opcode::Load, PipeVal::immRaw(y0),
               PipeVal::induction(), 0};
    PipeOp ld1{Opcode::Load, PipeVal::immRaw(y0 + 1),
               PipeVal::induction(), 1};
    PipeOp ax{Opcode::Iadd, PipeVal::induction(),
              PipeVal::immRaw(x0), 3};
    PipeOp sub{Opcode::Fsub, PipeVal::localVal(1),
               PipeVal::localVal(0), 2};
    PipeOp st{Opcode::Store, PipeVal::localVal(2),
              PipeVal::localVal(3), -1};
    loop.body = {ld0, ld1, ax, sub, st};
    return loop;
}

/** Vector scale: Z(k) = 3 * A(k). Depth 2. */
PipelineLoop
scaleLoop(Word n, Addr a0, Addr z0)
{
    PipelineLoop loop;
    loop.numLocals = 3; // a, z, az
    loop.tripCount = n;
    loop.body = {
        {Opcode::Load, PipeVal::immRaw(a0), PipeVal::induction(), 0},
        {Opcode::Iadd, PipeVal::induction(), PipeVal::immRaw(z0), 2},
        {Opcode::Imult, PipeVal::localVal(0), PipeVal::immInt(3), 1},
        {Opcode::Store, PipeVal::localVal(1), PipeVal::localVal(2),
         -1},
    };
    return loop;
}

TEST(Modulo, Loop12MatchesReference)
{
    const Word n = 20;
    const Addr y0 = 64, x0 = 128;
    PipelineInfo info;
    Program p = valueOrFatal(pipelineLoopChecked(loop12(n, y0, x0), 8, &info));

    EXPECT_EQ(info.depth, 3u);
    EXPECT_EQ(info.expansion, 2u);

    Machine m(p);
    std::vector<float> y(n + 1);
    for (Word k = 1; k <= n + 1; ++k) {
        y[k - 1] = 0.5f * static_cast<float>(k * k);
        m.memory().poke(y0 + k, floatToWord(y[k - 1]));
    }
    const RunResult r = m.run(10000);
    ASSERT_TRUE(r.ok()) << r.faultMessage;
    EXPECT_EQ(r.cycles, info.expectedCycles);
    for (Word k = 1; k <= n; ++k)
        EXPECT_FLOAT_EQ(wordToFloat(m.peekMem(x0 + k)),
                        y[k] - y[k - 1])
            << "X(" << k << ")";
}

TEST(Modulo, InitiationIntervalIsOne)
{
    const Word n = 500;
    PipelineInfo info;
    Program p = valueOrFatal(pipelineLoopChecked(loop12(n, 64, 1024), 8, &info));
    Machine m(p);
    ASSERT_TRUE(m.run(10000).ok());
    EXPECT_EQ(m.cycle(), n + info.depth);
}

TEST(Modulo, RunsIdenticallyOnVliw)
{
    Program p = valueOrFatal(pipelineLoopChecked(scaleLoop(12, 64, 128), 8));
    Machine x(p);
    Machine v(p, MachineConfig::vliw());
    for (Word k = 1; k <= 14; ++k) {
        x.memory().poke(64 + k, k * 10);
        v.memory().poke(64 + k, k * 10);
    }
    ASSERT_TRUE(x.run(1000).ok());
    ASSERT_TRUE(v.run(1000).ok());
    EXPECT_EQ(x.cycle(), v.cycle());
    for (Word k = 1; k <= 12; ++k)
        EXPECT_EQ(x.peekMem(128 + k), v.peekMem(128 + k));
}

TEST(Modulo, ScaleLoopDepthThree)
{
    // load (stage 0) -> mult (stage 1) -> store (sunk to stage 2).
    PipelineInfo info;
    Program p = valueOrFatal(pipelineLoopChecked(scaleLoop(10, 64, 128), 8, &info));
    EXPECT_EQ(info.depth, 3u);
    EXPECT_EQ(info.expansion, 2u);
    Machine m(p);
    for (Word k = 1; k <= 13; ++k)
        m.memory().poke(64 + k, k);
    ASSERT_TRUE(m.run(1000).ok());
    for (Word k = 1; k <= 10; ++k)
        EXPECT_EQ(m.peekMem(128 + k), 3 * k);
    EXPECT_EQ(m.cycle(), 10u + 3u);
}

TEST(Modulo, TinyTripCounts)
{
    for (Word n : {1u, 2u, 3u, 4u}) {
        Program p = valueOrFatal(pipelineLoopChecked(loop12(n, 64, 128), 8));
        Machine m(p);
        for (Word k = 1; k <= n + 3; ++k)
            m.memory().poke(64 + k, floatToWord(float(k * k)));
        const RunResult r = m.run(1000);
        ASSERT_TRUE(r.ok()) << "n=" << n << ": " << r.faultMessage;
        for (Word k = 1; k <= n; ++k)
            EXPECT_FLOAT_EQ(wordToFloat(m.peekMem(128 + k)),
                            float((k + 1) * (k + 1)) - float(k * k))
                << "n=" << n << " k=" << k;
    }
}

TEST(Modulo, RejectsTooManyOpsForWidth)
{
    PipelineLoop loop = loop12(10, 64, 128);
    EXPECT_THROW(valueOrFatal(pipelineLoopChecked(loop, 6)), FatalError); // 5 ops + 2 > 6
    EXPECT_NO_THROW(valueOrFatal(pipelineLoopChecked(loop, 7)));
}

TEST(Modulo, RejectsLateInductionRead)
{
    PipelineLoop loop;
    loop.numLocals = 2;
    loop.tripCount = 8;
    loop.body = {
        {Opcode::Iadd, PipeVal::immInt(1), PipeVal::immInt(2), 0},
        // Reads induction at stage 1: illegal.
        {Opcode::Iadd, PipeVal::localVal(0), PipeVal::induction(), 1},
    };
    EXPECT_THROW(valueOrFatal(pipelineLoopChecked(loop, 8)), FatalError);
}

TEST(Modulo, RejectsDoubleDefinedLocal)
{
    PipelineLoop loop;
    loop.numLocals = 1;
    loop.tripCount = 8;
    loop.body = {
        {Opcode::Iadd, PipeVal::immInt(1), PipeVal::immInt(2), 0},
        {Opcode::Iadd, PipeVal::immInt(3), PipeVal::immInt(4), 0},
    };
    EXPECT_THROW(valueOrFatal(pipelineLoopChecked(loop, 8)), FatalError);
}

TEST(Modulo, RejectsUseBeforeDef)
{
    PipelineLoop loop;
    loop.numLocals = 2;
    loop.tripCount = 8;
    loop.body = {
        {Opcode::Iadd, PipeVal::localVal(1), PipeVal::immInt(2), 0},
    };
    EXPECT_THROW(valueOrFatal(pipelineLoopChecked(loop, 8)), FatalError);
}

TEST(Modulo, FourTapFirDeepPipeline)
{
    // FIR filter y[k] = sum_j c_j * x[k - j], 4 taps, on a 16-FU
    // machine: 12 body ops + induction + exit = 14 <= 16. The
    // multiply-accumulate chain gives depth 6 and therefore register
    // expansion E = 5 — the deepest pipeline in the suite.
    constexpr Word n = 40;
    constexpr Addr x0 = 64;  // x[k] at x0 + k; x[-2..0] are zero pads
    constexpr Addr y0 = 512; // y[k] at y0 + k
    const SWord c[4] = {3, -2, 5, 7};

    PipelineLoop loop;
    loop.numLocals = 12; // 4 loads, 4 products, 3 partial sums, addr
    loop.tripCount = n;
    // Loads x[k], x[k-1], x[k-2], x[k-3] (bases shifted down).
    for (int j = 0; j < 4; ++j)
        loop.body.push_back({Opcode::Load,
                             PipeVal::immRaw(x0 - static_cast<Word>(j)),
                             PipeVal::induction(), j});
    loop.body.push_back({Opcode::Iadd, PipeVal::induction(),
                         PipeVal::immRaw(y0), 11});
    for (int j = 0; j < 4; ++j)
        loop.body.push_back({Opcode::Imult, PipeVal::localVal(j),
                             PipeVal::immInt(c[j]), 4 + j});
    loop.body.push_back({Opcode::Iadd, PipeVal::localVal(4),
                         PipeVal::localVal(5), 8});
    loop.body.push_back({Opcode::Iadd, PipeVal::localVal(8),
                         PipeVal::localVal(6), 9});
    loop.body.push_back({Opcode::Iadd, PipeVal::localVal(9),
                         PipeVal::localVal(7), 10});
    loop.body.push_back({Opcode::Store, PipeVal::localVal(10),
                         PipeVal::localVal(11), -1});

    PipelineInfo info;
    Program p = valueOrFatal(pipelineLoopChecked(loop, 16, &info));
    EXPECT_EQ(info.depth, 6u);
    EXPECT_EQ(info.expansion, 5u);

    MachineConfig cfg;
    Machine m(p, cfg);
    Rng rng(2025);
    std::vector<SWord> x(n + 8, 0);
    for (Word k = 1; k <= n; ++k) {
        x[k] = static_cast<SWord>(rng.range(-100, 100));
        m.memory().poke(x0 + k, intToWord(x[k]));
    }
    const RunResult r = m.run(10000);
    ASSERT_TRUE(r.ok()) << r.faultMessage;
    EXPECT_EQ(r.cycles, info.expectedCycles);

    for (Word k = 1; k <= n; ++k) {
        SWord expect = 0;
        for (int j = 0; j < 4; ++j)
            expect += c[j] * (static_cast<SWord>(k) - j >= 1
                                  ? x[k - static_cast<Word>(j)]
                                  : 0);
        EXPECT_EQ(wordToInt(m.peekMem(y0 + k)), expect)
            << "y[" << k << "]";
    }
}

TEST(Modulo, RandomArithmeticPipelines)
{
    // Depth-3 integer pipeline: t0 = A(k)*5; t1 = t0 ^ 77; store.
    Rng rng(99);
    for (int trial = 0; trial < 5; ++trial) {
        const Word n = static_cast<Word>(rng.range(4, 60));
        PipelineLoop loop;
        loop.numLocals = 4;
        loop.tripCount = n;
        loop.body = {
            {Opcode::Load, PipeVal::immRaw(64), PipeVal::induction(),
             0},
            {Opcode::Iadd, PipeVal::induction(), PipeVal::immRaw(512),
             3},
            {Opcode::Imult, PipeVal::localVal(0), PipeVal::immInt(5),
             1},
            {Opcode::Xor, PipeVal::localVal(1), PipeVal::immInt(77),
             2},
            {Opcode::Store, PipeVal::localVal(2), PipeVal::localVal(3),
             -1},
        };
        PipelineInfo info;
        Program p = valueOrFatal(pipelineLoopChecked(loop, 8, &info));
        // load -> mult -> xor -> store: four stages.
        EXPECT_EQ(info.depth, 4u);

        Machine m(p);
        std::vector<Word> a(n + 4);
        for (Word k = 1; k < a.size(); ++k) {
            a[k] = static_cast<Word>(rng.next64());
            m.memory().poke(64 + k, a[k]);
        }
        ASSERT_TRUE(m.run(10000).ok());
        for (Word k = 1; k <= n; ++k)
            EXPECT_EQ(m.peekMem(512 + k), (a[k] * 5u) ^ 77u)
                << "trial " << trial << " k " << k;
    }
}

} // namespace
} // namespace ximd::sched
