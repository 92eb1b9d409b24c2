/**
 * @file
 * FRONTEND_COMPILE — host-side cost of the C frontend and the
 * register allocator over the Livermore kernels (the .c files in
 * examples/c).
 * Stages priced separately: lex+parse+lower (frontend proper),
 * direct allocation, spilling linear scan into a tight window, and
 * the full xcc --input=c path through scheduling and codegen. The
 * reproduction table reports each kernel's IR shape and how hard the
 * allocator has to work at paper-plausible window sizes.
 */

#include "bench_util.hh"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "frontend/frontend.hh"
#include "sched/pipeline.hh"
#include "sched/regalloc.hh"

#ifndef XIMD_SOURCE_DIR
#error "XIMD_SOURCE_DIR must point at the repo root"
#endif

namespace {

using namespace ximd;
using namespace ximd::bench;
using namespace ximd::sched;

const char *const kKernels[] = {"livermore1", "livermore2",
                                "livermore3", "livermore12"};

std::string
kernelSource(const std::string &name)
{
    const std::string path =
        std::string(XIMD_SOURCE_DIR) + "/examples/c/" + name + ".c";
    std::ifstream in(path);
    if (!in.good()) {
        std::cerr << "missing " << path << "\n";
        std::exit(1);
    }
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

IrProgram
lowerOrDie(const std::string &name)
{
    auto r = frontend::compileC(kernelSource(name));
    if (!r.hasValue()) {
        std::cerr << r.error().format() << "\n";
        std::exit(1);
    }
    return std::move(r).value();
}

void
printTables()
{
    std::cout << "# FRONTEND_COMPILE: C frontend + register "
                 "allocator over the Livermore kernels\n";

    section("IR shape and allocation pressure per kernel");
    Table t({{"kernel", 12},
             {"vregs", 7},
             {"blocks", 7},
             {"ops", 6},
             {"peak", 6},
             {"regs@direct", 12},
             {"spill@6", 9}});
    t.header();
    for (const char *name : kKernels) {
        IrProgram ir = lowerOrDie(name);
        std::size_t ops = 0;
        for (const auto &blk : ir.blocks)
            ops += blk.ops.size();
        const Liveness lv = computeLiveness(ir);

        IrProgram direct = ir;
        auto d = allocateRegisters(direct, {});
        IrProgram tight = ir;
        auto s = allocateRegisters(
            tight, {.window = {0, 6}, .spill = true});
        t.row({name, num(static_cast<std::uint64_t>(ir.numVregs)),
               num(ir.blocks.size()), num(ops),
               num(lv.peak.pressure),
               d.hasValue() ? num(d.value().regsUsed) : "-",
               s.hasValue() ? num(s.value().spilledVregs) : "-"});
    }
    std::cout << "shape: the kernels need ~a dozen registers direct; "
                 "a 6-register window\nforces a handful of spills, "
                 "all of which stay correct (test_regalloc).\n";
}

void
frontendLower(benchmark::State &state)
{
    const std::string src =
        kernelSource(kKernels[static_cast<std::size_t>(
            state.range(0))]);
    for (auto _ : state) {
        auto r = frontend::compileC(src);
        benchmark::DoNotOptimize(r.hasValue());
    }
}
BENCHMARK(frontendLower)->DenseRange(0, 3)->ArgName("kernel");

void
allocateDirect(benchmark::State &state)
{
    const IrProgram ir = lowerOrDie(
        kKernels[static_cast<std::size_t>(state.range(0))]);
    for (auto _ : state) {
        IrProgram copy = ir;
        auto r = allocateRegisters(copy, {});
        benchmark::DoNotOptimize(r.hasValue());
    }
}
BENCHMARK(allocateDirect)->DenseRange(0, 3)->ArgName("kernel");

void
allocateSpill(benchmark::State &state)
{
    const IrProgram ir = lowerOrDie(
        kKernels[static_cast<std::size_t>(state.range(0))]);
    for (auto _ : state) {
        IrProgram copy = ir;
        auto r = allocateRegisters(
            copy, {.window = {0, 6}, .spill = true});
        benchmark::DoNotOptimize(r.hasValue());
    }
}
BENCHMARK(allocateSpill)->DenseRange(0, 3)->ArgName("kernel");

void
fullCompile(benchmark::State &state)
{
    const std::string src =
        kernelSource(kKernels[static_cast<std::size_t>(
            state.range(0))]);
    PipelineOptions po;
    po.width = 4;
    for (auto _ : state) {
        auto ir = frontend::compileC(src);
        Compiler cc(po);
        auto r = cc.compile(std::move(ir).value());
        benchmark::DoNotOptimize(r.hasValue());
    }
}
BENCHMARK(fullCompile)->DenseRange(0, 3)->ArgName("kernel");

} // namespace

XIMD_BENCH_MAIN(printTables)
