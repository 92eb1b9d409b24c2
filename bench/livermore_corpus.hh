/**
 * @file
 * The livermore-c benchmark's programs, as the benches compile them:
 * the four examples/c Livermore kernels x {list, exact} scheduler tier
 * x {direct allocation, spilling into a 6-register window}, then
 * seeded random loops on the exact tier (loop seeds 7000, 7001, ...:
 * perfbench's livermore-c at seed 7). The verify and race-check passes
 * are left off; a bench that times them turns them on.
 */

#ifndef XIMD_BENCH_LIVERMORE_CORPUS_HH
#define XIMD_BENCH_LIVERMORE_CORPUS_HH

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "frontend/frontend.hh"
#include "sched/pipeline.hh"
#include "workloads/randprog.hh"

#ifndef XIMD_SOURCE_DIR
#error "XIMD_SOURCE_DIR must point at the repo root"
#endif

namespace ximd::bench {

/** One compile of the corpus: its IR and pipeline options. */
struct LivermoreCase
{
    sched::IrProgram ir;
    sched::PipelineOptions po;
};

/** The 16 Livermore compiles, then @p loops random loops. */
inline std::vector<LivermoreCase>
livermoreCases(unsigned loops)
{
    sched::PipelineOptions exact;
    exact.schedule = sched::ScheduleTier::Exact;
    exact.exact.budgetMs = 0;
    exact.exact.maxNodes = 200'000;

    std::vector<LivermoreCase> cases;
    for (const char *kernel :
         {"livermore1", "livermore2", "livermore3", "livermore12"}) {
        std::ifstream in(std::string(XIMD_SOURCE_DIR) + "/examples/c/" +
                         kernel + ".c");
        std::ostringstream text;
        text << in.rdbuf();
        auto ir = frontend::compileC(text.str());
        if (!ir.hasValue()) {
            std::cerr << kernel << ": " << ir.error().format() << "\n";
            std::exit(1);
        }
        for (bool isExact : {false, true})
            for (bool spill : {false, true}) {
                sched::PipelineOptions po =
                    isExact ? exact : sched::PipelineOptions{};
                if (spill) {
                    po.alloc.window.count = 6;
                    po.alloc.spill = true;
                }
                cases.push_back({ir.value(), po});
            }
    }
    for (unsigned i = 0; i < loops; ++i) {
        workloads::RandLoopOptions lo;
        lo.seed = 7 * 1000 + i;
        lo.bodyOps = 8;
        lo.tripCount = 6;
        cases.push_back({workloads::randomLoopIr(lo), exact});
    }
    return cases;
}

/** livermoreCases(@p loops), compiled. */
inline std::vector<Program>
livermorePrograms(unsigned loops = 16)
{
    std::vector<Program> progs;
    for (const LivermoreCase &c : livermoreCases(loops)) {
        sched::Compiler cc(c.po);
        progs.push_back(orDie(cc.compile(c.ir)).program);
    }
    return progs;
}

} // namespace ximd::bench

#endif // XIMD_BENCH_LIVERMORE_CORPUS_HH
