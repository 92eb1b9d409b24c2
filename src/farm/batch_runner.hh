/**
 * @file
 * A forwarder kept for the repository benchmark, and for nothing else:
 * BatchRunner::run(specs, threads, width) returns Farm::run(specs,
 * threads) and ignores the lane width.
 *
 * The lane engine this name once dispatched to is deleted; jobs run
 * only on the scalar farm. perfbench's service-rt workload
 * (perfbench/src/service_rt.cc) still includes this header and calls
 * BatchRunner::run(specs, 1, 0) in its traced replay, and the
 * benchmark is changed only on its own. The benchmark follow-up
 * (ROADMAP.md, item 2(a)) repoints that replay and deletes this
 * header. Nothing under src/, tests/ or bench/ includes it.
 */

#ifndef XIMD_FARM_BATCH_RUNNER_HH
#define XIMD_FARM_BATCH_RUNNER_HH

#include <vector>

#include "farm/farm.hh"

namespace ximd::farm {

class BatchRunner
{
  public:
    static BatchResult run(const std::vector<RunSpec> &specs,
                           unsigned threads = 0, unsigned /*width*/ = 0)
    {
        return Farm::run(specs, threads);
    }
};

} // namespace ximd::farm

#endif // XIMD_FARM_BATCH_RUNNER_HH
