/**
 * @file
 * xfarm — the parallel batch-run engine.
 *
 * Farm::run executes a vector of RunSpecs across a pool of worker
 * threads and returns one JobResult per spec, in spec order. The
 * design makes determinism structural rather than aspirational:
 *
 *  - Work distribution is an atomic claim counter over the spec
 *    vector; each worker writes only results[i] for the indices it
 *    claimed, so no locks, no reordering, no shared accumulation.
 *  - Every job's outcome is a pure function of its RunSpec: the
 *    program is immutable and shared, the config is by value, and any
 *    randomness (scripted I/O arrival times) derives from
 *    config.seed. Running with 1 thread or 8 produces byte-identical
 *    statsJson for every job.
 *  - A job that faults, wedges, or fails its fixture check produces a
 *    structured diagnostic on its own JobResult; the batch keeps
 *    going.
 *
 * See DESIGN.md section 8 for the thread-safety contract this layer
 * relies on.
 */

#ifndef XIMD_FARM_FARM_HH
#define XIMD_FARM_FARM_HH

#include <vector>

#include "farm/run_spec.hh"

namespace ximd::json {
class Writer;
} // namespace ximd::json

namespace ximd::farm {

class Farm
{
  public:
    /**
     * Execute every spec; return results in spec order.
     *
     * @param threads  worker count; 0 picks the hardware concurrency.
     *                 Capped at the number of specs.
     */
    static BatchResult run(const std::vector<RunSpec> &specs,
                           unsigned threads = 0);

    /** Execute a single spec on the calling thread. */
    static JobResult runOne(const RunSpec &spec);
};

/**
 * Write @p job's record into the object @p w has open: name, ok, and
 * for a job that ran stop, backend, cycles and its statsJson embedded
 * as "stats"; then error when it failed. BatchResult::json and the
 * service's results stream both write their job lines with it.
 */
void writeJobFields(json::Writer &w, const JobResult &job);

} // namespace ximd::farm

namespace ximd {

/** Public façade name: `ximd::Farm::run(specs, threads)`. */
using farm::Farm;

} // namespace ximd

#endif // XIMD_FARM_FARM_HH
