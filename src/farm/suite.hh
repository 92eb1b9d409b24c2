/**
 * @file
 * The built-in workload grid: the paper's section 4.1 suite as
 * RunSpecs.
 *
 * Every workload the benchmarks exercise is available here by name, so
 * xfarm, sweep files and tests all draw from one factory:
 *
 *   tproc                ximd | vliw   Example 1 (single stream)
 *   loop12               ximd | vliw   pipelined Livermore Loop 12
 *   minmax               ximd | vliw   Example 2 fork/join
 *   multisearch          ximd | vliw   6 concurrent search streams
 *   bitcount             ximd | vliw   Example 3 (vliw = serial code)
 *   bitcount-lockstep    vliw only     branchless lockstep baseline
 *   nonblocking          ximd only     Figure 12, scripted I/O ports
 *   nonblocking-barrier  ximd only     lock-step barrier baseline
 *   nonblocking-memflag  ximd only     polled memory-flag baseline
 *
 * Workload inputs are generated from the request's seed, and the
 * nonblocking family attaches scripted input ports whose arrival
 * cycles also derive from that seed — so a spec fully determines its
 * run, which is what the farm's determinism guarantee rests on.
 */

#ifndef XIMD_FARM_SUITE_HH
#define XIMD_FARM_SUITE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "farm/run_spec.hh"
#include "support/result.hh"

namespace ximd::farm {

/**
 * Memoizes generated programs by identity so spec variants that share
 * machine code (e.g. tproc on both modes, or one workload swept over
 * many configs) share one PreparedProgram, and the output check of
 * each draw of inputs, so every program built from one draw (e.g.
 * bitcount in both modes and bitcount-lockstep) shares one set of
 * reference values. Build-time only; not thread-safe — expand specs
 * on one thread, run them on many.
 */
class ProgramCache
{
  public:
    std::shared_ptr<const PreparedProgram>
    getOrBuild(const std::string &key,
               const std::function<Program()> &build);

    /**
     * The check of runs on the inputs drawn under @p drawKey: empty
     * until the first program built from that draw sets it.
     */
    ResultCheck &check(const std::string &drawKey);

  private:
    std::map<std::string, std::shared_ptr<const PreparedProgram>> map_;
    std::map<std::string, ResultCheck> checks_;
};

/** Request for one named workload run. */
struct WorkloadRequest
{
    std::string workload;     ///< Name from the table above.
    Mode mode = Mode::Ximd;   ///< Sequencing discipline.
    unsigned n = 256;         ///< Input size (where meaningful).
    std::uint64_t seed = 1;   ///< Input / I/O-schedule seed.
    MachineConfig config;     ///< Base config (mode/seed overridden).
    Cycle maxCycles = 0;      ///< 0: config default.
};

/** All names accepted by makeWorkloadSpec, in suite order. */
const std::vector<std::string> &suiteWorkloads();

/**
 * Build the spec for @p req. The error arm reports unknown workload
 * names and invalid workload/mode combinations as structured
 * diagnostics (Check::LoadFailed).
 */
Result<RunSpec, analysis::Diagnostic>
makeWorkloadSpec(const WorkloadRequest &req,
                 ProgramCache *cache = nullptr);

/**
 * makeWorkloadSpec with its failure kept as data: the error arm
 * becomes a spec of the same name whose loadError carries the
 * diagnostic, so that job fails alone and the rest of a batch runs.
 */
RunSpec workloadSpecOrFailure(const WorkloadRequest &req,
                              ProgramCache *cache = nullptr);

/** Options shaping the default grid. */
struct SuiteOptions
{
    unsigned n = 256;       ///< Input size for data-driven workloads.
    std::uint64_t seed = 1; ///< Base seed.

    /** Also emit registered-sync ablation variants (XIMD only). */
    bool registeredSyncAxis = false;
};

/**
 * The full built-in grid: every workload in every valid mode (plus
 * the registered-sync ablation axis when requested), in stable order.
 * An input size a workload rejects (n = 0) makes per-job failures.
 */
std::vector<RunSpec> builtinSuite(const SuiteOptions &opts = {});

} // namespace ximd::farm

#endif // XIMD_FARM_SUITE_HH
