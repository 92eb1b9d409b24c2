/**
 * @file
 * Shared plumbing for the benchmark binary: options, the report a
 * workload fills in, latency samples, the simulated-statistics digest,
 * host memory probes, and the in-memory span tracer.
 *
 * Host time is wall time read from std::chrono::steady_clock around
 * calls into the simulator's public API; simulated time comes from
 * RunResult::cycles and RunStats. Nothing here reaches into the
 * simulator's internals.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/stats.hh"
#include "support/types.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;     ///< Small inputs, for the benchmark's tests.
    bool corrupt = false;  ///< Corrupt one output per unit (self-test).
    unsigned threads = 1;  ///< Busy worker threads (host core count).
    std::string sourceDir = "."; ///< Repository root (examples/c).
    std::string traceOut;  ///< Span file written by traced runs.
};

/** A metric as printed: value plus unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Latency samples in seconds; percentiles by linear interpolation. */
class Samples
{
  public:
    void add(double seconds) { values_.push_back(seconds); }
    std::size_t size() const { return values_.size(); }
    double sum() const;
    /** @p q in [0, 1]; 0 when empty. */
    double quantile(double q) const;
    double median() const { return quantile(0.5); }
    const std::vector<double> &values() const { return values_; }

  private:
    std::vector<double> values_;
};

/**
 * Simulated-statistics digest of a fixed, seed-determined set of runs:
 * the sum of cycles, the archStateHash values folded in run order, and
 * the hash of the merged RunStats JSON. Identical across repeat runs
 * of one seed, across traced and untraced runs, and across any change
 * that only touches host speed.
 */
class SimDigest
{
  public:
    void add(ximd::Cycle cycles, std::uint64_t archHash,
             const ximd::RunStats &stats);

    ximd::Cycle cycles() const { return cycles_; }
    /** Busy-wait FU-cycles over all FU-cycles simulated. */
    double busyWaitFrac() const;
    double meanStreams() const { return merged_.meanStreams(); }
    std::string str() const;

  private:
    std::uint64_t runs_ = 0;
    ximd::Cycle cycles_ = 0;
    std::uint64_t arch_ = 0xcbf29ce484222325ULL;
    std::uint64_t fuCycles_ = 0;
    ximd::RunStats merged_{1};
};

/** Peak resident set of this process, in MiB. */
double peakRssMb();

/** Current resident set of this process, in MiB. */
double currentRssMb();

/** Everything one workload run reports. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> metrics;

    /** Digest of the untraced pass, and of the traced replay. */
    std::string digest;
    std::string tracedDigest;

    /** Sample counts and other context for the provenance line. */
    std::map<std::string, double> info;

    void set(const std::string &name, double value,
             const std::string &unit)
    {
        metrics[name] = {value, unit};
    }
};

/**
 * One record per timed operation, the workload's user-visible unit of
 * work: a suite batch through Farm::run and its report, one
 * compile-and-run of a kernel, or one service submit -> results round
 * trip.
 */
class OpLog
{
  public:
    void add(double sec, std::uint64_t okJobs, ximd::Cycle cycles);

    const Samples &latency() const { return latency_; }
    double seconds() const { return latency_.sum(); }

    /**
     * Median over consecutive chunks of the run of a chunk's rate
     * (@p cycles: simulated cycles, else ok jobs, per wall second).
     * Robust to a burst of host interference in part of the run.
     */
    double medianRate(bool cycles) const;

  private:
    Samples latency_;
    std::vector<std::uint64_t> ok_;
    std::vector<ximd::Cycle> cycles_;
};

/**
 * The end-to-end metrics every untraced run reports: rates from @p ops,
 * op_ms_p50 from @p latency (the ops' own latencies unless the workload
 * times a finer unit inside each op).
 */
void setEndToEnd(Report &r, const Samples &setup, const OpLog &ops,
                 const Samples &latency);

/**
 * Repeats a workload's set-up about once a second during the measured
 * loop, so setup_s is a median over the whole run, not over the host's
 * state in the run's first milliseconds.
 */
class SetupSampler
{
  public:
    explicit SetupSampler(Samples &setup) : setup_(setup) {}

    /** Time one call of @p build, if a sample is due. */
    template <typename Build>
    void maybe(Build &&build)
    {
        const auto now = Clock::now();
        if (now < next_)
            return;
        next_ = now + std::chrono::seconds(1);
        const auto built = build(); // Destroyed after the clock stops.
        setup_.add(secondsBetween(now, Clock::now()));
    }

  private:
    Samples &setup_;
    Clock::time_point next_ = Clock::now() + std::chrono::seconds(1);
};

/**
 * Names and units of every per-layer metric. A traced run reports all
 * of them; a layer the workload does not call reads 0.
 */
const std::vector<std::pair<std::string, std::string>> &layerMetrics();

/** Fill @p r with every per-layer metric at 0 (traced runs start here). */
void initLayerMetrics(Report &r);

/** The simulated counts every traced run reports from its digest. */
void setSimCounts(Report &r, const SimDigest &d);

/**
 * In-memory span recorder. Each thread appends to its own log; logs
 * are merged and written once, when the run ends. A span names the
 * layer call it wraps ("core.run"), the job it belongs to, and its
 * parent span; its self time is its duration minus its children's.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::uint64_t job = 0;
        int parent = -1;
        const char *name = "";
        std::int64_t t0 = 0; ///< ns since the tracer epoch.
        std::int64_t t1 = 0;
    };

    explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

    int begin(std::uint64_t job, const char *name, int parent = -1);
    void end(int span);
    /** Record an already-measured interval. */
    int add(std::uint64_t job, const char *name, int parent,
            Clock::time_point t0, Clock::time_point t1);

    std::vector<Span> &spans() { return spans_; }

  private:
    std::int64_t ns(Clock::time_point t) const;

    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

/** RAII span over a scope. */
class Scoped
{
  public:
    Scoped(SpanLog *log, std::uint64_t job, const char *name,
           int parent = -1)
        : log_(log), id_(log ? log->begin(job, name, parent) : -1)
    {
    }
    ~Scoped()
    {
        if (log_)
            log_->end(id_);
    }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    int id() const { return id_; }

  private:
    SpanLog *log_;
    int id_;
};

/** Per-name totals over a set of merged span logs. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double totalSec = 0.0;
    double selfSec = 0.0;
    Samples durations;

    double meanUs() const
    {
        return count ? totalSec * 1e6 / static_cast<double>(count) : 0.0;
    }
};

/**
 * Merge @p logs, compute self times, write them to @p path (one JSON
 * object per span, when @p path is non-empty) and return the totals
 * keyed by span name.
 */
std::map<std::string, SpanTotals>
finishSpans(std::vector<SpanLog> &logs, const std::string &path);

/**
 * Set "<name>_us" to the mean duration of every span name in
 * @p totals that is a known per-layer metric.
 */
void setSpanMeans(Report &r,
                  const std::map<std::string, SpanTotals> &totals);

/// @name Workloads (one translation unit each).
/// @{
Report runFarmWorkload(const Options &o, bool longJobs);
Report runLivermore(const Options &o);
Report runService(const Options &o);
/// @}

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
