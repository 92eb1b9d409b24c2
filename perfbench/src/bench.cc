#include "bench.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sys/resource.h>
#include <unistd.h>

#include "support/json.hh"

namespace perfbench {

double
Samples::sum() const
{
    double s = 0.0;
    for (double v : values_)
        s += v;
    return s;
}

double
Samples::quantile(double q) const
{
    if (values_.empty())
        return 0.0;
    std::vector<double> v = values_;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace {

/** 64-bit FNV-1a. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

void
SimDigest::add(ximd::Cycle cycles, std::uint64_t archHash,
               const ximd::RunStats &stats)
{
    ++runs_;
    cycles_ += cycles;
    arch_ = (arch_ ^ archHash) * 0x100000001b3ULL;
    fuCycles_ += static_cast<std::uint64_t>(stats.cycles()) *
                 stats.numFus();
    merged_.merge(stats);
}

double
SimDigest::busyWaitFrac() const
{
    return fuCycles_ ? static_cast<double>(merged_.busyWaitCycles()) /
                           static_cast<double>(fuCycles_)
                     : 0.0;
}

std::string
SimDigest::str() const
{
    char buf[128];
    std::snprintf(buf, sizeof buf, "runs=%llu;cycles=%llu;arch=%016llx;"
                                   "stats=%016llx",
                  static_cast<unsigned long long>(runs_),
                  static_cast<unsigned long long>(cycles_),
                  static_cast<unsigned long long>(arch_),
                  static_cast<unsigned long long>(
                      fnv1a(merged_.json(0.0))));
    return buf;
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

double
currentRssMb()
{
    long pages = 0;
    long resident = 0;
    if (FILE *f = std::fopen("/proc/self/statm", "r")) {
        if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2)
            resident = 0;
        std::fclose(f);
    }
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void
OpLog::add(double sec, std::uint64_t okJobs, ximd::Cycle cycles)
{
    latency_.add(sec);
    ok_.push_back(okJobs);
    cycles_.push_back(cycles);
}

double
OpLog::medianRate(bool cycles) const
{
    // About one chunk per measured second.
    const std::vector<double> &secs = latency_.values();
    const std::size_t n = secs.size();
    const std::size_t chunks = std::clamp<std::size_t>(
        static_cast<std::size_t>(latency_.sum() + 0.5), 1,
        std::max<std::size_t>(n, 1));
    Samples rates;
    for (std::size_t c = 0; c < chunks; ++c) {
        double sec = 0.0;
        double work = 0.0;
        for (std::size_t i = c * n / chunks; i < (c + 1) * n / chunks; ++i) {
            sec += secs[i];
            work += cycles ? static_cast<double>(cycles_[i])
                           : static_cast<double>(ok_[i]);
        }
        rates.add(sec > 0 ? work / sec : 0.0);
    }
    return rates.median();
}

void
setEndToEnd(Report &r, const Samples &setup, const OpLog &ops,
            const Samples &latency)
{
    r.set("setup_s", setup.median(), "s");
    r.set("jobs_per_s", ops.medianRate(false), "1/s");
    r.set("sim_mcycles_per_s", ops.medianRate(true) / 1e6, "Mcycles/s");
    r.set("op_ms_p50", latency.quantile(0.5) * 1e3, "ms");
    r.set("peak_rss_mb", peakRssMb(), "MB");
    r.info["setup_samples"] = static_cast<double>(setup.size());
    r.info["op_samples"] = static_cast<double>(latency.size());
    r.info["measured_s"] = ops.seconds();
}

const std::vector<std::pair<std::string, std::string>> &
layerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> table =
        {
            {"core.construct_us", "us"},
            {"core.run_us", "us"},
            {"core.stats_json_us", "us"},
            {"core.arch_hash_us", "us"},
            {"core.destroy_us", "us"},
            {"core.ns_per_sim_cycle", "ns"},
            {"core.run_share", "ratio"},
            {"core.sim_cycles", "count"},
            {"core.busy_wait_frac", "ratio"},
            {"core.mean_streams", "count"},
            {"farm.job_us_p50", "us"},
            {"farm.job_us_p99", "us"},
            {"farm.job_self_us", "us"},
            {"farm.fixture_us", "us"},
            {"farm.check_us", "us"},
            {"farm.report_json_us", "us"},
            {"farm.idle_frac", "ratio"},
            {"service.submit_us", "us"},
            {"service.results_us", "us"},
            {"service.result_bytes", "bytes"},
            {"service.rss_growth_mb", "MB"},
            {"batch.run_us", "us"},
            {"batch.batched_ratio", "ratio"},
            {"isa.prepare_us", "us"},
            {"frontend.compile_c_us", "us"},
            {"sched.validate-ir_us", "us"},
            {"sched.regalloc_us", "us"},
            {"sched.build-ddg_us", "us"},
            {"sched.list-schedule_us", "us"},
            {"sched.exact-schedule_us", "us"},
            {"sched.codegen_us", "us"},
            {"sched.verify_us", "us"},
            {"sched.race-check_us", "us"},
            {"sched.exact_nodes", "count"},
            {"sched.spilled_vregs", "count"},
            {"asm.write_us", "us"},
            {"asm.assemble_us", "us"},
            {"analysis.analyze_us", "us"},
            {"analysis.race_product_states", "count"},
            {"kernel.check_us", "us"},
            {"xcc.compile_ms_p50", "ms"},
            {"xcc.compile_ms_p99", "ms"},
            {"trace.overhead_ratio", "ratio"},
        };
    return table;
}

void
initLayerMetrics(Report &r)
{
    r.metrics.clear();
    for (const auto &[name, unit] : layerMetrics())
        r.set(name, 0.0, unit);
}

void
setSimCounts(Report &r, const SimDigest &d)
{
    r.metrics["core.sim_cycles"].value = static_cast<double>(d.cycles());
    r.metrics["core.busy_wait_frac"].value = d.busyWaitFrac();
    r.metrics["core.mean_streams"].value = d.meanStreams();
}

std::int64_t
SpanLog::ns(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
}

int
SpanLog::begin(std::uint64_t job, const char *name, int parent)
{
    const std::int64_t t = ns(Clock::now());
    spans_.push_back({job, parent, name, t, t});
    return static_cast<int>(spans_.size() - 1);
}

void
SpanLog::end(int span)
{
    spans_[static_cast<std::size_t>(span)].t1 = ns(Clock::now());
}

int
SpanLog::add(std::uint64_t job, const char *name, int parent,
             Clock::time_point t0, Clock::time_point t1)
{
    spans_.push_back({job, parent, name, ns(t0), ns(t1)});
    return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, SpanTotals>
finishSpans(std::vector<SpanLog> &logs, const std::string &path)
{
    std::map<std::string, SpanTotals> totals;
    std::ofstream out;
    if (!path.empty())
        out.open(path);
    for (SpanLog &log : logs) {
        std::vector<SpanLog::Span> &spans = log.spans();
        std::vector<std::int64_t> childNs(spans.size(), 0);
        for (const SpanLog::Span &s : spans)
            if (s.parent >= 0)
                childNs[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const SpanLog::Span &s = spans[i];
            const std::int64_t dur = s.t1 - s.t0;
            const std::int64_t self = dur - childNs[i];
            SpanTotals &t = totals[s.name];
            ++t.count;
            t.totalSec += static_cast<double>(dur) * 1e-9;
            t.selfSec += static_cast<double>(self) * 1e-9;
            t.durations.add(static_cast<double>(dur) * 1e-9);
            if (out) {
                ximd::json::Value v = ximd::json::Value::object();
                v.set("job", static_cast<std::uint64_t>(s.job));
                v.set("name", s.name);
                v.set("parent", s.parent >= 0
                                    ? ximd::json::Value(
                                          spans[static_cast<std::size_t>(
                                                    s.parent)]
                                              .name)
                                    : ximd::json::Value());
                v.set("start_ns", static_cast<std::int64_t>(s.t0));
                v.set("dur_ns", static_cast<std::int64_t>(dur));
                v.set("self_ns", static_cast<std::int64_t>(self));
                out << v.dump(0) << "\n";
            }
        }
    }
    return totals;
}

void
setSpanMeans(Report &r, const std::map<std::string, SpanTotals> &totals)
{
    for (const auto &[name, t] : totals) {
        auto it = r.metrics.find(name + "_us");
        if (it != r.metrics.end())
            it->second.value = t.meanUs();
    }
}

} // namespace perfbench
