/**
 * @file
 * perfbench — runs one benchmark workload and prints its result.
 *
 *   perfbench --workload short-jobs|long-jobs|livermore-c|service-rt
 *             --seed N --seconds S --trace 0|1
 *             [--source-dir DIR] [--trace-out FILE] [--tiny] [--corrupt]
 *
 * Output: one "perfbench" context line (build, digest, sample counts),
 * then the result line {"correct","attempted","failed","metrics"}.
 * An untraced run reports the end-to-end metrics, a traced run the
 * per-layer ones. Exit status 0 on a completed run, 2 on a usage
 * error, 3 when the traced replay's simulated-statistics digest
 * differs from the untraced run's.
 */

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hh"
#include "support/json.hh"

namespace {

using namespace perfbench;
using ximd::json::Value;

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--source-dir DIR] [--trace-out FILE] "
                 "[--tiny] [--corrupt]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    o.threads = std::max(1u, std::thread::hardware_concurrency());
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload")
                o.workload = value();
            else if (arg == "--seed")
                o.seed = std::stoull(value());
            else if (arg == "--seconds")
                o.seconds = std::stod(value());
            else if (arg == "--trace")
                o.trace = std::stoi(value()) != 0;            else if (arg == "--source-dir")
                o.sourceDir = value();
            else if (arg == "--trace-out")
                o.traceOut = value();
            else if (arg == "--tiny")
                o.tiny = true;
            else if (arg == "--corrupt")
                o.corrupt = true;
            else
                usage("unknown argument '" + arg + "'");
        } catch (const std::logic_error &) {
            usage("bad value for " + arg);
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

Report
runWorkload(const Options &o)
{
    if (o.workload == "short-jobs")
        return runFarmWorkload(o, false);
    if (o.workload == "long-jobs")
        return runFarmWorkload(o, true);
    if (o.workload == "livermore-c")
        return runLivermore(o);
    if (o.workload == "service-rt")
        return runService(o);
    usage("unknown workload '" + o.workload + "'");
}

/** True when this binary is fit to be a timing baseline. */
bool
optimizedBuild()
{
#if defined(__OPTIMIZE__) && !defined(__SANITIZE_ADDRESS__) &&              \
    !defined(__SANITIZE_THREAD__)
    return true;
#else
    return false;
#endif
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    Report r;
    try {
        r = runWorkload(o);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << o.workload << ": " << e.what()
                  << "\n";
        return 1;
    }

    Value context = Value::object();
    context.set("workload", o.workload);
    context.set("seed", static_cast<std::uint64_t>(o.seed));
    context.set("traced", o.trace);
    context.set("nproc", static_cast<std::uint64_t>(o.threads));
    context.set("build_type", PERFBENCH_BUILD_TYPE);
    context.set("compiler", PERFBENCH_COMPILER);
    context.set("optimized", optimizedBuild());
    context.set("digest", r.digest);
    if (o.trace)
        context.set("traced_digest", r.tracedDigest);
    Value info = Value::object();
    for (const auto &[name, value] : r.info)
        info.set(name, value);
    context.set("info", std::move(info));
    Value line = Value::object();
    line.set("perfbench", std::move(context));
    std::cout << line.dump(0) << "\n";

    if (o.trace && r.tracedDigest != r.digest) {
        std::cerr << "perfbench: " << o.workload
                  << ": traced digest " << r.tracedDigest
                  << " differs from untraced " << r.digest << "\n";
        return 3;
    }

    Value metrics = Value::object();
    for (const auto &[name, m] : r.metrics) {
        Value v = Value::object();
        v.set("value", m.value);
        v.set("unit", m.unit);
        metrics.set(name, std::move(v));
    }
    Value result = Value::object();
    result.set("correct", r.failed == 0);
    result.set("attempted", static_cast<std::uint64_t>(r.attempted));
    result.set("failed", static_cast<std::uint64_t>(r.failed));
    result.set("metrics", std::move(metrics));
    std::cout << result.dump(0) << std::endl;
    return 0;
}
