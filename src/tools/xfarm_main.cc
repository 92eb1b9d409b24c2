/**
 * @file
 * xfarm — run many simulations in parallel and report the batch, or
 * serve batches over a socket.
 *
 * Three modes:
 *
 *  - One-shot (default): expand the built-in section 4.1 suite or a
 *    --sweep file into RunSpecs, run them on the worker pool,
 *    print/save reports, exit.
 *
 *  - Daemon (--serve SOCKET): bind an AF_UNIX socket and answer the
 *    JSON-lines protocol of farm/service.hh — submit sweeps/suites,
 *    poll status, stream results, warm-start from XIMDSNAP
 *    snapshots. SIGTERM/SIGINT drain queued batches, then exit 0.
 *
 *  - Client (--connect SOCKET): forward stdin lines to a serving
 *    xfarm and print its response lines; `xfarm --connect S <
 *    requests.jsonl` scripts a daemon end to end.
 *
 * Per-job results print in spec order regardless of --jobs, and every
 * job's statistics are a pure function of its spec — `xfarm -j1` and
 * `xfarm -j8` emit byte-identical --stats-json output, and a served
 * batch's results stream is byte-identical across thread counts.
 *
 * Exit status: 0 when every job passed (or the daemon drained
 * cleanly), 1 on job failures or I/O errors, 2 on usage errors.
 * Run `xfarm --help` for the option list.
 */

#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "farm/campaign.hh"
#include "farm/farm.hh"
#include "farm/service.hh"
#include "farm/suite.hh"
#include "farm/sweep.hh"
#include "snapshot/snapshot.hh"
#include "support/argparse.hh"
#include "support/logging.hh"

namespace {

using namespace ximd;
using namespace ximd::farm;

struct Options
{
    std::string sweepFile;
    std::string outFile;
    std::string serveSocket;
    std::string connectSocket;
    std::optional<Backend> backend;
    unsigned jobs = 0;
    bool list = false;
    bool statsJson = false;
    bool report = false;
    bool noTiming = false;
    bool quiet = false;
    SuiteOptions suite;
    std::vector<std::string> filters;
    Cycle checkpointEvery = 0;
    std::string checkpointDir = "checkpoints";
    std::string resumeFile;
    std::string faultsFile;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    argparse::Parser p("xfarm", "[options]");
    p.option("--sweep", "FILE",
             "run a sweep file instead of the built-in suite",
             [&](const std::string &v) {
                 o.sweepFile = v;
                 return true;
             });
    p.option("--backend", "interp|threaded",
             "force one execution backend on every job",
             [&](const std::string &v) {
                 if (v == "interp")
                     o.backend = Backend::Interp;
                 else if (v == "threaded")
                     o.backend = Backend::Threaded;
                 else
                     return false;
                 return true;
             });
    p.option("--jobs", "N",
             "worker threads (default: hardware)",
             [&](const std::string &v) {
                 return argparse::Parser::parseNumber(v, o.jobs);
             },
             "-j");
    p.option("--filter", "SUBSTR",
             "keep jobs whose name contains SUBSTR",
             [&](const std::string &v) {
                 o.filters.push_back(v);
                 return true;
             });
    p.flag("--list", "print job names and exit",
           [&] { o.list = true; });
    p.option("--n", "N", "built-in suite input size",
             [&](const std::string &v) {
                 return argparse::Parser::parseNumber(v, o.suite.n);
             });
    p.option("--seed", "S", "built-in suite base seed",
             [&](const std::string &v) {
                 return argparse::Parser::parseNumber(v,
                                                     o.suite.seed);
             });
    p.flag("--regsync-axis",
           "add registered-sync ablation variants",
           [&] { o.suite.registeredSyncAxis = true; });
    p.flag("--stats-json",
           "print per-job stats JSON in spec order",
           [&] { o.statsJson = true; });
    p.flag("--report", "print the aggregate JSON report",
           [&] { o.report = true; });
    p.option("--out", "FILE", "write the aggregate JSON report",
             [&](const std::string &v) {
                 o.outFile = v;
                 return true;
             });
    p.flag("--no-timing",
           "omit host-timing fields from reports",
           [&] { o.noTiming = true; });
    p.flag("--quiet", "suppress per-job progress lines",
           [&] { o.quiet = true; });
    p.option("--checkpoint-every", "N",
             "snapshot each job every N cycles",
             [&](const std::string &v) {
                 return argparse::Parser::parseNumber(
                     v, o.checkpointEvery);
             });
    p.option("--checkpoint-dir", "DIR",
             "checkpoint directory (default 'checkpoints')",
             [&](const std::string &v) {
                 o.checkpointDir = v;
                 return true;
             });
    p.option("--resume", "FILE",
             "restore FILE into its job before running",
             [&](const std::string &v) {
                 o.resumeFile = v;
                 return true;
             });
    p.option("--faults", "FILE",
             "run the fault campaign described by FILE",
             [&](const std::string &v) {
                 o.faultsFile = v;
                 return true;
             });
    p.option("--serve", "SOCKET",
             "serve the JSON-lines protocol on an AF_UNIX\nsocket "
             "until SIGTERM (see farm/service.hh)",
             [&](const std::string &v) {
                 o.serveSocket = v;
                 return true;
             });
    p.option("--connect", "SOCKET",
             "forward stdin lines to a serving xfarm and\nprint "
             "its responses",
             [&](const std::string &v) {
                 o.connectSocket = v;
                 return true;
             });
    p.footer("exit status: 0 all jobs passed / daemon drained, "
             "1 failures or I/O error, 2 usage error");
    p.parse(argc, argv);
    if (!o.serveSocket.empty() && !o.connectSocket.empty())
        p.fail("--serve and --connect are mutually exclusive");
    return o;
}

bool
matchesFilters(const std::string &name,
               const std::vector<std::string> &filters)
{
    if (filters.empty())
        return true;
    for (const std::string &f : filters)
        if (name.find(f) != std::string::npos)
            return true;
    return false;
}

// ---- Daemon / client transports ------------------------------------

volatile std::sig_atomic_t gStop = 0;

void
onSignal(int)
{
    gStop = 1;
}

bool
fillUnixAddr(const std::string &path, sockaddr_un &addr)
{
    if (path.size() >= sizeof(addr.sun_path))
        return false;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

bool
writeAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::write(fd, data.data() + off, data.size() - off);
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * One connection at a time: read lines, answer through
 * Service::handleLine, close on client EOF. Requests on one
 * connection are handled in arrival order, so by the time the client
 * half-closes, every response it is owed has been written — which is
 * what lets the --connect client treat write-side EOF as "flush and
 * hang up". The 200 ms polls keep SIGTERM responsive while idle.
 */
int
serveMain(const std::string &path, bool quiet)
{
    ::unlink(path.c_str());
    sockaddr_un addr;
    if (!fillUnixAddr(path, addr)) {
        std::cerr << "xfarm: socket path too long: '" << path
                  << "'\n";
        return argparse::kExitFailure;
    }
    const int listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd < 0 ||
        ::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(listenFd, 8) < 0) {
        std::cerr << "xfarm: cannot serve on '" << path
                  << "': " << std::strerror(errno) << "\n";
        if (listenFd >= 0)
            ::close(listenFd);
        return argparse::kExitFailure;
    }

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    if (!quiet)
        std::cerr << "xfarm: serving on " << path << "\n";

    Service service;
    bool shutdownRequested = false;
    while (!gStop && !shutdownRequested) {
        pollfd lp{listenFd, POLLIN, 0};
        if (::poll(&lp, 1, 200) <= 0)
            continue;
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            continue;
        const Service::LineSink sink =
            [fd](const std::string &line) {
                writeAll(fd, line + "\n");
            };
        std::string buf;
        char chunk[4096];
        while (!shutdownRequested) {
            pollfd cp{fd, POLLIN, 0};
            const int pr = ::poll(&cp, 1, 200);
            if (gStop)
                break;
            if (pr <= 0)
                continue;
            const ssize_t n = ::read(fd, chunk, sizeof(chunk));
            if (n <= 0)
                break;
            buf.append(chunk, static_cast<std::size_t>(n));
            std::size_t nl;
            while ((nl = buf.find('\n')) != std::string::npos) {
                const std::string line = buf.substr(0, nl);
                buf.erase(0, nl + 1);
                if (line.empty())
                    continue;
                if (service.handleLine(line, sink) ==
                    Service::Action::Shutdown) {
                    shutdownRequested = true;
                    break;
                }
            }
        }
        ::close(fd);
    }

    // Graceful exit: whether by SIGTERM or a shutdown request,
    // queued work finishes before the socket disappears.
    service.drain();
    ::close(listenFd);
    ::unlink(path.c_str());
    if (!quiet)
        std::cerr << "xfarm: drained, exiting\n";
    return argparse::kExitOk;
}

int
connectMain(const std::string &path)
{
    sockaddr_un addr;
    if (!fillUnixAddr(path, addr)) {
        std::cerr << "xfarm: socket path too long: '" << path
                  << "'\n";
        return argparse::kExitFailure;
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        std::cerr << "xfarm: cannot connect to '" << path
                  << "': " << std::strerror(errno) << "\n";
        if (fd >= 0)
            ::close(fd);
        return argparse::kExitFailure;
    }
    std::signal(SIGPIPE, SIG_IGN);

    // Responses stream on their own thread so a long results stream
    // cannot deadlock against buffered requests.
    std::thread reader([fd] {
        char chunk[4096];
        for (;;) {
            const ssize_t n = ::read(fd, chunk, sizeof(chunk));
            if (n <= 0)
                break;
            std::cout.write(chunk, n);
            std::cout.flush();
        }
    });

    std::string line;
    bool writeOk = true;
    while (writeOk && std::getline(std::cin, line))
        writeOk = writeAll(fd, line + "\n");
    ::shutdown(fd, SHUT_WR);
    reader.join();
    ::close(fd);
    return writeOk ? argparse::kExitOk : argparse::kExitFailure;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);

    if (!o.serveSocket.empty())
        return serveMain(o.serveSocket, o.quiet);
    if (!o.connectSocket.empty())
        return connectMain(o.connectSocket);

    std::vector<RunSpec> specs;
    if (!o.sweepFile.empty()) {
        auto loaded = loadSweep(o.sweepFile);
        if (!loaded.hasValue()) {
            std::cerr << "xfarm: "
                      << analysis::DiagnosticList::formatOne(
                             loaded.error())
                      << "\n";
            return 1;
        }
        specs = std::move(loaded.value());
    } else {
        specs = builtinSuite(o.suite);
    }

    if (o.backend) {
        for (RunSpec &s : specs)
            s.config.backend = *o.backend;
    }

    if (!o.filters.empty()) {
        std::vector<RunSpec> kept;
        for (RunSpec &s : specs)
            if (matchesFilters(s.name, o.filters))
                kept.push_back(std::move(s));
        specs = std::move(kept);
    }

    if (o.list) {
        for (const RunSpec &s : specs)
            std::cout << s.name << "\n";
        return 0;
    }
    if (specs.empty()) {
        std::cerr << "xfarm: no jobs selected\n";
        return 1;
    }

    // Campaign mode: classify fault trials instead of running a
    // plain batch.
    if (!o.faultsFile.empty()) {
        auto plan = snapshot::FaultPlan::load(o.faultsFile);
        if (!plan) {
            std::cerr << "xfarm: " << plan.error() << "\n";
            return 1;
        }
        const CampaignResult camp =
            runCampaign(specs, plan.value(), o.jobs);
        if (!o.quiet) {
            for (const CampaignJob &j : camp.jobs) {
                std::cout << j.name << ": ";
                if (!j.baselineOk)
                    std::cout << "BASELINE FAILED\n";
                else
                    std::cout << j.countOf(Outcome::Unaffected)
                              << " unaffected, "
                              << j.countOf(Outcome::Degraded)
                              << " degraded, "
                              << j.countOf(Outcome::Wedged)
                              << " wedged, "
                              << j.countOf(Outcome::Faulted)
                              << " faulted\n";
            }
            std::cout << "plan: " << camp.planSummary << "\n";
        }
        if (o.report)
            std::cout << camp.json() << "\n";
        if (!o.outFile.empty()) {
            std::ofstream out(o.outFile);
            if (!out) {
                std::cerr << "xfarm: cannot write '" << o.outFile
                          << "'\n";
                return 1;
            }
            out << camp.json() << "\n";
        }
        // Trials are expected to misbehave; only a broken baseline
        // fails the campaign.
        for (const CampaignJob &j : camp.jobs)
            if (!j.baselineOk)
                return 1;
        return 0;
    }

    if (o.checkpointEvery > 0) {
        std::error_code ec;
        std::filesystem::create_directories(o.checkpointDir, ec);
        if (ec) {
            std::cerr << "xfarm: cannot create '" << o.checkpointDir
                      << "': " << ec.message() << "\n";
            return 1;
        }
        for (RunSpec &s : specs) {
            s.checkpointEvery = o.checkpointEvery;
            std::string file = s.name;
            for (char &c : file)
                if (c == '/')
                    c = '_';
            s.checkpointPath =
                o.checkpointDir + "/" + file + ".snap";
        }
    }

    if (!o.resumeFile.empty()) {
        auto info = snapshot::peekFile(o.resumeFile);
        if (!info) {
            std::cerr << "xfarm: " << info.error().formatted()
                      << "\n";
            return 1;
        }
        bool found = false;
        for (RunSpec &s : specs) {
            if (s.name == info.value().label) {
                s.resumeFrom = o.resumeFile;
                found = true;
            }
        }
        if (!found) {
            std::cerr << "xfarm: snapshot label '"
                      << info.value().label
                      << "' matches no selected job\n";
            return 1;
        }
    }

    const BatchResult batch = Farm::run(specs, o.jobs);

    if (!o.quiet) {
        for (const JobResult &j : batch.jobs) {
            if (j.ok()) {
                std::cout << "ok   " << j.name << "  ("
                          << j.run.cycles << " cycles)\n";
            } else {
                std::cout << "FAIL " << j.name << "  "
                          << analysis::DiagnosticList::formatOne(
                                 *j.error)
                          << "\n";
            }
        }
        std::cout << batch.jobs.size() << " jobs, "
                  << batch.failures() << " failed, "
                  << batch.threads << " threads";
        if (!o.noTiming)
            std::cout << ", " << batch.wallMillis << " ms";
        std::cout << "\n";
    }

    if (o.statsJson) {
        for (const JobResult &j : batch.jobs) {
            std::cout << "=== " << j.name << " ===\n";
            if (j.ran)
                std::cout << j.statsJson;
            else
                std::cout << "(did not run)\n";
        }
    }

    if (o.report)
        std::cout << batch.json(!o.noTiming) << "\n";
    if (!o.outFile.empty()) {
        std::ofstream out(o.outFile);
        if (!out) {
            std::cerr << "xfarm: cannot write '" << o.outFile
                      << "'\n";
            return 1;
        }
        out << batch.json(!o.noTiming) << "\n";
    }

    return batch.allOk() ? 0 : 1;
}
