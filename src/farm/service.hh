/**
 * @file
 * xfarm as a service: the JSON-lines request engine behind --serve.
 *
 * A Service owns a queue of submitted batches and one worker thread
 * that drains it, running each batch through Farm::run. The wire
 * protocol is JSON lines — one request object in, one or more response
 * objects out, every response stamped `"schema": N` — so any client
 * that can write a line and read lines can drive it; the daemon layer
 * in tools/xfarm_main.cc is a thin AF_UNIX socket loop around
 * handleLine(), and tests drive handleLine() directly, in process.
 *
 * Requests (`{"cmd": ...}`):
 *
 *   {"cmd":"ping"}
 *       -> {"schema":1,"ok":true,"event":"pong"}
 *   {"cmd":"submit","sweep":{...}}          inline sweep object
 *   {"cmd":"submit","suite":{"n":256,"seed":1,"regsync_axis":false,
 *                            "filter":["minmax"]}}
 *       Options: "threads":N farm workers (default 0: the hardware
 *       concurrency, like xfarm -j; at most kMaxThreads),
 *       "resume":"file.snap" warm-starts the job whose name matches
 *       the XIMDSNAP label (exactly like xfarm --resume). Any other
 *       key, in the request or in "suite", is an error naming it.
 *       -> {"schema":1,"ok":true,"event":"submitted","batch":B,
 *           "jobs":N}
 *   {"cmd":"status"}  or  {"cmd":"status","batch":B}
 *       -> one {"event":"status","batch":B,"state":"queued|running|
 *          done","jobs":N,["failures":K]} line per batch
 *   {"cmd":"results","batch":B,["wait":true]}
 *       -> one {"event":"job",...} line per job in spec order (name,
 *          ok, stop, backend, cycles, stats, error), then
 *          {"event":"done","batch":B,"jobs":N,"failures":K}.
 *          Without "wait" an unfinished batch answers its status line
 *          instead.
 *   {"cmd":"drain"}     stop accepting submits, finish queued work
 *   {"cmd":"shutdown"}  drain, then ask the daemon to exit
 *
 * Errors answer {"schema":1,"ok":false,"error":"..."} and leave the
 * connection usable; a mistyped field is such an error, naming it.
 * Job records carry no host-timing fields, so a batch's results
 * stream is a pure function of its submission — byte-identical
 * across -j1/-jN and across polls.
 */

#ifndef XIMD_FARM_SERVICE_HH
#define XIMD_FARM_SERVICE_HH

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "farm/run_spec.hh"

namespace ximd::farm {

class Service
{
  public:
    /** What the transport should do after a handled line. */
    enum class Action {
        Continue, ///< Keep the connection open.
        Shutdown, ///< Client asked the daemon to exit.
    };

    /** Receives one response line (no trailing newline). */
    using LineSink = std::function<void(const std::string &)>;

    /**
     * The most farm workers one submission may ask for. Farm::run
     * starts one std::thread per worker (up to the job count), and a
     * thread that cannot be started would end the daemon, so a larger
     * "threads" is refused when the request is read.
     */
    static constexpr unsigned kMaxThreads = 256;

    Service();
    ~Service();

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    /**
     * Handle one request line, emitting response lines through
     * @p out. Thread-safe: connections may call concurrently. A
     * "results ... wait" request blocks until that batch finishes.
     */
    Action handleLine(const std::string &line, const LineSink &out);

    /**
     * Stop accepting new submissions and block until every queued
     * batch has finished (the SIGTERM path). Idempotent.
     */
    void drain();

  private:
    enum class State { Queued, Running, Done };

    struct Batch
    {
        std::size_t id = 0;
        std::vector<RunSpec> specs;
        unsigned threads = 0; ///< Farm::run's: 0 = hardware concurrency.
        State state = State::Queued;
        BatchResult result;
    };

    void workerLoop();
    Batch *findLocked(std::size_t id);
    void emitStatus(const Batch &b, const LineSink &out);
    void emitResults(const Batch &b, const LineSink &out);

    std::mutex mu_;
    std::condition_variable cv_;      ///< Worker wakeup.
    std::condition_variable doneCv_;  ///< Batch-completion waiters.
    std::vector<std::unique_ptr<Batch>> batches_;
    bool draining_ = false;
    bool stop_ = false;
    std::thread worker_;
};

} // namespace ximd::farm

#endif // XIMD_FARM_SERVICE_HH
