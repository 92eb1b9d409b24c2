#include "farm/service.hh"

#include <algorithm>
#include <initializer_list>
#include <string_view>
#include <utility>

#include "core/stats.hh"
#include "farm/farm.hh"
#include "farm/suite.hh"
#include "farm/sweep.hh"
#include "snapshot/snapshot.hh"
#include "support/json.hh"

namespace ximd::farm {

namespace {

json::Value
responseBase()
{
    json::Value v = json::Value::object();
    v.set("schema", static_cast<std::uint64_t>(kStatsJsonSchema));
    return v;
}

void
emitError(const Service::LineSink &out, const std::string &message)
{
    json::Value v = responseBase();
    v.set("ok", false);
    v.set("error", message);
    out(v.dump(0));
}

/** The first key of object @p obj not in @p known, or nullptr. */
const std::string *
unknownKey(const json::Value &obj,
           std::initializer_list<std::string_view> known)
{
    for (const auto &[key, value] : obj.members()) {
        (void)value;
        if (std::find(known.begin(), known.end(), key) == known.end())
            return &key;
    }
    return nullptr;
}

const char *
stateName(bool queued, bool running)
{
    return queued ? "queued" : running ? "running" : "done";
}

} // namespace

Service::Service() : worker_([this] { workerLoop(); }) {}

Service::~Service()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
}

void
Service::workerLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        Batch *next = nullptr;
        cv_.wait(lock, [&] {
            if (stop_)
                return true;
            for (const auto &b : batches_)
                if (b->state == State::Queued) {
                    next = b.get();
                    return true;
                }
            return false;
        });
        if (stop_)
            return;
        next->state = State::Running;
        lock.unlock();
        // Execution happens unlocked: submits, status polls, and
        // result waits stay responsive during a long batch.
        BatchResult result = Farm::run(next->specs, next->threads);
        lock.lock();
        next->result = std::move(result);
        next->state = State::Done;
        doneCv_.notify_all();
    }
}

Service::Batch *
Service::findLocked(std::size_t id)
{
    for (const auto &b : batches_)
        if (b->id == id)
            return b.get();
    return nullptr;
}

void
Service::emitStatus(const Batch &b, const LineSink &out)
{
    json::Value v = responseBase();
    v.set("ok", true);
    v.set("event", "status");
    v.set("batch", static_cast<std::uint64_t>(b.id));
    v.set("state", stateName(b.state == State::Queued,
                             b.state == State::Running));
    v.set("jobs", static_cast<std::uint64_t>(b.specs.size()));
    if (b.state == State::Done)
        v.set("failures",
              static_cast<std::uint64_t>(b.result.failures()));
    out(v.dump(0));
}

void
Service::emitResults(const Batch &b, const LineSink &out)
{
    // One line per job, in spec order, with no host-timing fields:
    // the stream is a pure function of the submission.
    const auto line = [&b](const char *event) {
        json::Writer w;
        w.beginObject();
        w.key("schema").number(kStatsJsonSchema);
        w.key("event").string(event);
        w.key("batch").number(static_cast<double>(b.id));
        return w;
    };
    for (const JobResult &j : b.result.jobs) {
        json::Writer w = line("job");
        writeJobFields(w, j);
        out(w.endObject().str());
    }
    json::Writer w = line("done");
    w.key("jobs").number(static_cast<double>(b.result.jobs.size()));
    w.key("failures").number(static_cast<double>(b.result.failures()));
    out(w.endObject().str());
}

Service::Action
Service::handleLine(const std::string &line, const LineSink &out)
{
    auto parsed = json::parse(line);
    if (!parsed.hasValue()) {
        emitError(out, "bad request: " + parsed.error().formatted());
        return Action::Continue;
    }
    const json::Value req = std::move(parsed.value());
    const json::Value *cmd = req.find("cmd");
    if (!cmd || !cmd->isString()) {
        emitError(out, "request needs a string \"cmd\"");
        return Action::Continue;
    }

    if (cmd->asString() == "ping") {
        json::Value v = responseBase();
        v.set("ok", true);
        v.set("event", "pong");
        out(v.dump(0));
        return Action::Continue;
    }

    // Every field below is read through `fields`: a mistyped one is
    // answered with an error naming it.
    json::FieldReader fields;

    if (cmd->asString() == "submit") {
        // A key the submission does not read is refused by name, so a
        // misspelt or retired option is not silently dropped.
        if (const std::string *key = unknownKey(
                req, {"cmd", "sweep", "suite", "threads", "resume"})) {
            emitError(out, "unknown submit key '" + *key + "'");
            return Action::Continue;
        }
        auto batch = std::make_unique<Batch>();
        const json::Value *resumeField = req.find("resume");
        std::string resume;
        fields.get("resume", resumeField, resume);
        fields.get("threads", req.find("threads"), batch->threads,
                   kMaxThreads);
        if (!fields.ok()) {
            emitError(out, fields.error());
            return Action::Continue;
        }

        std::vector<RunSpec> specs;
        const json::Value *sweep = req.find("sweep");
        const json::Value *suite = req.find("suite");
        if (sweep && suite) {
            emitError(out, "submit takes 'sweep' or 'suite', not both");
            return Action::Continue;
        }
        if (sweep) {
            auto loaded = parseSweep(sweep->dump(0));
            if (!loaded.hasValue()) {
                emitError(out,
                          analysis::DiagnosticList::formatOne(
                              loaded.error()));
                return Action::Continue;
            }
            specs = std::move(loaded.value());
        } else if (suite) {
            if (!suite->isObject()) {
                emitError(out, "'suite' must be an object");
                return Action::Continue;
            }
            if (const std::string *key = unknownKey(
                    *suite, {"n", "seed", "regsync_axis", "filter"})) {
                emitError(out, "unknown suite key '" + *key + "'");
                return Action::Continue;
            }
            SuiteOptions so;
            std::vector<std::string> filters;
            const json::Value *filter = suite->find("filter");
            fields.get("n", suite->find("n"), so.n);
            fields.get("seed", suite->find("seed"), so.seed);
            fields.get("regsync_axis", suite->find("regsync_axis"),
                       so.registeredSyncAxis);
            fields.get("filter", filter, filters);
            if (!fields.ok()) {
                emitError(out, fields.error());
                return Action::Continue;
            }
            specs = builtinSuite(so);
            if (filter) {
                std::vector<RunSpec> kept;
                for (RunSpec &s : specs)
                    for (const std::string &f : filters)
                        if (s.name.find(f) != std::string::npos) {
                            kept.push_back(std::move(s));
                            break;
                        }
                specs = std::move(kept);
            }
        } else {
            emitError(out, "submit needs \"sweep\" or \"suite\"");
            return Action::Continue;
        }
        if (specs.empty()) {
            emitError(out, "submission selects no jobs");
            return Action::Continue;
        }

        // Warm start: restore an XIMDSNAP file into the job it was
        // saved from, matched by the snapshot's label.
        if (resumeField) {
            auto info = snapshot::peekFile(resume);
            if (!info.hasValue()) {
                emitError(out, info.error().formatted());
                return Action::Continue;
            }
            bool found = false;
            for (RunSpec &s : specs)
                if (s.name == info.value().label) {
                    s.resumeFrom = resume;
                    found = true;
                }
            if (!found) {
                emitError(out, "snapshot label '" +
                                   info.value().label +
                                   "' matches no submitted job");
                return Action::Continue;
            }
        }
        batch->specs = std::move(specs);

        std::size_t id;
        std::size_t jobs;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (draining_) {
                emitError(out,
                          "service is draining; not accepting jobs");
                return Action::Continue;
            }
            id = batches_.size();
            batch->id = id;
            jobs = batch->specs.size();
            batches_.push_back(std::move(batch));
        }
        cv_.notify_all();

        json::Value v = responseBase();
        v.set("ok", true);
        v.set("event", "submitted");
        v.set("batch", static_cast<std::uint64_t>(id));
        v.set("jobs", static_cast<std::uint64_t>(jobs));
        out(v.dump(0));
        return Action::Continue;
    }

    if (cmd->asString() == "status") {
        const json::Value *idField = req.find("batch");
        std::size_t id = 0;
        if (!fields.get("batch", idField, id)) {
            emitError(out, fields.error());
            return Action::Continue;
        }
        std::lock_guard<std::mutex> lock(mu_);
        if (idField) {
            const Batch *b = findLocked(id);
            if (!b) {
                emitError(out, "no such batch");
                return Action::Continue;
            }
            emitStatus(*b, out);
        } else {
            for (const auto &b : batches_)
                emitStatus(*b, out);
            if (batches_.empty()) {
                json::Value v = responseBase();
                v.set("ok", true);
                v.set("event", "status");
                v.set("batches", static_cast<std::uint64_t>(0));
                out(v.dump(0));
            }
        }
        return Action::Continue;
    }

    if (cmd->asString() == "results") {
        const json::Value *idField = req.find("batch");
        if (!idField) {
            emitError(out, "results needs \"batch\"");
            return Action::Continue;
        }
        std::size_t id = 0;
        bool wait = false;
        fields.get("batch", idField, id);
        fields.get("wait", req.find("wait"), wait);
        if (!fields.ok()) {
            emitError(out, fields.error());
            return Action::Continue;
        }
        std::unique_lock<std::mutex> lock(mu_);
        Batch *b = findLocked(id);
        if (!b) {
            emitError(out, "no such batch");
            return Action::Continue;
        }
        if (wait)
            doneCv_.wait(lock,
                         [&] { return b->state == State::Done; });
        if (b->state != State::Done) {
            emitStatus(*b, out);
            return Action::Continue;
        }
        emitResults(*b, out);
        return Action::Continue;
    }

    if (cmd->asString() == "drain") {
        drain();
        json::Value v = responseBase();
        v.set("ok", true);
        v.set("event", "drained");
        out(v.dump(0));
        return Action::Continue;
    }

    if (cmd->asString() == "shutdown") {
        drain();
        json::Value v = responseBase();
        v.set("ok", true);
        v.set("event", "bye");
        out(v.dump(0));
        return Action::Shutdown;
    }

    emitError(out, "unknown cmd '" + cmd->asString() + "'");
    return Action::Continue;
}

void
Service::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    draining_ = true;
    doneCv_.wait(lock, [&] {
        for (const auto &b : batches_)
            if (b->state != State::Done)
                return false;
        return true;
    });
}

} // namespace ximd::farm
