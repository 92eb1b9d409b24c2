#include "farm/sweep.hh"

#include <array>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "asm/assembler.hh"
#include "farm/suite.hh"
#include "support/json.hh"

namespace ximd::farm {

namespace {

analysis::Diagnostic
sweepError(std::string message)
{
    return {analysis::Severity::Error, analysis::Check::LoadFailed, 0,
            -1, "sweep: " + std::move(message)};
}

/** Axis keys, in the canonical nesting order for expansion. */
constexpr std::array<std::string_view, 10> kAxisKeys = {
    "workload",        "program",        "mode",
    "n",               "seed",           "max_cycles",
    "registered_sync", "result_latency", "fast_forward",
    "backend",
};

bool
knownKey(std::string_view key)
{
    for (std::string_view k : kAxisKeys)
        if (k == key)
            return true;
    return false;
}

/** Expands one `runs` entry; collects errors in `error`. */
class Expander
{
  public:
    Expander(const json::Value *defaults, ProgramCache &cache,
             std::vector<RunSpec> &out)
        : defaults_(defaults), cache_(cache), out_(out)
    {
    }

    /** Returns false (with `error()` set) on a structural problem. */
    bool expand(const json::Value &entry)
    {
        entry_ = &entry;
        if (!entry.isObject())
            return fail("every runs[] entry must be an object");
        for (const auto &[key, value] : entry.members()) {
            (void)value;
            if (!knownKey(key))
                return fail("unknown key '" + key + "'");
        }

        const bool hasWorkload = lookup("workload") != nullptr;
        const bool hasProgram = lookup("program") != nullptr;
        if (hasWorkload == hasProgram) {
            return fail("each entry needs exactly one of 'workload' "
                        "or 'program'");
        }
        return expandAxis(0);
    }

    const std::string &error() const { return error_; }

  private:
    /** Entry value for @p key, falling back to the defaults block. */
    const json::Value *lookup(std::string_view key) const
    {
        if (const json::Value *v = entry_->find(key))
            return v;
        return defaults_ ? defaults_->find(key) : nullptr;
    }

    bool fail(std::string message)
    {
        error_ = std::move(message);
        return false;
    }

    /** Recurse over kAxisKeys, pinning one scalar per axis. */
    bool expandAxis(std::size_t axis)
    {
        if (axis == kAxisKeys.size())
            return emit();
        const std::string_view key = kAxisKeys[axis];
        const json::Value *v = lookup(key);
        if (v == nullptr || !v->isArray()) {
            pinned_[key] = v;
            return expandAxis(axis + 1);
        }
        if (v->items().empty())
            return fail("axis '" + std::string(key) +
                        "' swept over an empty array");
        for (const json::Value &item : v->items()) {
            if (item.isArray())
                return fail("axis '" + std::string(key) +
                            "' has nested arrays");
            pinned_[key] = &item;
            if (!expandAxis(axis + 1))
                return false;
        }
        return true;
    }

    /** Typed read of @p key's value in the pinned combination. */
    template <typename T>
    bool get(std::string_view key, T &dst)
    {
        json::FieldReader reader;
        return reader.get(key, pinned_[key], dst) ||
               fail(reader.error());
    }

    /** Build the RunSpec for the currently pinned combination. */
    bool emit()
    {
        std::string modeStr = "ximd";
        if (!get("mode", modeStr))
            return false;
        Mode mode;
        if (modeStr == "ximd")
            mode = Mode::Ximd;
        else if (modeStr == "vliw")
            mode = Mode::Vliw;
        else
            return fail("'mode' must be \"ximd\" or \"vliw\", got \"" +
                        modeStr + "\"");

        unsigned n = 256;
        std::uint64_t seed = 1;
        Cycle maxCycles = 0;
        MachineConfig config;
        if (!get("n", n) || !get("seed", seed) ||
            !get("max_cycles", maxCycles) ||
            !get("registered_sync", config.registeredSync) ||
            !get("result_latency", config.resultLatency) ||
            !get("fast_forward", config.fastForward)) {
            return false;
        }

        std::string backendStr = backendName(config.backend);
        if (!get("backend", backendStr))
            return false;
        if (backendStr == "interp")
            config.backend = Backend::Interp;
        else if (backendStr == "threaded")
            config.backend = Backend::Threaded;
        else
            return fail("'backend' must be \"interp\" or "
                        "\"threaded\", got \"" +
                        backendStr + "\"");

        std::string workload;
        std::string program;
        if (!get("workload", workload) || !get("program", program))
            return false;

        if (!workload.empty())
            return emitWorkload(workload, mode, n, seed, maxCycles,
                                config);
        return emitProgramFile(program, mode, seed, maxCycles, config);
    }

    bool emitWorkload(const std::string &workload, Mode mode,
                      unsigned n, std::uint64_t seed, Cycle maxCycles,
                      const MachineConfig &config)
    {
        // A typo'd workload name is an authoring error that fails the
        // whole load; an invalid workload/mode combination can arise
        // from a legitimate mode sweep, so it becomes a per-job
        // failure instead.
        bool known = false;
        for (const std::string &w : suiteWorkloads())
            known = known || w == workload;
        if (!known)
            return fail("unknown workload '" + workload + "'");

        WorkloadRequest req;
        req.workload = workload;
        req.mode = mode;
        req.n = n;
        req.seed = seed;
        req.config = config;
        req.maxCycles = maxCycles;
        out_.push_back(workloadSpecOrFailure(req, &cache_));
        return true;
    }

    bool emitProgramFile(const std::string &path, Mode mode,
                         std::uint64_t seed, Cycle maxCycles,
                         const MachineConfig &config)
    {
        RunSpec spec;
        spec.name = path + "/" + modeName(mode) +
                    "/seed=" + std::to_string(seed);
        spec.config = config;
        spec.config.mode = mode;
        spec.config.seed = seed;
        spec.maxCycles = maxCycles;

        // A file that fails to assemble is a per-job failure: the
        // spec carries the diagnostic and the rest of the sweep runs.
        auto cached = fileCache_.find(path);
        if (cached == fileCache_.end()) {
            auto assembled = assembleFileResult(path);
            if (assembled.hasValue()) {
                cached = fileCache_
                             .emplace(path, PreparedProgram::make(
                                                std::move(
                                                    assembled.value())))
                             .first;
            } else {
                spec.loadError = assembled.error();
                out_.push_back(std::move(spec));
                return true;
            }
        }
        spec.program = cached->second;
        out_.push_back(std::move(spec));
        return true;
    }

    const json::Value *defaults_;
    ProgramCache &cache_;
    std::vector<RunSpec> &out_;
    const json::Value *entry_ = nullptr;
    std::map<std::string_view, const json::Value *> pinned_;
    std::map<std::string, std::shared_ptr<const PreparedProgram>>
        fileCache_;
    std::string error_;
};

} // namespace

Result<std::vector<RunSpec>, analysis::Diagnostic>
parseSweep(std::string_view text)
{
    auto doc = json::parse(text);
    if (!doc.hasValue())
        return {errTag, sweepError(doc.error().formatted())};
    const json::Value &root = doc.value();
    if (!root.isObject())
        return {errTag, sweepError("top level must be an object")};
    for (const auto &[key, value] : root.members()) {
        (void)value;
        if (key != "defaults" && key != "runs")
            return {errTag,
                    sweepError("unknown top-level key '" + key + "'")};
    }
    const json::Value *defaults = root.find("defaults");
    if (defaults != nullptr) {
        if (!defaults->isObject())
            return {errTag,
                    sweepError("'defaults' must be an object")};
        for (const auto &[key, value] : defaults->members()) {
            (void)value;
            if (!knownKey(key))
                return {errTag, sweepError(
                                    "unknown key '" + key +
                                    "' in defaults")};
        }
    }
    const json::Value *runs = root.find("runs");
    if (runs == nullptr || !runs->isArray())
        return {errTag, sweepError("missing 'runs' array")};

    std::vector<RunSpec> out;
    ProgramCache cache;
    Expander expander(defaults, cache, out);
    for (const json::Value &entry : runs->items()) {
        if (!expander.expand(entry))
            return {errTag, sweepError(expander.error())};
    }
    return out;
}

Result<std::vector<RunSpec>, analysis::Diagnostic>
loadSweep(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        return {errTag, sweepError("cannot open sweep file '" + path +
                                   "'")};
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return parseSweep(buf.str());
}

} // namespace ximd::farm
