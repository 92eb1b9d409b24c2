/**
 * @file
 * ximd-lint — static verifier for XIMD machine-code listings.
 *
 * Assembles each input file and runs the full analysis pipeline
 * (src/analysis/): per-FU control-flow graphs, register/CC dataflow,
 * and cross-stream conflict and deadlock detection. With --race the
 * happens-before/MHP race engine also runs: lockstep-class
 * partitioning, per-class-pair product exploration, and interval
 * bounding of addresses and waits (see analysis/race.hh). No
 * simulation is performed; everything reported is derived from the
 * program text alone.
 *
 * Usage:
 *   ximd-lint [options] program.ximd [more.ximd ...]
 *     --race      also run the cross-stream race engine
 *     --json      machine-readable report on stdout
 *     --werror    treat warnings as errors (exit status)
 *     --no-warn   suppress warning-severity findings
 *     --quiet     print only the per-file summary lines
 *
 * Exit status (stable, scripted against by ci.sh):
 *   0  every file assembled and is clean
 *   1  at least one file has findings (errors, or warnings under
 *      --werror), including files that fail to assemble
 *   2  usage error, or an input file could not be read
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/race.hh"
#include "analysis/verify.hh"
#include "asm/assembler.hh"
#include "support/argparse.hh"
#include "support/json.hh"
#include "support/logging.hh"

namespace {

using namespace ximd;

struct Options
{
    std::vector<std::string> files;
    bool race = false;
    bool jsonOut = false;
    bool werror = false;
    bool noWarn = false;
    bool quiet = false;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    argparse::Parser p("ximd-lint",
                       "[options] program.ximd [more.ximd ...]");
    p.flag("--race", "also run the cross-stream race engine",
           [&] { o.race = true; });
    p.flag("--json", "machine-readable report on stdout",
           [&] { o.jsonOut = true; });
    p.flag("--werror", "treat warnings as errors",
           [&] { o.werror = true; });
    p.flag("--no-warn", "suppress warning-severity findings",
           [&] { o.noWarn = true; });
    p.flag("--quiet", "print only per-file summaries",
           [&] { o.quiet = true; });
    p.positional(
        [&](const std::string &f) { o.files.push_back(f); });
    p.footer("exit status: 0 clean, 1 findings, 2 usage or I/O "
             "error");
    p.parse(argc, argv);
    if (o.files.empty())
        p.fail("at least one program file is required");
    return o;
}

json::Value
diagToJson(const analysis::Diagnostic &d)
{
    json::Value o = json::Value::object();
    o.set("severity", d.isError() ? "error" : "warning");
    o.set("check", std::string(analysis::checkName(d.check)));
    o.set("row", static_cast<std::int64_t>(d.row));
    o.set("fu", d.fu);
    if (d.line > 0)
        o.set("line", d.line);
    o.set("message", d.message);
    if (d.otherRow >= 0) {
        o.set("otherRow", d.otherRow);
        o.set("otherFu", d.otherFu);
        if (d.otherLine > 0)
            o.set("otherLine", d.otherLine);
    }
    return o;
}

/** Per-file lint outcome for the exit status. */
enum class FileStatus { Clean, Findings, IoError };

FileStatus
lintFile(const std::string &path, const Options &o,
         json::Value &jsonFiles)
{
    // An unreadable input is an invocation problem (exit 2), not a
    // finding about the program; probe before handing to the
    // assembler so the two failure kinds stay distinguishable.
    if (!std::ifstream(path).good()) {
        std::cerr << path << ": error: cannot read file\n";
        return FileStatus::IoError;
    }

    json::Value jf = json::Value::object();
    jf.set("path", path);

    Program prog(1);
    try {
        prog = assembleFile(path);
    } catch (const FatalError &e) {
        if (o.jsonOut) {
            jf.set("assembled", false);
            jf.set("error", std::string(e.what()));
            jsonFiles.push(std::move(jf));
        } else {
            std::cout << path << ": error: " << e.what() << "\n";
        }
        return FileStatus::Findings;
    }

    const analysis::ProgramFacts facts = analysis::buildFacts(prog);
    analysis::AnalyzeOptions opts;
    opts.warnings = !o.noWarn;
    analysis::DiagnosticList diags = analysis::analyze(facts, opts);

    analysis::RaceReport race;
    if (o.race) {
        analysis::RaceOptions ropts;
        ropts.warnings = !o.noWarn;
        race = analysis::analyzeRaces(prog, facts, ropts);
        diags.merge(race.diags);
    }

    if (o.jsonOut) {
        jf.set("assembled", true);
        json::Value jd = json::Value::array();
        for (const auto &d : diags.all())
            jd.push(diagToJson(d));
        jf.set("diagnostics", std::move(jd));
        jf.set("errors",
               static_cast<std::int64_t>(diags.errorCount()));
        jf.set("warnings",
               static_cast<std::int64_t>(diags.warningCount()));
        if (o.race) {
            json::Value jr = json::Value::object();
            jr.set("classes",
                   static_cast<std::int64_t>(race.classes));
            jr.set("pairs",
                   static_cast<std::int64_t>(race.pairsAnalyzed));
            jr.set("productStates",
                   static_cast<std::int64_t>(race.productStates));
            jr.set("budgetExceeded", race.budgetExceeded);
            jr.set("skippedOnBaseErrors", race.baseErrors);
            json::Value jc = json::Value::array();
            for (const analysis::SitePair &sp : race.covered) {
                json::Value js = json::Value::object();
                js.set("rowA", static_cast<std::int64_t>(sp.rowA));
                js.set("fuA", sp.fuA);
                js.set("rowB", static_cast<std::int64_t>(sp.rowB));
                js.set("fuB", sp.fuB);
                jc.push(std::move(js));
            }
            jr.set("covered", std::move(jc));
            jf.set("race", std::move(jr));
        }
        jsonFiles.push(std::move(jf));
    } else {
        if (!o.quiet)
            for (const auto &d : diags.all())
                std::cout
                    << path << ": "
                    << analysis::DiagnosticList::formatOne(d, &prog)
                    << "\n";
        const std::string summary = diags.summary();
        std::cout << path << ": "
                  << (summary.empty() ? "clean" : summary) << "\n";
    }

    const bool failed = diags.hasErrors() ||
                        (o.werror && diags.warningCount() > 0);
    return failed ? FileStatus::Findings : FileStatus::Clean;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    json::Value jsonFiles = json::Value::array();
    bool findings = false;
    bool ioError = false;
    for (const std::string &f : o.files) {
        switch (lintFile(f, o, jsonFiles)) {
          case FileStatus::Clean:
            break;
          case FileStatus::Findings:
            findings = true;
            break;
          case FileStatus::IoError:
            ioError = true;
            break;
        }
    }
    if (o.jsonOut) {
        json::Value top = json::Value::object();
        top.set("files", std::move(jsonFiles));
        std::cout << top.dump(2) << "\n";
    }
    if (ioError)
        return 2;
    return findings ? 1 : 0;
}
