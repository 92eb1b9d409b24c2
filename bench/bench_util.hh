/**
 * @file
 * Shared helpers for the benchmark binaries: table printing and the
 * common main() shape (print the reproduction tables, then run the
 * google-benchmark timing loops).
 */

#ifndef XIMD_BENCH_BENCH_UTIL_HH
#define XIMD_BENCH_BENCH_UTIL_HH

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "sched/diag.hh"
#include "support/str.hh"

namespace ximd::bench {

/**
 * Unwrap a sched CompileResult at the application layer: print the
 * structured error and exit non-zero. The benches use this with the
 * *Checked compiler entry points; the throwing wrappers they used to
 * call are deprecated (DESIGN.md section 8).
 */
template <typename T>
T
orDie(sched::CompileResult<T> r)
{
    if (!r) {
        std::cerr << r.error().format() << "\n";
        std::exit(1);
    }
    return std::move(r).value();
}

/** Fixed-width table writer. */
class Table
{
  public:
    explicit Table(std::vector<std::pair<std::string, int>> cols)
        : cols_(std::move(cols))
    {
    }

    void
    header() const
    {
        for (const auto &[name, width] : cols_)
            std::cout << padLeft(name, static_cast<std::size_t>(width));
        std::cout << "\n";
    }

    void
    row(const std::vector<std::string> &cells) const
    {
        for (std::size_t i = 0; i < cells.size() && i < cols_.size();
             ++i)
            std::cout << padLeft(
                cells[i], static_cast<std::size_t>(cols_[i].second));
        std::cout << "\n";
    }

  private:
    std::vector<std::pair<std::string, int>> cols_;
};

inline std::string
num(std::uint64_t v)
{
    return std::to_string(v);
}

inline std::string
ratio(double v)
{
    return fixed(v, 2) + "x";
}

inline void
section(const std::string &title)
{
    std::cout << "\n## " << title << "\n\n";
}

} // namespace ximd::bench

/** Standard bench main: tables first, then timing loops. */
#define XIMD_BENCH_MAIN(printTables)                                  \
    int main(int argc, char **argv)                                   \
    {                                                                 \
        printTables();                                                \
        ::benchmark::AddCustomContext("build_type", XIMD_BUILD_TYPE); \
        ::benchmark::AddCustomContext("compiler", XIMD_COMPILER);     \
        ::benchmark::Initialize(&argc, argv);                         \
        if (::benchmark::ReportUnrecognizedArguments(argc, argv))     \
            return 1;                                                 \
        ::benchmark::RunSpecifiedBenchmarks();                        \
        ::benchmark::Shutdown();                                      \
        return 0;                                                     \
    }

#endif // XIMD_BENCH_BENCH_UTIL_HH
