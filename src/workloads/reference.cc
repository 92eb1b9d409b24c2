#include "workloads/reference.hh"

#include <algorithm>
#include <bit>

#include "support/logging.hh"

namespace ximd::workloads {

SWord
referenceTproc(SWord a, SWord b, SWord c, SWord d)
{
    // Wraparound arithmetic matches the datapath.
    auto add = [](SWord x, SWord y) {
        return intToWord(x) + intToWord(y);
    };
    const SWord e0 = wordToInt(add(a, b));
    const SWord f0 = wordToInt(intToWord(e0) +
                               intToWord(static_cast<SWord>(
                                   static_cast<std::int64_t>(c) *
                                   static_cast<std::int64_t>(a))));
    const SWord g0 = wordToInt(intToWord(a) - add(b, c));
    const SWord e1 = wordToInt(intToWord(d) - intToWord(e0));
    SWord r = wordToInt(add(a, b));
    r = wordToInt(add(r, c));
    r = wordToInt(add(r, d));
    r = wordToInt(add(r, e1));
    r = wordToInt(add(r, wordToInt(add(f0, g0))));
    return r;
}

std::pair<SWord, SWord>
referenceMinmax(const std::vector<SWord> &data)
{
    XIMD_ASSERT(!data.empty(), "minmax of empty data");
    const auto [lo, hi] = std::minmax_element(data.begin(), data.end());
    return {*lo, *hi};
}

unsigned
referencePopcount(Word w)
{
    return static_cast<unsigned>(std::popcount(w));
}

std::vector<Word>
referenceBitcount1Paper(const std::vector<Word> &data)
{
    const std::size_t n = data.size();
    std::vector<Word> b(n + 1, 0);
    for (std::size_t k = 0; k < n; k += 4) {
        Word acc = 0;
        for (std::size_t j = 0; j < 4 && k + j < n; ++j) {
            acc += referencePopcount(data[k + j]);
            b[k + j + 1] = acc;
        }
    }
    return b;
}

std::vector<Word>
referenceBitcountCumulative(const std::vector<Word> &data)
{
    std::vector<Word> b(data.size() + 1, 0);
    for (std::size_t i = 0; i < data.size(); ++i)
        b[i + 1] = b[i] + referencePopcount(data[i]);
    return b;
}

std::vector<float>
referenceLoop12(const std::vector<float> &y)
{
    XIMD_ASSERT(y.size() >= 2, "loop12 needs at least two Y values");
    std::vector<float> x(y.size() - 1);
    for (std::size_t k = 0; k + 1 < y.size(); ++k)
        x[k] = y[k + 1] - y[k];
    return x;
}

} // namespace ximd::workloads
