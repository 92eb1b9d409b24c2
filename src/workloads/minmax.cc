#include "workloads/minmax.hh"

#include <algorithm>
#include <sstream>

#include "asm/asm_writer.hh"
#include "asm/assembler.hh"
#include "support/logging.hh"
#include "workloads/kernels.hh"

namespace ximd::workloads {

Program
minmaxXimd(const std::vector<SWord> &data)
{
    return minmaxPaperData(data, /*terminate=*/true);
}

Program
minmaxVliw(const std::vector<SWord> &data)
{
    if (data.empty())
        fatal("minmax requires at least one element");

    constexpr Addr z = 64;
    std::ostringstream os;
    os << ".fus 4\n"
          ".reg tz\n.reg tz2\n.reg k\n.reg n\n.reg tn\n"
          ".reg min\n.reg max\n"
          ".const z " << z << "\n"
          ".init n " << data.size() << "\n";
    os << wordLine(z, data);

    // One branch per cycle. Loop-invariant layout:
    //   at L02 entry: tz = current element, cc0 = (tz < min),
    //   cc1 = (tz > max), both against the values min/max had before
    //   this element. Next element is loaded into tz2 and compared
    //   inside the iteration, then moved into tz at L06/L07.
    // The update branches (cc0, cc1) serialize: 5 cycles per element.
    os <<
        "L00: -> L01 ; load #z,#0,tz || -> L01 ; iadd #1,#0,k "
        "|| -> L01 ; lt n,#2 || -> L01 ; iadd n,#0,tn\n"

        "L01: if cc2 L09 L02 ; lt tz,#maxint "
        "|| if cc2 L09 L02 ; gt tz,#minint "
        "|| if cc2 L09 L02 ; nop "
        "|| if cc2 L09 L02 ; isub tn,#1,tn\n"

        "L02: if cc0 L03 L04 ; load #z,k,tz2 "
        "|| if cc0 L03 L04 ; iadd #1,k,k "
        "|| if cc0 L03 L04 ; eq k,tn "
        "|| if cc0 L03 L04 ; nop\n"

        "L03: -> L05 ; nop || -> L05 ; nop || -> L05 ; iadd tz,#0,min "
        "|| -> L05 ; nop\n"
        "L04: -> L05 ; nop || -> L05 ; nop || -> L05 ; nop "
        "|| -> L05 ; nop\n"

        "L05: if cc1 L06 L07 ; nop || if cc1 L06 L07 ; nop "
        "|| if cc1 L06 L07 ; nop || if cc1 L06 L07 ; nop\n"

        "L06: -> L08 ; lt tz2,min || -> L08 ; mov tz2,tz "
        "|| -> L08 ; iadd tz,#0,max || -> L08 ; nop\n"
        "L07: -> L08 ; lt tz2,min || -> L08 ; mov tz2,tz "
        "|| -> L08 ; nop || -> L08 ; nop\n"

        "L08: if cc2 L09 L02 ; nop || if cc2 L09 L02 ; gt tz,max "
        "|| if cc2 L09 L02 ; nop || if cc2 L09 L02 ; nop\n"

        // Epilogue: the final element's updates (reached either from
        // the loop exit or directly when n < 2).
        "L09: if cc0 L10 L11 ; nop || if cc0 L10 L11 ; nop "
        "|| if cc0 L10 L11 ; nop || if cc0 L10 L11 ; nop\n"
        "L10: -> L11 ; nop || -> L11 ; nop || -> L11 ; iadd tz,#0,min "
        "|| -> L11 ; nop\n"
        "L11: if cc1 L12 LEND ; nop || if cc1 L12 LEND ; nop "
        "|| if cc1 L12 LEND ; nop || if cc1 L12 LEND ; nop\n"
        "L12: -> LEND ; nop || -> LEND ; nop "
        "|| -> LEND ; iadd tz,#0,max || -> LEND ; nop\n"
        "LEND: halt || halt || halt || halt\n";

    return assembleString(os.str());
}

unsigned
searchDivisor(unsigned s)
{
    static constexpr unsigned divisors[kMaxSearches] = {2, 3, 5, 7,
                                                        11, 13};
    XIMD_ASSERT(s < kMaxSearches, "search index out of range");
    return divisors[s];
}

namespace {

/** Shared header of both multi-search generators. */
std::string
multiSearchHeader(unsigned searches, const std::vector<SWord> &data,
                  FuId width, Addr z)
{
    std::ostringstream os;
    os << ".fus " << width << "\n"
          ".reg tz\n.reg k\n.reg n\n.reg tn\n";
    for (unsigned s = 0; s < searches; ++s)
        os << ".reg m" << s << "\n.reg c" << s << "\n";
    os << ".const z " << z << "\n"
          ".init n " << data.size() << "\n";
    os << wordLine(z, data);
    return os.str();
}

void
validateMultiSearchArgs(unsigned searches,
                        const std::vector<SWord> &data)
{
    if (searches < 1 || searches > kMaxSearches)
        fatal("multi-search supports 1..", kMaxSearches,
              " searches; got ", searches);
    if (data.empty())
        fatal("multi-search requires at least one element");
    for (SWord v : data)
        if (v < 0)
            fatal("multi-search data must be non-negative");
}

} // namespace

Program
multiSearchXimd(unsigned searches, const std::vector<SWord> &data)
{
    validateMultiSearchArgs(searches, data);
    const FuId width = searches + 2;
    const FuId ctlFu = searches + 1; // loop-control FU; cc index too
    constexpr Addr z = 64;

    std::ostringstream os;
    os << multiSearchHeader(searches, data, width, z);

    // Helper emitting one row: every FU gets `ctrl`, FU fu gets the
    // listed data op, others nop.
    auto row = [&](const std::string &label, const std::string &ctrl,
                   const std::vector<std::string> &dataOps) {
        std::ostringstream r;
        r << label << ": ";
        for (FuId fu = 0; fu < width; ++fu) {
            if (fu)
                r << " || ";
            r << ctrl << " ; "
              << (fu < dataOps.size() && !dataOps[fu].empty()
                      ? dataOps[fu]
                      : "nop");
        }
        r << "\n";
        return r.str();
    };

    std::vector<std::string> init0(width), init1(width), r0(width),
        r1(width), r2(width), r4a(width);
    for (unsigned s = 0; s < searches; ++s) {
        const std::string ss = std::to_string(s);
        init0[s + 1] = "iadd #0,#0,c" + ss;
        r1[s + 1] = "imod tz,#" + std::to_string(searchDivisor(s)) +
                    ",m" + ss;
        r2[s + 1] = "eq m" + ss + ",#0";
        r4a[s + 1] = "iadd c" + ss + ",#1,c" + ss;
    }
    init0[ctlFu] = "iadd #0,#0,k";
    init1[ctlFu] = "isub n,#1,tn";
    r0[0] = "load #z,k,tz";
    r0[ctlFu] = "eq k,tn";
    r1[ctlFu] = "iadd k,#1,k";

    os << row("LI0", "-> LI1", init0);
    os << row("LI1", "-> R0", init1);
    os << row("R0", "-> R1", r0);
    os << row("R1", "-> R2", r1);
    os << row("R2", "-> R3", r2);

    // R3: the fork — each searcher branches on its own condition code;
    // driver FUs go straight to the skip row. This is the cycle where
    // the partition becomes {driver FUs}{s1}{s2}... .
    {
        std::ostringstream r;
        r << "R3: ";
        for (FuId fu = 0; fu < width; ++fu) {
            if (fu)
                r << " || ";
            if (fu >= 1 && fu <= searches)
                r << "if cc" << fu << " R4A R4B ; nop";
            else
                r << "-> R4B ; nop";
        }
        r << "\n";
        os << r.str();
    }
    os << row("R4A", "-> R5", r4a);
    os << row("R4B", "-> R5", {});
    os << row("R5",
              "if cc" + std::to_string(ctlFu) + " REND R0", {});
    os << row("REND", "halt", {});

    return assembleString(os.str());
}

Program
multiSearchVliw(unsigned searches, const std::vector<SWord> &data)
{
    validateMultiSearchArgs(searches, data);
    const FuId width = searches + 2;
    const FuId ctlFu = searches + 1;
    constexpr Addr z = 64;

    std::ostringstream os;
    os << multiSearchHeader(searches, data, width, z);

    auto row = [&](const std::string &label, const std::string &ctrl,
                   const std::vector<std::string> &dataOps) {
        std::ostringstream r;
        r << label << ": ";
        for (FuId fu = 0; fu < width; ++fu) {
            if (fu)
                r << " || ";
            r << ctrl << " ; "
              << (fu < dataOps.size() && !dataOps[fu].empty()
                      ? dataOps[fu]
                      : "nop");
        }
        r << "\n";
        return r.str();
    };

    std::vector<std::string> init0(width), init1(width), r0(width),
        r1(width), r2(width);
    for (unsigned s = 0; s < searches; ++s) {
        const std::string ss = std::to_string(s);
        init0[s + 1] = "iadd #0,#0,c" + ss;
        r1[s + 1] = "imod tz,#" + std::to_string(searchDivisor(s)) +
                    ",m" + ss;
        r2[s + 1] = "eq m" + ss + ",#0";
    }
    init0[ctlFu] = "iadd #0,#0,k";
    init1[ctlFu] = "isub n,#1,tn";
    r0[0] = "load #z,k,tz";
    r0[ctlFu] = "eq k,tn";
    r1[ctlFu] = "iadd k,#1,k";

    os << row("LI0", "-> LI1", init0);
    os << row("LI1", "-> R0", init1);
    os << row("R0", "-> R1", r0);
    os << row("R1", "-> R2", r1);
    os << row("R2", "-> B0", r2);

    // One branch per cycle: each search takes a branch row plus an
    // update/skip row.
    for (unsigned s = 0; s < searches; ++s) {
        const std::string ss = std::to_string(s);
        const std::string nxt =
            s + 1 < searches ? "B" + std::to_string(s + 1) : "LATCH";
        os << row("B" + ss,
                  "if cc" + std::to_string(s + 1) + " U" + ss + " K" +
                      ss,
                  {});
        std::vector<std::string> upd(width);
        upd[s + 1] = "iadd c" + ss + ",#1,c" + ss;
        os << row("U" + ss, "-> " + nxt, upd);
        os << row("K" + ss, "-> " + nxt, {});
    }
    os << row("LATCH", "if cc" + std::to_string(ctlFu) + " REND R0",
              {});
    os << row("REND", "halt", {});

    return assembleString(os.str());
}

std::vector<Word>
referenceMultiSearch(unsigned searches, const std::vector<SWord> &data)
{
    validateMultiSearchArgs(searches, data);
    std::vector<Word> counts(searches, 0);
    for (unsigned s = 0; s < searches; ++s) {
        const auto d = static_cast<SWord>(searchDivisor(s));
        counts[s] = static_cast<Word>(std::count_if(
            data.begin(), data.end(), [d](SWord v) { return v % d == 0; }));
    }
    return counts;
}

} // namespace ximd::workloads
