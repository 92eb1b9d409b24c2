#include "workloads/kernels.hh"

#include <sstream>

#include "asm/asm_writer.hh"
#include "asm/assembler.hh"
#include "support/logging.hh"

namespace ximd::workloads {

Program
tprocPaper(SWord a, SWord b, SWord c, SWord d)
{
    std::ostringstream os;
    os << ".fus 4\n"
          ".reg a\n.reg b\n.reg c\n.reg d\n.reg e\n.reg f\n.reg g\n"
          ".init a " << a << "\n"
          ".init b " << b << "\n"
          ".init c " << c << "\n"
          ".init d " << d << "\n"
       // Example 1's schedule, verbatim. VLIW-style: identical control
       // fields in every parcel.
       << "L00: -> L01 ; iadd a,b,e  || -> L01 ; imult c,a,f "
          "|| -> L01 ; iadd c,b,g  || -> L01 ; nop\n"
          "L01: -> L02 ; iadd f,e,f  || -> L02 ; isub a,g,g  "
          "|| -> L02 ; iadd e,c,a  || -> L02 ; isub d,e,e\n"
          "L02: -> L03 ; iadd a,d,a  || -> L03 ; iadd f,g,g  "
          "|| -> L03 ; nop         || -> L03 ; nop\n"
          "L03: -> L04 ; iadd a,e,a  || -> L04 ; nop         "
          "|| -> L04 ; nop         || -> L04 ; nop\n"
          "L04: -> L05 ; iadd a,g,f  || -> L05 ; nop         "
          "|| -> L05 ; nop         || -> L05 ; nop\n"
          "L05: halt || halt || halt || halt\n";
    return assembleString(os.str());
}

Program
minmaxPaperData(const std::vector<SWord> &data, bool terminate)
{
    if (data.empty())
        fatal("minmax requires at least one element");

    constexpr Addr z = 64; // IZ(1) lives at z + 0, IZ(k) at z + k - 1.
    std::ostringstream os;
    os << ".fus 4\n"
          ".reg tz\n.reg k\n.reg n\n.reg tn\n.reg min\n.reg max\n"
          ".const z " << z << "\n"
          ".init n " << data.size() << "\n";
    os << wordLine(z, data);

    // Example 2, verbatim, including the two unused addresses 06/07 so
    // the instruction-memory addresses match the paper (and Figure 10).
    os << "L00: -> L01 ; load #z,#0,tz      "
          "|| -> L01 ; iadd #1,#0,k      "
          "|| -> L01 ; lt n,#2           "
          "|| -> L01 ; iadd n,#0,tn\n"

          "L01: if cc2 L08 L02 ; lt tz,#maxint "
          "|| if cc2 L08 L02 ; gt tz,#minint "
          "|| if cc2 L08 L02 ; nop "
          "|| if cc2 L08 L02 ; isub tn,#1,tn\n"

          "L02: -> L03 ; nop || -> L03 ; nop "
          "|| if cc0 L04 L03 ; eq k,tn "
          "|| if cc1 L04 L03 ; nop\n"

          "L03: -> L05 ; load #z,k,tz || -> L05 ; iadd #1,k,k "
          "|| -> L05 ; nop || -> L05 ; nop\n"

          "L04: -> L05 ; nop || -> L05 ; nop "
          "|| -> L05 ; iadd tz,#0,min "
          "|| -> L05 ; iadd tz,#0,max\n"

          "L05: if cc2 L08 L02 ; lt tz,min "
          "|| if cc2 L08 L02 ; gt tz,max "
          "|| if cc2 L08 L02 ; nop "
          "|| if cc2 L08 L02 ; nop\n"

          // Addresses 06/07 are unused in the paper's listing.
          "L06: halt || halt || halt || halt\n"
          "L07: halt || halt || halt || halt\n"

          "L08: -> L0a ; nop || -> L0a ; nop "
          "|| if cc0 L09 L0a ; nop "
          "|| if cc1 L09 L0a ; nop\n"

          "L09: -> L0a ; nop || -> L0a ; nop "
          "|| -> L0a ; iadd tz,#0,min "
          "|| -> L0a ; iadd tz,#0,max\n";

    if (terminate)
        os << "L0a: halt || halt || halt || halt\n";
    else
        // The paper's "Continue." — later code would follow; keep all
        // FUs at 0a: as the Figure 10 trace shows for cycle 13.
        os << "L0a: -> L0a ; nop || -> L0a ; nop || -> L0a ; nop "
              "|| -> L0a ; nop\n";

    return assembleString(os.str());
}

Program
minmaxPaper(bool terminate)
{
    return minmaxPaperData({5, 3, 4, 7}, terminate);
}

Program
bitcount1Paper(const std::vector<Word> &data)
{
    const std::size_t n = data.size();
    if (n <= 8 || n % 4 != 0)
        fatal("bitcount1Paper: the paper's main loop (no cleanup code) "
              "requires n > 8 and n % 4 == 0; got n = ", n);

    const Addr d0 = 256;                        // D[0]; D[k] at d0+k
    const Addr b0 = static_cast<Addr>(d0 + n + 16); // B[0]; B[k] at b0+k

    std::ostringstream os;
    os << ".fus 4\n"
          ".reg k\n.reg n\n.reg a\n.reg b\n.reg t\n"
          ".reg b0\n.reg b1\n.reg b2\n.reg b3\n"
          ".reg d0\n.reg d1\n.reg d2\n.reg d3\n"
          ".reg t0\n.reg t1\n.reg t2\n.reg t3\n"
          ".const D0 " << d0 << "\n"
          ".const D1 " << d0 + 1 << "\n"
          ".const D2 " << d0 + 2 << "\n"
          ".const D3 " << d0 + 3 << "\n"
          ".const B0 " << b0 << "\n"
          ".const B1 " << b0 + 1 << "\n"
          ".const B2 " << b0 + 2 << "\n"
          ".const B3 " << b0 + 3 << "\n"
          ".init n " << n << "\n";
    os << wordLine(d0 + 1, data); // D[1..n]

    os <<
        // Startup (paper addresses 00:, 01:).
        "L00: -> L01 ; le n,#8 ; done || -> L01 ; iadd #1,#0,k ; done "
        "|| -> L01 ; iadd #0,#0,b ; done || -> L01 ; store #0,#B0 ; done\n"

        "L01: if cc0 LCLEAN L02 ; nop ; done "
        "|| if cc0 LCLEAN L02 ; nop ; done "
        "|| if cc0 LCLEAN L02 ; nop ; done "
        "|| if cc0 LCLEAN L02 ; nop ; done\n"

        // Outer-loop prologue (02:, 03:) and the four parallel inner
        // bit-count loops (04: - 08:), one per FU.
        "L02: -> L03 ; iadd #0,#0,b0 || -> L03 ; iadd #0,#0,b1 "
        "|| -> L03 ; iadd #0,#0,b2 || -> L03 ; iadd #0,#0,b3\n"

        "L03: -> L04 ; load #D0,k,d0 || -> L04 ; load #D1,k,d1 "
        "|| -> L04 ; load #D2,k,d2 || -> L04 ; load #D3,k,d3\n"

        "L04: -> L05 ; eq d0,#0 || -> L05 ; eq d1,#0 "
        "|| -> L05 ; eq d2,#0 || -> L05 ; eq d3,#0\n"

        "L05: if cc0 L10 L06 ; and d0,#1,t0 "
        "|| if cc1 L10 L06 ; and d1,#1,t1 "
        "|| if cc2 L10 L06 ; and d2,#1,t2 "
        "|| if cc3 L10 L06 ; and d3,#1,t3\n"

        "L06: -> L07 ; eq #0,t0 || -> L07 ; eq #0,t1 "
        "|| -> L07 ; eq #0,t2 || -> L07 ; eq #0,t3\n"

        "L07: if cc0 L04 L08 ; shr d0,#1,d0 "
        "|| if cc1 L04 L08 ; shr d1,#1,d1 "
        "|| if cc2 L04 L08 ; shr d2,#1,d2 "
        "|| if cc3 L04 L08 ; shr d3,#1,d3\n"

        "L08: -> L04 ; iadd b0,#1,b0 || -> L04 ; iadd b1,#1,b1 "
        "|| -> L04 ; iadd b2,#1,b2 || -> L04 ; iadd b3,#1,b3\n"

        // The 4-way barrier (paper address 10:).
        "L10: if all L11 L10 ; nop ; done "
        "|| if all L11 L10 ; nop ; done "
        "|| if all L11 L10 ; nop ; done "
        "|| if all L11 L10 ; nop ; done\n"

        // Software-pipelined accumulation and store-out (11: - 15:).
        "L11: -> L12 ; iadd b,b0,b ; done || -> L12 ; nop ; done "
        "|| -> L12 ; iadd k,#B0,a ; done || -> L12 ; nop ; done\n"

        "L12: -> L13 ; iadd b,b1,b ; done || -> L13 ; store b,a ; done "
        "|| -> L13 ; iadd k,#B1,a ; done || -> L13 ; nop ; done\n"

        "L13: -> L14 ; iadd b,b2,b ; done || -> L14 ; store b,a ; done "
        "|| -> L14 ; iadd k,#B2,a ; done || -> L14 ; isub n,k,t ; done\n"

        "L14: -> L15 ; iadd b,b3,b ; done || -> L15 ; store b,a ; done "
        "|| -> L15 ; iadd k,#B3,a ; done || -> L15 ; lt t,#4 ; done\n"

        "L15: if cc3 LCLEAN L02 ; iadd k,#4,k ; done "
        "|| if cc3 LCLEAN L02 ; store b,a ; done "
        "|| if cc3 LCLEAN L02 ; iadd #0,#0,b ; done "
        "|| if cc3 LCLEAN L02 ; nop ; done\n"

        // "Clean Up Code for less than 8 iterations remaining" is not
        // shown in the paper; we require n to avoid it and halt here.
        "LCLEAN: halt || halt || halt || halt\n";

    return assembleString(os.str());
}

Program
loop12Naive(const std::vector<float> &y, FuId width)
{
    if (y.size() < 2)
        fatal("loop12 needs at least two Y values");
    if (width < 4 || width > kMaxFus)
        fatal("loop12Naive needs 4..", kMaxFus, " FUs");

    const std::size_t n = y.size() - 1; // X(1..n)
    const Addr y0 = 64;                 // Y(k) at y0 + k
    const Addr x0 = static_cast<Addr>(y0 + y.size() + 16); // X(k) at x0+k

    std::ostringstream os;
    os << ".fus " << width << "\n"
          ".reg k\n.reg n\n.reg y0\n.reg y1\n.reg x\n.reg ax\n"
          ".const Y0 " << y0 << "\n"
          ".const Y1 " << y0 + 1 << "\n"
          ".const X0 " << x0 << "\n"
          ".init k 1\n"
          ".init n " << n << "\n";
    os << wordLine(y0 + 1, y);

    // Build rows with explicit cells; unused FUs carry the same control
    // op and a nop so the program stays a single instruction stream.
    auto row = [&](const std::string &ctrl,
                   std::vector<std::string> dataOps) {
        std::ostringstream r;
        for (FuId fu = 0; fu < width; ++fu) {
            if (fu)
                r << " || ";
            r << ctrl << " ; "
              << (fu < dataOps.size() ? dataOps[fu] : "nop");
        }
        r << "\n";
        return r.str();
    };

    os << "LOOP: "
       << row("-> L2", {"load #Y0,k,y0", "load #Y1,k,y1", "eq k,n",
                        "iadd k,#X0,ax"});
    os << "L2: "
       << row("-> L3", {"fsub y1,y0,x", "iadd k,#1,k"});
    os << "L3: "
       << row("if cc2 LEND LOOP", {"store x,ax"});
    os << "LEND: " << row("halt", {});

    return assembleString(os.str());
}

} // namespace ximd::workloads
