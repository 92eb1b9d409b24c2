#include "workloads/bitcount.hh"

#include <sstream>

#include "asm/asm_writer.hh"
#include "asm/assembler.hh"
#include "support/logging.hh"

namespace ximd::workloads {

namespace {

constexpr Addr kD0 = 256;

Addr
bBase(std::size_t n)
{
    return static_cast<Addr>(kD0 + n + 16);
}

std::string
dataHeader(const std::vector<Word> &data)
{
    const std::size_t n = data.size();
    std::ostringstream os;
    os << ".const D0 " << kD0 << "\n"
          ".const B0 " << bBase(n) << "\n"
          ".init n " << n << "\n"
       << wordLine(kD0 + 1, data);
    return os.str();
}

} // namespace

Program
bitcountXimd(const std::vector<Word> &data)
{
    const std::size_t n = data.size();
    if (n < 4 || n % 4 != 0)
        fatal("bitcountXimd requires n % 4 == 0 and n >= 4; got ", n);
    const Addr b0 = bBase(n);

    std::ostringstream os;
    os << ".fus 4\n"
          ".reg k\n.reg n\n.reg a\n.reg b\n.reg t\n"
          ".reg b0\n.reg b1\n.reg b2\n.reg b3\n"
          ".reg d0\n.reg d1\n.reg d2\n.reg d3\n"
          ".reg t0\n.reg t1\n.reg t2\n.reg t3\n"
          ".const D1 " << kD0 + 1 << "\n"
          ".const D2 " << kD0 + 2 << "\n"
          ".const D3 " << kD0 + 3 << "\n"
          ".const B1 " << b0 + 1 << "\n"
          ".const B2 " << b0 + 2 << "\n"
          ".const B3 " << b0 + 3 << "\n"
       << dataHeader(data);

    os <<
        // Example 3's structure, generalized: cumulative accumulator
        // (no reset at the loop latch) and n % 4 == 0 coverage.
        "L00: -> L01 ; lt n,#4 ; done || -> L01 ; iadd #1,#0,k ; done "
        "|| -> L01 ; iadd #0,#0,b ; done || -> L01 ; store #0,#B0 ; done\n"

        "L01: if cc0 LEND L02 ; nop ; done "
        "|| if cc0 LEND L02 ; nop ; done "
        "|| if cc0 LEND L02 ; nop ; done "
        "|| if cc0 LEND L02 ; nop ; done\n"

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

        "L10: if all L11 L10 ; nop ; done "
        "|| if all L11 L10 ; nop ; done "
        "|| if all L11 L10 ; nop ; done "
        "|| if all L11 L10 ; nop ; done\n"

        "L11: -> L12 ; iadd b,b0,b ; done || -> L12 ; nop ; done "
        "|| -> L12 ; iadd k,#B0,a ; done || -> L12 ; nop ; done\n"

        "L12: -> L13 ; iadd b,b1,b ; done || -> L13 ; store b,a ; done "
        "|| -> L13 ; iadd k,#B1,a ; done || -> L13 ; nop ; done\n"

        "L13: -> L14 ; iadd b,b2,b ; done || -> L14 ; store b,a ; done "
        "|| -> L14 ; iadd k,#B2,a ; done || -> L14 ; isub n,k,t ; done\n"

        "L14: -> L15 ; iadd b,b3,b ; done || -> L15 ; store b,a ; done "
        "|| -> L15 ; iadd k,#B3,a ; done || -> L15 ; lt t,#4 ; done\n"

        "L15: if cc3 LEND L02 ; iadd k,#4,k ; done "
        "|| if cc3 LEND L02 ; store b,a ; done "
        "|| if cc3 LEND L02 ; nop ; done "
        "|| if cc3 LEND L02 ; nop ; done\n"

        "LEND: halt || halt || halt || halt\n";

    return assembleString(os.str());
}

Program
bitcountVliwSerial(const std::vector<Word> &data)
{
    const std::size_t n = data.size();
    if (n < 1)
        fatal("bitcountVliwSerial requires n >= 1");

    std::ostringstream os;
    os << ".fus 4\n"
          ".reg k\n.reg n\n.reg a\n.reg b\n.reg d\n.reg t\n"
       << dataHeader(data);

    os <<
        // Startup: k = 1, b = 0, B[0] = 0.
        "L00: -> OUTER ; iadd #1,#0,k || -> OUTER ; iadd #0,#0,b "
        "|| -> OUTER ; store #0,#B0 || -> OUTER ; nop\n"

        // Per element: load, then the paper's inner loop, serially.
        "OUTER: -> I4 ; load #D0,k,d || -> I4 ; nop "
        "|| -> I4 ; nop || -> I4 ; nop\n"

        "I4: -> I5 ; eq d,#0 || -> I5 ; nop || -> I5 ; nop "
        "|| -> I5 ; nop\n"

        "I5: if cc0 EDONE I6 ; and d,#1,t || if cc0 EDONE I6 ; nop "
        "|| if cc0 EDONE I6 ; nop || if cc0 EDONE I6 ; nop\n"

        "I6: -> I7 ; eq #0,t || -> I7 ; nop || -> I7 ; nop "
        "|| -> I7 ; nop\n"

        "I7: if cc0 I4 I8 ; shr d,#1,d || if cc0 I4 I8 ; nop "
        "|| if cc0 I4 I8 ; nop || if cc0 I4 I8 ; nop\n"

        "I8: -> I4 ; iadd b,#1,b || -> I4 ; nop || -> I4 ; nop "
        "|| -> I4 ; nop\n"

        // Element epilogue: address, exit test, k increment.
        "EDONE: -> ST ; nop || -> ST ; iadd k,#B0,a "
        "|| -> ST ; eq k,n || -> ST ; iadd #1,k,k\n"

        "ST: if cc2 LEND OUTER ; store b,a "
        "|| if cc2 LEND OUTER ; nop "
        "|| if cc2 LEND OUTER ; nop "
        "|| if cc2 LEND OUTER ; nop\n"

        "LEND: halt || halt || halt || halt\n";

    return assembleString(os.str());
}

Program
bitcountVliwLockstep(const std::vector<Word> &data)
{
    const std::size_t n = data.size();
    if (n < 4 || n % 4 != 0)
        fatal("bitcountVliwLockstep requires n % 4 == 0 and n >= 4; "
              "got ", n);
    const Addr b0 = bBase(n);

    std::ostringstream os;
    os << ".fus 4\n"
          ".reg k\n.reg n\n.reg a\n.reg b\n.reg t\n"
          ".reg b0\n.reg b1\n.reg b2\n.reg b3\n"
          ".reg d0\n.reg d1\n.reg d2\n.reg d3\n"
          ".reg t0\n.reg t1\n.reg t2\n.reg t3\n"
          ".reg u01\n.reg u23\n.reg u\n"
          ".const D1 " << kD0 + 1 << "\n"
          ".const D2 " << kD0 + 2 << "\n"
          ".const D3 " << kD0 + 3 << "\n"
          ".const B1 " << b0 + 1 << "\n"
          ".const B2 " << b0 + 2 << "\n"
          ".const B3 " << b0 + 3 << "\n"
       << dataHeader(data);

    os <<
        "L00: -> L02 ; iadd #1,#0,k || -> L02 ; iadd #0,#0,b "
        "|| -> L02 ; store #0,#B0 || -> L02 ; nop\n"

        "L02: -> L03 ; iadd #0,#0,b0 || -> L03 ; iadd #0,#0,b1 "
        "|| -> L03 ; iadd #0,#0,b2 || -> L03 ; iadd #0,#0,b3\n"

        "L03: -> I0 ; load #D0,k,d0 || -> I0 ; load #D1,k,d1 "
        "|| -> I0 ; load #D2,k,d2 || -> I0 ; load #D3,k,d3\n"

        // Lockstep inner iteration: branchless bit consume + an
        // OR-reduction to detect that every element is exhausted.
        "I0: -> I1 ; and d0,#1,t0 || -> I1 ; and d1,#1,t1 "
        "|| -> I1 ; and d2,#1,t2 || -> I1 ; and d3,#1,t3\n"

        "I1: -> I2 ; iadd b0,t0,b0 || -> I2 ; iadd b1,t1,b1 "
        "|| -> I2 ; iadd b2,t2,b2 || -> I2 ; iadd b3,t3,b3\n"

        "I2: -> I3 ; shr d0,#1,d0 || -> I3 ; shr d1,#1,d1 "
        "|| -> I3 ; shr d2,#1,d2 || -> I3 ; shr d3,#1,d3\n"

        "I3: -> I4 ; or d0,d1,u01 || -> I4 ; or d2,d3,u23 "
        "|| -> I4 ; nop || -> I4 ; nop\n"

        "I4: -> I5 ; or u01,u23,u || -> I5 ; nop || -> I5 ; nop "
        "|| -> I5 ; nop\n"

        "I5: -> I6 ; eq u,#0 || -> I6 ; nop || -> I6 ; nop "
        "|| -> I6 ; nop\n"

        "I6: if cc0 L11 I0 ; nop || if cc0 L11 I0 ; nop "
        "|| if cc0 L11 I0 ; nop || if cc0 L11 I0 ; nop\n"

        // Store-out, software-pipelined exactly like the XIMD version.
        "L11: -> L12 ; iadd b,b0,b || -> L12 ; nop "
        "|| -> L12 ; iadd k,#B0,a || -> L12 ; nop\n"

        "L12: -> L13 ; iadd b,b1,b || -> L13 ; store b,a "
        "|| -> L13 ; iadd k,#B1,a || -> L13 ; nop\n"

        "L13: -> L14 ; iadd b,b2,b || -> L14 ; store b,a "
        "|| -> L14 ; iadd k,#B2,a || -> L14 ; isub n,k,t\n"

        "L14: -> L15 ; iadd b,b3,b || -> L15 ; store b,a "
        "|| -> L15 ; iadd k,#B3,a || -> L15 ; lt t,#4\n"

        "L15: if cc3 LEND L02 ; iadd k,#4,k "
        "|| if cc3 LEND L02 ; store b,a "
        "|| if cc3 LEND L02 ; nop "
        "|| if cc3 LEND L02 ; nop\n"

        "LEND: halt || halt || halt || halt\n";

    return assembleString(os.str());
}

} // namespace ximd::workloads
