#include "workloads/loop12.hh"

#include <sstream>

#include "asm/asm_writer.hh"
#include "asm/assembler.hh"
#include "support/logging.hh"

namespace ximd::workloads {

Program
loop12Pipelined(const std::vector<float> &y)
{
    if (y.size() < 5)
        fatal("loop12Pipelined requires at least 5 Y values (n >= 4); "
              "use loop12Naive for shorter vectors");

    const std::size_t n = y.size() - 1; // iterations / X elements
    const Addr y0 = 64;                 // Y(k) at y0 + k
    const Addr x0 = static_cast<Addr>(y0 + y.size() + 16);
    const std::size_t kend1 = n + 1;    // compare value for the latch

    std::ostringstream os;
    os << ".fus 8\n"
          ".reg k\n"
          ".reg y0a\n.reg y1a\n.reg xa\n.reg axa\n"
          ".reg y0b\n.reg y1b\n.reg xb\n.reg axb\n"
          ".const Y0 " << y0 << "\n"
          ".const Y1 " << y0 + 1 << "\n"
          ".const X0 " << x0 << "\n"
          ".const KEND1 " << kend1 << "\n"
          ".init k 1\n";
    // Two scratch words cover the drained pipeline's trailing loads.
    std::vector<float> words(y);
    words.insert(words.end(), 2, 0.0f);
    os << wordLine(y0 + 1, words);

    // Stage plan (iteration i): S0 loads + address at cycle i-1,
    // S1 subtract at cycle i, S2 store at cycle i+1. Odd iterations
    // use register set A, even ones set B. At cycle t the loop counter
    // k reads t+1.
    os <<
        // P0 (cycle 0): S0 of iteration 1 (set A).
        "P0: -> P1 ; load #Y0,k,y0a || -> P1 ; load #Y1,k,y1a "
        "|| -> P1 ; iadd k,#X0,axa || -> P1 ; nop "
        "|| -> P1 ; nop || -> P1 ; iadd k,#1,k "
        "|| -> P1 ; eq k,#KEND1 || -> P1 ; nop\n"

        // P1 (cycle 1): S0 of iteration 2 (set B) + S1 of iteration 1.
        "P1: -> K0 ; load #Y0,k,y0b || -> K0 ; load #Y1,k,y1b "
        "|| -> K0 ; iadd k,#X0,axb || -> K0 ; fsub y1a,y0a,xa "
        "|| -> K0 ; nop || -> K0 ; iadd k,#1,k "
        "|| -> K0 ; eq k,#KEND1 || -> K0 ; nop\n"

        // K0 (odd-iteration row): S0 odd (A), S1 even (B), S2 odd (A).
        "K0: if cc6 LEND K1 ; load #Y0,k,y0a "
        "|| if cc6 LEND K1 ; load #Y1,k,y1a "
        "|| if cc6 LEND K1 ; iadd k,#X0,axa "
        "|| if cc6 LEND K1 ; fsub y1b,y0b,xb "
        "|| if cc6 LEND K1 ; store xa,axa "
        "|| if cc6 LEND K1 ; iadd k,#1,k "
        "|| if cc6 LEND K1 ; eq k,#KEND1 "
        "|| if cc6 LEND K1 ; nop\n"

        // K1 (even-iteration row): mirror image of K0.
        "K1: if cc6 LEND K0 ; load #Y0,k,y0b "
        "|| if cc6 LEND K0 ; load #Y1,k,y1b "
        "|| if cc6 LEND K0 ; iadd k,#X0,axb "
        "|| if cc6 LEND K0 ; fsub y1a,y0a,xa "
        "|| if cc6 LEND K0 ; store xb,axb "
        "|| if cc6 LEND K0 ; iadd k,#1,k "
        "|| if cc6 LEND K0 ; eq k,#KEND1 "
        "|| if cc6 LEND K0 ; nop\n"

        "LEND: halt || halt || halt || halt "
        "|| halt || halt || halt || halt\n";

    return assembleString(os.str());
}

} // namespace ximd::workloads
