/**
 * @file
 * Per-FU control-flow graphs over an assembled Program.
 *
 * In an XIMD machine every FU owns a sequencer that walks its own
 * column of the parcel grid (section 2.2), so control flow is a
 * per-column property: the parcel at (row, fu) can only ever execute
 * if FU `fu`'s sequencer can reach `row` from the shared entry row 0.
 *
 * Each column's graph has one node per instruction row. Edges follow
 * the two-target control fields: an unconditional branch contributes
 * {t1}, a conditional branch {t1, t2}, and halt nothing. There is no
 * fall-through in the ISA (no PC incrementer, Figure 8); the
 * assembler materializes textual fall-through as explicit jumps, so
 * the graph needs no implicit edges.
 *
 * Branch targets outside the program are dropped from the graph (and
 * diagnosed by checkCfg) so the remaining passes can run on malformed
 * inputs without faulting.
 */

#ifndef XIMD_ANALYSIS_CFG_HH
#define XIMD_ANALYSIS_CFG_HH

#include <memory>
#include <span>
#include <vector>

#include "analysis/diagnostics.hh"
#include "isa/program.hh"

namespace ximd::analysis {

struct ProgramCfg;

/**
 * Control-flow graph of one FU's instruction stream, stored flat:
 * two successor slots per row and the predecessors in one CSR array.
 * Columns whose control is identical at every row share one graph,
 * so copies are cheap and compare equal under sameGraph().
 */
class StreamCfg
{
  public:
    /** Number of rows (the program's size). */
    InstAddr rows() const { return g_->rows; }

    /** Successor rows of @p r (0, 1 or 2 entries, deduplicated). */
    std::span<const InstAddr>
    succs(InstAddr r) const
    {
        const InstAddr *s = g_->succ.data() + 2 * std::size_t(r);
        return {s, std::size_t(s[0] != kNoRow) + (s[1] != kNoRow)};
    }

    /** Predecessor rows of @p r, in ascending order. */
    std::span<const InstAddr>
    preds(InstAddr r) const
    {
        const InstAddr begin = g_->predStart[r];
        return {g_->pred.data() + begin, g_->predStart[r + 1] - begin};
    }

    /** Reachable from row 0 along this column. */
    bool
    isReachable(InstAddr row) const
    {
        return row < g_->rows && g_->reachable[row];
    }

    /** True when @p other is the same shared graph. */
    bool sameGraph(const StreamCfg &other) const { return g_ == other.g_; }

  private:
    friend ProgramCfg buildCfg(const Program &prog);

    static constexpr InstAddr kNoRow = ~InstAddr{0};

    struct Graph
    {
        InstAddr rows = 0;
        std::vector<InstAddr> succ;      ///< 2 per row, kNoRow-padded.
        std::vector<InstAddr> predStart; ///< rows + 1 offsets into pred.
        std::vector<InstAddr> pred;
        std::vector<char> reachable;
    };

    std::shared_ptr<const Graph> g_;
};

/** CFGs for every FU of a program. */
struct ProgramCfg
{
    std::vector<StreamCfg> streams;

    /** True when the parcel at (@p row, @p fu) can ever execute. */
    bool
    executable(InstAddr row, FuId fu) const
    {
        return fu < streams.size() && streams[fu].isReachable(row);
    }
};

/**
 * Build every column's CFG; a column whose control equals an earlier
 * column's at every row gets that column's graph. Tolerates
 * out-of-range branch targets.
 */
ProgramCfg buildCfg(const Program &prog);

/**
 * Control-flow diagnostics:
 *  - error   BadBranchTarget: a branch target outside the program;
 *  - warning UnreachableParcel: a parcel that does real work (non-nop
 *    data op or a DONE sync field) at a row its own FU can never
 *    reach. Trivial filler (nop, BUSY) is expected in packed/composed
 *    programs and is not reported.
 */
void checkCfg(const Program &prog, const ProgramCfg &cfg,
              DiagnosticList &diags);

} // namespace ximd::analysis

#endif // XIMD_ANALYSIS_CFG_HH
