/**
 * @file
 * An assembled XIMD program: a grid of instruction parcels.
 *
 * The program is a matrix: one row per instruction-memory address, one
 * column per functional unit. Each FU's separate program counter indexes
 * rows of its own column (section 2.2). Alongside the parcel grid the
 * Program carries the symbol information needed by tools and tests:
 * labels, named constants, register names, and initial memory contents.
 */

#ifndef XIMD_ISA_PROGRAM_HH
#define XIMD_ISA_PROGRAM_HH

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "isa/parcel.hh"
#include "support/types.hh"

namespace ximd {

/** One instruction-memory row: `width()` parcels. */
using InstRow = std::vector<Parcel>;

/** A complete XIMD program plus its symbol tables. */
class Program
{
  public:
    /** Create an empty program for @p width functional units. */
    explicit Program(FuId width = kDefaultFus);

    /** Number of functional-unit columns. */
    FuId width() const { return width_; }

    /** Number of instruction-memory rows. */
    InstAddr size() const
    {
        return static_cast<InstAddr>(rows_.size());
    }

    bool empty() const { return rows_.empty(); }

    /** Append a row; must contain exactly width() parcels. */
    InstAddr addRow(InstRow row);

    /** Append a row of identical parcels (VLIW-style duplication). */
    InstAddr addUniformRow(const Parcel &parcel);

    /** Access a row; fatal on out-of-range address. */
    const InstRow &row(InstAddr addr) const
    {
        if (addr >= rows_.size())
            badRow(addr);
        return rows_[addr];
    }
    InstRow &row(InstAddr addr)
    {
        return const_cast<InstRow &>(std::as_const(*this).row(addr));
    }

    /** Access a single parcel; fatal on out-of-range address or FU. */
    const Parcel &parcel(InstAddr addr, FuId fu) const
    {
        if (fu >= width_)
            badFu(fu);
        return row(addr)[fu];
    }
    Parcel &parcel(InstAddr addr, FuId fu)
    {
        return const_cast<Parcel &>(std::as_const(*this).parcel(addr, fu));
    }

    /** Attach a label to an address (first label per address wins). */
    void setLabel(const std::string &name, InstAddr addr);

    /** Address of @p label, if defined. */
    std::optional<InstAddr> label(const std::string &name) const;

    /** Every label, by name (asm writer, listings). */
    const std::map<std::string, InstAddr> &labels() const
    {
        return labels_;
    }

    /** Label attached to @p addr, if any (first one set). */
    std::optional<std::string> labelAt(InstAddr addr) const;

    /** Define a named constant (data addresses, sizes, ...). */
    void setSymbol(const std::string &name, Word value);

    /** Value of a named constant, if defined. */
    std::optional<Word> symbol(const std::string &name) const;

    /** Value of a named constant; fatal when undefined. */
    Word symbolOrDie(const std::string &name) const;

    /** Every named constant (asm writer, tools). */
    const std::map<std::string, Word> &symbols() const
    {
        return symbols_;
    }

    /** Give register @p r a symbolic name (for listings and tests). */
    void nameRegister(const std::string &name, RegId r);

    /** Register bound to @p name, if any. */
    std::optional<RegId> regByName(const std::string &name) const;

    /** Name bound to register @p r, if any. */
    std::optional<std::string> regName(RegId r) const;

    /** Every register-name binding, by register (asm writer). */
    const std::map<RegId, std::string> &regNames() const
    {
        return regNames_;
    }

    /** Request that memory[addr] = value before execution starts. */
    void addMemInit(Addr addr, Word value);

    /** All initial-memory requests, in insertion order. */
    const std::vector<std::pair<Addr, Word>> &memInit() const
    {
        return memInit_;
    }

    /** Request that register r = value before execution starts. */
    void addRegInit(RegId r, Word value);

    /**
     * Bind instruction row @p addr to the 1-based source line it was
     * assembled from. Purely diagnostic provenance: tools use it to
     * point findings back at the listing; it never affects execution
     * or the snapshot digest.
     */
    void setRowLine(InstAddr addr, int line);

    /** Source line of row @p addr, or 0 when unknown. */
    int rowLine(InstAddr addr) const;

    /** All initial-register requests, in insertion order. */
    const std::vector<std::pair<RegId, Word>> &regInit() const
    {
        return regInit_;
    }

    /**
     * Validate structural invariants: every row has width() parcels,
     * every branch target is a valid address, every data op is well
     * formed. Throws FatalError on violation.
     */
    void validate() const;

  private:
    /** The out-of-range fatal() paths of row() and parcel(). */
    [[noreturn]] void badRow(InstAddr addr) const;
    [[noreturn]] void badFu(FuId fu) const;

    FuId width_;
    std::vector<InstRow> rows_;
    std::map<std::string, InstAddr> labels_;
    std::map<InstAddr, std::string> labelAt_;
    std::map<std::string, Word> symbols_;
    std::map<std::string, RegId> regByName_;
    std::map<RegId, std::string> regNames_;
    std::vector<std::pair<Addr, Word>> memInit_;
    std::vector<std::pair<RegId, Word>> regInit_;
    std::vector<int> rowLines_; ///< 1-based source lines; 0 unknown.
};

} // namespace ximd

#endif // XIMD_ISA_PROGRAM_HH
