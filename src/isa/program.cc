#include "isa/program.hh"

#include "support/logging.hh"

namespace ximd {

Program::Program(FuId width)
    : width_(width)
{
    if (width == 0 || width > kMaxFus)
        fatal("program width ", width, " outside supported range 1..",
              kMaxFus);
}

InstAddr
Program::addRow(InstRow row)
{
    if (row.size() != width_)
        fatal("row has ", row.size(), " parcels; program width is ",
              width_);
    rows_.push_back(std::move(row));
    return static_cast<InstAddr>(rows_.size() - 1);
}

InstAddr
Program::addUniformRow(const Parcel &parcel)
{
    return addRow(InstRow(width_, parcel));
}

void
Program::badRow(InstAddr addr) const
{
    fatal("instruction address ", addr, " out of range (program has ",
          rows_.size(), " rows)");
}

void
Program::badFu(FuId fu) const
{
    fatal("functional unit ", fu, " out of range (width ", width_, ")");
}

void
Program::setLabel(const std::string &name, InstAddr addr)
{
    auto [it, inserted] = labels_.emplace(name, addr);
    if (!inserted && it->second != addr)
        fatal("label '", name, "' redefined (", it->second, " vs ", addr,
              ")");
    labelAt_.emplace(addr, name); // keep first
}

std::optional<InstAddr>
Program::label(const std::string &name) const
{
    auto it = labels_.find(name);
    if (it == labels_.end())
        return std::nullopt;
    return it->second;
}

std::optional<std::string>
Program::labelAt(InstAddr addr) const
{
    auto it = labelAt_.find(addr);
    if (it == labelAt_.end())
        return std::nullopt;
    return it->second;
}

void
Program::setSymbol(const std::string &name, Word value)
{
    symbols_[name] = value;
}

std::optional<Word>
Program::symbol(const std::string &name) const
{
    auto it = symbols_.find(name);
    if (it == symbols_.end())
        return std::nullopt;
    return it->second;
}

Word
Program::symbolOrDie(const std::string &name) const
{
    auto v = symbol(name);
    if (!v)
        fatal("undefined program symbol '", name, "'");
    return *v;
}

void
Program::nameRegister(const std::string &name, RegId r)
{
    if (r >= kNumRegisters)
        fatal("register r", r, " out of range");
    regByName_[name] = r;
    regNames_.emplace(r, name); // keep first
}

std::optional<RegId>
Program::regByName(const std::string &name) const
{
    auto it = regByName_.find(name);
    if (it == regByName_.end())
        return std::nullopt;
    return it->second;
}

std::optional<std::string>
Program::regName(RegId r) const
{
    auto it = regNames_.find(r);
    if (it == regNames_.end())
        return std::nullopt;
    return it->second;
}

void
Program::addMemInit(Addr addr, Word value)
{
    memInit_.emplace_back(addr, value);
}

void
Program::addRegInit(RegId r, Word value)
{
    if (r >= kNumRegisters)
        fatal("register r", r, " out of range in register initializer");
    regInit_.emplace_back(r, value);
}

void
Program::setRowLine(InstAddr addr, int line)
{
    if (addr >= rows_.size())
        fatal("row ", addr, " out of range in setRowLine");
    if (rowLines_.size() < rows_.size())
        rowLines_.resize(rows_.size(), 0);
    rowLines_[addr] = line;
}

int
Program::rowLine(InstAddr addr) const
{
    return addr < rowLines_.size() ? rowLines_[addr] : 0;
}

void
Program::validate() const
{
    const auto n = static_cast<InstAddr>(rows_.size());
    for (InstAddr a = 0; a < n; ++a) {
        const InstRow &r = rows_[a];
        if (r.size() != width_)
            fatal("row ", a, " has ", r.size(), " parcels; width is ",
                  width_);
        for (FuId fu = 0; fu < width_; ++fu) {
            const Parcel &p = r[fu];
            p.data.validate();
            const ControlOp &c = p.ctrl;
            if (c.isHalt())
                continue;
            if (c.t1 >= n)
                fatal("row ", a, " FU", fu, ": branch target 1 (", c.t1,
                      ") out of range");
            if (c.isConditional() && c.t2 >= n)
                fatal("row ", a, " FU", fu, ": branch target 2 (", c.t2,
                      ") out of range");
        }
    }
}

} // namespace ximd
