#include "isa/decoded_program.hh"

#include <map>
#include <tuple>

#include "support/logging.hh"

namespace ximd {

namespace {

DecodedSrc
decodeSrc(const Operand &operand)
{
    DecodedSrc src;
    if (operand.isReg()) {
        src.isReg = true;
        src.value = operand.regId();
    } else if (operand.isImm()) {
        src.isReg = false;
        src.value = operand.immValue();
    }
    // None stays {0, false}: validate() guarantees such operands are
    // never read by the executed op class.
    return src;
}

/** Fused token kind for a control-only (nop data op) parcel. */
ExecKind
fusedKind(CondKind ckind)
{
    switch (ckind) {
      case CondKind::Halt:     return ExecKind::HaltTok;
      case CondKind::Always:   return ExecKind::Jump;
      case CondKind::CcTrue:   return ExecKind::PollCc;
      case CondKind::SyncDone: return ExecKind::PollSs;
      case CondKind::AllSync:  return ExecKind::PollAll;
      case CondKind::AnySync:  return ExecKind::PollAny;
    }
    return ExecKind::Nop;
}

/** Data-op token kind; one ExecKind per opcode. */
ExecKind
dataKind(Opcode op)
{
    switch (op) {
      case Opcode::Iadd:  return ExecKind::Iadd;
      case Opcode::Isub:  return ExecKind::Isub;
      case Opcode::Imult: return ExecKind::Imult;
      case Opcode::Idiv:  return ExecKind::Idiv;
      case Opcode::Imod:  return ExecKind::Imod;
      case Opcode::Ineg:  return ExecKind::Ineg;
      case Opcode::And:   return ExecKind::And;
      case Opcode::Or:    return ExecKind::Or;
      case Opcode::Xor:   return ExecKind::Xor;
      case Opcode::Not:   return ExecKind::Not;
      case Opcode::Shl:   return ExecKind::Shl;
      case Opcode::Shr:   return ExecKind::Shr;
      case Opcode::Sar:   return ExecKind::Sar;
      case Opcode::Mov:   return ExecKind::Mov;
      case Opcode::Eq:    return ExecKind::Eq;
      case Opcode::Ne:    return ExecKind::Ne;
      case Opcode::Lt:    return ExecKind::Lt;
      case Opcode::Le:    return ExecKind::Le;
      case Opcode::Gt:    return ExecKind::Gt;
      case Opcode::Ge:    return ExecKind::Ge;
      case Opcode::Fadd:  return ExecKind::Fadd;
      case Opcode::Fsub:  return ExecKind::Fsub;
      case Opcode::Fmult: return ExecKind::Fmult;
      case Opcode::Fdiv:  return ExecKind::Fdiv;
      case Opcode::Fneg:  return ExecKind::Fneg;
      case Opcode::Feq:   return ExecKind::Feq;
      case Opcode::Fne:   return ExecKind::Fne;
      case Opcode::Flt:   return ExecKind::Flt;
      case Opcode::Fle:   return ExecKind::Fle;
      case Opcode::Fgt:   return ExecKind::Fgt;
      case Opcode::Fge:   return ExecKind::Fge;
      case Opcode::Itof:  return ExecKind::Itof;
      case Opcode::Ftoi:  return ExecKind::Ftoi;
      case Opcode::Load:  return ExecKind::Load;
      case Opcode::Store: return ExecKind::Store;
      case Opcode::Nop:
      case Opcode::NumOpcodes:
        break;
    }
    panic("dataKind: no token for ", opcodeName(op));
}

/** Does the op read its second source (b)? Mirrors executeParcel. */
bool
readsB(const DecodedParcel &d)
{
    switch (d.cls) {
      case OpClass::IntAlu:
        return d.op != Opcode::Ineg && d.op != Opcode::Not &&
               d.op != Opcode::Mov;
      case OpClass::FloatAlu:
        return d.op != Opcode::Fneg;
      case OpClass::IntCompare:
      case OpClass::FloatCompare:
      case OpClass::MemLoad:
      case OpClass::MemStore:
        return true;
      case OpClass::Nop:
      case OpClass::Convert:
        return false;
    }
    return false;
}

} // namespace

DecodedProgram::DecodedProgram(const Program &program)
    : width_(program.width()), size_(program.size())
{
    parcels_.resize(static_cast<std::size_t>(size_) * width_);
    for (InstAddr addr = 0; addr < size_; ++addr) {
        for (FuId fu = 0; fu < width_; ++fu) {
            const Parcel &p = program.parcel(addr, fu);
            DecodedParcel &d =
                parcels_[static_cast<std::size_t>(addr) * width_ + fu];

            d.op = p.data.op;
            d.cls = opInfo(p.data.op).cls;
            d.a = decodeSrc(p.data.a);
            d.b = decodeSrc(p.data.b);
            d.dest = p.data.dest;

            d.ckind = p.ctrl.kind;
            d.cindex = p.ctrl.index;
            d.cmask = p.ctrl.mask;
            d.t1 = p.ctrl.t1;
            d.t2 = p.ctrl.t2;
            d.conditional = p.ctrl.isConditional();

            d.sync = p.sync;

            const bool selfTarget =
                (d.ckind == CondKind::Always && d.t1 == addr) ||
                (d.conditional && (d.t1 == addr || d.t2 == addr));
            d.canSelfSpin = d.cls == OpClass::Nop && selfTarget;
        }
    }
}

FlatProgram::FlatProgram(const DecodedProgram &decoded)
    : width_(decoded.width()), size_(decoded.size())
{
    parcels_.resize(static_cast<std::size_t>(size_) * width_);

    // Grouping keys intern PartitionTracker::update()'s tuples — with
    // the RAW branch mask, so two parcels whose masks differ only in
    // nonexistent-FU bits land in distinct SSETs exactly as the
    // tracker would place them. An unconditional parcel's key is its
    // resolved next PC, which for Always control is statically T1.
    using Key =
        std::tuple<int, unsigned, std::uint32_t, InstAddr, InstAddr>;
    std::map<Key, std::uint16_t> keys;
    const std::uint32_t fuMask = fuMaskAll(width_);

    for (InstAddr addr = 0; addr < size_; ++addr) {
        bool rowAllNop = true;
        for (FuId fu = 0; fu < width_; ++fu)
            rowAllNop &= decoded.at(addr, fu).cls == OpClass::Nop;
        for (FuId fu = 0; fu < width_; ++fu) {
            const DecodedParcel &d = decoded.at(addr, fu);
            FlatParcel &f =
                parcels_[static_cast<std::size_t>(fu) * size_ + addr];

            f.kind = d.cls == OpClass::Nop ? fusedKind(d.ckind)
                                           : dataKind(d.op);
            f.ckind = d.ckind;
            f.cindex = d.cindex;
            f.cls = static_cast<std::uint8_t>(d.cls);
            f.dest = d.dest;
            f.ssDoneBit = d.sync == SyncVal::Done ? 1u << fu : 0;
            f.cmask = d.cmask & fuMask;
            f.aVal = d.a.value;
            f.bVal = d.b.value;
            f.t1 = d.t1;
            f.t2 = d.t2;

            const bool usesA = d.cls != OpClass::Nop;
            const bool usesB = readsB(d);
            f.readCount =
                static_cast<std::uint8_t>((usesA && d.a.isReg ? 1 : 0) +
                                          (usesB && d.b.isReg ? 1 : 0));
            if (usesA && d.a.isReg)
                f.flags |= FlatParcel::kAReg;
            if (usesB && d.b.isReg)
                f.flags |= FlatParcel::kBReg;
            if (d.conditional)
                f.flags |= FlatParcel::kConditional;
            if (d.canSelfSpin)
                f.flags |= FlatParcel::kCanSelfSpin;
            if (fu == 0 && rowAllNop)
                f.flags |= FlatParcel::kRowAllNop;

            if (d.ckind != CondKind::Halt) {
                const Key key =
                    d.conditional
                        ? Key{static_cast<int>(d.ckind), d.cindex,
                              d.cmask, d.t1, d.t2}
                        : Key{static_cast<int>(CondKind::Always), 0u,
                              0u, d.t1, d.t1};
                if (keys.size() > 0xffff)
                    fatal("program has more than 65535 distinct "
                          "branch keys");
                f.keyId =
                    keys.emplace(key,
                                 static_cast<std::uint16_t>(keys.size()))
                        .first->second;
            }
        }
        FlatParcel &lead = parcels_[addr];
        bool uniform = true;
        for (FuId fu = 1; fu < width_; ++fu) {
            const FlatParcel &f =
                parcels_[static_cast<std::size_t>(fu) * size_ + addr];
            uniform &= f.ckind == lead.ckind && f.keyId == lead.keyId;
        }
        if (uniform)
            lead.flags |= FlatParcel::kRowUniform;
    }
    numKeys_ = static_cast<unsigned>(keys.size());
}

PreparedProgram::PreparedProgram(Program program)
    : program_(std::move(program))
{
    if (program_.empty())
        fatal("cannot prepare an empty program");
    program_.validate();
    decoded_ = DecodedProgram(program_);
    flat_ = FlatProgram(decoded_);
}

std::shared_ptr<const PreparedProgram>
PreparedProgram::make(Program program)
{
    // Not make_shared: the constructor is private.
    return std::shared_ptr<const PreparedProgram>(
        new PreparedProgram(std::move(program)));
}

} // namespace ximd
