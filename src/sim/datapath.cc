#include "sim/datapath.hh"

#include "sim/alu.hh"
#include "support/logging.hh"

namespace ximd {

void
executeDataOp(const DataOp &op, ExecContext &ctx)
{
    switch (opInfo(op.op).cls) {
      case OpClass::Nop:
        return;

      case OpClass::IntAlu: {
        Word result;
        switch (op.op) {
          case Opcode::Ineg:
          case Opcode::Not:
          case Opcode::Mov:
            result = alu::intUnary(op.op, ctx.readOperand(op.a));
            break;
          default:
            result = alu::intBinary(op.op, ctx.readOperand(op.a),
                                    ctx.readOperand(op.b));
            break;
        }
        ctx.writeReg(op.dest, result);
        return;
      }

      case OpClass::IntCompare:
        ctx.writeCc(alu::intCompare(op.op, ctx.readOperand(op.a),
                                    ctx.readOperand(op.b)));
        return;

      case OpClass::FloatAlu: {
        Word result;
        if (op.op == Opcode::Fneg)
            result = alu::floatUnary(op.op, ctx.readOperand(op.a));
        else
            result = alu::floatBinary(op.op, ctx.readOperand(op.a),
                                      ctx.readOperand(op.b));
        ctx.writeReg(op.dest, result);
        return;
      }

      case OpClass::FloatCompare:
        ctx.writeCc(alu::floatCompare(op.op, ctx.readOperand(op.a),
                                      ctx.readOperand(op.b)));
        return;

      case OpClass::Convert:
        ctx.writeReg(op.dest, alu::convert(op.op, ctx.readOperand(op.a)));
        return;

      case OpClass::MemLoad: {
        const Addr addr = ctx.readOperand(op.a) + ctx.readOperand(op.b);
        ctx.writeReg(op.dest, ctx.loadMem(addr));
        return;
      }

      case OpClass::MemStore: {
        const Word value = ctx.readOperand(op.a);
        const Addr addr = ctx.readOperand(op.b);
        ctx.storeMem(addr, value);
        return;
      }
    }
    panic("executeDataOp: unhandled op class for ", opcodeName(op.op));
}

} // namespace ximd
