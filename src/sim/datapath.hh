/**
 * @file
 * The universal functional-unit datapath.
 *
 * "The model contains 8 homogeneous universal functional units. These
 * functional units can perform a wide variety of operations on multiple
 * data types. Each functional unit is essentially capable of performing
 * all of the operations of a RISC type processor, including loads,
 * stores, and branches." (section 2.2)
 *
 * executeDataOp() evaluates one data operation against an ExecContext,
 * which supplies operand values and absorbs the operation's effects
 * (queued register/CC writes, memory traffic). The split keeps the
 * arithmetic semantics in one place, shared by xsim, vsim, and unit
 * tests with mock contexts.
 */

#ifndef XIMD_SIM_DATAPATH_HH
#define XIMD_SIM_DATAPATH_HH

#include "isa/data_op.hh"
#include "support/types.hh"

namespace ximd {

/** Per-FU view of machine state during one cycle. */
class ExecContext
{
  public:
    virtual ~ExecContext() = default;

    /** Resolve a source operand (register read or immediate). */
    virtual Word readOperand(const Operand &op) = 0;

    /** Combinational memory read (1-cycle idealized memory). */
    virtual Word loadMem(Addr addr) = 0;

    /** Queue a store; commits at end of cycle. */
    virtual void storeMem(Addr addr, Word value) = 0;

    /** Queue a register write; commits at end of cycle. */
    virtual void writeReg(RegId reg, Word value) = 0;

    /** Queue this FU's compare result; commits at end of cycle. */
    virtual void writeCc(bool value) = 0;
};

/**
 * Execute one data operation.
 *
 * Integer semantics: two's-complement wraparound for add/sub/mult/neg
 * (ineg of INT_MIN is INT_MIN); shifts use the low five bits of the
 * shift amount; idiv/imod are signed-truncating and fault (FatalError)
 * on a zero divisor; the INT_MIN/-1 overflow case wraps to INT_MIN.
 * Float semantics are IEEE single precision as provided by the host.
 * ftoi truncates toward zero; NaN and floats outside [-2^31, 2^31)
 * convert to 0x80000000. No operand value is undefined behaviour on
 * the host: each operation is defined once, in sim/alu.hh, and every
 * executor (this one, both backends) calls that definition.
 *
 * @param op   the operation; must be validate()-clean.
 * @param ctx  per-FU machine access.
 */
void executeDataOp(const DataOp &op, ExecContext &ctx);

} // namespace ximd

#endif // XIMD_SIM_DATAPATH_HH
