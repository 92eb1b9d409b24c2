#include "frontend/lower.hh"

#include <map>

#include "sim/alu.hh"
#include "support/logging.hh"

namespace ximd::frontend {

using namespace ximd::sched;

namespace {

/** Internal unwind carrying the structured error; never escapes
 *  lower(). */
struct Fail
{
    CompileError error;
};

/** A lowered value: where it lives plus its surface type. */
struct Val
{
    IrValue v;
    bool isFloat = false;
};

class Lowerer
{
  public:
    explicit Lowerer(const LowerOptions &opts)
        : nextData_(opts.dataBase)
    {
    }

    IrProgram
    run(const CProgram &prog)
    {
        b_.startBlock("entry");
        for (const StmtPtr &s : prog.stmts)
            lowerStmt(*s);
        b_.halt();
        return b_.finish();
    }

  private:
    struct Sym
    {
        bool isFloat = false;
        bool isArray = false;
        VregId vreg = kNoVreg; ///< Scalars.
        Addr base = 0;         ///< Arrays.
        int size = 0;
    };

    [[noreturn]] void
    fail(int line, std::string msg) const
    {
        CompileError e = compileError("c-lower", std::move(msg));
        e.line = line;
        throw Fail{std::move(e)};
    }

    const Sym &
    lookup(const std::string &name, int line) const
    {
        const auto it = syms_.find(name);
        if (it == syms_.end())
            fail(line, cat("unknown variable '", name, "'"));
        return it->second;
    }

    std::string
    newLabel()
    {
        return cat("L", ++nextLabel_);
    }

    /** Static type of @p e: float when any operand is float.
     *  Unknown names resolve to int here; lowerExpr reports them. */
    bool
    typeOf(const Expr &e) const
    {
        switch (e.kind) {
          case Expr::Kind::IntLit:
            return false;
          case Expr::Kind::FloatLit:
            return true;
          case Expr::Kind::Var:
          case Expr::Kind::Index: {
            const auto it = syms_.find(e.name);
            return it != syms_.end() && it->second.isFloat;
          }
          case Expr::Kind::Unary:
            return typeOf(*e.lhs);
          case Expr::Kind::Binary:
            return e.op != '%' &&
                   (typeOf(*e.lhs) || typeOf(*e.rhs));
        }
        return false;
    }

    /**
     * Convert @p x to float. Integer immediates fold bit-exactly
     * (the datapath's Itof is static_cast<float> of the signed
     * word); registers get an Itof op.
     */
    Val
    toFloat(Val x, int line)
    {
        if (x.isFloat)
            return x;
        if (x.v.isImm())
            return {IrValue::immFloat(
                        static_cast<float>(wordToInt(x.v.imm))),
                    true};
        b_.setLine(line);
        return {b_.emit(Opcode::Itof, x.v), true};
    }

    /** Convert @p x to int (always a Ftoi op: truncation must
     *  happen on the machine, not at compile time). */
    Val
    toInt(Val x, int line)
    {
        if (!x.isFloat)
            return x;
        b_.setLine(line);
        return {b_.emit(Opcode::Ftoi, x.v), false};
    }

    Val
    convertTo(Val x, bool wantFloat, int line)
    {
        return wantFloat ? toFloat(x, line) : toInt(x, line);
    }

    static Opcode
    binaryOpcode(char op, bool isFloat, int line,
                 const Lowerer &self)
    {
        if (isFloat) {
            switch (op) {
              case '+': return Opcode::Fadd;
              case '-': return Opcode::Fsub;
              case '*': return Opcode::Fmult;
              case '/': return Opcode::Fdiv;
              case '%':
                self.fail(line, "operator '%' requires integer "
                                "operands");
            }
        } else {
            switch (op) {
              case '+': return Opcode::Iadd;
              case '-': return Opcode::Isub;
              case '*': return Opcode::Imult;
              case '/': return Opcode::Idiv;
              case '%': return Opcode::Imod;
            }
        }
        self.fail(line, cat("unknown operator '", op, "'"));
    }

    static Opcode
    relOpcode(RelOp rel, bool isFloat)
    {
        switch (rel) {
          case RelOp::Eq: return isFloat ? Opcode::Feq : Opcode::Eq;
          case RelOp::Ne: return isFloat ? Opcode::Fne : Opcode::Ne;
          case RelOp::Lt: return isFloat ? Opcode::Flt : Opcode::Lt;
          case RelOp::Le: return isFloat ? Opcode::Fle : Opcode::Le;
          case RelOp::Gt: return isFloat ? Opcode::Fgt : Opcode::Gt;
          case RelOp::Ge: return isFloat ? Opcode::Fge : Opcode::Ge;
        }
        return Opcode::Eq;
    }

    /** Lower the index of `name[e]`; must be integer-typed. */
    Val
    lowerIndex(const Expr &e)
    {
        Val idx = lowerExpr(*e.lhs);
        if (idx.isFloat)
            fail(e.line, cat("array index into '", e.name,
                             "' must be an integer"));
        return idx;
    }

    /**
     * Lower @p e; when @p destHint names a vreg and the outermost
     * node produces an op, the op writes the hint directly (saves
     * the Mov an assignment would otherwise need).
     */
    Val
    lowerExpr(const Expr &e, VregId destHint = kNoVreg)
    {
        switch (e.kind) {
          case Expr::Kind::IntLit:
            return {IrValue::immInt(e.intVal), false};
          case Expr::Kind::FloatLit:
            return {IrValue::immFloat(e.floatVal), true};
          case Expr::Kind::Var: {
            const Sym &sym = lookup(e.name, e.line);
            if (sym.isArray)
                fail(e.line, cat("array '", e.name,
                                 "' used without an index"));
            return {IrValue::reg(sym.vreg), sym.isFloat};
          }
          case Expr::Kind::Index: {
            const Sym &sym = lookup(e.name, e.line);
            if (!sym.isArray)
                fail(e.line, cat("'", e.name,
                                 "' is not an array"));
            Val idx = lowerIndex(e);
            b_.setLine(e.line);
            if (destHint != kNoVreg) {
                b_.emitTo(destHint, Opcode::Load,
                          IrValue::immRaw(sym.base), idx.v);
                return {IrValue::reg(destHint), sym.isFloat};
            }
            return {b_.emitLoad(IrValue::immRaw(sym.base), idx.v),
                    sym.isFloat};
          }
          case Expr::Kind::Unary: {
            Val x = lowerExpr(*e.lhs);
            const Opcode op =
                x.isFloat ? Opcode::Fneg : Opcode::Ineg;
            if (x.v.isImm()) {
                // Fold through the datapath's own Ineg/Fneg.
                return {IrValue::immRaw(
                            x.isFloat ? alu::floatUnary(op, x.v.imm)
                                      : alu::intUnary(op, x.v.imm)),
                        x.isFloat};
            }
            b_.setLine(e.line);
            if (destHint != kNoVreg) {
                b_.emitTo(destHint, op, x.v);
                return {IrValue::reg(destHint), x.isFloat};
            }
            return {b_.emit(op, x.v), x.isFloat};
          }
          case Expr::Kind::Binary: {
            Val a = lowerExpr(*e.lhs);
            Val b = lowerExpr(*e.rhs);
            if (e.op == '%' && (a.isFloat || b.isFloat))
                fail(e.line,
                     "operator '%' requires integer operands");
            const bool f = a.isFloat || b.isFloat;
            a = convertTo(a, f, e.line);
            b = convertTo(b, f, e.line);
            const Opcode op = binaryOpcode(e.op, f, e.line, *this);
            b_.setLine(e.line);
            if (destHint != kNoVreg) {
                b_.emitTo(destHint, op, a.v, b.v);
                return {IrValue::reg(destHint), f};
            }
            return {b_.emit(op, a.v, b.v), f};
          }
        }
        fail(e.line, "unhandled expression");
    }

    /** Lower a condition; returns the compare's op index. */
    int
    lowerCond(const Cond &c)
    {
        Val a = lowerExpr(*c.lhs);
        Val b = lowerExpr(*c.rhs);
        const bool f = a.isFloat || b.isFloat;
        a = convertTo(a, f, c.line);
        b = convertTo(b, f, c.line);
        b_.setLine(c.line);
        return b_.emitCompare(relOpcode(c.rel, f), a.v, b.v);
    }

    void
    lowerDecl(const Stmt &s)
    {
        if (syms_.count(s.name))
            fail(s.line, cat("redeclaration of '", s.name, "'"));
        Sym sym;
        sym.isFloat = s.isFloat;
        if (s.arraySize >= 0) {
            sym.isArray = true;
            sym.base = nextData_;
            sym.size = s.arraySize;
            nextData_ += static_cast<Addr>(s.arraySize);
            syms_.emplace(s.name, sym);
            return;
        }
        sym.vreg = b_.newVreg();
        syms_.emplace(s.name, sym);
        if (!s.init)
            return;
        Val v = convertTo(lowerExpr(*s.init), sym.isFloat, s.line);
        // A literal initializer outside all control flow runs
        // exactly once, before anything reads the vreg: express it
        // as a .vinit instead of a Mov.
        if (v.v.isImm() && controlDepth_ == 0) {
            b_.setInit(sym.vreg, v.v.imm);
            return;
        }
        b_.setLine(s.line);
        b_.emitTo(sym.vreg, Opcode::Mov, v.v);
    }

    void
    lowerAssign(const Stmt &s)
    {
        const Expr &target = *s.target;
        const Sym &sym = lookup(target.name, target.line);
        if (target.kind == Expr::Kind::Var) {
            if (sym.isArray)
                fail(target.line,
                     cat("array '", target.name,
                         "' needs an index to be assigned"));
            // When the value's type already matches, the outermost
            // op can write the target directly.
            const VregId hint =
                typeOf(*s.value) == sym.isFloat ? sym.vreg
                                                : kNoVreg;
            Val v = lowerExpr(*s.value, hint);
            if (v.v.isVreg() && v.v.vreg == sym.vreg)
                return; // Hint applied.
            if (v.isFloat != sym.isFloat &&
                (v.isFloat || !v.v.isImm())) {
                // Conversion op writes the target directly.
                b_.setLine(s.line);
                b_.emitTo(sym.vreg,
                          sym.isFloat ? Opcode::Itof : Opcode::Ftoi,
                          v.v);
                return;
            }
            v = convertTo(v, sym.isFloat, s.line);
            b_.setLine(s.line);
            b_.emitTo(sym.vreg, Opcode::Mov, v.v);
            return;
        }
        // target.kind == Index.
        if (!sym.isArray)
            fail(target.line,
                 cat("'", target.name, "' is not an array"));
        Val idx = lowerIndex(target);
        Val v = convertTo(lowerExpr(*s.value), sym.isFloat, s.line);
        IrValue addr;
        if (idx.v.isImm()) {
            addr = IrValue::immRaw(sym.base + idx.v.imm);
        } else {
            b_.setLine(target.line);
            addr = b_.emit(Opcode::Iadd, idx.v,
                           IrValue::immRaw(sym.base));
        }
        b_.setLine(s.line);
        b_.emitStore(v.v, addr);
    }

    void
    lowerIf(const Stmt &s)
    {
        const std::string thenL = newLabel();
        const std::string elseL = s.elseStmt ? newLabel() : "";
        const std::string endL = newLabel();
        const int cmp = lowerCond(*s.cond);
        b_.branch(cmp, thenL, s.elseStmt ? elseL : endL);
        b_.startBlock(thenL);
        ++controlDepth_;
        lowerStmt(*s.thenStmt);
        b_.jump(endL);
        if (s.elseStmt) {
            b_.startBlock(elseL);
            lowerStmt(*s.elseStmt);
            b_.jump(endL);
        }
        --controlDepth_;
        b_.startBlock(endL);
    }

    void
    lowerWhile(const Stmt &s)
    {
        const std::string headL = newLabel();
        const std::string bodyL = newLabel();
        const std::string endL = newLabel();
        b_.jump(headL);
        b_.startBlock(headL);
        const int cmp = lowerCond(*s.cond);
        b_.branch(cmp, bodyL, endL);
        b_.startBlock(bodyL);
        ++controlDepth_;
        lowerStmt(*s.thenStmt);
        --controlDepth_;
        b_.jump(headL);
        b_.startBlock(endL);
    }

    void
    lowerFor(const Stmt &s)
    {
        if (s.forInit)
            lowerAssign(*s.forInit);
        const std::string headL = newLabel();
        const std::string bodyL = newLabel();
        const std::string endL = newLabel();
        b_.jump(headL);
        b_.startBlock(headL);
        const int cmp = lowerCond(*s.cond);
        b_.branch(cmp, bodyL, endL);
        b_.startBlock(bodyL);
        ++controlDepth_;
        lowerStmt(*s.thenStmt);
        if (s.forStep)
            lowerAssign(*s.forStep);
        --controlDepth_;
        b_.jump(headL);
        b_.startBlock(endL);
    }

    void
    lowerStmt(const Stmt &s)
    {
        switch (s.kind) {
          case Stmt::Kind::Decl:   lowerDecl(s); return;
          case Stmt::Kind::Assign: lowerAssign(s); return;
          case Stmt::Kind::If:     lowerIf(s); return;
          case Stmt::Kind::While:  lowerWhile(s); return;
          case Stmt::Kind::For:    lowerFor(s); return;
          case Stmt::Kind::Block:
            for (const StmtPtr &child : s.body)
                lowerStmt(*child);
            return;
        }
        fail(s.line, "unhandled statement");
    }

    IrBuilder b_;
    std::map<std::string, Sym> syms_;
    Addr nextData_;
    int nextLabel_ = 0;
    int controlDepth_ = 0;
};

} // namespace

CompileResult<IrProgram>
lower(const CProgram &prog, const LowerOptions &opts)
{
    try {
        return Lowerer(opts).run(prog);
    } catch (Fail &f) {
        return std::move(f.error);
    }
}

} // namespace ximd::frontend
