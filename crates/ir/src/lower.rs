//! Naive lowering of mini-FORTRAN programs to IR.
//!
//! Lowering is intentionally *unoptimized*: every array reference
//! re-materializes its address arithmetic (index multiplies and adds), loop
//! bounds are re-read, and no common subexpressions are shared. This
//! reproduces the starting point of the paper's pipeline, where the
//! "conventional scalar optimizations" of `ilpc-opt` (constant propagation,
//! CSE, loop-invariant code motion, induction-variable strength reduction,
//! ...) are responsible for producing good scalar code before any ILP
//! transformation runs.
//!
//! ## Observability
//!
//! Every scalar that the program assigns is *spilled* to a dedicated
//! one-element shadow symbol right before `halt`, so the architectural state
//! left in data memory fully determines the program result. Differential
//! tests compare this memory image against the AST interpreter.

use crate::ast::{ArrId, BinOp, Bound, Expr, Index, Program, Stmt, VarId};
use crate::func::{BlockId, Module};
use crate::inst::{Inst, MemLoc, Operand};
use crate::op::{Cond, Opcode};
use crate::reg::{Reg, RegClass};
use crate::sym::SymId;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// Result of lowering: the module plus maps from AST entities to IR ones.
pub struct Lowered {
    pub module: Module,
    /// Scalar variable → register holding it.
    pub var_regs: Vec<Reg>,
    /// Array → data symbol.
    pub arr_syms: Vec<SymId>,
    /// Assigned scalar → shadow output symbol, in ascending `SymId` (and
    /// `VarId`) order: the order the comparator checks them in.
    pub shadow_syms: Vec<(VarId, SymId)>,
}

struct LowerCtx<'a> {
    p: &'a Program,
    m: Module,
    var_regs: Vec<Reg>,
    arr_syms: Vec<SymId>,
    shadow_syms: Vec<(VarId, SymId)>,
    /// Stack of active loop variables, innermost last.
    loop_stack: Vec<VarId>,
    /// For each loop on the stack, the set of scalars assigned in its body.
    assigned_stack: Vec<HashSet<VarId>>,
    cur: BlockId,
    label_seq: u32,
}

/// Collect scalars assigned anywhere in `stmts` (transitively).
fn assigned_scalars(stmts: &[Stmt], out: &mut HashSet<VarId>) {
    for s in stmts {
        match s {
            Stmt::SetScalar(v, _) => {
                out.insert(*v);
            }
            Stmt::SetArr(..) => {}
            Stmt::For { var, body, .. } => {
                out.insert(*var);
                assigned_scalars(body, out);
            }
            Stmt::If { then, els, .. } => {
                assigned_scalars(then, out);
                assigned_scalars(els, out);
            }
        }
    }
}

impl<'a> LowerCtx<'a> {
    fn emit(&mut self, inst: Inst) {
        self.m.func.block_mut(self.cur).insts.push(inst);
    }

    fn fresh_label(&mut self, base: &str) -> String {
        self.label_seq += 1;
        format!("{base}{}", self.label_seq)
    }

    /// Class of an expression (panics on front-end type errors).
    fn class_of(&self, e: &Expr) -> RegClass {
        match e {
            Expr::Ci(_) => RegClass::Int,
            Expr::Cf(_) => RegClass::Flt,
            Expr::Var(v) => self.p.var_class(*v),
            Expr::Arr(a, _) => self.p.arr_class(*a),
            Expr::Cvt(_) => RegClass::Flt,
            Expr::Bin(_, l, r) => {
                let cl = self.class_of(l);
                let cr = self.class_of(r);
                assert_eq!(cl, cr, "mixed-class expression in {}", self.p.name);
                cl
            }
        }
    }

    /// Lower an expression to an operand, emitting instructions as needed.
    fn lower_expr(&mut self, e: &Expr) -> Operand {
        match e {
            Expr::Ci(v) => Operand::ImmI(*v),
            Expr::Cf(v) => Operand::ImmF(*v),
            Expr::Var(v) => Operand::Reg(self.var_regs[v.0 as usize]),
            Expr::Cvt(inner) => {
                assert_eq!(
                    self.class_of(inner),
                    RegClass::Int,
                    "cvt of non-integer in {}",
                    self.p.name
                );
                let src = self.lower_expr(inner);
                let dst = self.m.func.new_reg(RegClass::Flt);
                self.emit(Inst {
                    dst: Some(dst),
                    src: [src, Operand::None, Operand::None],
                    ..Inst::new(Opcode::CvtIF)
                });
                Operand::Reg(dst)
            }
            Expr::Arr(a, idx) => {
                let (off, mem) = self.lower_index(*a, idx);
                let dst = self.m.func.new_reg(self.p.arr_class(*a));
                self.emit(Inst::load(
                    dst,
                    Operand::Sym(self.arr_syms[a.0 as usize]),
                    off,
                    mem,
                ));
                Operand::Reg(dst)
            }
            Expr::Bin(op, l, r) => {
                let class = self.class_of(e);
                let lo = self.lower_expr(l);
                let ro = self.lower_expr(r);
                let opcode = match (op, class) {
                    (BinOp::Add, RegClass::Int) => Opcode::Add,
                    (BinOp::Sub, RegClass::Int) => Opcode::Sub,
                    (BinOp::Mul, RegClass::Int) => Opcode::Mul,
                    (BinOp::Div, RegClass::Int) => Opcode::Div,
                    (BinOp::Rem, RegClass::Int) => Opcode::Rem,
                    (BinOp::Add, RegClass::Flt) => Opcode::FAdd,
                    (BinOp::Sub, RegClass::Flt) => Opcode::FSub,
                    (BinOp::Mul, RegClass::Flt) => Opcode::FMul,
                    (BinOp::Div, RegClass::Flt) => Opcode::FDiv,
                    (BinOp::Rem, RegClass::Flt) => {
                        panic!("float remainder in {}", self.p.name)
                    }
                    // The AST front end only produces scalar expressions;
                    // vector IR is manufactured later by the SLP pass.
                    (_, RegClass::Vec) => {
                        panic!("vector class in AST lowering of {}", self.p.name)
                    }
                };
                let dst = self.m.func.new_reg(class);
                self.emit(Inst::alu(opcode, dst, lo, ro));
                Operand::Reg(dst)
            }
        }
    }

    /// Lower an index expression, returning the element-offset operand and
    /// the dependence tag for the reference.
    fn lower_index(&mut self, arr: ArrId, idx: &Index) -> (Operand, MemLoc) {
        let sym = self.arr_syms[arr.0 as usize];
        // Dependence tag -----------------------------------------------
        let inner = self.loop_stack.last().copied();
        // A scalar term whose variable is assigned inside the innermost
        // active loop varies per iteration in a way we cannot express:
        // the reference becomes opaque.
        let inner_assigned = self.assigned_stack.last();
        let mut opaque = false;
        let mut coef = 0i64;
        let mut hasher = DefaultHasher::new();
        let mut outer_terms: Vec<(u32, i64)> = Vec::new();
        for &(v, c) in &idx.terms {
            if Some(v) == inner {
                coef = c;
            } else if inner.is_some()
                && inner_assigned.is_some_and(|set| set.contains(&v))
            {
                opaque = true;
            } else {
                outer_terms.push((v.0, c));
            }
        }
        outer_terms.sort_unstable();
        outer_terms.hash(&mut hasher);
        let mem = if opaque {
            MemLoc::opaque(sym)
        } else {
            MemLoc::affine_outer(sym, coef, idx.off, hasher.finish())
        };

        // Naive address arithmetic --------------------------------------
        let mut acc: Option<Reg> = None;
        for &(v, c) in &idx.terms {
            let vreg = self.var_regs[v.0 as usize];
            let term: Operand = if c == 1 {
                Operand::Reg(vreg)
            } else {
                let t = self.m.func.new_reg(RegClass::Int);
                self.emit(Inst::alu(Opcode::Mul, t, vreg.into(), Operand::ImmI(c)));
                Operand::Reg(t)
            };
            acc = Some(match acc {
                None => match term {
                    Operand::Reg(r) => r,
                    _ => unreachable!(),
                },
                Some(prev) => {
                    let t = self.m.func.new_reg(RegClass::Int);
                    self.emit(Inst::alu(Opcode::Add, t, prev.into(), term));
                    t
                }
            });
        }
        let off = match (acc, idx.off) {
            (None, o) => Operand::ImmI(o),
            (Some(r), 0) => Operand::Reg(r),
            (Some(r), o) => {
                let t = self.m.func.new_reg(RegClass::Int);
                self.emit(Inst::alu(Opcode::Add, t, r.into(), Operand::ImmI(o)));
                Operand::Reg(t)
            }
        };
        (off, mem)
    }

    fn bound_operand(&mut self, b: Bound) -> Operand {
        match b {
            Bound::Const(c) => Operand::ImmI(c),
            Bound::Var(v) => {
                assert_eq!(self.p.var_class(v), RegClass::Int, "non-int bound");
                Operand::Reg(self.var_regs[v.0 as usize])
            }
        }
    }

    fn lower_stmts(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.lower_stmt(s);
        }
    }

    fn lower_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::SetScalar(v, e) => {
                assert_eq!(
                    self.p.var_class(*v),
                    self.class_of(e),
                    "class mismatch assigning {} in {}",
                    self.p.vars[v.0 as usize].name,
                    self.p.name
                );
                let val = self.lower_expr(e);
                let dst = self.var_regs[v.0 as usize];
                self.emit(Inst::mov(dst, val));
            }
            Stmt::SetArr(a, idx, e) => {
                assert_eq!(
                    self.p.arr_class(*a),
                    self.class_of(e),
                    "class mismatch storing {} in {}",
                    self.p.arrays[a.0 as usize].name,
                    self.p.name
                );
                let val = self.lower_expr(e);
                let (off, mem) = self.lower_index(*a, idx);
                self.emit(Inst::store(
                    Operand::Sym(self.arr_syms[a.0 as usize]),
                    off,
                    val,
                    mem,
                ));
            }
            Stmt::For { var, lo, hi, body } => self.lower_for(*var, *lo, *hi, body),
            Stmt::If { cond, then, els, prob } => self.lower_if(cond, then, els, *prob),
        }
    }

    fn lower_for(&mut self, var: VarId, lo: Bound, hi: Bound, body: &[Stmt]) {
        let vreg = self.var_regs[var.0 as usize];
        let lo_op = self.bound_operand(lo);
        let hi_op = self.bound_operand(hi);
        self.emit(Inst::mov(vreg, lo_op));

        let exit_label = self.fresh_label("exit");
        let exit = self.m.func.add_block_detached(&exit_label);
        // Zero-trip guard: skip the loop entirely when lo > hi.
        let mut guard = Inst::br(Cond::Gt, vreg.into(), hi_op, exit);
        guard.prob = 0.01;
        self.emit(guard);

        let header_label = self.fresh_label("loop");
        let header = self.m.func.add_block(&header_label);
        self.cur = header;

        let mut assigned = HashSet::new();
        assigned_scalars(body, &mut assigned);
        self.loop_stack.push(var);
        self.assigned_stack.push(assigned);
        self.lower_stmts(body);
        self.loop_stack.pop();
        self.assigned_stack.pop();

        // Latch: increment and bottom test.
        self.emit(Inst::alu(Opcode::Add, vreg, vreg.into(), Operand::ImmI(1)));
        let trip_prob = match (lo, hi) {
            (Bound::Const(l), Bound::Const(h)) if h > l => {
                1.0 - 1.0 / (h - l + 1) as f32
            }
            _ => 0.97,
        };
        let mut back = Inst::br(Cond::Le, vreg.into(), hi_op, header);
        back.prob = trip_prob;
        self.emit(back);

        self.m.func.layout.push(exit);
        self.cur = exit;
    }

    fn lower_if(
        &mut self,
        cond: &(Cond, Expr, Expr),
        then: &[Stmt],
        els: &[Stmt],
        prob: f32,
    ) {
        let (c, le, re) = cond;
        assert_eq!(self.class_of(le), self.class_of(re), "if compares classes");
        let lo = self.lower_expr(le);
        let ro = self.lower_expr(re);
        let endif_label = self.fresh_label("endif");
        let endif = self.m.func.add_block_detached(&endif_label);
        if els.is_empty() {
            // Triangle: branch over the `then` statements.
            let mut br = Inst::br(c.negated(), lo, ro, endif);
            br.prob = 1.0 - prob;
            self.emit(br);
            let then_label = self.fresh_label("then");
            let then_blk = self.m.func.add_block(&then_label);
            self.cur = then_blk;
            self.lower_stmts(then);
        } else {
            // Diamond.
            let else_label = self.fresh_label("else");
            let else_blk = self.m.func.add_block_detached(&else_label);
            let mut br = Inst::br(c.negated(), lo, ro, else_blk);
            br.prob = 1.0 - prob;
            self.emit(br);
            let then_label = self.fresh_label("then");
            let then_blk = self.m.func.add_block(&then_label);
            self.cur = then_blk;
            self.lower_stmts(then);
            self.emit(Inst::jump(endif));
            self.m.func.layout.push(else_blk);
            self.cur = else_blk;
            self.lower_stmts(els);
        }
        self.m.func.layout.push(endif);
        self.cur = endif;
    }
}

/// Lower `p` to an IR module.
pub fn lower(p: &Program) -> Lowered {
    let mut m = Module::new(&p.name);

    // Declare arrays.
    let arr_syms: Vec<SymId> = p
        .arrays
        .iter()
        .map(|a| m.symtab.declare(&a.name, a.elems, a.class))
        .collect();

    // Shadow symbols for assigned scalars (declared up front so the memory
    // layout is independent of control flow).
    let mut assigned = HashSet::new();
    assigned_scalars(&p.body, &mut assigned);
    let mut shadow_syms = Vec::new();
    let mut assigned_order: Vec<VarId> = assigned.into_iter().collect();
    assigned_order.sort_unstable();
    for v in assigned_order {
        let name = format!("{}__out", p.vars[v.0 as usize].name);
        shadow_syms.push((v, m.symtab.declare(&name, 1, p.var_class(v))));
    }

    // Registers for scalars.
    let var_regs: Vec<Reg> = p.vars.iter().map(|v| m.func.new_reg(v.class)).collect();

    let entry = m.func.add_block("entry");
    let mut ctx = LowerCtx {
        p,
        m,
        var_regs,
        arr_syms,
        shadow_syms,
        loop_stack: Vec::new(),
        assigned_stack: Vec::new(),
        cur: entry,
        label_seq: 0,
    };

    // Scalars start at zero (the interpreter uses the same convention).
    for (v, decl) in p.vars.iter().enumerate() {
        let dst = ctx.var_regs[v];
        let init = match decl.class {
            RegClass::Int => Operand::ImmI(0),
            RegClass::Flt => Operand::ImmF(0.0),
            RegClass::Vec => panic!("vector-class AST variable in {}", p.name),
        };
        ctx.emit(Inst::mov(dst, init));
    }

    ctx.lower_stmts(&p.body);

    // Spill assigned scalars and halt.
    for (v, sym) in ctx.shadow_syms.clone() {
        let reg = ctx.var_regs[v.0 as usize];
        ctx.emit(Inst::store(
            Operand::Sym(sym),
            Operand::ImmI(0),
            reg.into(),
            MemLoc::affine(sym, 0, 0),
        ));
    }
    ctx.emit(Inst::halt());

    let lowered = Lowered {
        module: ctx.m,
        var_regs: ctx.var_regs,
        arr_syms: ctx.arr_syms,
        shadow_syms: ctx.shadow_syms,
    };
    debug_assert!(
        crate::verify::verify_module(&lowered.module).is_ok(),
        "lowering produced invalid IR: {:?}",
        crate::verify::verify_module(&lowered.module)
    );
    lowered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_module;

    /// `do j = 1,n : C(j) = A(j) + B(j)` — the paper's Figure 1a.
    fn fig1_program(n: i64) -> Program {
        let mut p = Program::new("fig1");
        let jn = p.int_var("n");
        let j = p.int_var("j");
        let a = p.flt_arr("A", n as usize + 1);
        let b = p.flt_arr("B", n as usize + 1);
        let c = p.flt_arr("C", n as usize + 1);
        p.body = vec![
            Stmt::SetScalar(jn, Expr::Ci(n)),
            Stmt::For {
                var: j,
                lo: Bound::Const(1),
                hi: Bound::Var(jn),
                body: vec![Stmt::SetArr(
                    c,
                    Index::var(j),
                    Expr::add(Expr::at(a, Index::var(j)), Expr::at(b, Index::var(j))),
                )],
            },
        ];
        p
    }

    #[test]
    fn lowers_fig1_to_valid_ir() {
        let p = fig1_program(64);
        let l = lower(&p);
        verify_module(&l.module).unwrap();
        // entry, loop header, loop exit at minimum.
        assert!(l.module.func.layout_order().len() >= 3);
        // The loop body contains two loads and one store with proper tags.
        let loads: Vec<_> = l
            .module
            .func
            .insts()
            .filter(|(_, i)| i.op == Opcode::Load)
            .collect();
        assert_eq!(loads.len(), 2);
        for (_, ld) in loads {
            let mem = ld.mem.unwrap();
            assert_eq!(mem.lin, Some((1, 0)));
        }
    }

    #[test]
    fn backedge_probability_reflects_trip_count() {
        let mut p = Program::new("t");
        let i = p.int_var("i");
        let a = p.flt_arr("A", 128);
        p.body = vec![Stmt::For {
            var: i,
            lo: Bound::Const(1),
            hi: Bound::Const(100),
            body: vec![Stmt::SetArr(a, Index::var(i), Expr::Cf(1.0))],
        }];
        let l = lower(&p);
        let back = l
            .module
            .func
            .insts()
            .find(|(_, i)| matches!(i.op, Opcode::Br(Cond::Le)))
            .unwrap()
            .1
            .clone();
        assert!((back.prob - 0.99).abs() < 1e-6);
    }

    #[test]
    fn scalar_term_assigned_in_loop_is_opaque() {
        // C(k) = A(i); k = k + 2  — k varies per iteration, so C(k) is opaque.
        let mut p = Program::new("t");
        let i = p.int_var("i");
        let k = p.int_var("k");
        let a = p.flt_arr("A", 64);
        let c = p.flt_arr("C", 64);
        p.body = vec![
            Stmt::SetScalar(k, Expr::Ci(0)),
            Stmt::For {
                var: i,
                lo: Bound::Const(1),
                hi: Bound::Const(16),
                body: vec![
                    Stmt::SetArr(c, Index::var(k), Expr::at(a, Index::var(i))),
                    Stmt::SetScalar(k, Expr::add(Expr::Var(k), Expr::Ci(2))),
                ],
            },
        ];
        let l = lower(&p);
        let store = l
            .module
            .func
            .insts()
            .find(|(_, i)| i.op == Opcode::Store && i.mem.unwrap().sym.0 == 1)
            .unwrap()
            .1
            .clone();
        assert_eq!(store.mem.unwrap().lin, None);
    }

    #[test]
    fn if_lowering_produces_side_exit_shape() {
        let mut p = Program::new("t");
        let i = p.int_var("i");
        let s = p.flt_var("s");
        let a = p.flt_arr("A", 64);
        p.body = vec![Stmt::For {
            var: i,
            lo: Bound::Const(1),
            hi: Bound::Const(32),
            body: vec![Stmt::If {
                cond: (Cond::Gt, Expr::at(a, Index::var(i)), Expr::Var(s)),
                then: vec![Stmt::SetScalar(s, Expr::at(a, Index::var(i)))],
                els: vec![],
                prob: 0.1,
            }],
        }];
        let l = lower(&p);
        verify_module(&l.module).unwrap();
        // The guard branch skipping the update should be ~90% taken.
        let br = l
            .module
            .func
            .insts()
            .find(|(_, i)| matches!(i.op, Opcode::Br(Cond::Le)) && i.prob > 0.5)
            .expect("negated guard branch present");
        assert!((br.1.prob - 0.9).abs() < 1e-6);
    }
}
