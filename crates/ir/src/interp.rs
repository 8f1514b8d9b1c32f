//! Reference interpreter for mini-FORTRAN programs.
//!
//! Executes the AST directly with the same arithmetic conventions as the
//! simulated machine (wrapping 64-bit integer arithmetic, truncating integer
//! division with `x/0 = 0`, IEEE doubles, non-excepting out-of-bounds array
//! accesses). The interpreter is the ground truth for differential testing:
//! the architectural result of simulating compiled code at **every**
//! optimization level and machine configuration must match it.
//! [`ExecState::compare`] is the one comparator that holds a simulated
//! memory image to it.

use crate::ast::{ArrId, BinOp, Bound, Expr, Index, Program, Stmt, VarId};
use crate::reg::RegClass;
use crate::sym::{SymId, SymTab};
use crate::value::{rel_diff, ArrayVal, Value, FLT_TOL};

/// Initial data environment for a program run.
#[derive(Debug, Clone, Default)]
pub struct DataInit {
    /// Initial contents per array (in declaration order). Missing entries
    /// default to zero-filled.
    pub arrays: Vec<Option<ArrayVal>>,
}

impl DataInit {
    /// Empty initializer (all arrays zero).
    pub fn new() -> DataInit {
        DataInit::default()
    }

    /// Set the initial value of array `a`.
    pub fn with_array(mut self, a: ArrId, val: ArrayVal) -> DataInit {
        if self.arrays.len() <= a.0 as usize {
            self.arrays.resize(a.0 as usize + 1, None);
        }
        self.arrays[a.0 as usize] = Some(val);
        self
    }
}

/// Final architectural state of a run.
#[derive(Debug, Clone)]
pub struct ExecState {
    /// Array contents in declaration order.
    pub arrays: Vec<ArrayVal>,
    /// Scalar values in declaration order.
    pub scalars: Vec<Value>,
    /// Dynamically executed AST statements (a rough work metric).
    pub stmts_executed: u64,
}

struct Interp<'a> {
    p: &'a Program,
    arrays: Vec<ArrayVal>,
    scalars: Vec<Value>,
    stmts: u64,
}

/// Wrapping integer binary ops with the machine's division convention.
pub fn int_binop(op: BinOp, a: i64, b: i64) -> i64 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        BinOp::Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
    }
}

/// IEEE double binary ops.
pub fn flt_binop(op: BinOp, a: f64, b: f64) -> f64 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Rem => panic!("float remainder unsupported"),
    }
}

impl<'a> Interp<'a> {
    fn index_value(&self, idx: &Index) -> i64 {
        let mut v = idx.off;
        for &(var, coef) in &idx.terms {
            v = v.wrapping_add(self.scalars[var.0 as usize].as_i().wrapping_mul(coef));
        }
        v
    }

    fn eval(&mut self, e: &Expr) -> Value {
        match e {
            Expr::Ci(v) => Value::I(*v),
            Expr::Cf(v) => Value::F(*v),
            Expr::Var(v) => self.scalars[v.0 as usize],
            Expr::Cvt(inner) => Value::F(self.eval(inner).as_i() as f64),
            Expr::Arr(a, idx) => {
                let i = self.index_value(idx);
                self.arrays[a.0 as usize].get(i)
            }
            Expr::Bin(op, l, r) => {
                let lv = self.eval(l);
                let rv = self.eval(r);
                match (lv, rv) {
                    (Value::I(a), Value::I(b)) => Value::I(int_binop(*op, a, b)),
                    (Value::F(a), Value::F(b)) => Value::F(flt_binop(*op, a, b)),
                    _ => panic!("mixed-class expression at runtime"),
                }
            }
        }
    }

    fn bound(&self, b: Bound) -> i64 {
        match b {
            Bound::Const(c) => c,
            Bound::Var(v) => self.scalars[v.0 as usize].as_i(),
        }
    }

    fn run(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.stmts += 1;
            match s {
                Stmt::SetScalar(v, e) => {
                    let val = self.eval(e);
                    assert_eq!(val.class(), self.p.var_class(*v));
                    self.scalars[v.0 as usize] = val;
                }
                Stmt::SetArr(a, idx, e) => {
                    let val = self.eval(e);
                    let i = self.index_value(idx);
                    self.arrays[a.0 as usize].set(i, val);
                }
                Stmt::For { var, lo, hi, body } => {
                    let lo = self.bound(*lo);
                    let hi = self.bound(*hi);
                    let mut i = lo;
                    while i <= hi {
                        self.scalars[var.0 as usize] = Value::I(i);
                        self.run(body);
                        i += 1;
                    }
                    // FORTRAN leaves the loop variable one past the bound
                    // (matches the lowered code's exit value).
                    self.scalars[var.0 as usize] = Value::I(if lo <= hi {
                        hi.wrapping_add(1)
                    } else {
                        lo
                    });
                }
                Stmt::If { cond, then, els, .. } => {
                    let (c, le, re) = cond;
                    let lv = self.eval(le);
                    let rv = self.eval(re);
                    let taken = match (lv, rv) {
                        (Value::I(a), Value::I(b)) => c.eval(a, b),
                        (Value::F(a), Value::F(b)) => c.eval(a, b),
                        _ => panic!("mixed-class comparison"),
                    };
                    if taken {
                        self.run(then);
                    } else {
                        self.run(els);
                    }
                }
            }
        }
    }
}

/// Interpret `p` starting from `init`; returns the final state.
pub fn interpret(p: &Program, init: &DataInit) -> ExecState {
    let arrays = p
        .arrays
        .iter()
        .enumerate()
        .map(|(i, decl)| {
            match init.arrays.get(i).and_then(|o| o.clone()) {
                Some(v) => {
                    assert_eq!(v.class(), decl.class, "init class for {}", decl.name);
                    assert_eq!(v.len(), decl.elems, "init size for {}", decl.name);
                    v
                }
                None => ArrayVal::zeros(decl.class, decl.elems),
            }
        })
        .collect();
    let scalars = p.vars.iter().map(|v| Value::zero(v.class)).collect();
    let mut it = Interp { p, arrays, scalars, stmts: 0 };
    it.run(&p.body);
    ExecState { arrays: it.arrays, scalars: it.scalars, stmts_executed: it.stmts }
}

/// One result the comparator holds an image to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Checked {
    Array(ArrId),
    /// An assigned scalar, read from its shadow symbol.
    Scalar(VarId),
}

/// What is wrong with the image symbol that holds a result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Wrong {
    Class,
    /// Another element count, or a symbol undeclared or past the image.
    Size,
    /// The largest difference (1 for integers, [`rel_diff`] for floats)
    /// is above [`FLT_TOL`]; `got` is the first image element at it.
    Value { diff: f64, got: Value },
}

/// The first result an image holds wrong (see [`ExecState::compare`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mismatch {
    pub sym: SymId,
    pub checked: Checked,
    pub wrong: Wrong,
}

enum Want<'a> {
    I(&'a [i64]),
    F(&'a [f64]),
}

impl ExecState {
    /// Compare a memory image laid out by `symtab` with this reference:
    /// every array (array `k` is symbol `k`), then each assigned scalar's
    /// shadow symbol in `shadow`'s (lowering's `SymId`) order. Integers must
    /// be bit-equal, floats within [`FLT_TOL`] by [`rel_diff`]. A symbol of
    /// the wrong class or size is a [`Mismatch`], never a panic.
    pub fn compare(
        &self,
        symtab: &SymTab,
        memory: &[u64],
        shadow: &[(VarId, SymId)],
    ) -> Result<(), Mismatch> {
        let arrays = (0..self.arrays.len() as u32).map(|k| (SymId(k), Checked::Array(ArrId(k))));
        let scalars = shadow.iter().map(|&(var, sym)| (sym, Checked::Scalar(var)));
        for (sym, checked) in arrays.chain(scalars) {
            let (class, len) = self.expected(checked);
            let k = sym.0 as usize;
            let words = || {
                let base = (0..k).map(|j| symtab.get(SymId(j as u32)).elems).sum::<usize>();
                memory.get(base..base + len)
            };
            let wrong = match (k < symtab.len()).then(|| symtab.get(sym)) {
                Some(s) if s.class != class => Some(Wrong::Class),
                Some(s) if s.elems == len => {
                    words().map_or(Some(Wrong::Size), |got| differs(self.want(checked), got))
                }
                _ => Some(Wrong::Size),
            };
            if let Some(wrong) = wrong {
                return Err(Mismatch { sym, checked, wrong });
            }
        }
        Ok(())
    }

    /// The class and element count `checked` has in the reference.
    pub fn expected(&self, checked: Checked) -> (RegClass, usize) {
        match self.want(checked) {
            Want::I(v) => (RegClass::Int, v.len()),
            Want::F(v) => (RegClass::Flt, v.len()),
        }
    }

    fn want(&self, checked: Checked) -> Want<'_> {
        match checked {
            Checked::Array(a) => match &self.arrays[a.0 as usize] {
                ArrayVal::I(v) => Want::I(v),
                ArrayVal::F(v) => Want::F(v),
            },
            Checked::Scalar(v) => match &self.scalars[v.0 as usize] {
                Value::I(x) => Want::I(std::slice::from_ref(x)),
                Value::F(x) => Want::F(std::slice::from_ref(x)),
            },
        }
    }
}

/// How the image words `got` differ from `want` beyond [`FLT_TOL`].
fn differs(want: Want, got: &[u64]) -> Option<Wrong> {
    // Most results are bit-equal (only reassociated reductions are not):
    // one branch-free pass, which vectorizes, settles those.
    let exact = match want {
        Want::I(v) => v.iter().zip(got).fold(true, |eq, (&x, &g)| eq & (x as u64 == g)),
        Want::F(v) => v.iter().zip(got).fold(true, |eq, (x, &g)| eq & (x.to_bits() == g)),
    };
    let class = if let Want::I(_) = want { RegClass::Int } else { RegClass::Flt };
    let diff = |k: usize| match want {
        Want::I(v) => f64::from(u8::from(v[k] as u64 != got[k])),
        Want::F(v) => rel_diff(f64::from_bits(got[k]), v[k]),
    };
    let worst = |w: (usize, f64), k| if diff(k) > w.1 { (k, diff(k)) } else { w };
    let (k, diff) = if exact { (0, 0.0) } else { (0..got.len()).fold((0, 0.0), worst) };
    (diff > FLT_TOL).then(|| Wrong::Value { diff, got: Value::from_bits(got[k], class) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Cond;

    #[test]
    fn vector_add() {
        let mut p = Program::new("add");
        let i = p.int_var("i");
        let a = p.flt_arr("A", 8);
        let b = p.flt_arr("B", 8);
        let c = p.flt_arr("C", 8);
        p.body = vec![Stmt::For {
            var: i,
            lo: Bound::Const(0),
            hi: Bound::Const(7),
            body: vec![Stmt::SetArr(
                c,
                Index::var(i),
                Expr::add(Expr::at(a, Index::var(i)), Expr::at(b, Index::var(i))),
            )],
        }];
        let init = DataInit::new()
            .with_array(a, ArrayVal::F((0..8).map(|x| x as f64).collect()))
            .with_array(b, ArrayVal::F(vec![10.0; 8]));
        let out = interpret(&p, &init);
        assert_eq!(out.arrays[2], ArrayVal::F(vec![
            10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0
        ]));
        assert_eq!(out.scalars[i.0 as usize], Value::I(8));
    }

    #[test]
    fn max_search_with_if() {
        let mut p = Program::new("maxval");
        let i = p.int_var("i");
        let s = p.flt_var("s");
        let a = p.flt_arr("A", 5);
        p.body = vec![Stmt::For {
            var: i,
            lo: Bound::Const(0),
            hi: Bound::Const(4),
            body: vec![Stmt::If {
                cond: (Cond::Gt, Expr::at(a, Index::var(i)), Expr::Var(s)),
                then: vec![Stmt::SetScalar(s, Expr::at(a, Index::var(i)))],
                els: vec![],
                prob: 0.2,
            }],
        }];
        let init = DataInit::new()
            .with_array(a, ArrayVal::F(vec![1.0, 9.0, 3.0, 9.5, 2.0]));
        let out = interpret(&p, &init);
        assert_eq!(out.scalars[s.0 as usize], Value::F(9.5));
    }

    #[test]
    fn zero_trip_loop_runs_zero_times() {
        let mut p = Program::new("zt");
        let i = p.int_var("i");
        let s = p.int_var("s");
        p.body = vec![Stmt::For {
            var: i,
            lo: Bound::Const(5),
            hi: Bound::Const(4),
            body: vec![Stmt::SetScalar(s, Expr::Ci(1))],
        }];
        let out = interpret(&p, &DataInit::new());
        assert_eq!(out.scalars[s.0 as usize], Value::I(0));
        assert_eq!(out.scalars[i.0 as usize], Value::I(5));
    }

    #[test]
    fn int_division_by_zero_is_zero() {
        assert_eq!(int_binop(BinOp::Div, 5, 0), 0);
        assert_eq!(int_binop(BinOp::Rem, 5, 0), 0);
        assert_eq!(int_binop(BinOp::Div, -7, 2), -3);
    }
}
