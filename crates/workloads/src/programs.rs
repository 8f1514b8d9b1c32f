//! Synthesized loop-nest programs for every Table 2 row.
//!
//! See [`crate::catalog`] for the substitution rationale. Construction
//! conventions shared by all 40 workloads:
//!
//! * the inner loop bound is a **runtime value** loaded from a parameter
//!   array, so trip counts are known on loop entry but not at compile time
//!   (preconditioning code must really execute, as in the paper);
//! * outer loops have small constant trip counts (2-4) so execution-driven
//!   simulation stays fast while inner-loop behaviour dominates;
//! * multi-dimensional arrays use explicit leading dimensions, exactly as
//!   FORTRAN lays them out;
//! * input data is deterministic per workload (seeded by the name), values
//!   kept in ranges that avoid overflow and keep products bounded.

use crate::catalog::{table2, WorkloadMeta};
use ilpc_ir::ast::{ArrId, Bound, Expr, Index, Program, Stmt, VarId};
use ilpc_ir::interp::DataInit;
use ilpc_ir::op::Cond;
use ilpc_ir::ArrayVal;
use ilpc_testkit::TestRng;

/// A fully-instantiated workload: metadata, program and input data.
#[derive(Debug, Clone)]
pub struct Workload {
    pub meta: WorkloadMeta,
    pub program: Program,
    pub init: DataInit,
}

/// Construction context: program plus data initialization under build.
struct Ctx {
    p: Program,
    init: DataInit,
    rng: TestRng,
    /// Inner loop trip count (after scaling).
    #[allow(dead_code)]
    pub n: usize,
    /// Leading dimension for 2-D arrays (inner extent + padding).
    ld: i64,
    /// Parameter array holding the runtime inner bound.
    params: ArrId,
}

/// Outer loop trip counts by nest depth (inner loop excluded).
fn outer_trips(nest: usize) -> Vec<i64> {
    match nest {
        1 => vec![],
        2 => vec![3],
        _ => vec![2, 2],
    }
}

impl Ctx {
    fn new(meta: &WorkloadMeta, scale: f64) -> Ctx {
        let n = ((meta.iters as f64 * scale) as usize).max(8);
        let mut p = Program::new(meta.name);
        let params = p.int_arr("PARAM", 4);
        let mut init = DataInit::new();
        init = init.with_array(params, ArrayVal::I(vec![n as i64, 0, 0, 0]));
        let mut seed = 0u64;
        for b in meta.name.bytes() {
            seed = seed.wrapping_mul(31).wrapping_add(b as u64);
        }
        Ctx {
            p,
            init,
            rng: TestRng::seed_from_u64(seed),
            n,
            ld: n as i64 + 32,
            params,
        }
    }

    /// Elements needed to cover the loop nest for a given nest depth.
    ///
    /// Index shape (see [`Ctx::at2`]): `i + PAD + off + o0*ld + o1*4*ld`.
    /// The reach of the outer terms is `ld * Σ stride_k * (trip_k − 1)`,
    /// plus one leading dimension for the inner extent itself.
    fn extent(&self, nest: usize) -> usize {
        let mut reach = 0i64;
        let mut stride = 1i64;
        for trip in outer_trips(nest) {
            reach += stride * (trip - 1);
            stride *= 4;
        }
        (self.ld * (reach + 1)) as usize
    }

    /// Declare a float array with random contents in `[lo, hi)`.
    fn farr(&mut self, name: &str, nest: usize, lo: f64, hi: f64) -> ArrId {
        let len = self.extent(nest);
        let a = self.p.flt_arr(name, len);
        let data: Vec<f64> =
            (0..len).map(|_| self.rng.gen_range(lo..hi)).collect();
        self.init = std::mem::take(&mut self.init).with_array(a, ArrayVal::F(data));
        a
    }

    /// Declare a zeroed float array (output).
    fn fout(&mut self, name: &str, nest: usize) -> ArrId {
        let len = self.extent(nest);
        self.p.flt_arr(name, len)
    }

    /// Wrap `body` in the loop nest prescribed by `meta.nest`: outer loops
    /// get constant bounds, the inner loop runs `0 ..= n-1` with a runtime
    /// bound loaded from the parameter array.
    fn nest(
        &mut self,
        nest: usize,
        build: impl FnOnce(&mut Ctx, VarId, &[VarId]) -> Vec<Stmt>,
    ) -> Vec<Stmt> {
        let bound_var = self.p.int_var("nbound");
        let inner = self.p.int_var("i");
        let outers: Vec<VarId> = outer_trips(nest)
            .iter()
            .enumerate()
            .map(|(k, _)| self.p.int_var(&format!("o{k}")))
            .collect();
        let body = build(self, inner, &outers);
        let mut stmts = vec![Stmt::For {
            var: inner,
            lo: Bound::Const(0),
            hi: Bound::Var(bound_var),
            body,
        }];
        for (var, trip) in outers.iter().rev().zip(outer_trips(nest).iter().rev())
        {
            stmts = vec![Stmt::For {
                var: *var,
                lo: Bound::Const(0),
                hi: Bound::Const(trip - 1),
                body: stmts,
            }];
        }
        // nbound = PARAM(0) - 1  (loop runs 0 ..= n-1)
        let mut out = vec![Stmt::SetScalar(
            bound_var,
            Expr::sub(Expr::at(self.params, Index::at(0)), Expr::Ci(1)),
        )];
        out.extend(stmts);
        out
    }

    /// Index `i + PAD + off + outer0*ld [+ outer1*4*ld]`.
    ///
    /// A constant leading pad keeps recurrence reads (`i - dist`) and
    /// stencil reads (`i - 1`) inside the array for the first iterations,
    /// so the flat-memory simulator and the bounds-checked interpreter
    /// always touch the same elements.
    fn at2(&self, i: VarId, outers: &[VarId], off: i64) -> Index {
        const PAD: i64 = 8;
        let mut idx = Index::var(i).offset(off + PAD);
        let mut stride = self.ld;
        for &o in outers {
            idx = idx.plus(o, stride);
            stride *= 4;
        }
        idx
    }
}

/// `dst(i,...) = a(i,...) op b(i,...)`-style statement.
fn ew(
    c: &Ctx,
    dst: ArrId,
    i: VarId,
    outers: &[VarId],
    off: i64,
    e: Expr,
) -> Stmt {
    Stmt::SetArr(dst, c.at2(i, outers, off), e)
}

// --------------------------------------------------------------------------
// Body generators for the workload families.
// --------------------------------------------------------------------------

/// `k` independent element-wise statements over disjoint arrays (DOALL).
fn doall_elementwise(c: &mut Ctx, k: usize, nest: usize) -> Vec<Stmt> {
    let nsrc = 3.max(k.div_ceil(3)).min(6);
    let srcs: Vec<ArrId> = (0..nsrc)
        .map(|s| c.farr(&format!("S{s}"), nest, 0.1, 2.0))
        .collect();
    let dsts: Vec<ArrId> = (0..k.min(6)).map(|d| c.fout(&format!("D{d}"), nest)).collect();
    let coefs: Vec<f64> = (0..k).map(|_| c.rng.gen_range(0.25..1.75)).collect();
    c.nest(nest, move |c, i, outers| {
        (0..k)
            .map(|s| {
                let a = srcs[s % srcs.len()];
                let b = srcs[(s + 1) % srcs.len()];
                let d = dsts[s % dsts.len()];
                let short = Expr::add(
                    Expr::mul(Expr::at(a, c.at2(i, outers, 0)), Expr::Cf(coefs[s])),
                    Expr::at(b, c.at2(i, outers, (s % 2) as i64)),
                );
                // Every few statements use a longer multi-term expression
                // (a*x + b*y + a2 + b2), the shape the paper's tree height
                // reducer targets.
                let e = if s % 4 == 3 {
                    let a2 = srcs[(s + 2) % srcs.len()];
                    Expr::add(
                        Expr::add(
                            short.clone(),
                            Expr::mul(
                                Expr::at(a2, c.at2(i, outers, 1)),
                                Expr::Cf(0.75),
                            ),
                        ),
                        Expr::add(
                            Expr::at(a, c.at2(i, outers, 1)),
                            Expr::at(b, c.at2(i, outers, 1)),
                        ),
                    )
                } else {
                    short
                };
                ew(c, d, i, outers, 0, e)
            })
            .collect()
    })
}

/// Sum/product reduction plus `k-1` element-wise statements (serial, but
/// fully recoverable by Lev4 expansion).
fn reduction(c: &mut Ctx, k: usize, nest: usize, product: bool) -> Vec<Stmt> {
    let (lo, hi) = if product { (0.995, 1.005) } else { (0.1, 1.9) };
    let a = c.farr("A", nest, lo, hi);
    let b = c.farr("B", nest, 0.1, 1.9);
    let d = c.fout("D", nest);
    let s = c.p.flt_var("s");
    let mut body = c.nest(nest, move |c, i, outers| {
        let mut stmts = vec![if product {
            // Product accumulator over values near 1 (SDS-3 shape).
            Stmt::SetScalar(
                s,
                Expr::mul(Expr::Var(s), Expr::at(a, c.at2(i, outers, 0))),
            )
        } else {
            Stmt::SetScalar(
                s,
                Expr::add(
                    Expr::Var(s),
                    Expr::mul(
                        Expr::at(a, c.at2(i, outers, 0)),
                        Expr::at(b, c.at2(i, outers, 0)),
                    ),
                ),
            )
        }];
        for q in 1..k {
            let e = Expr::add(
                Expr::at(a, c.at2(i, outers, q as i64 % 2)),
                Expr::at(b, c.at2(i, outers, 0)),
            );
            stmts.push(ew(c, d, i, outers, 0, e));
        }
        stmts
    });
    // Seed the product accumulator with the multiplicative identity.
    if product {
        body.insert(0, Stmt::SetScalar(s, Expr::Cf(1.0)));
    }
    body
}

/// First-order linear recurrence `X(i) = X(i-1)*alpha + B(i)` plus `k-1`
/// element-wise statements (serial, NOT breakable by any transformation).
fn recurrence(c: &mut Ctx, k: usize, nest: usize, dist: i64) -> Vec<Stmt> {
    let x = c.farr("X", nest, 0.0, 1.0);
    let b = c.farr("B", nest, 0.0, 1.0);
    let d = c.fout("D", nest);
    let alpha = c.rng.gen_range(0.4..0.6);
    c.nest(nest, move |c, i, outers| {
        let mut stmts = vec![Stmt::SetArr(
            x,
            c.at2(i, outers, 0),
            Expr::add(
                Expr::mul(Expr::at(x, c.at2(i, outers, -dist)), Expr::Cf(alpha)),
                Expr::at(b, c.at2(i, outers, 0)),
            ),
        )];
        for q in 1..k {
            let e = Expr::mul(
                Expr::at(b, c.at2(i, outers, q as i64 % 3)),
                Expr::Cf(0.5 + q as f64 * 0.1),
            );
            stmts.push(ew(c, d, i, outers, 0, e));
        }
        stmts
    })
}

/// Guarded max search plus a running sum (serial with conds; Lev4's search
/// and accumulator expansions both apply).
fn search(c: &mut Ctx, extra_accum: bool, nest: usize) -> Vec<Stmt> {
    let a = c.farr("A", nest, 0.0, 10.0);
    let big = c.p.flt_var("big");
    let s = c.p.flt_var("s");
    c.nest(nest, move |c, i, outers| {
        let mut stmts = vec![Stmt::If {
            cond: (Cond::Gt, Expr::at(a, c.at2(i, outers, 0)), Expr::Var(big)),
            then: vec![Stmt::SetScalar(big, Expr::at(a, c.at2(i, outers, 0)))],
            els: vec![],
            prob: 0.08,
        }];
        if extra_accum {
            stmts.push(Stmt::SetScalar(
                s,
                Expr::add(Expr::Var(s), Expr::at(a, c.at2(i, outers, 0))),
            ));
        }
        stmts
    })
}

// --------------------------------------------------------------------------
// Individual workloads
// --------------------------------------------------------------------------

/// Largest trip-count `scale` [`build`] may be given: sixteen times the
/// largest any harness binary or ledger workload uses. Every array of a
/// workload is sized by the scale, so an unbounded one asks the allocator
/// for petabytes, which aborts the process where no `catch_unwind` can
/// answer for it.
pub const MAX_SCALE: f64 = 64.0;

/// `scale` as [`build`] may be given it: finite, > 0 and at most
/// [`MAX_SCALE`]. The one check every caller that takes a scale from
/// outside the program makes before building anything with it.
pub fn check_scale(scale: f64) -> Result<f64, String> {
    if scale.is_finite() && scale > 0.0 && scale <= MAX_SCALE {
        Ok(scale)
    } else {
        Err(format!("scale {scale} must be finite, > 0 and <= {MAX_SCALE}"))
    }
}

/// Build one workload by Table 2 name, at a [`check_scale`]d `scale`.
pub fn build(meta: &WorkloadMeta, scale: f64) -> Workload {
    let mut c = Ctx::new(meta, scale);
    let nest = meta.nest;
    let body = match meta.name {
        // ---------------- PERFECT ----------------
        "APS-1" => doall_elementwise(&mut c, 2, nest),
        "APS-2" => doall_elementwise(&mut c, 8, nest),
        "APS-3" => doall_elementwise(&mut c, 2, nest),
        "CSS-1" => css1(&mut c),
        "LWS-1" => recurrence(&mut c, 2, nest, 1),
        "LWS-2" => recurrence(&mut c, 1, nest, 1),
        "MTS-1" => search(&mut c, true, nest),
        "MTS-2" => search(&mut c, true, nest),
        "NAS-1" => doall_elementwise(&mut c, 22, nest),
        "NAS-2" => doall_elementwise(&mut c, 5, nest),
        "NAS-3" => doall_elementwise(&mut c, 6, nest),
        "NAS-4" => reduction(&mut c, 2, nest, false),
        "NAS-5" => nas5(&mut c),
        "NAS-6" => doacross(&mut c, 24, nest, 4),
        "SDS-1" => reduction(&mut c, 1, nest, false),
        "SDS-2" => reduction(&mut c, 1, nest, false),
        "SDS-3" => reduction(&mut c, 1, nest, true),
        "SDS-4" => doacross(&mut c, 3, nest, 2),
        "SRS-1" => doall_elementwise(&mut c, 3, nest),
        "SRS-2" => doacross(&mut c, 5, nest, 3),
        "SRS-3" => doall_elementwise(&mut c, 1, nest),
        "SRS-4" => doall_elementwise(&mut c, 9, nest),
        "SRS-5" => doall_elementwise(&mut c, 21, nest),
        "SRS-6" => reduction(&mut c, 1, nest, false),
        "TFS-1" => doall_elementwise(&mut c, 11, nest),
        "TFS-2" => doacross(&mut c, 7, nest, 2),
        "TFS-3" => doall_elementwise(&mut c, 2, nest),
        "WSS-1" => inplace_doall(&mut c, 1, nest),
        "WSS-2" => doacross(&mut c, 4, nest, 2),
        // ---------------- SPEC ----------------
        "doduc-1" => doduc1(&mut c),
        "matrix300-1" => saxpy(&mut c, nest),
        "nasa7-1" => inplace_doall(&mut c, 1, nest),
        "nasa7-2" => doacross(&mut c, 3, nest, 2),
        "tomcatv-1" => tomcatv1(&mut c),
        "tomcatv-2" => tomcatv2(&mut c),
        // ---------------- VECTOR ----------------
        "add" => vec_add(&mut c),
        "dotprod" => reduction(&mut c, 1, nest, false),
        "maxval" => search(&mut c, true, nest),
        "merge" => merge(&mut c),
        "sum" => vec_sum(&mut c),
        other => panic!("unknown workload {other}"),
    };
    c.p.body = body;
    Workload { meta: meta.clone(), program: c.p, init: c.init }
}

/// Build all 40 workloads at `scale` (1.0 = paper trip counts).
pub fn build_all(scale: f64) -> Vec<Workload> {
    table2().iter().map(|m| build(m, scale)).collect()
}

/// DOACROSS: a distance-`dist` recurrence plus `k-1` independent statements.
fn doacross(c: &mut Ctx, k: usize, nest: usize, dist: i64) -> Vec<Stmt> {
    let x = c.farr("X", nest, 0.0, 1.0);
    let a = c.farr("A", nest, 0.1, 1.9);
    let b = c.farr("B", nest, 0.1, 1.9);
    let d = c.fout("D", nest);
    c.nest(nest, move |c, i, outers| {
        let mut stmts = vec![Stmt::SetArr(
            x,
            c.at2(i, outers, 0),
            Expr::add(
                Expr::mul(Expr::at(x, c.at2(i, outers, -dist)), Expr::Cf(0.5)),
                Expr::at(b, c.at2(i, outers, 0)),
            ),
        )];
        for q in 1..k {
            let e = Expr::add(
                Expr::mul(
                    Expr::at(a, c.at2(i, outers, (q % 3) as i64)),
                    Expr::Cf(0.3 + 0.1 * q as f64),
                ),
                Expr::at(b, c.at2(i, outers, (q % 2) as i64)),
            );
            stmts.push(ew(c, d, i, outers, 0, e));
        }
        stmts
    })
}

/// In-place element-wise update (still DOALL: iterations independent).
fn inplace_doall(c: &mut Ctx, k: usize, nest: usize) -> Vec<Stmt> {
    let a = c.farr("A", nest, 0.1, 2.0);
    let b = c.farr("B", nest, 0.1, 2.0);
    c.nest(nest, move |c, i, outers| {
        (0..k)
            .map(|_| {
                Stmt::SetArr(
                    a,
                    c.at2(i, outers, 0),
                    Expr::add(
                        Expr::mul(Expr::at(a, c.at2(i, outers, 0)), Expr::Cf(0.75)),
                        Expr::at(b, c.at2(i, outers, 0)),
                    ),
                )
            })
            .collect()
    })
}

/// `Y(i) = Y(i) + a * X(i)` (matrix300's DAXPY inner loop).
fn saxpy(c: &mut Ctx, nest: usize) -> Vec<Stmt> {
    let y = c.farr("Y", nest, 0.0, 1.0);
    let x = c.farr("X", nest, 0.0, 1.0);
    c.nest(nest, move |c, i, outers| {
        vec![Stmt::SetArr(
            y,
            c.at2(i, outers, 0),
            Expr::add(
                Expr::at(y, c.at2(i, outers, 0)),
                Expr::mul(Expr::Cf(1.25), Expr::at(x, c.at2(i, outers, 0))),
            ),
        )]
    })
}

/// Figure 1a: `C(j) = A(j) + B(j)`.
fn vec_add(c: &mut Ctx) -> Vec<Stmt> {
    let a = c.farr("A", 1, 0.0, 2.0);
    let b = c.farr("B", 1, 0.0, 2.0);
    let out = c.fout("C", 1);
    c.nest(1, move |c, i, outers| {
        vec![ew(
            c,
            out,
            i,
            outers,
            0,
            Expr::add(
                Expr::at(a, c.at2(i, outers, 0)),
                Expr::at(b, c.at2(i, outers, 0)),
            ),
        )]
    })
}

/// `s = s + A(i)`.
fn vec_sum(c: &mut Ctx) -> Vec<Stmt> {
    let a = c.farr("A", 1, 0.0, 2.0);
    let s = c.p.flt_var("s");
    c.nest(1, move |c, i, outers| {
        vec![Stmt::SetScalar(
            s,
            Expr::add(Expr::Var(s), Expr::at(a, c.at2(i, outers, 0))),
        )]
    })
}

/// Vector merge: `C(i) = min-ish select of A(i), B(i)` with a flag output.
fn merge(c: &mut Ctx) -> Vec<Stmt> {
    let a = c.farr("A", 1, 0.0, 2.0);
    let b = c.farr("B", 1, 0.0, 2.0);
    let out = c.fout("C", 1);
    let flag = c.fout("F", 1);
    c.nest(1, move |c, i, outers| {
        vec![Stmt::If {
            cond: (
                Cond::Lt,
                Expr::at(a, c.at2(i, outers, 0)),
                Expr::at(b, c.at2(i, outers, 0)),
            ),
            then: vec![
                Stmt::SetArr(out, c.at2(i, outers, 0), Expr::at(a, c.at2(i, outers, 0))),
                Stmt::SetArr(flag, c.at2(i, outers, 0), Expr::Cf(1.0)),
            ],
            els: vec![
                Stmt::SetArr(out, c.at2(i, outers, 0), Expr::at(b, c.at2(i, outers, 0))),
                Stmt::SetArr(flag, c.at2(i, outers, 0), Expr::Cf(0.0)),
            ],
            prob: 0.5,
        }]
    })
}

/// CSS-1: residual check with a violation counter and accumulations.
fn css1(c: &mut Ctx) -> Vec<Stmt> {
    let a = c.farr("A", 1, 0.0, 2.0);
    let b = c.farr("B", 1, 0.0, 2.0);
    let d = c.fout("D", 1);
    let r = c.p.flt_var("r");
    let s = c.p.flt_var("s");
    let t = c.p.flt_var("t");
    let nv = c.p.flt_var("nviol");
    c.nest(1, move |c, i, outers| {
        vec![
            Stmt::SetScalar(
                r,
                Expr::sub(
                    Expr::at(a, c.at2(i, outers, 0)),
                    Expr::at(b, c.at2(i, outers, 0)),
                ),
            ),
            Stmt::SetArr(d, c.at2(i, outers, 0), Expr::mul(Expr::Var(r), Expr::Cf(0.9))),
            Stmt::SetScalar(s, Expr::add(Expr::Var(s), Expr::mul(Expr::Var(r), Expr::Var(r)))),
            Stmt::If {
                cond: (Cond::Gt, Expr::Var(r), Expr::Cf(1.5)),
                then: vec![Stmt::SetScalar(nv, Expr::add(Expr::Var(nv), Expr::Cf(1.0)))],
                els: vec![],
                prob: 0.1,
            },
            Stmt::SetScalar(t, Expr::add(Expr::Var(t), Expr::at(b, c.at2(i, outers, 0)))),
        ]
    })
}

/// NAS-5: 71-statement body — element-wise sweeps plus two accumulators.
fn nas5(c: &mut Ctx) -> Vec<Stmt> {
    let srcs: Vec<ArrId> = (0..4).map(|s| c.farr(&format!("S{s}"), 2, 0.1, 1.9)).collect();
    let dsts: Vec<ArrId> = (0..6).map(|d| c.fout(&format!("D{d}"), 2)).collect();
    let s1 = c.p.flt_var("s1");
    let s2 = c.p.flt_var("s2");
    c.nest(2, move |c, i, outers| {
        let mut stmts: Vec<Stmt> = (0..69usize)
            .map(|q| {
                let a = srcs[q % srcs.len()];
                let b = srcs[(q + 1) % srcs.len()];
                let d = dsts[q % dsts.len()];
                ew(
                    c,
                    d,
                    i,
                    outers,
                    (q % 3) as i64,
                    Expr::add(
                        Expr::mul(Expr::at(a, c.at2(i, outers, 0)), Expr::Cf(0.1 + (q % 7) as f64 * 0.1)),
                        Expr::at(b, c.at2(i, outers, (q % 2) as i64)),
                    ),
                )
            })
            .collect();
        stmts.push(Stmt::SetScalar(
            s1,
            Expr::add(Expr::Var(s1), Expr::at(srcs[0], c.at2(i, outers, 0))),
        ));
        stmts.push(Stmt::SetScalar(
            s2,
            Expr::add(Expr::Var(s2), Expr::at(srcs[1], c.at2(i, outers, 0))),
        ));
        stmts
    })
}

/// doduc-1: long arithmetic expression chains (tree-height fodder), guarded
/// updates and several accumulators in one 38-statement serial body.
fn doduc1(c: &mut Ctx) -> Vec<Stmt> {
    let a = c.farr("A", 1, 0.2, 1.8);
    let b = c.farr("B", 1, 0.2, 1.8);
    let e = c.farr("E", 1, 0.5, 1.5);
    let d = c.fout("D", 1);
    let temps: Vec<VarId> = (0..6).map(|k| c.p.flt_var(&format!("t{k}"))).collect();
    let accs: Vec<VarId> = (0..3).map(|k| c.p.flt_var(&format!("acc{k}"))).collect();
    let big = c.p.flt_var("big");
    c.nest(1, move |c, i, outers| {
        let at = |arr, off| Expr::at(arr, c.at2(i, outers, off));
        let mut stmts = Vec::new();
        for round in 0..5i64 {
            let t0 = temps[(round as usize) % 6];
            let t1 = temps[(round as usize + 1) % 6];
            let t2 = temps[(round as usize + 2) % 6];
            // Figure-7-shaped expression: b*(c+d)*e*f/g.
            stmts.push(Stmt::SetScalar(
                t0,
                Expr::div(
                    Expr::mul(
                        Expr::mul(
                            Expr::mul(
                                at(a, round % 3),
                                Expr::add(at(b, 0), at(b, 1)),
                            ),
                            at(a, (round + 1) % 3),
                        ),
                        at(b, round % 2),
                    ),
                    at(e, 0),
                ),
            ));
            stmts.push(Stmt::SetScalar(
                t1,
                Expr::add(
                    Expr::mul(Expr::Var(t0), Expr::Cf(0.5)),
                    Expr::mul(at(a, 0), at(b, round % 2)),
                ),
            ));
            stmts.push(Stmt::SetScalar(
                t2,
                Expr::sub(Expr::Var(t1), Expr::mul(Expr::Var(t0), Expr::Cf(0.25))),
            ));
            stmts.push(Stmt::SetArr(
                d,
                c.at2(i, outers, round % 2),
                Expr::Var(t2),
            ));
            stmts.push(Stmt::SetScalar(
                accs[(round as usize) % 3],
                Expr::add(Expr::Var(accs[(round as usize) % 3]), Expr::Var(t2)),
            ));
            stmts.push(Stmt::If {
                cond: (Cond::Gt, Expr::Var(t2), Expr::Var(big)),
                then: vec![Stmt::SetScalar(big, Expr::Var(t2))],
                els: vec![],
                prob: 0.15,
            });
        }
        // 5 rounds x 6 statements = 30; pad to ~38 with element-wise work.
        for q in 0..8i64 {
            stmts.push(ew(
                c,
                d,
                i,
                outers,
                2 + q % 2,
                Expr::mul(at(a, q % 3), Expr::Cf(0.4 + q as f64 * 0.05)),
            ));
        }
        stmts
    })
}

/// tomcatv-1: mesh-generation style DOALL — neighbor reads from arrays that
/// are never written, writes to result arrays, through scalar temps.
fn tomcatv1(c: &mut Ctx) -> Vec<Stmt> {
    let x = c.farr("X", 2, 0.5, 1.5);
    let y = c.farr("Y", 2, 0.5, 1.5);
    let rx = c.fout("RX", 2);
    let ry = c.fout("RY", 2);
    let temps: Vec<VarId> = (0..8).map(|k| c.p.flt_var(&format!("t{k}"))).collect();
    c.nest(2, move |c, i, outers| {
        let at = |arr, off| Expr::at(arr, c.at2(i, outers, off));
        let t = |k: usize| Expr::Var(temps[k]);
        vec![
            // central differences
            Stmt::SetScalar(temps[0], Expr::sub(at(x, 1), at(x, -1))),
            Stmt::SetScalar(temps[1], Expr::sub(at(y, 1), at(y, -1))),
            Stmt::SetScalar(temps[2], Expr::add(Expr::sub(at(x, 1), Expr::mul(at(x, 0), Expr::Cf(2.0))), at(x, -1))),
            Stmt::SetScalar(temps[3], Expr::add(Expr::sub(at(y, 1), Expr::mul(at(y, 0), Expr::Cf(2.0))), at(y, -1))),
            // metric terms
            Stmt::SetScalar(temps[4], Expr::add(Expr::mul(t(0), t(0)), Expr::mul(t(1), t(1)))),
            Stmt::SetScalar(temps[5], Expr::mul(t(0), t(1))),
            Stmt::SetScalar(temps[6], Expr::sub(Expr::mul(t(4), t(2)), Expr::mul(t(5), t(3)))),
            Stmt::SetScalar(temps[7], Expr::sub(Expr::mul(t(4), t(3)), Expr::mul(t(5), t(2)))),
            // residuals
            Stmt::SetArr(rx, c.at2(i, outers, 0), t(6)),
            Stmt::SetArr(ry, c.at2(i, outers, 0), t(7)),
            // smoothing passes (element-wise, padding the body to 21 lines)
            ew(c, rx, i, outers, 1, Expr::mul(t(6), Expr::Cf(0.3))),
            ew(c, ry, i, outers, 1, Expr::mul(t(7), Expr::Cf(0.3))),
            ew(c, rx, i, outers, 2, Expr::add(Expr::mul(t(6), Expr::Cf(0.1)), at(x, 0))),
            ew(c, ry, i, outers, 2, Expr::add(Expr::mul(t(7), Expr::Cf(0.1)), at(y, 0))),
            ew(c, rx, i, outers, 3, Expr::sub(at(x, 0), Expr::mul(t(0), Expr::Cf(0.05)))),
            ew(c, ry, i, outers, 3, Expr::sub(at(y, 0), Expr::mul(t(1), Expr::Cf(0.05)))),
            ew(c, rx, i, outers, 4, Expr::add(Expr::mul(t(2), Expr::Cf(0.2)), at(y, 1))),
            ew(c, ry, i, outers, 4, Expr::add(Expr::mul(t(3), Expr::Cf(0.2)), at(x, 1))),
            ew(c, rx, i, outers, 5, Expr::mul(Expr::add(t(4), t(5)), Expr::Cf(0.5))),
            ew(c, ry, i, outers, 5, Expr::mul(Expr::sub(t(4), t(5)), Expr::Cf(0.5))),
            ew(c, rx, i, outers, 6, Expr::add(t(6), t(7))),
        ]
    })
}

/// tomcatv-2: residual maxima search (serial with conds).
fn tomcatv2(c: &mut Ctx) -> Vec<Stmt> {
    let rx = c.farr("RX", 2, 0.0, 2.0);
    let ry = c.farr("RY", 2, 0.0, 2.0);
    let x = c.fout("XO", 2);
    let y = c.fout("YO", 2);
    let rxv = c.p.flt_var("rxv");
    let ryv = c.p.flt_var("ryv");
    let rxm = c.p.flt_var("rxm");
    let rym = c.p.flt_var("rym");
    let sx = c.p.flt_var("sx");
    c.nest(2, move |c, i, outers| {
        vec![
            Stmt::SetScalar(rxv, Expr::mul(Expr::at(rx, c.at2(i, outers, 0)), Expr::Cf(0.9))),
            Stmt::SetScalar(ryv, Expr::mul(Expr::at(ry, c.at2(i, outers, 0)), Expr::Cf(0.9))),
            Stmt::If {
                cond: (Cond::Gt, Expr::Var(rxv), Expr::Var(rxm)),
                then: vec![Stmt::SetScalar(rxm, Expr::Var(rxv))],
                els: vec![],
                prob: 0.05,
            },
            Stmt::If {
                cond: (Cond::Gt, Expr::Var(ryv), Expr::Var(rym)),
                then: vec![Stmt::SetScalar(rym, Expr::Var(ryv))],
                els: vec![],
                prob: 0.05,
            },
            Stmt::SetArr(x, c.at2(i, outers, 0), Expr::Var(rxv)),
            Stmt::SetArr(y, c.at2(i, outers, 0), Expr::Var(ryv)),
            Stmt::SetScalar(sx, Expr::add(Expr::Var(sx), Expr::Var(rxv))),
        ]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilpc_ir::ast::{innermost_size, nest_depth};
    use ilpc_ir::interp::interpret;
    use ilpc_ir::lower::lower;
    use ilpc_ir::verify::verify_module;

    #[test]
    fn all_forty_build_lower_and_verify() {
        let ws = build_all(0.05);
        assert_eq!(ws.len(), 40);
        for w in &ws {
            let l = lower(&w.program);
            verify_module(&l.module)
                .unwrap_or_else(|e| panic!("{}: {e}", w.meta.name));
        }
    }

    #[test]
    fn nest_depth_matches_table2() {
        for w in build_all(0.05) {
            assert_eq!(
                nest_depth(&w.program.body),
                w.meta.nest,
                "{}",
                w.meta.name
            );
        }
    }

    #[test]
    fn inner_body_size_tracks_table2() {
        // Sizes are a line-count analogue; require the synthesized body to
        // be within a factor-of-2 band of the paper's count (small bodies
        // get a small absolute allowance).
        for w in build_all(0.05) {
            let size = innermost_size(&w.program.body);
            let want = w.meta.size;
            assert!(
                size + 2 >= want / 2 && size <= want * 2 + 2,
                "{}: synthesized {size} vs table {want}",
                w.meta.name
            );
        }
    }

    #[test]
    fn interpreter_runs_all_workloads() {
        for w in build_all(0.05) {
            let st = interpret(&w.program, &w.init);
            assert!(st.stmts_executed > 0, "{}", w.meta.name);
            // All values finite.
            for arr in &st.arrays {
                if let ilpc_ir::ArrayVal::F(v) = arr {
                    assert!(
                        v.iter().all(|x| x.is_finite()),
                        "{} produced non-finite values",
                        w.meta.name
                    );
                }
            }
        }
    }

    #[test]
    fn conds_flag_matches_if_presence() {
        fn has_if(stmts: &[Stmt]) -> bool {
            stmts.iter().any(|s| match s {
                Stmt::If { .. } => true,
                Stmt::For { body, .. } => has_if(body),
                _ => false,
            })
        }
        for w in build_all(0.05) {
            assert_eq!(has_if(&w.program.body), w.meta.conds, "{}", w.meta.name);
        }
    }

    #[test]
    fn deterministic_data() {
        let a = build(&table2()[0], 0.1);
        let b = build(&table2()[0], 0.1);
        assert_eq!(format!("{:?}", a.init), format!("{:?}", b.init));
    }

    /// Bit-exact representation of one init array (f64 → raw bits).
    fn init_bits(w: &Workload) -> Vec<Vec<u64>> {
        w.init
            .arrays
            .iter()
            .flatten()
            .map(|arr| match arr {
                ilpc_ir::ArrayVal::F(v) => v.iter().map(|x| x.to_bits()).collect(),
                ilpc_ir::ArrayVal::I(v) => v.iter().map(|&x| x as u64).collect(),
            })
            .collect()
    }

    /// The differential verifier in `ilpc-harness` relies on workload
    /// inputs being identical run-to-run: two `build_all` invocations
    /// must produce byte-identical initial arrays for all 40 loops.
    #[test]
    fn build_all_inputs_byte_identical_across_runs() {
        let a = build_all(0.05);
        let b = build_all(0.05);
        assert_eq!(a.len(), b.len());
        for (wa, wb) in a.iter().zip(&b) {
            assert_eq!(init_bits(wa), init_bits(wb), "{}", wa.meta.name);
        }
    }

    /// Golden fingerprint (FNV-1a over every init word of all 40
    /// workloads) pinning *cross-platform* determinism of the generated
    /// inputs. If this changes, every simulated cycle count in the grid
    /// may silently shift — update only on a deliberate PRNG or workload
    /// change, alongside the testkit PRNG goldens.
    #[test]
    fn build_all_inputs_match_golden_fingerprint() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in build_all(0.05) {
            for arr in init_bits(&w) {
                for word in arr {
                    for byte in word.to_le_bytes() {
                        h = (h ^ byte as u64).wrapping_mul(0x100_0000_01b3);
                    }
                }
            }
        }
        assert_eq!(h, 0x171C_FE74_D3AA_75C4, "fingerprint {h:#X}");
    }
}
