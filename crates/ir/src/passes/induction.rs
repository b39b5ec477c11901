//! Induction-variable substitution.
//!
//! Rewrites uses of scalars that advance by a constant step each iteration
//! (`k = k + c;`) into closed-form affine functions of the loop variable,
//! e.g. the paper's Section 8 example:
//!
//! ```text
//! iz = 0;
//! for i = 1 to 10 {
//!     iz = iz + 2;
//!     a[iz + n] = a[iz + 2*n + 1] + 3;   // becomes a[2*i + n] = …
//! }
//! ```
//!
//! The increment statement is kept (it still defines `k`'s value after the
//! loop); only the *uses* are rewritten, which is what makes the subscripts
//! affine.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::arena::{Expr, ExprArena, Node};
use crate::ast::{ForLoop, Program, Stmt};
use crate::passes::forward_subst::Defs;
use crate::passes::rewrite::{folded, for_each_assigned, rewrite_exprs, subst_and_fold};
use crate::symbol::Sym;

/// Matches `k = k + c` / `k = c + k` / `k = k - c`, returning `c`.
fn increment_of(exprs: &ExprArena, name: Sym, rhs: Expr) -> Option<i64> {
    let pair = |a: Expr, b: Expr| (exprs.node(a), exprs.node(b));
    match exprs.node(rhs) {
        Node::Add(a, b) => match pair(a, b) {
            (Node::Var(v), Node::Const(c)) if v == name => Some(c),
            (Node::Const(c), Node::Var(v)) if v == name => Some(c),
            _ => None,
        },
        Node::Sub(a, b) => match pair(a, b) {
            (Node::Var(v), Node::Const(c)) if v == name => c.checked_neg(),
            _ => None,
        },
        _ => None,
    }
}

/// Whether `stmts` assign `name` exactly once (loop variables count).
fn assigned_once(stmts: &[Stmt], name: Sym) -> bool {
    let mut count = 0usize;
    for_each_assigned(stmts, &mut |n| count += usize::from(n == name));
    count == 1
}

/// Whether `stmts` assign `name` at all (loop variables count).
fn assigns(stmts: &[Stmt], name: Sym) -> bool {
    let mut found = false;
    for_each_assigned(stmts, &mut |n| found |= n == name);
    found
}

/// Appends `init + c * (i - lower + extra)`, folded.
fn closed_form(
    exprs: &mut ExprArena,
    init: Expr,
    c: i64,
    loop_var: Sym,
    lower: Expr,
    extra: i64,
) -> Expr {
    let i = exprs.var(loop_var);
    let since_lower = exprs.sub(i, lower);
    let extra = exprs.constant(extra);
    let iterations = exprs.add(since_lower, extra);
    let c = exprs.constant(c);
    let steps = exprs.mul(c, iterations);
    let e = exprs.add(init, steps);
    folded(exprs, e)
}

fn walk(stmts: &mut [Stmt], exprs: &mut ExprArena, defs: &mut Defs) -> bool {
    let mut changed = false;
    for s in stmts.iter_mut() {
        match s {
            Stmt::Read(n) => defs.kill(*n),
            Stmt::ScalarAssign(a) => {
                // Close the RHS over current defs (in a copy) before
                // recording it.
                let mut value = a.value;
                if defs.used_in(exprs, value) {
                    defs.apply(exprs, &mut value);
                }
                defs.assign(exprs, a.name, value, folded);
            }
            Stmt::ArrayAssign(_) => {}
            Stmt::If(i) => {
                // Conservative: walk each branch with a copy, then drop
                // anything either branch may have assigned.
                changed |= walk(&mut i.then_body, exprs, &mut defs.clone());
                changed |= walk(&mut i.else_body, exprs, &mut defs.clone());
                defs.kill_assigned_in(&i.then_body);
                defs.kill_assigned_in(&i.else_body);
            }
            Stmt::For(l) => {
                changed |= rewrite_loop(l, exprs, defs);
                defs.kill_assigned_in(&l.body);
                defs.kill(l.var);
            }
        }
    }
    changed
}

fn rewrite_loop(l: &mut ForLoop, exprs: &mut ExprArena, defs: &Defs) -> bool {
    // Find induction candidates at the top level of the body: scalars
    // assigned exactly once in the body, by the increment itself. The
    // closed form counts one increment per iteration, which requires a
    // unit step; `normalize_loops` runs first in `normalize`, so strided
    // loops still get handled on the next round.
    let mut rewrites = Vec::new(); // (pos, name, value before, value after)
    let candidates = if l.step == 1 { l.body.as_slice() } else { &[] };
    for (pos, s) in candidates.iter().enumerate() {
        let Stmt::ScalarAssign(a) = s else { continue };
        let Some(c) = increment_of(exprs, a.name, a.value) else {
            continue;
        };
        if !assigned_once(&l.body, a.name) {
            continue;
        }
        let Some(init) = defs.get(a.name) else {
            continue;
        };
        // The init expression must be invariant over the loop.
        if exprs.any_var(init.value, &|v| v == l.var || assigns(&l.body, v)) {
            continue;
        }
        let before = closed_form(exprs, init.value, c, l.var, l.lower, 0);
        let after = closed_form(exprs, init.value, c, l.var, l.lower, 1);
        rewrites.push((pos, a.name, before, after));
    }

    let mut changed = false;
    for &(pos, name, before, after) in &rewrites {
        for (idx, stmt) in l.body.iter_mut().enumerate() {
            if idx == pos {
                continue; // keep the increment itself intact
            }
            let replacement = if idx < pos { before } else { after };
            let one = std::slice::from_mut(stmt);
            changed |= rewrite_exprs(one, exprs, &mut |x, e| {
                subst_and_fold(x, e, name, replacement)
            });
        }
    }

    // Recurse with a fresh environment seeded from invariant outer defs.
    let mut inner = defs.clone();
    inner.kill_assigned_in(&l.body);
    inner.kill(l.var);
    changed | walk(&mut l.body, exprs, &mut inner)
}

/// Rewrites uses of simple induction variables (`k = k ± c` once per
/// iteration, with a known loop-invariant initial value) into affine
/// functions of the loop variable, in place. Returns whether anything
/// changed.
///
/// # Examples
///
/// ```
/// use dda_ir::{parse_program, extract_accesses, passes::substitute_induction_variables};
///
/// let mut p = parse_program(
///     "iz = 0; for i = 1 to 10 { iz = iz + 2; a[iz] = 0; }",
/// )?;
/// assert!(substitute_induction_variables(&mut p));
/// let set = extract_accesses(&p);
/// let sub = set.subscript(&set.accesses[0], 0).expect("affine");
/// assert_eq!(sub.coeff_by_name(&set.symbols, "i"), 2);
/// assert_eq!(sub.constant_part(), 0);
/// # Ok::<(), dda_ir::ParseError>(())
/// ```
pub fn substitute_induction_variables(program: &mut Program) -> bool {
    walk(&mut program.stmts, &mut program.exprs, &mut Defs::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::extract_accesses;
    use std::sync::Arc;

    use crate::expr::AffineExpr;
    use crate::parser::parse_program;
    use crate::symbol::SymbolTable;

    /// Runs the pass and returns the first subscript of access `idx` in
    /// affine form (None if it stayed non-affine).
    /// Subscript 0 of access `idx`, with coefficients looked up by name.
    struct Lowered(AffineExpr, Arc<SymbolTable>);

    impl Lowered {
        fn coeff(&self, name: &str) -> i64 {
            self.0.coeff_by_name(&self.1, name)
        }

        fn constant_part(&self) -> i64 {
            self.0.constant_part()
        }
    }

    fn run(src: &str, idx: usize) -> Option<Lowered> {
        let mut p = parse_program(src).unwrap();
        substitute_induction_variables(&mut p);
        crate::passes::rewrite::fold_program(&mut p);
        let set = extract_accesses(&p);
        let sub = set.subscript(&set.accesses[idx], 0)?;
        Some(Lowered(sub, set.symbols))
    }

    #[test]
    fn paper_section8_example() {
        // iz after the increment is 2*(i - 1 + 1) = 2i.
        let sub = run(
            "iz = 0;
             for i = 1 to 10 { iz = iz + 2; a[iz + n] = a[iz + 2 * n + 1] + 3; }",
            0,
        )
        .expect("affine");
        assert_eq!(sub.coeff("i"), 2);
        assert_eq!(sub.coeff("n"), 1);
        assert_eq!(sub.constant_part(), 0);
        let read = run(
            "iz = 0;
             for i = 1 to 10 { iz = iz + 2; a[iz + n] = a[iz + 2 * n + 1] + 3; }",
            1,
        )
        .expect("affine");
        assert_eq!(read.coeff("i"), 2);
        assert_eq!(read.coeff("n"), 2);
        assert_eq!(read.constant_part(), 1);
    }

    #[test]
    fn use_before_increment() {
        // Before the increment: k = 0 + 1*(i - 1) = i - 1.
        let sub = run("k = 0; for i = 1 to 10 { a[k] = 0; k = k + 1; }", 0).unwrap();
        assert_eq!(sub.coeff("i"), 1);
        assert_eq!(sub.constant_part(), -1);
    }

    #[test]
    fn use_after_increment() {
        let sub = run("k = 0; for i = 1 to 10 { k = k + 1; a[k] = 0; }", 0).unwrap();
        assert_eq!(sub.coeff("i"), 1);
        assert_eq!(sub.constant_part(), 0);
    }

    #[test]
    fn decrement() {
        let sub = run("k = 100; for i = 1 to 10 { k = k - 3; a[k] = 0; }", 0).unwrap();
        assert_eq!(sub.coeff("i"), -3);
        assert_eq!(sub.constant_part(), 100);
    }

    #[test]
    fn unknown_init_not_rewritten() {
        let sub = run("for i = 1 to 10 { k = k + 1; a[k] = 0; }", 0);
        // k is a mutated scalar with no known init: still a bare `k`, and
        // extraction marks it non-affine.
        assert!(sub.is_none());
    }

    #[test]
    fn doubly_assigned_not_rewritten() {
        let sub = run(
            "k = 0; for i = 1 to 10 { k = k + 1; a[k] = 0; k = k + 2; }",
            0,
        );
        assert!(sub.is_none());
    }

    #[test]
    fn increment_statement_survives() {
        let mut p = parse_program("k = 0; for i = 1 to 10 { k = k + 1; a[k] = 0; }").unwrap();
        substitute_induction_variables(&mut p);
        assert!(p.to_string().contains("k = k + 1;"), "{p}");
    }

    #[test]
    fn non_unit_lower_bound() {
        // k = (i - 5) + 1 = i - 4.
        let sub = run("k = 0; for i = 5 to 10 { k = k + 1; a[k] = 0; }", 0).unwrap();
        assert_eq!(sub.coeff("i"), 1);
        assert_eq!(sub.constant_part(), -4);
    }

    #[test]
    fn induction_var_in_inner_loop_use() {
        // The use sits in a nested loop after the increment.
        let sub = run(
            "k = 0; for i = 1 to 10 { k = k + 2; for j = 1 to 5 { a[k + j] = 0; } }",
            0,
        )
        .unwrap();
        assert_eq!(sub.coeff("i"), 2);
        assert_eq!(sub.coeff("j"), 1);
    }

    #[test]
    fn loop_variant_init_not_rewritten() {
        // init of k depends on the loop variable itself: not invariant.
        let sub = run(
            "for i = 1 to 10 { k = i; for j = 1 to 5 { k = k + 1; a[k] = 0; } }",
            0,
        );
        // k = i + (j - 1 + 1) = i + j would actually be correct here, and
        // the pass achieves it because the init `i` is invariant in the
        // inner loop.
        let sub = sub.expect("inner induction on invariant init");
        assert_eq!(sub.coeff("i"), 1);
        assert_eq!(sub.coeff("j"), 1);
    }
}
