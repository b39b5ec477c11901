//! Loop normalization: rewrite every loop to step 1, lower bound
//! preserved in the subscripts.
//!
//! The paper's problem statement assumes "normalized (we normalize the step
//! size to 1)" loops. A loop `for i = L to U step s` becomes
//! `for i' = 0 to T` with every use of `i` replaced by `L + s·i'`, where
//! `T = ⌊(U − L) / s⌋` when the bounds are constants. For symbolic bounds
//! the trip count is a fresh never-assigned scalar, which the access
//! extractor then treats as a symbolic constant — a sound over-approximation
//! of the iteration space.
//!
//! The new nodes — `L + s·i'`, its copies in the body, the new bounds —
//! are appended to the arena; what they replace stays behind, unreachable,
//! until [`crate::Program::compact`].

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::arena::{Expr, ExprArena, Node};
use crate::ast::{Program, Stmt};
use crate::expr::AffineExpr;
use crate::passes::rewrite::{folded, rewrite_exprs, subst_and_fold};
use crate::passes::MAX_NODES;
use crate::symbol::{Sym, SymbolTable};

fn collect_names(stmts: &[Stmt], out: &mut BTreeSet<Sym>) {
    for s in stmts {
        match s {
            Stmt::For(l) => {
                out.insert(l.var);
                collect_names(&l.body, out);
            }
            Stmt::ScalarAssign(a) => {
                out.insert(a.name);
            }
            Stmt::Read(n) => {
                out.insert(*n);
            }
            Stmt::If(i) => {
                collect_names(&i.then_body, out);
                collect_names(&i.else_body, out);
            }
            Stmt::ArrayAssign(_) => {}
        }
    }
}

/// Whether any loop in `stmts` has a step other than 1.
fn has_strided_loop(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::For(l) => l.step != 1 || has_strided_loop(&l.body),
        Stmt::If(i) => has_strided_loop(&i.then_body) || has_strided_loop(&i.else_body),
        _ => false,
    })
}

/// `⌊(up − lo) / step⌋`, the last value of the normalized counter, or
/// `None` when it does not fit in `i64` (the caller then falls back to a
/// fresh trip-count symbol, as for symbolic bounds).
fn trip_count(lo: i64, up: i64, step: i64) -> Option<i64> {
    let (span, step) = (i128::from(up) - i128::from(lo), i128::from(step));
    let q = span / step;
    let floor = if span % step != 0 && ((span < 0) != (step < 0)) {
        q - 1
    } else {
        q
    };
    i64::try_from(floor).ok()
}

/// Appends `c₀ + Σ cᵥ·v` as an expression: `c·v` terms in name order,
/// then the constant (omitted when zero, unless it is all there is).
fn affine_to_expr(a: &AffineExpr, symbols: &SymbolTable, exprs: &mut ExprArena) -> Expr {
    let mut terms: Vec<(Sym, i64)> = a.iter_terms().collect();
    terms.sort_by(|x, y| symbols.name(x.0).cmp(symbols.name(y.0)));
    let mut out: Option<Expr> = None;
    for (v, c) in terms {
        let var = exprs.var(v);
        let term = if c == 1 {
            var
        } else {
            let c = exprs.constant(c);
            exprs.mul(c, var)
        };
        out = Some(match out {
            Some(sum) => exprs.add(sum, term),
            None => term,
        });
    }
    match out {
        Some(sum) if a.constant_part() == 0 => sum,
        Some(sum) => {
            let c = exprs.constant(a.constant_part());
            exprs.add(sum, c)
        }
        None => exprs.constant(a.constant_part()),
    }
}

/// The constant `e` folds to, if it folds to one.
fn folded_constant(exprs: &mut ExprArena, e: Expr) -> Option<i64> {
    let mark = exprs.mark();
    let e = folded(exprs, e);
    let value = match exprs.node(e) {
        Node::Const(c) => Some(c),
        _ => None,
    };
    exprs.truncate(mark);
    value
}

struct Normalizer<'p> {
    /// The program's table, copied on the first new name if shared.
    symbols: &'p mut Arc<SymbolTable>,
    exprs: &'p mut ExprArena,
    /// Names a fresh symbol must not reuse: every loop variable, scalar
    /// assigned or read, and fresh symbol so far.
    taken: BTreeSet<Sym>,
    counter: usize,
}

impl Normalizer<'_> {
    /// Appends a fresh scalar named `_{stem}N`, unused anywhere else.
    fn fresh_var(&mut self, stem: &str) -> Expr {
        loop {
            let name = format!("_{stem}{}", self.counter);
            self.counter += 1;
            let sym = Arc::make_mut(self.symbols).intern(&name);
            if self.taken.insert(sym) {
                return self.exprs.var(sym);
            }
        }
    }

    fn walk(&mut self, stmts: &mut [Stmt]) {
        for s in stmts {
            if let Stmt::If(i) = s {
                self.walk(&mut i.then_body);
                self.walk(&mut i.else_body);
                continue;
            }
            if let Stmt::For(l) = s {
                if l.step != 1 {
                    let (step, var) = (l.step, l.var);
                    let x = &mut *self.exprs;
                    // i := L + s * i'  (reusing the same variable name keeps
                    // the program readable; the *meaning* of the name
                    // changes to the normalized counter).
                    let (s, v) = (x.constant(step), x.var(var));
                    let scaled = x.mul(s, v);
                    let sum = x.add(l.lower, scaled);
                    let mut mapped = folded(x, sum);
                    // A bound that repeats an enclosing strided variable
                    // doubles at every level of such a nest; substitute
                    // its affine normal form instead, which is small.
                    if x.larger_than(mapped, MAX_NODES) {
                        if let Some(affine) = AffineExpr::from_expr(x, mapped) {
                            mapped = affine_to_expr(&affine, self.symbols, x);
                        }
                    }
                    rewrite_exprs(&mut l.body, x, &mut |x, e| {
                        subst_and_fold(x, e, var, mapped)
                    });
                    let bounds = (folded_constant(x, l.lower), folded_constant(x, l.upper));
                    l.lower = x.constant(0);
                    l.upper = match bounds {
                        (Some(lo), Some(up)) => match trip_count(lo, up, step) {
                            Some(t) => self.exprs.constant(t),
                            None => self.fresh_var("trip"),
                        },
                        _ => self.fresh_var("trip"),
                    };
                    l.step = 1;
                }
                self.walk(&mut l.body);
            }
        }
    }
}

/// Rewrites every loop to a normalized step of 1, in place. Returns
/// whether any loop had another step.
///
/// # Examples
///
/// ```
/// use dda_ir::{parse_program, extract_accesses, passes::normalize_loops};
///
/// let mut p = parse_program("for i = 1 to 9 step 2 { a[i] = 0; }")?;
/// assert!(normalize_loops(&mut p));
/// // Now: for i = 0 to 4 { a[1 + 2*i] = 0; }
/// let set = extract_accesses(&p);
/// let sub = set.subscript(&set.accesses[0], 0).expect("affine");
/// assert_eq!(sub.coeff_by_name(&set.symbols, "i"), 2);
/// assert_eq!(sub.constant_part(), 1);
/// # Ok::<(), dda_ir::ParseError>(())
/// ```
pub fn normalize_loops(program: &mut Program) -> bool {
    if !has_strided_loop(&program.stmts) {
        return false;
    }
    let mut taken = BTreeSet::new();
    collect_names(&program.stmts, &mut taken);
    let mut n = Normalizer {
        symbols: &mut program.symbols,
        exprs: &mut program.exprs,
        taken,
        counter: 0,
    };
    n.walk(&mut program.stmts);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::extract_accesses;
    use crate::parser::parse_program;

    #[test]
    fn constant_bounds_get_exact_trip_count() {
        let mut p = parse_program("for i = 1 to 10 step 3 { a[i] = 0; }").unwrap();
        normalize_loops(&mut p);
        let Stmt::For(l) = &p.stmts[0] else { panic!() };
        assert_eq!(l.step, 1);
        assert_eq!(p.exprs.node(l.lower), Node::Const(0));
        assert_eq!(p.exprs.node(l.upper), Node::Const(3)); // iterations 1, 4, 7, 10
        let set = extract_accesses(&p);
        let sub = set.subscript(&set.accesses[0], 0).unwrap();
        assert_eq!(sub.coeff_by_name(&set.symbols, "i"), 3);
        assert_eq!(sub.constant_part(), 1);
    }

    #[test]
    fn negative_step_descends() {
        let mut p = parse_program("for i = 10 to 1 step -1 { a[i] = 0; }").unwrap();
        normalize_loops(&mut p);
        let Stmt::For(l) = &p.stmts[0] else { panic!() };
        assert_eq!(p.exprs.node(l.upper), Node::Const(9));
        let set = extract_accesses(&p);
        let sub = set.subscript(&set.accesses[0], 0).unwrap();
        assert_eq!(sub.coeff_by_name(&set.symbols, "i"), -1);
        assert_eq!(sub.constant_part(), 10);
    }

    #[test]
    fn symbolic_bounds_get_fresh_trip_symbol() {
        let mut p = parse_program("for i = 1 to n step 2 { a[i] = 0; }").unwrap();
        normalize_loops(&mut p);
        let Stmt::For(l) = &p.stmts[0] else { panic!() };
        assert!(matches!(p.exprs.node(l.upper), Node::Var(v) if p.symbols.name(v) == "_trip0"));
        let set = extract_accesses(&p);
        // The fresh trip symbol is never assigned, so it is symbolic.
        assert!(set.is_symbolic("_trip0"));
    }

    #[test]
    fn empty_constant_range() {
        let mut p = parse_program("for i = 10 to 1 step 2 { a[i] = 0; }").unwrap();
        normalize_loops(&mut p);
        let Stmt::For(l) = &p.stmts[0] else { panic!() };
        // Trip count floor((1-10)/2) = -5: an empty normalized range.
        assert_eq!(p.exprs.node(l.upper), Node::Const(-5));
    }

    #[test]
    fn trip_count_beyond_i64_becomes_a_symbol() {
        // The span 2^64 - 2 does not fit in i64; halved it does.
        let mut p = parse_program(
            "for i = -9223372036854775807 to 9223372036854775807 step 2 { a[i] = 0; }",
        )
        .unwrap();
        normalize_loops(&mut p);
        let Stmt::For(l) = &p.stmts[0] else { panic!() };
        assert_eq!(p.exprs.node(l.upper), Node::Const(i64::MAX));
        let mut p = parse_program(
            "for i = 9223372036854775807 to -9223372036854775807 step -1 { a[i] = 0; }",
        )
        .unwrap();
        normalize_loops(&mut p);
        let Stmt::For(l) = &p.stmts[0] else { panic!() };
        assert!(
            matches!(p.exprs.node(l.upper), Node::Var(v) if p.symbols.name(v).starts_with("_trip"))
        );
    }

    #[test]
    fn bounds_repeating_a_strided_variable_stay_small() {
        // Each level's lower bound doubles the one before it. Substituted
        // as written, 24 levels would build trees of 2^24 nodes.
        let depth = 24;
        let mut src = String::new();
        for k in 0..depth {
            let lo = if k == 0 {
                "1".to_owned()
            } else {
                format!("v{0} + v{0}", k - 1)
            };
            src.push_str(&format!("for v{k} = {lo} to 9 step 2 {{ "));
        }
        src.push_str(&format!("a[v{}] = 0;", depth - 1));
        src.push_str(&" }".repeat(depth));
        let mut p = parse_program(&src).unwrap();
        normalize_loops(&mut p);
        let set = extract_accesses(&p);
        // v_k = 2·v_(k-1) + 2·v_k', so the subscript v_23 weighs v0' by
        // 2^24 and v_23' by 2.
        let sub = set.subscript(&set.accesses[0], 0).expect("affine");
        assert_eq!(sub.coeff_by_name(&set.symbols, "v0"), 1 << depth);
        assert_eq!(
            sub.coeff_by_name(&set.symbols, &format!("v{}", depth - 1)),
            2
        );
        assert_eq!(sub.constant_part(), 1 << (depth - 1));
        assert!(p.to_string().len() < 100_000);
    }

    #[test]
    fn unit_step_untouched() {
        let src = "for i = 1 to 10 { a[i] = 0; }";
        let mut p = parse_program(src).unwrap();
        let orig = p.clone();
        assert!(!normalize_loops(&mut p));
        assert_eq!(p, orig);
    }

    #[test]
    fn nested_strided_loops() {
        let mut p =
            parse_program("for i = 0 to 20 step 2 { for j = 0 to 20 step 5 { a[i + j] = 0; } }")
                .unwrap();
        normalize_loops(&mut p);
        let set = extract_accesses(&p);
        let sub = set.subscript(&set.accesses[0], 0).unwrap();
        assert_eq!(sub.coeff_by_name(&set.symbols, "i"), 2);
        assert_eq!(sub.coeff_by_name(&set.symbols, "j"), 5);
    }

    #[test]
    fn inner_bound_using_outer_strided_var() {
        let mut p =
            parse_program("for i = 1 to 9 step 2 { for j = i to 10 { a[j] = 0; } }").unwrap();
        normalize_loops(&mut p);
        let set = extract_accesses(&p);
        let inner = &set.loops[set.loops_of(&set.accesses[0])[1]];
        let lo = set.affine(&set.accesses[0], inner.lower).unwrap();
        // j's lower bound i became 1 + 2*i.
        assert_eq!(lo.coeff_by_name(&set.symbols, "i"), 2);
        assert_eq!(lo.constant_part(), 1);
    }
}
