//! Shared expression rewriting: substitution and constant folding, in
//! place.
//!
//! Every function here rewrites its argument where it stands and returns
//! whether it changed anything, so [`super::normalize`] can stop at the
//! first round in which no pass reported a change instead of cloning and
//! comparing the whole program. A rewrite that finds nothing to do
//! allocates nothing.

use crate::ast::{Program, Stmt};
use crate::expr::Expr;
use crate::symbol::Sym;

/// Replaces every scalar `v` in `e` for which `lookup(v)` gives an
/// expression with a copy of that expression. The replacements are not
/// themselves rewritten, so several names substitute simultaneously.
pub fn subst_with<'d>(e: &mut Expr, lookup: &impl Fn(Sym) -> Option<&'d Expr>) -> bool {
    match e {
        Expr::Const(_) => false,
        Expr::Var(v) => match lookup(*v) {
            Some(replacement) => {
                *e = replacement.clone();
                true
            }
            None => false,
        },
        Expr::ArrayRead(r) => r
            .subscripts
            .iter_mut()
            .fold(false, |changed, s| subst_with(s, lookup) | changed),
        Expr::Neg(x) => subst_with(x, lookup),
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
            subst_with(a, lookup) | subst_with(b, lookup)
        }
    }
}

/// Replaces every occurrence of scalar `name` in `e` with `replacement`.
pub fn subst_scalar(e: &mut Expr, name: Sym, replacement: &Expr) -> bool {
    subst_with(e, &|v| (v == name).then_some(replacement))
}

/// Moves the expression out of a box, leaving a constant behind.
fn take(b: &mut Expr) -> Expr {
    std::mem::replace(b, Expr::Const(0))
}

/// Constant-folds an expression in place: `Const ⊕ Const` collapses, and
/// additive / multiplicative identities simplify (`x + 0`, `x * 1`,
/// `x * 0`, `--x`). Returns whether anything changed.
///
/// Folding uses checked arithmetic; an overflowing fold is left unfolded.
pub fn fold(e: &mut Expr) -> bool {
    let (mut changed, folded) = match e {
        Expr::Const(_) | Expr::Var(_) => return false,
        Expr::ArrayRead(r) => {
            return r
                .subscripts
                .iter_mut()
                .fold(false, |changed, s| fold(s) | changed)
        }
        Expr::Neg(x) => {
            let changed = fold(x);
            let folded = match x.as_mut() {
                Expr::Const(c) => c.checked_neg().map(Expr::Const),
                Expr::Neg(inner) => Some(take(inner)),
                _ => None,
            };
            (changed, folded)
        }
        Expr::Add(a, b) => {
            let changed = fold(a) | fold(b);
            let folded = match (a.as_mut(), b.as_mut()) {
                (Expr::Const(x), Expr::Const(y)) => x.checked_add(*y).map(Expr::Const),
                (Expr::Const(0), b) => Some(take(b)),
                (a, Expr::Const(0)) => Some(take(a)),
                _ => None,
            };
            (changed, folded)
        }
        Expr::Sub(a, b) => {
            let changed = fold(a) | fold(b);
            let folded = match (a.as_mut(), b.as_mut()) {
                (Expr::Const(x), Expr::Const(y)) => x.checked_sub(*y).map(Expr::Const),
                (a, Expr::Const(0)) => Some(take(a)),
                _ => None,
            };
            (changed, folded)
        }
        Expr::Mul(a, b) => {
            let changed = fold(a) | fold(b);
            let folded = match (a.as_mut(), b.as_mut()) {
                (Expr::Const(x), Expr::Const(y)) => x.checked_mul(*y).map(Expr::Const),
                (Expr::Const(0), _) | (_, Expr::Const(0)) => Some(Expr::Const(0)),
                (Expr::Const(1), b) => Some(take(b)),
                (a, Expr::Const(1)) => Some(take(a)),
                _ => None,
            };
            (changed, folded)
        }
    };
    if let Some(f) = folded {
        *e = f;
        changed = true;
    }
    changed
}

/// Applies `f` to every expression in the program (subscripts, right-hand
/// sides, loop bounds), in place. Returns whether any call of `f`
/// reported a change.
pub fn rewrite_exprs(stmts: &mut [Stmt], f: &mut impl FnMut(&mut Expr) -> bool) -> bool {
    let mut changed = false;
    for s in stmts {
        match s {
            Stmt::For(l) => {
                changed |= f(&mut l.lower);
                changed |= f(&mut l.upper);
                changed |= rewrite_exprs(&mut l.body, f);
            }
            Stmt::ArrayAssign(a) => {
                for sub in &mut a.target.subscripts {
                    changed |= f(sub);
                }
                changed |= f(&mut a.value);
            }
            Stmt::ScalarAssign(a) => {
                changed |= f(&mut a.value);
            }
            Stmt::If(i) => {
                changed |= f(&mut i.lhs);
                changed |= f(&mut i.rhs);
                changed |= rewrite_exprs(&mut i.then_body, f);
                changed |= rewrite_exprs(&mut i.else_body, f);
            }
            Stmt::Read(_) => {}
        }
    }
    changed
}

/// Calls `f` on every scalar assigned within `stmts`, including loop
/// variables, in program order.
pub fn for_each_assigned(stmts: &[Stmt], f: &mut impl FnMut(Sym)) {
    for s in stmts {
        match s {
            Stmt::ScalarAssign(a) => f(a.name),
            Stmt::For(l) => {
                f(l.var);
                for_each_assigned(&l.body, f);
            }
            Stmt::If(i) => {
                for_each_assigned(&i.then_body, f);
                for_each_assigned(&i.else_body, f);
            }
            Stmt::ArrayAssign(_) | Stmt::Read(_) => {}
        }
    }
}

/// Whether `e` mentions a scalar `v` with `pred(v)`.
pub fn any_var(e: &Expr, pred: &impl Fn(Sym) -> bool) -> bool {
    match e {
        Expr::Const(_) => false,
        Expr::Var(v) => pred(*v),
        Expr::ArrayRead(r) => r.subscripts.iter().any(|s| any_var(s, pred)),
        Expr::Neg(x) => any_var(x, pred),
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => any_var(a, pred) || any_var(b, pred),
    }
}

/// Whether `e` has more than `nodes` nodes (counting stops there).
pub fn larger_than(e: &Expr, nodes: usize) -> bool {
    fn exceeds(e: &Expr, budget: &mut usize) -> bool {
        if *budget == 0 {
            return true;
        }
        *budget -= 1;
        match e {
            Expr::Const(_) | Expr::Var(_) => false,
            Expr::ArrayRead(r) => r.subscripts.iter().any(|s| exceeds(s, budget)),
            Expr::Neg(x) => exceeds(x, budget),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                exceeds(a, budget) || exceeds(b, budget)
            }
        }
    }
    exceeds(e, &mut { nodes })
}

/// Whether `e` reads no array.
pub fn is_pure(e: &Expr) -> bool {
    match e {
        Expr::Const(_) | Expr::Var(_) => true,
        Expr::ArrayRead(_) => false,
        Expr::Neg(x) => is_pure(x),
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => is_pure(a) && is_pure(b),
    }
}

/// Constant-folds every expression in the program, in place. Returns
/// whether anything changed.
pub fn fold_program(program: &mut Program) -> bool {
    rewrite_exprs(&mut program.stmts, &mut fold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use crate::symbol::SymbolTable;

    fn folded(src: &str) -> (String, bool) {
        let mut t = SymbolTable::new();
        let mut e = parse_expr(src, &mut t).unwrap();
        let changed = fold(&mut e);
        (e.display(&t).to_string(), changed)
    }

    #[test]
    fn fold_collapses_constants() {
        assert_eq!(folded("2 * 3 + 4 - 1"), ("9".into(), true));
    }

    #[test]
    fn fold_identities() {
        assert_eq!(folded("i + 0"), ("i".into(), true));
        assert_eq!(folded("1 * i"), ("i".into(), true));
        assert_eq!(folded("0 * i"), ("0".into(), true));
        assert_eq!(folded("-(-(i))"), ("i".into(), true));
        assert_eq!(folded("a[2 - 0] - 0"), ("a[2]".into(), true));
    }

    #[test]
    fn fold_reports_no_change_on_folded_input() {
        for src in ["i + 1", "2 * i - j", "a[i + 1] * b[j]", "-i", "7"] {
            let (e, changed) = folded(src);
            assert!(!changed, "{src}");
            assert_eq!(e, src);
        }
    }

    #[test]
    fn fold_overflow_left_intact() {
        let mut e = Expr::Add(Box::new(Expr::Const(i64::MAX)), Box::new(Expr::Const(1)));
        let orig = e.clone();
        assert!(!fold(&mut e));
        assert_eq!(e, orig);
    }

    #[test]
    fn subst_reaches_subscripts() {
        let mut t = SymbolTable::new();
        let mut e = parse_expr("a[k + 1] + k", &mut t).unwrap();
        let (k, i) = (t.intern("k"), t.intern("i"));
        assert!(subst_scalar(&mut e, k, &Expr::Var(i)));
        assert_eq!(e, parse_expr("a[i + 1] + i", &mut t).unwrap());
        assert!(!subst_scalar(&mut e, k, &Expr::Var(i)));
    }
}
