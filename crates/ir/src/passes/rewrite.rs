//! Shared expression rewriting: constant folding and substitution.
//!
//! Every function here returns whether it changed anything, so
//! [`super::normalize`] can stop at the first round in which no pass
//! reported a change instead of cloning and comparing the whole program.
//! A rewrite that finds nothing to do allocates nothing.
//!
//! Folding overwrites nodes in place, in one forward sweep over the
//! arena ([`ExprArena::fold_all`]). Substitution never does: it appends
//! a rewritten copy of the expression and points the statement at it.
//! So an id a pass holds on to — a recorded definition, a loop's lower
//! bound — means the same expression for the whole pass.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::arena::{no_lookup, Expr, ExprArena};
use crate::ast::{Program, Stmt};
use crate::symbol::Sym;

/// Replaces every scalar `v` in `e` for which `lookup(v)` gives an
/// expression with a copy of that expression, by appending the
/// rewritten copy of `e`. The replacements are not themselves
/// rewritten, so several names substitute simultaneously.
pub fn subst_with(
    exprs: &mut ExprArena,
    e: &mut Expr,
    lookup: &impl Fn(Sym) -> Option<Expr>,
) -> bool {
    if !exprs.any_var(*e, &|v| lookup(v).is_some()) {
        return false;
    }
    *e = exprs.emit(*e, lookup, false, &mut false);
    true
}

/// Replaces every occurrence of scalar `name` in `e` with
/// `replacement` and folds the result: one appended copy when either
/// changes something, nothing appended otherwise.
pub fn subst_and_fold(exprs: &mut ExprArena, e: &mut Expr, name: Sym, replacement: Expr) -> bool {
    rewritten(exprs, e, &|v| (v == name).then_some(replacement))
}

/// `e` folded: `e` itself when it already is, else a folded copy.
pub fn folded(exprs: &mut ExprArena, mut e: Expr) -> Expr {
    rewritten(exprs, &mut e, &no_lookup);
    e
}

fn rewritten(exprs: &mut ExprArena, e: &mut Expr, lookup: &impl Fn(Sym) -> Option<Expr>) -> bool {
    let mark = exprs.mark();
    let mut changed = false;
    let copy = exprs.emit(*e, lookup, true, &mut changed);
    if changed {
        *e = copy;
    } else {
        exprs.truncate(mark);
    }
    changed
}

/// Applies `f` to every expression in `stmts` (subscripts, right-hand
/// sides, loop bounds, conditions). Returns whether any call of `f`
/// reported a change.
pub fn rewrite_exprs(
    stmts: &mut [Stmt],
    exprs: &mut ExprArena,
    f: &mut impl FnMut(&mut ExprArena, &mut Expr) -> bool,
) -> bool {
    let mut changed = false;
    for s in stmts {
        match s {
            Stmt::For(l) => {
                changed |= f(exprs, &mut l.lower);
                changed |= f(exprs, &mut l.upper);
                changed |= rewrite_exprs(&mut l.body, exprs, f);
            }
            Stmt::ArrayAssign(a) => {
                for k in a.target.positions() {
                    let mut sub = exprs.sub_at(k);
                    if f(exprs, &mut sub) {
                        exprs.set_sub(k, sub);
                        changed = true;
                    }
                }
                changed |= f(exprs, &mut a.value);
            }
            Stmt::ScalarAssign(a) => {
                changed |= f(exprs, &mut a.value);
            }
            Stmt::If(i) => {
                changed |= f(exprs, &mut i.lhs);
                changed |= f(exprs, &mut i.rhs);
                changed |= rewrite_exprs(&mut i.then_body, exprs, f);
                changed |= rewrite_exprs(&mut i.else_body, exprs, f);
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

/// Constant-folds every expression in the program, in place: one
/// forward sweep over its arena. Returns whether anything changed.
pub fn fold_program(program: &mut Program) -> bool {
    program.exprs.fold_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use crate::symbol::SymbolTable;

    fn folded_text(src: &str) -> (String, bool) {
        let (mut t, mut x) = (SymbolTable::new(), ExprArena::new());
        let e = parse_expr(src, &mut t, &mut x).unwrap();
        let changed = x.fold_all();
        (x.display(e, &t).to_string(), changed)
    }

    #[test]
    fn fold_collapses_constants() {
        assert_eq!(folded_text("2 * 3 + 4 - 1"), ("9".into(), true));
    }

    #[test]
    fn fold_identities() {
        assert_eq!(folded_text("i + 0"), ("i".into(), true));
        assert_eq!(folded_text("1 * i"), ("i".into(), true));
        assert_eq!(folded_text("0 * i"), ("0".into(), true));
        assert_eq!(folded_text("-(-(i))"), ("i".into(), true));
        assert_eq!(folded_text("a[2 - 0] - 0"), ("a[2]".into(), true));
    }

    #[test]
    fn fold_reports_no_change_on_folded_input() {
        for src in ["i + 1", "2 * i - j", "a[i + 1] * b[j]", "-i", "7"] {
            let (e, changed) = folded_text(src);
            assert!(!changed, "{src}");
            assert_eq!(e, src);
        }
    }

    #[test]
    fn fold_overflow_left_intact() {
        let mut x = ExprArena::new();
        let (max, one) = (x.constant(i64::MAX), x.constant(1));
        let e = x.add(max, one);
        let before = x.clone();
        assert!(!x.fold_all());
        assert!(x.same(e, &before, e));
    }

    #[test]
    fn folding_a_copy_leaves_the_original_alone() {
        let (mut t, mut x) = (SymbolTable::new(), ExprArena::new());
        let e = parse_expr("(i + 0) * 1", &mut t, &mut x).unwrap();
        let f = folded(&mut x, e);
        assert_eq!(x.display(e, &t).to_string(), "(i + 0) * 1");
        assert_eq!(x.display(f, &t).to_string(), "i");
        let len = x.len();
        assert_eq!(folded(&mut x, f), f, "a folded expression is its own fold");
        assert_eq!(x.len(), len, "and costs no node");
    }

    #[test]
    fn subst_reaches_subscripts() {
        let (mut t, mut x) = (SymbolTable::new(), ExprArena::new());
        let mut e = parse_expr("a[k + 1] + k", &mut t, &mut x).unwrap();
        let (k, i) = (t.intern("k"), t.intern("i"));
        let iv = x.var(i);
        let lookup = |v: Sym| (v == k).then_some(iv);
        assert!(subst_with(&mut x, &mut e, &lookup));
        let want = parse_expr("a[i + 1] + i", &mut t, &mut x).unwrap();
        assert!(x.same(e, &x, want));
        assert!(!subst_with(&mut x, &mut e, &lookup));
    }
}
