//! Forward substitution (subsumes constant propagation).
//!
//! A scalar definition `k = E;` whose right-hand side is pure (no array
//! reads) is substituted into subsequent uses of `k`, as long as neither
//! `k` nor any variable `E` depends on has been reassigned in between.
//! Because constants are just the degenerate case `k = 5;`, this pass also
//! performs constant propagation (folding happens in
//! [`super::fold_program`]).
//!
//! A definition whose substituted right-hand side grows past
//! [`MAX_NODES`] is not recorded: its uses stay a mutated scalar,
//! which access extraction marks non-affine (a sound assumed-dependent
//! verdict) instead of letting a chain of temporaries such as
//! `t1 = t0 + t0; t2 = t1 + t1; …` build exponentially large trees.
//!
//! A definition is the id of its right-hand side in the arena.
//! Substitution appends rewritten copies and never changes a node in
//! place, so the id stays valid for as long as the definition lives.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;
use std::rc::Rc;

use crate::arena::{Expr, ExprArena};
use crate::ast::{Program, Stmt};
use crate::passes::rewrite::{for_each_assigned, subst_with};
use crate::passes::MAX_NODES;
use crate::symbol::Sym;

/// One recorded definition: its closed right-hand side and the scalars
/// that right-hand side mentions (sorted, deduplicated), so a kill does
/// not re-walk the expression.
pub(super) struct Def {
    pub(super) value: Expr,
    vars: Vec<Sym>,
}

/// The definitions live at a program point. Every recorded right-hand
/// side is *closed*: it never mentions a scalar that itself has a live
/// definition. So one simultaneous substitution of all of them is the
/// same as substituting them one after another.
#[derive(Clone, Default)]
pub(super) struct Defs {
    /// Shared, so the copies taken at loops and branches stay cheap.
    defs: BTreeMap<Sym, Rc<Def>>,
    /// How many recorded right-hand sides mention each scalar: a kill of
    /// a scalar nothing mentions does not scan the definitions.
    mentioned: BTreeMap<Sym, usize>,
}

impl Defs {
    pub(super) fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    pub(super) fn get(&self, name: Sym) -> Option<&Def> {
        self.defs.get(&name).map(|d| &**d)
    }

    /// Whether `e` mentions a scalar with a live definition.
    pub(super) fn used_in(&self, exprs: &ExprArena, e: Expr) -> bool {
        !self.is_empty() && exprs.any_var(e, &|v| self.defs.contains_key(&v))
    }

    /// Substitutes every live definition into `e`; returns whether
    /// anything changed.
    pub(super) fn apply(&self, exprs: &mut ExprArena, e: &mut Expr) -> bool {
        !self.is_empty() && subst_with(exprs, e, &|v| self.defs.get(&v).map(|d| d.value))
    }

    fn remove(&mut self, name: Sym) {
        let Some(def) = self.defs.remove(&name) else {
            return;
        };
        for v in &def.vars {
            if let Some(count) = self.mentioned.get_mut(v) {
                *count -= 1;
                if *count == 0 {
                    self.mentioned.remove(v);
                }
            }
        }
    }

    /// Removes the definition of `name` and every definition that
    /// mentions it.
    pub(super) fn kill(&mut self, name: Sym) {
        self.remove(name);
        if !self.mentioned.contains_key(&name) {
            return;
        }
        let users: Vec<Sym> = self
            .defs
            .iter()
            .filter(|(_, d)| d.vars.binary_search(&name).is_ok())
            .map(|(&k, _)| k)
            .collect();
        for user in users {
            self.remove(user);
        }
    }

    /// Kills every scalar assigned within `stmts`, loop variables
    /// included.
    pub(super) fn kill_assigned_in(&mut self, stmts: &[Stmt]) {
        if !self.is_empty() {
            for_each_assigned(stmts, &mut |name| self.kill(name));
        }
    }

    /// Kills `name`, then records `name = value` if `value` is pure, does
    /// not mention `name` (that is an induction update such as
    /// `k = k + 1`), and is no larger than [`MAX_NODES`]. `finish`
    /// gives the expression to record (the induction pass folds it).
    pub(super) fn assign(
        &mut self,
        exprs: &mut ExprArena,
        name: Sym,
        value: Expr,
        finish: impl FnOnce(&mut ExprArena, Expr) -> Expr,
    ) {
        self.kill(name);
        if !exprs.is_pure(value)
            || exprs.any_var(value, &|v| v == name)
            || exprs.larger_than(value, MAX_NODES)
        {
            return;
        }
        let value = finish(exprs, value);
        let mut vars: Vec<Sym> = Vec::new();
        exprs.for_each_var(value, &mut |v| {
            if let Err(at) = vars.binary_search(&v) {
                vars.insert(at, v);
            }
        });
        for &v in &vars {
            *self.mentioned.entry(v).or_insert(0) += 1;
        }
        self.defs.insert(name, Rc::new(Def { value, vars }));
    }
}

fn walk(stmts: &mut [Stmt], exprs: &mut ExprArena, defs: &mut Defs) -> bool {
    let mut changed = false;
    for s in stmts.iter_mut() {
        match s {
            Stmt::Read(n) => defs.kill(*n),
            Stmt::ScalarAssign(a) => {
                changed |= defs.apply(exprs, &mut a.value);
                defs.assign(exprs, a.name, a.value, |_, v| v);
            }
            Stmt::ArrayAssign(a) => {
                for k in a.target.positions() {
                    let mut sub = exprs.sub_at(k);
                    if defs.apply(exprs, &mut sub) {
                        exprs.set_sub(k, sub);
                        changed = true;
                    }
                }
                changed |= defs.apply(exprs, &mut a.value);
            }
            Stmt::If(i) => {
                changed |= defs.apply(exprs, &mut i.lhs);
                changed |= defs.apply(exprs, &mut i.rhs);
                // Definitions valid here hold at entry to both branches;
                // anything either branch assigns is unknown afterwards.
                changed |= walk(&mut i.then_body, exprs, &mut defs.clone());
                changed |= walk(&mut i.else_body, exprs, &mut defs.clone());
                defs.kill_assigned_in(&i.then_body);
                defs.kill_assigned_in(&i.else_body);
            }
            Stmt::For(l) => {
                changed |= defs.apply(exprs, &mut l.lower);
                changed |= defs.apply(exprs, &mut l.upper);
                // Definitions invalidated inside the loop must not flow in:
                // a use in iteration 2 would see the *new* value.
                let mut inner = defs.clone();
                inner.kill_assigned_in(&l.body);
                inner.kill(l.var);
                changed |= walk(&mut l.body, exprs, &mut inner);
                // After the loop, anything assigned inside is unknown.
                defs.kill_assigned_in(&l.body);
                defs.kill(l.var);
            }
        }
    }
    changed
}

/// Runs forward substitution over the whole program, in place. Returns
/// whether anything changed.
///
/// # Examples
///
/// ```
/// use dda_ir::{parse_program, passes::forward_substitute};
///
/// let mut p = parse_program("k = n + 1; for i = 1 to 10 { a[k + i] = 0; }")?;
/// assert!(forward_substitute(&mut p));
/// assert!(p.to_string().contains("a[n + 1 + i]"), "{p}");
/// # Ok::<(), dda_ir::ParseError>(())
/// ```
pub fn forward_substitute(program: &mut Program) -> bool {
    walk(&mut program.stmts, &mut program.exprs, &mut Defs::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn normalize_text(src: &str) -> String {
        let mut p = parse_program(src).unwrap();
        forward_substitute(&mut p);
        crate::passes::rewrite::fold_program(&mut p);
        p.to_string()
    }

    #[test]
    fn constant_propagation() {
        let out = normalize_text("n = 100; for i = 1 to n { a[i + n] = 0; }");
        assert!(out.contains("for i = 1 to 100"), "{out}");
        assert!(out.contains("a[i + 100]"), "{out}");
    }

    #[test]
    fn chained_definitions() {
        let out = normalize_text("k = 2; m = k + 1; a[m] = 0;");
        assert!(out.contains("a[3]"), "{out}");
    }

    #[test]
    fn reassignment_kills_definition() {
        let out = normalize_text("k = 1; a[k] = 0; k = 2; a[k] = 0;");
        assert!(out.contains("a[1]") && out.contains("a[2]"), "{out}");
    }

    #[test]
    fn loop_mutated_scalar_not_propagated_into_loop() {
        let out = normalize_text("k = 0; for i = 1 to 10 { a[k] = 0; k = k + 1; }");
        // k is an induction variable; forward substitution alone must NOT
        // replace the use of k with 0.
        assert!(out.contains("a[k]"), "{out}");
    }

    #[test]
    fn closure_at_insertion_survives_reassignment() {
        // m's definition is closed over k's value (2) at insertion time,
        // so reassigning k afterwards does not change what m means.
        let out = normalize_text("k = 1; m = k + 1; k = 5; a[m] = 0;");
        assert!(out.contains("a[2]"), "{out}");
    }

    #[test]
    fn kill_of_open_definition() {
        // m's definition references the *unknown* scalar n; once n is
        // assigned, the stale definition of m must die.
        let out = normalize_text("m = n + 1; n = 5; a[m] = 0;");
        assert!(out.contains("a[m]"), "{out}");
    }

    #[test]
    fn impure_rhs_not_substituted() {
        let out = normalize_text("k = b[3]; a[k] = 0;");
        assert!(out.contains("a[k]"), "{out}");
    }

    #[test]
    fn definition_survives_into_unrelated_loop() {
        let out = normalize_text("k = 7; for i = 1 to 10 { a[i + k] = 0; }");
        assert!(out.contains("a[i + 7]"), "{out}");
    }

    #[test]
    fn oversized_definition_is_not_recorded() {
        // Link k of the chain has 2^(k+1) - 1 nodes. The first link over
        // the cap is not recorded and stays a scalar; the next link is
        // small again and is recorded in terms of it.
        let over = (1..).find(|k| (1usize << (k + 1)) - 1 > MAX_NODES).unwrap();
        let mut src = String::from("read(t0);");
        for k in 1..=over + 1 {
            src.push_str(&format!("t{k} = t{} + t{};", k - 1, k - 1));
        }
        src.push_str(&format!("a[t{}] = 0; a[t{}] = 0;", over - 1, over + 1));
        let out = normalize_text(&src);
        assert!(!out.contains(&format!("a[t{}]", over - 1)), "{out}");
        assert!(out.contains(&format!("a[t{over} + t{over}]")), "{out}");
    }

    #[test]
    fn value_after_loop_unknown() {
        let out = normalize_text("k = 0; for i = 1 to 10 { k = k + 1; } a[k] = 0;");
        assert!(out.contains("a[k]"), "{out}");
    }
}
