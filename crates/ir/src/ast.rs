//! Abstract syntax for the Fortran-like loop-nest language.
//!
//! Programs are lists of statements; loops nest arbitrarily. The paper's
//! running examples all fit this shape:
//!
//! ```text
//! for i = 1 to 10 {
//!     a[i] = a[i + 10] + 3;
//! }
//! ```
//!
//! Statements are a tree of `Vec`s; every expression in them is an id
//! into the program's [`ExprArena`].

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;
use std::sync::Arc;

use crate::arena::{ArrayRef, Expr, ExprArena};
use crate::expr::Shown;
use crate::symbol::{Sym, SymbolTable};

/// A statement of the source language.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// A counted loop.
    For(ForLoop),
    /// An assignment to an array element.
    ArrayAssign(ArrayAssign),
    /// An assignment to a scalar variable.
    ScalarAssign(ScalarAssign),
    /// `read(n);` — declares `n` as a loop-invariant unknown (symbolic
    /// constant) for the remainder of the program.
    Read(Sym),
    /// A two-way conditional. Dependence analysis treats both branches as
    /// possibly executing (the paper's affine model has no control flow;
    /// this is the standard conservative extension).
    If(IfStmt),
}

/// A relational operator in an `if` condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl RelOp {
    /// Evaluates the comparison.
    #[must_use]
    pub fn eval(self, lhs: i64, rhs: i64) -> bool {
        match self {
            RelOp::Lt => lhs < rhs,
            RelOp::Le => lhs <= rhs,
            RelOp::Gt => lhs > rhs,
            RelOp::Ge => lhs >= rhs,
            RelOp::Eq => lhs == rhs,
            RelOp::Ne => lhs != rhs,
        }
    }

    /// Source spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RelOp::Lt => "<",
            RelOp::Le => "<=",
            RelOp::Gt => ">",
            RelOp::Ge => ">=",
            RelOp::Eq => "==",
            RelOp::Ne => "!=",
        }
    }
}

/// `if (lhs op rhs) { … } else { … }`
#[derive(Debug, Clone)]
pub struct IfStmt {
    /// Left-hand side of the condition.
    pub lhs: Expr,
    /// The comparison.
    pub op: RelOp,
    /// Right-hand side of the condition.
    pub rhs: Expr,
    /// Statements executed when the condition holds.
    pub then_body: Vec<Stmt>,
    /// Statements executed otherwise (may be empty).
    pub else_body: Vec<Stmt>,
}

/// A counted `for` loop with an optional non-unit step.
#[derive(Debug, Clone)]
pub struct ForLoop {
    /// The induction variable.
    pub var: Sym,
    /// Lower bound expression.
    pub lower: Expr,
    /// Upper bound expression (inclusive).
    pub upper: Expr,
    /// Step; the paper's model requires `1` after normalization.
    pub step: i64,
    /// Loop body.
    pub body: Vec<Stmt>,
}

/// `target[subs…] = value;`
#[derive(Debug, Clone)]
pub struct ArrayAssign {
    /// The written element.
    pub target: ArrayRef,
    /// The right-hand side (may read arrays and scalars).
    pub value: Expr,
}

/// `name = value;`
#[derive(Debug, Clone)]
pub struct ScalarAssign {
    /// The written scalar.
    pub name: Sym,
    /// The right-hand side.
    pub value: Expr,
}

/// A whole program: a statement list, the arena holding its
/// expressions and the table naming its symbols.
///
/// Two programs are equal when their statements have the same shape,
/// expressions included wherever they sit in the arenas, and their
/// tables are equal: the same source always interns to the same table.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Top-level statements.
    pub stmts: Vec<Stmt>,
    /// Every expression node of the statements, operands before users.
    pub exprs: ExprArena,
    /// Every identifier of the program, in order of first appearance.
    /// Shared with the access sets extracted from it; a pass that adds
    /// a name copies the table first if it is shared.
    pub symbols: Arc<SymbolTable>,
}

impl Program {
    /// Creates an empty program.
    #[must_use]
    pub fn new() -> Program {
        Program::default()
    }

    /// Total number of statements, counting nested bodies recursively.
    #[must_use]
    pub fn num_stmts(&self) -> usize {
        fn count(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::For(l) => 1 + count(&l.body),
                    Stmt::If(i) => 1 + count(&i.then_body) + count(&i.else_body),
                    _ => 1,
                })
                .sum()
        }
        count(&self.stmts)
    }

    /// Displays the expression `e` of this program.
    #[must_use]
    pub fn display_expr(&self, e: Expr) -> Shown<'_, Expr> {
        self.exprs.display(e, &self.symbols)
    }

    /// Displays the array reference `r` of this program.
    #[must_use]
    pub fn display_ref(&self, r: ArrayRef) -> Shown<'_, ArrayRef> {
        self.exprs.display_ref(r, &self.symbols)
    }

    /// Copies every expression the statements reach into a fresh arena,
    /// in the order the parser would have written them, and drops the
    /// rest: the nodes that rewriting left unreachable.
    pub fn compact(&mut self) {
        fn copy(stmts: &mut [Stmt], from: &ExprArena, to: &mut ExprArena) {
            for s in stmts {
                match s {
                    Stmt::For(l) => {
                        l.lower = to.copy_from(from, l.lower);
                        l.upper = to.copy_from(from, l.upper);
                        copy(&mut l.body, from, to);
                    }
                    Stmt::ArrayAssign(a) => {
                        a.target = to.copy_ref_from(from, &a.target);
                        a.value = to.copy_from(from, a.value);
                    }
                    Stmt::ScalarAssign(a) => a.value = to.copy_from(from, a.value),
                    Stmt::If(i) => {
                        i.lhs = to.copy_from(from, i.lhs);
                        i.rhs = to.copy_from(from, i.rhs);
                        copy(&mut i.then_body, from, to);
                        copy(&mut i.else_body, from, to);
                    }
                    Stmt::Read(_) => {}
                }
            }
        }
        let mut fresh = ExprArena::new();
        copy(&mut self.stmts, &self.exprs, &mut fresh);
        self.exprs = fresh;
    }

    /// Maximum loop nesting depth.
    #[must_use]
    pub fn max_depth(&self) -> usize {
        fn depth(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::For(l) => 1 + depth(&l.body),
                    Stmt::If(i) => depth(&i.then_body).max(depth(&i.else_body)),
                    _ => 0,
                })
                .max()
                .unwrap_or(0)
        }
        depth(&self.stmts)
    }
}

fn write_indent(f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
    for _ in 0..depth {
        write!(f, "    ")?;
    }
    Ok(())
}

fn write_stmt(f: &mut fmt::Formatter<'_>, p: &Program, s: &Stmt, depth: usize) -> fmt::Result {
    write_indent(f, depth)?;
    let t = &p.symbols;
    match s {
        Stmt::For(l) => {
            write!(
                f,
                "for {} = {} to {}",
                t.name(l.var),
                p.display_expr(l.lower),
                p.display_expr(l.upper)
            )?;
            if l.step != 1 {
                write!(f, " step {}", l.step)?;
            }
            writeln!(f, " {{")?;
            for inner in &l.body {
                write_stmt(f, p, inner, depth + 1)?;
            }
            write_indent(f, depth)?;
            writeln!(f, "}}")
        }
        Stmt::ArrayAssign(a) => {
            writeln!(
                f,
                "{} = {};",
                p.display_ref(a.target),
                p.display_expr(a.value)
            )
        }
        Stmt::ScalarAssign(a) => writeln!(f, "{} = {};", t.name(a.name), p.display_expr(a.value)),
        Stmt::Read(n) => writeln!(f, "read({});", t.name(*n)),
        Stmt::If(i) => {
            writeln!(
                f,
                "if ({} {} {}) {{",
                p.display_expr(i.lhs),
                i.op.as_str(),
                p.display_expr(i.rhs)
            )?;
            for inner in &i.then_body {
                write_stmt(f, p, inner, depth + 1)?;
            }
            if !i.else_body.is_empty() {
                write_indent(f, depth)?;
                writeln!(f, "}} else {{")?;
                for inner in &i.else_body {
                    write_stmt(f, p, inner, depth + 1)?;
                }
            }
            write_indent(f, depth)?;
            writeln!(f, "}}")
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.stmts {
            write_stmt(f, self, s, 0)?;
        }
        Ok(())
    }
}

impl PartialEq for Program {
    fn eq(&self, other: &Program) -> bool {
        fn same(a: &[Stmt], x: &ExprArena, b: &[Stmt], y: &ExprArena) -> bool {
            let e = |p: Expr, q: Expr| x.same(p, y, q);
            a.len() == b.len()
                && a.iter().zip(b).all(|pair| match pair {
                    (Stmt::For(l), Stmt::For(m)) => {
                        l.var == m.var
                            && l.step == m.step
                            && e(l.lower, m.lower)
                            && e(l.upper, m.upper)
                            && same(&l.body, x, &m.body, y)
                    }
                    (Stmt::ArrayAssign(l), Stmt::ArrayAssign(m)) => {
                        x.same_ref(&l.target, y, &m.target) && e(l.value, m.value)
                    }
                    (Stmt::ScalarAssign(l), Stmt::ScalarAssign(m)) => {
                        l.name == m.name && e(l.value, m.value)
                    }
                    (Stmt::Read(l), Stmt::Read(m)) => l == m,
                    (Stmt::If(l), Stmt::If(m)) => {
                        l.op == m.op
                            && e(l.lhs, m.lhs)
                            && e(l.rhs, m.rhs)
                            && same(&l.then_body, x, &m.then_body, y)
                            && same(&l.else_body, x, &m.else_body, y)
                    }
                    _ => false,
                })
        }
        self.symbols == other.symbols && same(&self.stmts, &self.exprs, &other.stmts, &other.exprs)
    }
}

impl Eq for Program {}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Program {
        let mut symbols = SymbolTable::new();
        let (i, a) = (symbols.intern("i"), symbols.intern("a"));
        let mut x = ExprArena::new();
        let (lower, upper) = (x.constant(1), x.constant(10));
        let sub = x.var(i);
        let target = x.try_target(a, &[sub]).unwrap();
        let value = x.constant(0);
        Program {
            stmts: vec![Stmt::For(ForLoop {
                var: i,
                lower,
                upper,
                step: 1,
                body: vec![Stmt::ArrayAssign(ArrayAssign { target, value })],
            })],
            exprs: x,
            symbols: Arc::new(symbols),
        }
    }

    #[test]
    fn counting() {
        let p = tiny();
        assert_eq!(p.num_stmts(), 2);
        assert_eq!(p.max_depth(), 1);
        assert_eq!(Program::new().max_depth(), 0);
    }

    #[test]
    fn equality_ignores_arena_layout() {
        let p = tiny();
        // The loop's lower bound rewritten as a fresh node behind garbage.
        let mut q = tiny();
        let Stmt::For(l) = &mut q.stmts[0] else {
            panic!("not a loop")
        };
        q.exprs.constant(7);
        l.lower = q.exprs.constant(1);
        assert_eq!(p, q);
        assert!(q.exprs.len() > p.exprs.len());
        q.compact();
        assert_eq!(q.exprs.len(), p.exprs.len());
        assert_eq!(p, q);
        let Stmt::For(l) = &mut q.stmts[0] else {
            panic!("not a loop")
        };
        l.lower = q.exprs.constant(2);
        assert_ne!(p, q);
    }

    #[test]
    fn display_round_trippable_shape() {
        let p = tiny();
        let text = p.to_string();
        assert!(text.contains("for i = 1 to 10 {"));
        assert!(text.contains("a[i] = 0;"));
    }
}
