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

use std::fmt;
use std::sync::Arc;

use crate::expr::{ArrayRef, Expr};
use crate::symbol::{Sym, SymbolTable};

/// A statement of the source language.
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayAssign {
    /// The written element.
    pub target: ArrayRef,
    /// The right-hand side (may read arrays and scalars).
    pub value: Expr,
}

/// `name = value;`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalarAssign {
    /// The written scalar.
    pub name: Sym,
    /// The right-hand side.
    pub value: Expr,
}

/// A whole program: a statement list and the table naming its symbols.
///
/// Two programs are equal when their statements and their tables are:
/// the same source always interns to the same table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// Top-level statements.
    pub stmts: Vec<Stmt>,
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

fn write_stmt(f: &mut fmt::Formatter<'_>, t: &SymbolTable, s: &Stmt, depth: usize) -> fmt::Result {
    write_indent(f, depth)?;
    match s {
        Stmt::For(l) => {
            write!(
                f,
                "for {} = {} to {}",
                t.name(l.var),
                l.lower.display(t),
                l.upper.display(t)
            )?;
            if l.step != 1 {
                write!(f, " step {}", l.step)?;
            }
            writeln!(f, " {{")?;
            for inner in &l.body {
                write_stmt(f, t, inner, depth + 1)?;
            }
            write_indent(f, depth)?;
            writeln!(f, "}}")
        }
        Stmt::ArrayAssign(a) => {
            writeln!(f, "{} = {};", a.target.display(t), a.value.display(t))
        }
        Stmt::ScalarAssign(a) => writeln!(f, "{} = {};", t.name(a.name), a.value.display(t)),
        Stmt::Read(n) => writeln!(f, "read({});", t.name(*n)),
        Stmt::If(i) => {
            writeln!(
                f,
                "if ({} {} {}) {{",
                i.lhs.display(t),
                i.op.as_str(),
                i.rhs.display(t)
            )?;
            for inner in &i.then_body {
                write_stmt(f, t, inner, depth + 1)?;
            }
            if !i.else_body.is_empty() {
                write_indent(f, depth)?;
                writeln!(f, "}} else {{")?;
                for inner in &i.else_body {
                    write_stmt(f, t, inner, depth + 1)?;
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
            write_stmt(f, &self.symbols, s, 0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Program {
        let mut symbols = SymbolTable::new();
        let (i, a) = (symbols.intern("i"), symbols.intern("a"));
        Program {
            stmts: vec![Stmt::For(ForLoop {
                var: i,
                lower: Expr::Const(1),
                upper: Expr::Const(10),
                step: 1,
                body: vec![Stmt::ArrayAssign(ArrayAssign {
                    target: ArrayRef {
                        array: a,
                        subscripts: vec![Expr::Var(i)],
                    },
                    value: Expr::Const(0),
                })],
            })],
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
    fn display_round_trippable_shape() {
        let p = tiny();
        let text = p.to_string();
        assert!(text.contains("for i = 1 to 10 {"));
        assert!(text.contains("a[i] = 0;"));
    }
}
