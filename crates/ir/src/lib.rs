//! Loop-nest intermediate representation for dependence analysis.
//!
//! This crate is the "SUIF front end" substrate of the PLDI 1991
//! reproduction: a small Fortran-like language, its parser, the
//! normalization prepasses the paper assumes (constant propagation,
//! forward substitution, induction-variable substitution, loop
//! normalization), and the extraction of array-reference pairs that the
//! dependence tests consume.
//!
//! # Pipeline
//!
//! 1. [`parse_program`] — text to AST. The lexer interns every
//!    identifier into the program's [`SymbolTable`]; from there on a
//!    name is a dense [`Sym`]. Statements stay a tree of `Vec`s, but
//!    every expression goes into the program's [`ExprArena`]: one flat
//!    array of 16-byte [`Node`]s, each after its operands, so an
//!    [`Expr`] is a `u32` id and parsing one allocates nothing.
//! 2. [`passes::normalize`] — runs the prepasses, in place, until a
//!    round in which no pass reports a change. Folding is a forward
//!    sweep over the arena; substitution appends the expressions it
//!    rewrites, and a normalization that changed anything ends by
//!    compacting the arena back to the reachable nodes. A scalar
//!    definition too large to substitute (past a fixed node budget) is
//!    left as a mutated scalar instead of growing the program without
//!    bound.
//! 3. [`extract_accesses`] — lowers every subscript and bound through
//!    [`AffineExpr`] into the program's [`Rows`]: one flat `i64` table
//!    with a coefficient per enclosing loop level (each loop variable
//!    resolved to its level in scope), the symbolic terms and the
//!    constant. It also identifies the symbolic constants, and numbers
//!    every loop in pre-order into the set's one loop table
//!    ([`AccessSet::loops`]), which each access's enclosing-loop path
//!    ([`AccessSet::loops_of`]) indexes. A subscript or bound whose
//!    lowering overflows `i64` is non-affine, so its pairs are assumed
//!    dependent rather than aborting the analysis.
//! 4. [`reference_pairs`] — enumerates the pairs to test.
//!
//! # Examples
//!
//! The paper's Section 8 example, after normalization:
//!
//! ```
//! use dda_ir::{parse_program, passes, extract_accesses};
//!
//! let mut p = parse_program(
//!     "n = 100;
//!      iz = 0;
//!      for i = 1 to 10 {
//!          iz = iz + 2;
//!          a[iz + n] = a[iz + 2 * n + 1] + 3;
//!      }",
//! )?;
//! passes::normalize(&mut p);
//! let set = extract_accesses(&p);
//! // All subscripts became affine functions of i: 2i + 100 and 2i + 201.
//! assert!(set.accesses.iter().all(|a| a.is_affine()));
//! # Ok::<(), dda_ir::ParseError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod access;
mod arena;
mod ast;
mod expr;
pub mod interp;
mod lexer;
mod parser;
pub mod passes;
mod symbol;

pub use access::{
    extract_accesses, reference_pairs, Access, AccessDisplay, AccessSet, Loop, LoopPath, RefPair,
    Row, RowId, RowRange, Rows,
};
pub use arena::{ArrayRef, Expr, ExprArena, Node};
pub use ast::{ArrayAssign, ForLoop, IfStmt, Program, RelOp, ScalarAssign, Stmt};
pub use expr::{AffineExpr, Shown};
pub use lexer::{tokenize, SpannedToken, Token};
pub use parser::{parse_expr, parse_program, ParseError, Span};
pub use symbol::{Named, Sym, SymbolTable};
