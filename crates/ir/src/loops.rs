//! The program's loop table: one row per `for` loop, numbered exactly
//! like access extraction numbers them.
//!
//! [`extract_accesses`](crate::extract_accesses) assigns each loop a
//! pre-order id as it walks the program (including both branches of an
//! `if`), and every [`LoopInfo`](crate::LoopInfo) attached to an access
//! refers to loops by that id. Consumers that need to talk about loops
//! *by id* — the dependence-graph layer, the `parallel` annotator, the
//! auto-parallelizer example — used to re-derive the numbering with
//! their own walks, which silently drifts the moment the extractor
//! changes. [`loop_table`] is the one authoritative walk: it produces
//! the id → metadata mapping (variable, depth, parent, source bounds)
//! and is pinned by a test to agree with extraction.

use std::fmt;

use crate::arena::Expr;
use crate::ast::{Program, Stmt};
use crate::symbol::Sym;

/// Metadata for one `for` loop, keyed by its pre-order id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopMeta {
    /// Pre-order id, identical to [`LoopInfo::id`](crate::LoopInfo).
    pub id: usize,
    /// The induction variable.
    pub var: Sym,
    /// Nesting depth (0 = outermost).
    pub depth: usize,
    /// Id of the directly enclosing loop, if any.
    pub parent: Option<usize>,
    /// Source-level lower bound (pre-lowering, for display), in the
    /// program's arena.
    pub lower: Expr,
    /// Source-level upper bound (pre-lowering, for display), in the
    /// program's arena.
    pub upper: Expr,
}

impl LoopMeta {
    /// Displays the loop header of this loop of `program`.
    #[must_use]
    pub fn display<'a>(&'a self, program: &'a Program) -> LoopHeader<'a> {
        LoopHeader {
            meta: self,
            program,
        }
    }
}

/// A loop header displayed with its program; see [`LoopMeta::display`].
#[derive(Debug, Clone, Copy)]
pub struct LoopHeader<'a> {
    meta: &'a LoopMeta,
    program: &'a Program,
}

impl fmt::Display for LoopHeader<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (l, p) = (self.meta, self.program);
        write!(
            f,
            "for {} = {} to {}",
            p.symbols.name(l.var),
            p.display_expr(l.lower),
            p.display_expr(l.upper)
        )
    }
}

/// All loops of a program, indexable by pre-order id.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LoopTable {
    loops: Vec<LoopMeta>,
}

impl LoopTable {
    /// All loops in id (pre-order) order.
    #[must_use]
    pub fn loops(&self) -> &[LoopMeta] {
        &self.loops
    }

    /// Number of loops in the program.
    #[must_use]
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// Whether the program has no loops.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }

    /// The loop with pre-order id `id`, if it exists.
    #[must_use]
    pub fn get(&self, id: usize) -> Option<&LoopMeta> {
        self.loops.get(id)
    }

    /// Whether `inner` is nested *directly* inside `outer` (its parent).
    #[must_use]
    pub fn directly_nested(&self, outer: usize, inner: usize) -> bool {
        self.get(inner).is_some_and(|l| l.parent == Some(outer))
    }
}

/// Builds the loop table of a program. The walk mirrors
/// [`extract_accesses`](crate::extract_accesses): statements in order,
/// `if` visiting the then-branch before the else-branch, ids assigned
/// pre-order at each `for`.
#[must_use]
pub fn loop_table(program: &Program) -> LoopTable {
    fn go(stmts: &[Stmt], depth: usize, parent: Option<usize>, out: &mut Vec<LoopMeta>) {
        for s in stmts {
            match s {
                Stmt::For(l) => {
                    let id = out.len();
                    out.push(LoopMeta {
                        id,
                        var: l.var,
                        depth,
                        parent,
                        lower: l.lower,
                        upper: l.upper,
                    });
                    go(&l.body, depth.saturating_add(1), Some(id), out);
                }
                Stmt::If(i) => {
                    go(&i.then_body, depth, parent, out);
                    go(&i.else_body, depth, parent, out);
                }
                _ => {}
            }
        }
    }
    let mut loops = Vec::new();
    go(&program.stmts, 0, None, &mut loops);
    LoopTable { loops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::extract_accesses;
    use crate::parser::parse_program;

    #[test]
    fn numbering_matches_access_extraction() {
        // Loops in sequence, under ifs, and nested — every id the
        // extractor hands to an access must resolve to the same
        // variable in the table.
        let src = "for i = 1 to 10 { a[i] = 1; }
                   if (1 < 2) { for j = 1 to 5 { a[j] = 2; } }
                   for k = 1 to 3 { for l = k to 9 { a[k] = a[l]; } }";
        let p = parse_program(src).unwrap();
        let table = loop_table(&p);
        assert_eq!(table.len(), 4);
        let set = extract_accesses(&p);
        for access in &set.accesses {
            for info in access.loops.iter() {
                assert_eq!(table.get(info.id).unwrap().var, info.var, "id {}", info.id);
            }
        }
    }

    #[test]
    fn depth_and_parent_follow_nesting() {
        let p = parse_program(
            "for i = 1 to 9 { for j = 1 to 9 { a[i] = a[j]; } } \
                               for k = 1 to 9 { a[k] = 0; }",
        )
        .unwrap();
        let table = loop_table(&p);
        let meta: Vec<(usize, Option<usize>)> =
            table.loops().iter().map(|l| (l.depth, l.parent)).collect();
        assert_eq!(meta, vec![(0, None), (1, Some(0)), (0, None)]);
        assert!(table.directly_nested(0, 1));
        assert!(!table.directly_nested(0, 2));
        assert!(!table.directly_nested(1, 0));
    }

    #[test]
    fn display_reconstructs_the_header() {
        let p = parse_program("for i = 2 to n { a[i] = 0; }").unwrap();
        let table = loop_table(&p);
        assert_eq!(
            table.get(0).unwrap().display(&p).to_string(),
            "for i = 2 to n"
        );
    }

    #[test]
    fn loopless_program_has_empty_table() {
        let p = parse_program("a[1] = 2;").unwrap();
        assert!(loop_table(&p).is_empty());
        assert_eq!(loop_table(&p).get(0), None);
    }
}
