//! The expression arena: every expression node of a program in one flat
//! array.
//!
//! A [`Program`](crate::Program) owns one [`ExprArena`]. An [`Expr`] is
//! the `u32` id of its root node there, and a [`Node`] names its
//! operands by id, so an expression costs no allocation of its own: the
//! parser pushes nodes into one `Vec` and the subscript lists of array
//! references into a second one.
//!
//! **Post-order.** A node's operands always have smaller ids than the
//! node. The parser pushes children before parents, and every rewrite
//! keeps it so: constant folding overwrites a node with a constant or
//! with a copy of one of its operands (whose own operands are smaller
//! still), and substitution appends a fresh copy of the expression it
//! rewrites. So one forward sweep over the array visits every operand
//! before its user, which is how [`ExprArena::fold_all`] folds a whole
//! program without recursion.
//!
//! **Garbage and compaction.** A rewritten expression's old nodes stay
//! in the array, unreachable. [`Program::compact`](crate::Program::compact)
//! copies the reachable nodes into a fresh arena in statement order,
//! which is the order the parser produces, and drops the rest;
//! [`crate::passes::normalize`] calls it once, when a pass changed
//! something.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::ops::Range;

use crate::symbol::Sym;

/// An expression: the id of its root node in its program's
/// [`ExprArena`].
///
/// Ids are meaningful only within one arena, and equal ids mean the
/// same node, not merely the same shape; [`Program`](crate::Program)'s
/// equality compares shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Expr(u32);

impl Expr {
    /// The position of this node in its arena.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The id of position `index` of an arena, or `None` when it does not
/// fit in `u32`. Every id is made here: never by an `as` cast, which
/// would wrap around to an existing node.
pub(crate) fn checked_id(index: usize) -> Option<u32> {
    u32::try_from(index).ok()
}

/// A multi-dimensional array reference, e.g. `a[i + 1][j]`: the array
/// and a range of its arena's subscript list (read it with
/// [`ExprArena::subscripts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayRef {
    /// The array.
    pub array: Sym,
    start: u32,
    len: u32,
}

impl ArrayRef {
    /// Number of subscripts (dimensions).
    #[must_use]
    pub fn rank(&self) -> usize {
        self.len as usize
    }

    /// The positions of the subscripts in the arena's subscript list.
    pub(crate) fn positions(&self) -> Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

/// One expression node. Operands are ids of the same arena, always
/// smaller than the node's own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Node {
    /// An integer literal.
    Const(i64),
    /// A scalar variable: loop index, symbolic constant, or program scalar.
    Var(Sym),
    /// A read of an array element.
    Read(ArrayRef),
    /// Unary negation.
    Neg(Expr),
    /// Addition.
    Add(Expr, Expr),
    /// Subtraction.
    Sub(Expr, Expr),
    /// Multiplication.
    Mul(Expr, Expr),
}

// A node is a tag and at most 12 bytes of payload.
const _: () = assert!(std::mem::size_of::<Node>() <= 16);

/// What folding one node with folded operands gives.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Folded {
    /// A constant.
    Const(i64),
    /// One of the node's operands (or an operand's operand, for `--x`).
    Operand(Expr),
}

/// The lookup that replaces nothing: [`ExprArena::emit`] copies.
pub(crate) fn no_lookup(_: Sym) -> Option<Expr> {
    None
}

/// Where an arena ended, for [`ExprArena::truncate`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mark {
    nodes: usize,
    subs: usize,
}

/// The expression nodes of one program, in post-order, and the
/// subscript lists of its array references.
///
/// `Clone` copies the two arrays; `Debug` prints them raw.
#[derive(Debug, Clone, Default)]
pub struct ExprArena {
    nodes: Vec<Node>,
    subs: Vec<Expr>,
}

impl ExprArena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> ExprArena {
        ExprArena::default()
    }

    /// Number of nodes, reachable or not.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena holds no node.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` came from another arena and is out of range here.
    #[must_use]
    pub fn node(&self, e: Expr) -> Node {
        self.nodes[e.index()]
    }

    /// Every node, reachable or not, in id order.
    #[cfg(test)]
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The subscripts of `r`, outermost dimension first.
    ///
    /// # Panics
    ///
    /// Panics if `r` came from another arena and is out of range here.
    #[must_use]
    pub fn subscripts(&self, r: &ArrayRef) -> &[Expr] {
        &self.subs[r.positions()]
    }

    /// Appends `node`, whose operands must be ids of this arena, or
    /// gives `None` when the arena already holds 2^32 nodes.
    pub(crate) fn try_push(&mut self, node: Node) -> Option<Expr> {
        let id = Expr(checked_id(self.nodes.len())?);
        self.nodes.push(node);
        Some(id)
    }

    /// Appends `node`.
    ///
    /// # Panics
    ///
    /// Panics past 2^32 nodes. The parser refuses such a source with a
    /// located error; the passes would need 64 GiB of nodes to get there.
    #[allow(clippy::expect_used)] // 2^32 nodes of 16 bytes: memory runs out first
    pub(crate) fn push(&mut self, node: Node) -> Expr {
        self.try_push(node)
            .expect("fewer than 2^32 expression nodes")
    }

    /// Appends the subscript list `subs` and gives the reference
    /// `array[subs…]` through it, or `None` when the list is full.
    pub(crate) fn try_target(&mut self, array: Sym, subs: &[Expr]) -> Option<ArrayRef> {
        let r = ArrayRef {
            array,
            start: checked_id(self.subs.len())?,
            len: checked_id(subs.len())?,
        };
        checked_id(self.subs.len() + subs.len())?;
        self.subs.extend_from_slice(subs);
        Some(r)
    }

    /// Appends the constant `c`.
    pub(crate) fn constant(&mut self, c: i64) -> Expr {
        self.push(Node::Const(c))
    }

    /// Appends the scalar `v`.
    pub(crate) fn var(&mut self, v: Sym) -> Expr {
        self.push(Node::Var(v))
    }

    /// Appends `a + b`.
    pub(crate) fn add(&mut self, a: Expr, b: Expr) -> Expr {
        self.push(Node::Add(a, b))
    }

    /// Appends `a - b`.
    pub(crate) fn sub(&mut self, a: Expr, b: Expr) -> Expr {
        self.push(Node::Sub(a, b))
    }

    /// Appends `a * b`.
    pub(crate) fn mul(&mut self, a: Expr, b: Expr) -> Expr {
        self.push(Node::Mul(a, b))
    }

    /// The subscript at position `k` of the subscript list.
    pub(crate) fn sub_at(&self, k: usize) -> Expr {
        self.subs[k]
    }

    /// Points position `k` of the subscript list at `e`.
    pub(crate) fn set_sub(&mut self, k: usize, e: Expr) {
        self.subs[k] = e;
    }

    pub(crate) fn mark(&self) -> Mark {
        Mark {
            nodes: self.nodes.len(),
            subs: self.subs.len(),
        }
    }

    /// Drops everything appended since `mark`.
    pub(crate) fn truncate(&mut self, mark: Mark) {
        self.nodes.truncate(mark.nodes);
        self.subs.truncate(mark.subs);
    }

    /// Whether `a` here and `b` in `other` have the same shape: the same
    /// nodes, constants, symbols and subscripts, wherever they sit.
    #[must_use]
    pub(crate) fn same(&self, a: Expr, other: &ExprArena, b: Expr) -> bool {
        match (self.node(a), other.node(b)) {
            (Node::Const(x), Node::Const(y)) => x == y,
            (Node::Var(x), Node::Var(y)) => x == y,
            (Node::Read(x), Node::Read(y)) => self.same_ref(&x, other, &y),
            (Node::Neg(x), Node::Neg(y)) => self.same(x, other, y),
            (Node::Add(x1, x2), Node::Add(y1, y2))
            | (Node::Sub(x1, x2), Node::Sub(y1, y2))
            | (Node::Mul(x1, x2), Node::Mul(y1, y2)) => {
                self.same(x1, other, y1) && self.same(x2, other, y2)
            }
            _ => false,
        }
    }

    /// Whether `a` here and `b` in `other` name the same array through
    /// subscripts of the same shape.
    #[must_use]
    pub(crate) fn same_ref(&self, a: &ArrayRef, other: &ExprArena, b: &ArrayRef) -> bool {
        a.array == b.array
            && a.len == b.len
            && self
                .subscripts(a)
                .iter()
                .zip(other.subscripts(b))
                .all(|(&x, &y)| self.same(x, other, y))
    }

    /// Calls `f` on the nodes of `e` in pre-order, left to right, a
    /// read before its subscripts, until `f` gives `false`. Returns
    /// whether every call gave `true`.
    fn visit(&self, e: Expr, f: &mut impl FnMut(Node) -> bool) -> bool {
        let node = self.node(e);
        f(node)
            && match node {
                Node::Const(_) | Node::Var(_) => true,
                Node::Read(r) => self.subscripts(&r).iter().all(|&s| self.visit(s, f)),
                Node::Neg(x) => self.visit(x, f),
                Node::Add(a, b) | Node::Sub(a, b) | Node::Mul(a, b) => {
                    self.visit(a, f) && self.visit(b, f)
                }
            }
    }

    /// Calls `f` on every scalar variable `e` mentions (not array
    /// names), left to right, repeats included.
    pub(crate) fn for_each_var(&self, e: Expr, f: &mut impl FnMut(Sym)) {
        self.visit(e, &mut |n| {
            if let Node::Var(v) = n {
                f(v);
            }
            true
        });
    }

    /// Whether `e` mentions a scalar `v` with `pred(v)`.
    pub(crate) fn any_var(&self, e: Expr, pred: &impl Fn(Sym) -> bool) -> bool {
        !self.visit(e, &mut |n| !matches!(n, Node::Var(v) if pred(v)))
    }

    /// Whether `e` reads no array.
    #[must_use]
    pub(crate) fn is_pure(&self, e: Expr) -> bool {
        self.visit(e, &mut |n| !matches!(n, Node::Read(_)))
    }

    /// Whether `e` has more than `nodes` nodes (counting stops there).
    #[must_use]
    pub(crate) fn larger_than(&self, e: Expr, nodes: usize) -> bool {
        let mut budget = nodes;
        !self.visit(e, &mut |_| {
            let left = budget > 0;
            budget = budget.saturating_sub(1);
            left
        })
    }

    /// Calls `f` on every array reference read inside `e`, each before
    /// the reads nested in its subscripts (pre-order, left to right).
    pub(crate) fn for_each_read(&self, e: Expr, f: &mut impl FnMut(&ArrayRef)) {
        self.visit(e, &mut |n| {
            if let Node::Read(r) = n {
                f(&r);
            }
            true
        });
    }

    /// The folding rule for a node whose operands are folded:
    /// `Const ⊕ Const` collapses, and additive and multiplicative
    /// identities simplify (`x + 0`, `x * 1`, `x * 0`, `--x`). A fold
    /// that would overflow is not made.
    pub(crate) fn fold_rule(&self, node: Node) -> Option<Folded> {
        let c = |e: Expr| match self.node(e) {
            Node::Const(c) => Some(c),
            _ => None,
        };
        match node {
            Node::Const(_) | Node::Var(_) | Node::Read(_) => None,
            Node::Neg(x) => match self.node(x) {
                Node::Const(v) => v.checked_neg().map(Folded::Const),
                Node::Neg(inner) => Some(Folded::Operand(inner)),
                _ => None,
            },
            Node::Add(a, b) => match (c(a), c(b)) {
                (Some(x), Some(y)) => x.checked_add(y).map(Folded::Const),
                (Some(0), None) => Some(Folded::Operand(b)),
                (None, Some(0)) => Some(Folded::Operand(a)),
                _ => None,
            },
            Node::Sub(a, b) => match (c(a), c(b)) {
                (Some(x), Some(y)) => x.checked_sub(y).map(Folded::Const),
                (None, Some(0)) => Some(Folded::Operand(a)),
                _ => None,
            },
            Node::Mul(a, b) => match (c(a), c(b)) {
                (Some(x), Some(y)) => x.checked_mul(y).map(Folded::Const),
                (Some(0), _) | (_, Some(0)) => Some(Folded::Const(0)),
                (Some(1), None) => Some(Folded::Operand(b)),
                (None, Some(1)) => Some(Folded::Operand(a)),
                _ => None,
            },
        }
    }

    /// Constant-folds every node in place, in one forward sweep: each
    /// node's operands are folded before it is visited. Returns whether
    /// any node changed. Unreachable nodes are folded too; they were
    /// folded by the sweep before they became unreachable, unless a pass
    /// since then rewrote a fresh copy, which is a change anyway.
    pub(crate) fn fold_all(&mut self) -> bool {
        let mut changed = false;
        for k in 0..self.nodes.len() {
            let node = self.nodes[k];
            if let Node::Const(_) | Node::Var(_) | Node::Read(_) = node {
                continue;
            }
            if let Some(f) = self.fold_rule(node) {
                self.nodes[k] = match f {
                    Folded::Const(c) => Node::Const(c),
                    Folded::Operand(x) => self.nodes[x.index()],
                };
                changed = true;
            }
        }
        changed
    }

    /// Appends `node`, whose operands are folded, folded in turn: a
    /// constant, one of its operands (appending nothing), or the node
    /// itself. Sets `changed` when a rule applied.
    pub(crate) fn push_folded(&mut self, node: Node, changed: &mut bool) -> Expr {
        match self.fold_rule(node) {
            None => self.push(node),
            Some(f) => {
                *changed = true;
                match f {
                    Folded::Const(c) => self.constant(c),
                    Folded::Operand(x) => x,
                }
            }
        }
    }

    /// Appends a copy of `e` with every scalar `v` for which `lookup(v)`
    /// gives an expression replaced by a copy of that expression (the
    /// replacements are not themselves looked up, so several names
    /// substitute simultaneously), folded as it goes when `fold` is set.
    /// Sets `changed` when a name was replaced or a rule applied.
    pub(crate) fn emit(
        &mut self,
        e: Expr,
        lookup: &impl Fn(Sym) -> Option<Expr>,
        fold: bool,
        changed: &mut bool,
    ) -> Expr {
        let node = match self.node(e) {
            Node::Var(v) => match lookup(v) {
                Some(replacement) => {
                    *changed = true;
                    return self.emit(replacement, &no_lookup, fold, changed);
                }
                None => Node::Var(v),
            },
            n @ Node::Const(_) => n,
            Node::Read(r) => {
                // Reserve the list first: reads nested in the subscripts
                // append lists of their own.
                let start = self.subs.len();
                for k in r.positions() {
                    let s = self.subs[k];
                    self.subs.push(s);
                }
                for k in start..start + r.rank() {
                    let s = self.subs[k];
                    self.subs[k] = self.emit(s, lookup, fold, changed);
                }
                Node::Read(ArrayRef {
                    array: r.array,
                    start: self.id_of_sub(start),
                    len: r.len,
                })
            }
            Node::Neg(x) => Node::Neg(self.emit(x, lookup, fold, changed)),
            Node::Add(a, b) => {
                let a = self.emit(a, lookup, fold, changed);
                Node::Add(a, self.emit(b, lookup, fold, changed))
            }
            Node::Sub(a, b) => {
                let a = self.emit(a, lookup, fold, changed);
                Node::Sub(a, self.emit(b, lookup, fold, changed))
            }
            Node::Mul(a, b) => {
                let a = self.emit(a, lookup, fold, changed);
                Node::Mul(a, self.emit(b, lookup, fold, changed))
            }
        };
        if fold {
            self.push_folded(node, changed)
        } else {
            self.push(node)
        }
    }

    /// Appends a copy of `e` from `from`, in post-order.
    pub(crate) fn copy_from(&mut self, from: &ExprArena, e: Expr) -> Expr {
        let node = match from.node(e) {
            n @ (Node::Const(_) | Node::Var(_)) => n,
            Node::Read(r) => Node::Read(self.copy_ref_from(from, &r)),
            Node::Neg(x) => Node::Neg(self.copy_from(from, x)),
            Node::Add(a, b) => {
                let a = self.copy_from(from, a);
                Node::Add(a, self.copy_from(from, b))
            }
            Node::Sub(a, b) => {
                let a = self.copy_from(from, a);
                Node::Sub(a, self.copy_from(from, b))
            }
            Node::Mul(a, b) => {
                let a = self.copy_from(from, a);
                Node::Mul(a, self.copy_from(from, b))
            }
        };
        self.push(node)
    }

    /// Appends a copy of the subscripts of `r` from `from` (and the
    /// nodes they reach) and gives the copied reference.
    pub(crate) fn copy_ref_from(&mut self, from: &ExprArena, r: &ArrayRef) -> ArrayRef {
        let start = self.subs.len();
        self.subs.resize(start + r.rank(), Expr(0));
        for (k, &s) in from.subscripts(r).iter().enumerate() {
            let s = self.copy_from(from, s);
            self.subs[start + k] = s;
        }
        ArrayRef {
            array: r.array,
            start: self.id_of_sub(start),
            len: r.len,
        }
    }

    /// The `u32` form of a position in the subscript list.
    #[allow(clippy::expect_used)] // 2^32 entries of 4 bytes: memory runs out first
    fn id_of_sub(&self, k: usize) -> u32 {
        checked_id(k).expect("fewer than 2^32 subscripts")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_checked_at_the_u32_boundary() {
        assert_eq!(checked_id(0), Some(0));
        assert_eq!(checked_id(u32::MAX as usize), Some(u32::MAX));
        assert_eq!(checked_id(u32::MAX as usize + 1), None);
        assert_eq!(checked_id(usize::MAX), None);
    }

    #[test]
    fn nodes_are_at_most_sixteen_bytes() {
        assert!(std::mem::size_of::<Node>() <= 16);
        assert_eq!(std::mem::size_of::<Expr>(), 4);
    }

    #[test]
    fn operands_precede_their_users() {
        let mut t = ExprArena::new();
        let (one, two) = (t.constant(1), t.constant(2));
        let sum = t.add(one, two);
        let r = t.try_target(Sym::default(), &[sum, one]).unwrap();
        let read = t.push(Node::Read(r));
        assert!(one < sum && two < sum && sum < read);
        let Node::Read(r) = t.node(read) else {
            panic!("not a read")
        };
        assert_eq!(t.subscripts(&r), &[sum, one]);
    }

    #[test]
    fn sweep_folds_bottom_up_in_place() {
        let mut t = ExprArena::new();
        let v = t.var(Sym::default());
        let zero = t.constant(0);
        let inner = t.add(zero, v); // 0 + v  =>  v
        let one = t.constant(1);
        let root = t.mul(inner, one); // v * 1  =>  v
        assert!(t.fold_all());
        assert_eq!(t.node(root), Node::Var(Sym::default()));
        assert!(!t.fold_all(), "a folded arena is a fixpoint");
    }

    #[test]
    fn overflowing_folds_are_left_alone() {
        let mut t = ExprArena::new();
        let (max, one) = (t.constant(i64::MAX), t.constant(1));
        let sum = t.add(max, one);
        assert!(!t.fold_all());
        assert_eq!(t.node(sum), Node::Add(max, one));
    }

    #[test]
    fn shapes_compare_across_layouts() {
        let mut a = ExprArena::new();
        let x = a.constant(3);
        let y = a.var(Sym::default());
        let ea = a.sub(x, y);
        let mut b = ExprArena::new();
        let pad = b.constant(9);
        let y2 = b.var(Sym::default());
        let x2 = b.constant(3);
        let eb = b.sub(x2, y2);
        assert!(a.same(ea, &b, eb));
        assert!(!a.same(ea, &b, pad));
        let copied = b.copy_from(&a, ea);
        assert!(a.same(ea, &b, copied));
    }
}
