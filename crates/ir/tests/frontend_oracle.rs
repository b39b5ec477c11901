//! Differential oracle for the IR front end.
//!
//! [`old`] below is the front end as it stood before its passes were
//! made change-tracked and in place: `passes::normalize` with its four
//! passes and the `fold`/`subst_scalar`/`rewrite_exprs` helpers,
//! `extract_accesses` with its lowering `AffineExpr::from_expr`, and
//! `reference_pairs`, copied verbatim apart from import paths and a
//! plain `Vec<LoopInfo>` per access. The lowering is the old panicking
//! one, so the generators here only produce inputs that stay far from
//! `i64` overflow.
//!
//! The oracle runs on its own string-keyed copy of the IR types
//! ([`model`]): identifiers are `String`s and affine forms are
//! `BTreeMap<String, i64>`. [`resolve`] is the name-resolving adapter
//! that turns the current front end's output into that form, so the
//! oracle does not depend on how the front end represents names.
//!
//! The current front end must agree with it bit for bit: the normalized
//! `Program`, every field of every access, the symbolic set, and the
//! `(a.id, b.id, common)` pair list with and without read–read pairs —
//! on random wide programs (`common::arb_wide_program`), on the narrow
//! property-test programs, on the full-scale synthetic PERFECT suite and
//! on every checked-in `.loop` file.

use std::path::Path;

use dda_ir::{extract_accesses, parse_program, passes, reference_pairs, Program};
use proptest::prelude::*;

mod common;
use common::{arb_program, arb_wide_program};

/// The IR as the oracle sees it: every identifier a `String`.
#[allow(dead_code)]
mod model {
    use std::collections::BTreeMap;

    pub use dda_ir::RelOp;

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ArrayRef {
        pub array: String,
        pub subscripts: Vec<Expr>,
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Expr {
        Const(i64),
        Var(String),
        ArrayRead(ArrayRef),
        Neg(Box<Expr>),
        Add(Box<Expr>, Box<Expr>),
        Sub(Box<Expr>, Box<Expr>),
        Mul(Box<Expr>, Box<Expr>),
    }

    impl Expr {
        pub fn var(name: &str) -> Expr {
            Expr::Var(name.to_owned())
        }

        /// Array references read inside this expression, pre-order.
        pub fn array_reads(&self) -> Vec<&ArrayRef> {
            fn visit<'a>(e: &'a Expr, out: &mut Vec<&'a ArrayRef>) {
                match e {
                    Expr::Const(_) | Expr::Var(_) => {}
                    Expr::ArrayRead(r) => {
                        out.push(r);
                        for s in &r.subscripts {
                            visit(s, out);
                        }
                    }
                    Expr::Neg(x) => visit(x, out),
                    Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                        visit(a, out);
                        visit(b, out);
                    }
                }
            }
            let mut out = Vec::new();
            visit(self, &mut out);
            out
        }

        /// Scalar variables mentioned, in order, with repeats.
        pub fn scalar_vars(&self) -> Vec<&str> {
            fn visit<'a>(e: &'a Expr, out: &mut Vec<&'a str>) {
                match e {
                    Expr::Const(_) => {}
                    Expr::Var(v) => out.push(v),
                    Expr::ArrayRead(r) => {
                        for s in &r.subscripts {
                            visit(s, out);
                        }
                    }
                    Expr::Neg(x) => visit(x, out),
                    Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                        visit(a, out);
                        visit(b, out);
                    }
                }
            }
            let mut out = Vec::new();
            visit(self, &mut out);
            out
        }
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Stmt {
        For(ForLoop),
        ArrayAssign(ArrayAssign),
        ScalarAssign(ScalarAssign),
        Read(String),
        If(IfStmt),
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ForLoop {
        pub var: String,
        pub lower: Expr,
        pub upper: Expr,
        pub step: i64,
        pub body: Vec<Stmt>,
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ArrayAssign {
        pub target: ArrayRef,
        pub value: Expr,
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ScalarAssign {
        pub name: String,
        pub value: Expr,
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct IfStmt {
        pub lhs: Expr,
        pub op: RelOp,
        pub rhs: Expr,
        pub then_body: Vec<Stmt>,
        pub else_body: Vec<Stmt>,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct Program {
        pub stmts: Vec<Stmt>,
    }

    /// `c₀ + Σ cᵥ · v` keyed by name, zero terms never stored.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct AffineExpr {
        terms: BTreeMap<String, i64>,
        constant: i64,
    }

    impl AffineExpr {
        pub fn zero() -> AffineExpr {
            AffineExpr::default()
        }

        pub fn constant(c: i64) -> AffineExpr {
            AffineExpr {
                terms: BTreeMap::new(),
                constant: c,
            }
        }

        pub fn term(var: &str, coeff: i64) -> AffineExpr {
            let mut e = AffineExpr::zero();
            e.set_coeff(var, coeff);
            e
        }

        pub fn var(name: &str) -> AffineExpr {
            AffineExpr::term(name, 1)
        }

        pub fn coeff(&self, var: &str) -> i64 {
            self.terms.get(var).copied().unwrap_or(0)
        }

        pub fn set_coeff(&mut self, var: &str, coeff: i64) {
            if coeff == 0 {
                self.terms.remove(var);
            } else {
                self.terms.insert(var.to_owned(), coeff);
            }
        }

        pub fn constant_part(&self) -> i64 {
            self.constant
        }

        pub fn is_constant(&self) -> bool {
            self.terms.is_empty()
        }

        pub fn vars(&self) -> impl Iterator<Item = &str> {
            self.terms.keys().map(String::as_str)
        }

        pub fn iter_terms(&self) -> impl Iterator<Item = (&str, i64)> {
            self.terms.iter().map(|(k, &v)| (k.as_str(), v))
        }

        pub fn add(&self, rhs: &AffineExpr) -> AffineExpr {
            let mut out = self.clone();
            for (v, c) in rhs.iter_terms() {
                let nc = out
                    .coeff(v)
                    .checked_add(c)
                    .expect("affine coefficient overflow");
                out.set_coeff(v, nc);
            }
            out.constant = out
                .constant
                .checked_add(rhs.constant)
                .expect("affine constant overflow");
            out
        }

        pub fn sub(&self, rhs: &AffineExpr) -> AffineExpr {
            self.add(&rhs.scale(-1))
        }

        pub fn scale(&self, k: i64) -> AffineExpr {
            let mut out = AffineExpr::zero();
            for (v, c) in self.iter_terms() {
                out.set_coeff(v, c.checked_mul(k).expect("affine coefficient overflow"));
            }
            out.constant = self
                .constant
                .checked_mul(k)
                .expect("affine constant overflow");
            out
        }
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Bound {
        Affine(AffineExpr),
        NonAffine,
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Subscript {
        Affine(AffineExpr),
        NonAffine,
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct LoopInfo {
        pub id: usize,
        pub var: String,
        pub lower: Bound,
        pub upper: Bound,
    }
}

/// The name-resolving adapter: the current front end's output in the
/// oracle's string-keyed form.
mod resolve {
    use std::collections::BTreeSet;

    use dda_ir::{ExprArena, Node, SymbolTable};

    use crate::model;

    /// A program's names and expressions, which its statements refer to.
    struct Ctx<'a> {
        t: &'a SymbolTable,
        x: &'a ExprArena,
    }

    pub fn program(p: &dda_ir::Program) -> model::Program {
        let c = Ctx {
            t: &p.symbols,
            x: &p.exprs,
        };
        model::Program {
            stmts: stmts(&c, &p.stmts),
        }
    }

    fn stmts(c: &Ctx, stmts: &[dda_ir::Stmt]) -> Vec<model::Stmt> {
        stmts.iter().map(|s| stmt(c, s)).collect()
    }

    fn name(t: &SymbolTable, s: dda_ir::Sym) -> String {
        t.name(s).to_owned()
    }

    fn stmt(c: &Ctx, s: &dda_ir::Stmt) -> model::Stmt {
        let t = c.t;
        match s {
            dda_ir::Stmt::For(l) => model::Stmt::For(model::ForLoop {
                var: name(t, l.var),
                lower: expr(c, l.lower),
                upper: expr(c, l.upper),
                step: l.step,
                body: stmts(c, &l.body),
            }),
            dda_ir::Stmt::ArrayAssign(a) => model::Stmt::ArrayAssign(model::ArrayAssign {
                target: array_ref(c, &a.target),
                value: expr(c, a.value),
            }),
            dda_ir::Stmt::ScalarAssign(a) => model::Stmt::ScalarAssign(model::ScalarAssign {
                name: name(t, a.name),
                value: expr(c, a.value),
            }),
            dda_ir::Stmt::Read(n) => model::Stmt::Read(name(t, *n)),
            dda_ir::Stmt::If(i) => model::Stmt::If(model::IfStmt {
                lhs: expr(c, i.lhs),
                op: i.op,
                rhs: expr(c, i.rhs),
                then_body: stmts(c, &i.then_body),
                else_body: stmts(c, &i.else_body),
            }),
        }
    }

    fn array_ref(c: &Ctx, r: &dda_ir::ArrayRef) -> model::ArrayRef {
        model::ArrayRef {
            array: name(c.t, r.array),
            subscripts: c.x.subscripts(r).iter().map(|&e| expr(c, e)).collect(),
        }
    }

    fn expr(c: &Ctx, e: dda_ir::Expr) -> model::Expr {
        let b = |x: dda_ir::Expr| Box::new(expr(c, x));
        match c.x.node(e) {
            Node::Const(v) => model::Expr::Const(v),
            Node::Var(v) => model::Expr::Var(name(c.t, v)),
            Node::Read(r) => model::Expr::ArrayRead(array_ref(c, &r)),
            Node::Neg(x) => model::Expr::Neg(b(x)),
            Node::Add(x, y) => model::Expr::Add(b(x), b(y)),
            Node::Sub(x, y) => model::Expr::Sub(b(x), b(y)),
            Node::Mul(x, y) => model::Expr::Mul(b(x), b(y)),
        }
    }

    fn affine(t: &SymbolTable, e: &dda_ir::AffineExpr) -> model::AffineExpr {
        let mut out = model::AffineExpr::constant(e.constant_part());
        for (v, c) in e.iter_terms() {
            out.set_coeff(t.name(v), c);
        }
        out
    }

    /// Row `id` of access `a`, in the oracle's form: each level's term
    /// named after its loop variable.
    fn row(
        set: &dda_ir::AccessSet,
        a: &dda_ir::Access,
        id: dda_ir::RowId,
    ) -> Option<model::AffineExpr> {
        set.affine(a, id).map(|e| affine(&set.symbols, &e))
    }

    /// One access of `set`, in the oracle's form.
    pub fn access(set: &dda_ir::AccessSet, a: &dda_ir::Access) -> super::old::Access {
        let t = &set.symbols;
        super::old::Access {
            id: a.id,
            array: name(t, a.array),
            subscripts: a
                .subscripts
                .iter()
                .map(|id| match row(set, a, id) {
                    Some(e) => model::Subscript::Affine(e),
                    None => model::Subscript::NonAffine,
                })
                .collect(),
            loops: set
                .loops_of(a)
                .iter()
                .map(|&id| {
                    let l = &set.loops[id];
                    let bound = |id| match row(set, a, id) {
                        Some(e) => model::Bound::Affine(e),
                        None => model::Bound::NonAffine,
                    };
                    model::LoopInfo {
                        id,
                        var: name(t, l.var),
                        lower: bound(l.lower),
                        upper: bound(l.upper),
                    }
                })
                .collect(),
            is_write: a.is_write,
            stmt_index: a.stmt_index,
            conditional: a.conditional,
        }
    }

    /// The symbolic constants of `set`, by name.
    pub fn symbolics(set: &dda_ir::AccessSet) -> BTreeSet<String> {
        set.symbolics
            .iter()
            .map(|&s| name(&set.symbols, s))
            .collect()
    }
}

#[allow(clippy::all, dead_code)]
mod old {
    use std::collections::{BTreeMap, BTreeSet};

    use crate::model::{AffineExpr, ArrayRef, Bound, Expr, LoopInfo, Program, Stmt, Subscript};

    pub use passes::normalize;

    mod passes {
        pub use super::forward_subst::forward_substitute;
        pub use super::induction::substitute_induction_variables;
        pub use super::loop_normalize::normalize_loops;
        pub use super::rewrite::fold_program;
        use crate::model::Program;

        pub fn normalize(program: &mut Program) {
            for _ in 0..10 {
                let before = program.clone();
                fold_program(program);
                forward_substitute(program);
                // Steps must be 1 before induction-variable substitution (its
                // closed form counts one increment per iteration).
                normalize_loops(program);
                substitute_induction_variables(program);
                fold_program(program);
                if *program == before {
                    break;
                }
            }
        }
    }

    mod rewrite {
        use crate::model::{ArrayRef, Expr, Program, Stmt};

        /// Replaces every occurrence of scalar `name` in `e` with `replacement`.
        #[must_use]
        pub fn subst_scalar(e: &Expr, name: &str, replacement: &Expr) -> Expr {
            match e {
                Expr::Const(_) => e.clone(),
                Expr::Var(v) => {
                    if v == name {
                        replacement.clone()
                    } else {
                        e.clone()
                    }
                }
                Expr::ArrayRead(r) => Expr::ArrayRead(ArrayRef {
                    array: r.array.clone(),
                    subscripts: r
                        .subscripts
                        .iter()
                        .map(|s| subst_scalar(s, name, replacement))
                        .collect(),
                }),
                Expr::Neg(x) => Expr::Neg(Box::new(subst_scalar(x, name, replacement))),
                Expr::Add(a, b) => Expr::Add(
                    Box::new(subst_scalar(a, name, replacement)),
                    Box::new(subst_scalar(b, name, replacement)),
                ),
                Expr::Sub(a, b) => Expr::Sub(
                    Box::new(subst_scalar(a, name, replacement)),
                    Box::new(subst_scalar(b, name, replacement)),
                ),
                Expr::Mul(a, b) => Expr::Mul(
                    Box::new(subst_scalar(a, name, replacement)),
                    Box::new(subst_scalar(b, name, replacement)),
                ),
            }
        }

        /// Constant-folds an expression: `Const ⊕ Const` collapses, and additive /
        /// multiplicative identities simplify (`x + 0`, `x * 1`, `x * 0`, `--x`).
        ///
        /// Folding uses checked arithmetic; an overflowing fold is left unfolded.
        #[must_use]
        pub fn fold(e: &Expr) -> Expr {
            match e {
                Expr::Const(_) | Expr::Var(_) => e.clone(),
                Expr::ArrayRead(r) => Expr::ArrayRead(ArrayRef {
                    array: r.array.clone(),
                    subscripts: r.subscripts.iter().map(fold).collect(),
                }),
                Expr::Neg(x) => match fold(x) {
                    Expr::Const(c) => c
                        .checked_neg()
                        .map_or_else(|| Expr::Neg(Box::new(Expr::Const(c))), Expr::Const),
                    Expr::Neg(inner) => *inner,
                    other => Expr::Neg(Box::new(other)),
                },
                Expr::Add(a, b) => {
                    let (fa, fb) = (fold(a), fold(b));
                    match (&fa, &fb) {
                        (Expr::Const(x), Expr::Const(y)) => x.checked_add(*y).map_or_else(
                            || Expr::Add(Box::new(fa.clone()), Box::new(fb.clone())),
                            Expr::Const,
                        ),
                        (Expr::Const(0), _) => fb,
                        (_, Expr::Const(0)) => fa,
                        _ => Expr::Add(Box::new(fa), Box::new(fb)),
                    }
                }
                Expr::Sub(a, b) => {
                    let (fa, fb) = (fold(a), fold(b));
                    match (&fa, &fb) {
                        (Expr::Const(x), Expr::Const(y)) => x.checked_sub(*y).map_or_else(
                            || Expr::Sub(Box::new(fa.clone()), Box::new(fb.clone())),
                            Expr::Const,
                        ),
                        (_, Expr::Const(0)) => fa,
                        _ => Expr::Sub(Box::new(fa), Box::new(fb)),
                    }
                }
                Expr::Mul(a, b) => {
                    let (fa, fb) = (fold(a), fold(b));
                    match (&fa, &fb) {
                        (Expr::Const(x), Expr::Const(y)) => x.checked_mul(*y).map_or_else(
                            || Expr::Mul(Box::new(fa.clone()), Box::new(fb.clone())),
                            Expr::Const,
                        ),
                        (Expr::Const(0), _) | (_, Expr::Const(0)) => Expr::Const(0),
                        (Expr::Const(1), _) => fb,
                        (_, Expr::Const(1)) => fa,
                        _ => Expr::Mul(Box::new(fa), Box::new(fb)),
                    }
                }
            }
        }

        /// Applies `f` to every expression in the program (subscripts, right-hand
        /// sides, loop bounds), in place.
        pub fn rewrite_exprs(stmts: &mut [Stmt], f: &mut dyn FnMut(&Expr) -> Expr) {
            for s in stmts {
                match s {
                    Stmt::For(l) => {
                        l.lower = f(&l.lower);
                        l.upper = f(&l.upper);
                        rewrite_exprs(&mut l.body, f);
                    }
                    Stmt::ArrayAssign(a) => {
                        for sub in &mut a.target.subscripts {
                            *sub = f(sub);
                        }
                        a.value = f(&a.value);
                    }
                    Stmt::ScalarAssign(a) => {
                        a.value = f(&a.value);
                    }
                    Stmt::If(i) => {
                        i.lhs = f(&i.lhs);
                        i.rhs = f(&i.rhs);
                        rewrite_exprs(&mut i.then_body, f);
                        rewrite_exprs(&mut i.else_body, f);
                    }
                    Stmt::Read(_) => {}
                }
            }
        }

        /// Constant-folds every expression in the program, in place.
        pub fn fold_program(program: &mut Program) {
            rewrite_exprs(&mut program.stmts, &mut fold);
        }
    }

    mod forward_subst {
        use std::collections::{BTreeMap, BTreeSet};

        use super::rewrite::subst_scalar;
        use crate::model::{Expr, Program, Stmt};

        fn is_pure(e: &Expr) -> bool {
            match e {
                Expr::Const(_) | Expr::Var(_) => true,
                Expr::ArrayRead(_) => false,
                Expr::Neg(x) => is_pure(x),
                Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => is_pure(a) && is_pure(b),
            }
        }

        /// Scalars assigned anywhere within `stmts` (including loop variables).
        fn assigned_in(stmts: &[Stmt], out: &mut BTreeSet<String>) {
            for s in stmts {
                match s {
                    Stmt::ScalarAssign(a) => {
                        out.insert(a.name.clone());
                    }
                    Stmt::For(l) => {
                        out.insert(l.var.clone());
                        assigned_in(&l.body, out);
                    }
                    Stmt::If(i) => {
                        assigned_in(&i.then_body, out);
                        assigned_in(&i.else_body, out);
                    }
                    _ => {}
                }
            }
        }

        type Defs = BTreeMap<String, Expr>;

        fn apply_defs(e: &Expr, defs: &Defs) -> Expr {
            let mut out = e.clone();
            // Definitions are already closed (their RHS never mentions a scalar
            // that itself has a live definition), so one substitution round per
            // variable suffices.
            for (name, replacement) in defs {
                out = subst_scalar(&out, name, replacement);
            }
            out
        }

        /// Removes definitions invalidated by an assignment to `name`.
        fn kill(defs: &mut Defs, name: &str) {
            defs.remove(name);
            defs.retain(|_, rhs| !rhs.scalar_vars().contains(&name));
        }

        fn walk(stmts: &mut [Stmt], defs: &mut Defs) {
            for s in stmts.iter_mut() {
                match s {
                    Stmt::Read(n) => {
                        let n = n.clone();
                        kill(defs, &n);
                    }
                    Stmt::ScalarAssign(a) => {
                        a.value = apply_defs(&a.value, defs);
                        let name = a.name.clone();
                        let value = a.value.clone();
                        kill(defs, &name);
                        // Record the definition if pure and not self-referential
                        // (self-reference means an induction update like k = k + 1,
                        // which the induction pass handles).
                        if is_pure(&value) && !value.scalar_vars().contains(&name.as_str()) {
                            defs.insert(name, value);
                        }
                    }
                    Stmt::ArrayAssign(a) => {
                        for sub in &mut a.target.subscripts {
                            *sub = apply_defs(sub, defs);
                        }
                        a.value = apply_defs(&a.value, defs);
                    }
                    Stmt::If(i) => {
                        i.lhs = apply_defs(&i.lhs, defs);
                        i.rhs = apply_defs(&i.rhs, defs);
                        // Definitions valid here hold at entry to both branches;
                        // anything either branch assigns is unknown afterwards.
                        let mut then_defs = defs.clone();
                        walk(&mut i.then_body, &mut then_defs);
                        let mut else_defs = defs.clone();
                        walk(&mut i.else_body, &mut else_defs);
                        let mut killed = BTreeSet::new();
                        assigned_in(&i.then_body, &mut killed);
                        assigned_in(&i.else_body, &mut killed);
                        for k in &killed {
                            kill(defs, k);
                        }
                    }
                    Stmt::For(l) => {
                        l.lower = apply_defs(&l.lower, defs);
                        l.upper = apply_defs(&l.upper, defs);
                        // Definitions invalidated inside the loop must not flow in:
                        // a use in iteration 2 would see the *new* value.
                        let mut killed = BTreeSet::new();
                        assigned_in(&l.body, &mut killed);
                        killed.insert(l.var.clone());
                        let mut inner: Defs = defs.clone();
                        loop {
                            let before = inner.len();
                            inner.retain(|k, rhs| {
                                !killed.contains(k)
                                    && !rhs.scalar_vars().iter().any(|v| killed.contains(*v))
                            });
                            if inner.len() == before {
                                break;
                            }
                        }
                        walk(&mut l.body, &mut inner);
                        // After the loop, anything assigned inside is unknown.
                        for k in &killed {
                            kill(defs, k);
                        }
                    }
                }
            }
        }

        /// Runs forward substitution over the whole program, in place.
        ///
        pub fn forward_substitute(program: &mut Program) {
            let mut defs = Defs::new();
            walk(&mut program.stmts, &mut defs);
        }
    }

    mod induction {
        use std::collections::{BTreeMap, BTreeSet};

        use super::rewrite::{fold, rewrite_exprs, subst_scalar};
        use crate::model::{Expr, Program, Stmt};

        /// Matches `k = k + c` / `k = c + k` / `k = k - c`, returning `c`.
        fn increment_of(name: &str, rhs: &Expr) -> Option<i64> {
            match rhs {
                Expr::Add(a, b) => match (a.as_ref(), b.as_ref()) {
                    (Expr::Var(v), Expr::Const(c)) if v == name => Some(*c),
                    (Expr::Const(c), Expr::Var(v)) if v == name => Some(*c),
                    _ => None,
                },
                Expr::Sub(a, b) => match (a.as_ref(), b.as_ref()) {
                    (Expr::Var(v), Expr::Const(c)) if v == name => c.checked_neg(),
                    _ => None,
                },
                _ => None,
            }
        }

        fn count_assignments(stmts: &[Stmt], name: &str) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::ScalarAssign(a) if a.name == name => 1,
                    Stmt::For(l) => usize::from(l.var == name) + count_assignments(&l.body, name),
                    Stmt::If(i) => {
                        count_assignments(&i.then_body, name)
                            + count_assignments(&i.else_body, name)
                    }
                    _ => 0,
                })
                .sum()
        }

        fn assigned_in(stmts: &[Stmt], out: &mut BTreeSet<String>) {
            for s in stmts {
                match s {
                    Stmt::ScalarAssign(a) => {
                        out.insert(a.name.clone());
                    }
                    Stmt::For(l) => {
                        out.insert(l.var.clone());
                        assigned_in(&l.body, out);
                    }
                    Stmt::If(i) => {
                        assigned_in(&i.then_body, out);
                        assigned_in(&i.else_body, out);
                    }
                    _ => {}
                }
            }
        }

        fn is_pure(e: &Expr) -> bool {
            match e {
                Expr::Const(_) | Expr::Var(_) => true,
                Expr::ArrayRead(_) => false,
                Expr::Neg(x) => is_pure(x),
                Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => is_pure(a) && is_pure(b),
            }
        }

        type Defs = BTreeMap<String, Expr>;

        fn kill(defs: &mut Defs, name: &str) {
            defs.remove(name);
            defs.retain(|_, rhs| !rhs.scalar_vars().contains(&name));
        }

        /// Builds `init + c * (i - lower + extra)`.
        fn closed_form(init: &Expr, c: i64, loop_var: &str, lower: &Expr, extra: i64) -> Expr {
            let iterations = Expr::Add(
                Box::new(Expr::Sub(
                    Box::new(Expr::var(loop_var)),
                    Box::new(lower.clone()),
                )),
                Box::new(Expr::Const(extra)),
            );
            fold(&Expr::Add(
                Box::new(init.clone()),
                Box::new(Expr::Mul(Box::new(Expr::Const(c)), Box::new(iterations))),
            ))
        }

        fn walk(stmts: &mut [Stmt], defs: &mut Defs) {
            for s in stmts.iter_mut() {
                match s {
                    Stmt::Read(n) => {
                        let n = n.clone();
                        kill(defs, &n);
                    }
                    Stmt::ScalarAssign(a) => {
                        let name = a.name.clone();
                        // Close the RHS over current defs before recording.
                        let mut value = a.value.clone();
                        for (k, v) in defs.iter() {
                            value = subst_scalar(&value, k, v);
                        }
                        kill(defs, &name);
                        if is_pure(&value) && !value.scalar_vars().contains(&name.as_str()) {
                            defs.insert(name, fold(&value));
                        }
                    }
                    Stmt::ArrayAssign(_) => {}
                    Stmt::If(i) => {
                        // Conservative: walk each branch with a copy, then drop
                        // anything either branch may have assigned.
                        let mut then_defs = defs.clone();
                        walk(&mut i.then_body, &mut then_defs);
                        let mut else_defs = defs.clone();
                        walk(&mut i.else_body, &mut else_defs);
                        let mut killed = BTreeSet::new();
                        assigned_in(&i.then_body, &mut killed);
                        assigned_in(&i.else_body, &mut killed);
                        for k in &killed {
                            kill(defs, k);
                        }
                    }
                    Stmt::For(l) => {
                        rewrite_loop(l, defs);
                        let mut killed = BTreeSet::new();
                        assigned_in(&l.body, &mut killed);
                        killed.insert(l.var.clone());
                        for k in &killed {
                            kill(defs, k);
                        }
                    }
                }
            }
        }

        fn rewrite_loop(l: &mut crate::model::ForLoop, defs: &Defs) {
            // Scalars assigned anywhere in the body (candidates must be assigned
            // exactly once, by the increment itself).
            let mut body_assigned = BTreeSet::new();
            assigned_in(&l.body, &mut body_assigned);

            // Find induction candidates at the top level of the body. The closed
            // form counts one increment per iteration, which requires a unit
            // step; `normalize_loops` runs first in `normalize`, so strided loops
            // still get handled on the next round.
            let mut rewrites: Vec<(usize, String, i64, Expr)> = Vec::new(); // (pos, name, c, init)
            let candidates = if l.step == 1 { l.body.as_slice() } else { &[] };
            for (pos, s) in candidates.iter().enumerate() {
                let Stmt::ScalarAssign(a) = s else { continue };
                let Some(c) = increment_of(&a.name, &a.value) else {
                    continue;
                };
                if count_assignments(&l.body, &a.name) != 1 {
                    continue;
                }
                let Some(init) = defs.get(&a.name) else {
                    continue;
                };
                // The init expression must be invariant over the loop.
                let init_vars: BTreeSet<&str> = init.scalar_vars().into_iter().collect();
                if init_vars.contains(l.var.as_str())
                    || init_vars.iter().any(|v| body_assigned.contains(*v))
                {
                    continue;
                }
                rewrites.push((pos, a.name.clone(), c, init.clone()));
            }

            for (pos, name, c, init) in rewrites {
                let before = closed_form(&init, c, &l.var, &l.lower, 0);
                let after = closed_form(&init, c, &l.var, &l.lower, 1);
                for (idx, stmt) in l.body.iter_mut().enumerate() {
                    if idx == pos {
                        continue; // keep the increment itself intact
                    }
                    let replacement = if idx < pos { &before } else { &after };
                    let one = std::slice::from_mut(stmt);
                    rewrite_exprs(one, &mut |e| fold(&subst_scalar(e, &name, replacement)));
                }
            }

            // Recurse with a fresh environment seeded from invariant outer defs.
            let mut killed = BTreeSet::new();
            assigned_in(&l.body, &mut killed);
            killed.insert(l.var.clone());
            let mut inner: Defs = defs
                .iter()
                .filter(|(k, rhs)| {
                    !killed.contains(*k) && !rhs.scalar_vars().iter().any(|v| killed.contains(*v))
                })
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            walk(&mut l.body, &mut inner);
        }

        /// Rewrites uses of simple induction variables (`k = k ± c` once per
        /// iteration, with a known loop-invariant initial value) into affine
        /// functions of the loop variable, in place.
        ///
        pub fn substitute_induction_variables(program: &mut Program) {
            let mut defs = Defs::new();
            walk(&mut program.stmts, &mut defs);
        }
    }

    mod loop_normalize {
        use std::collections::BTreeSet;

        use super::rewrite::{fold, rewrite_exprs, subst_scalar};
        use crate::model::{Expr, Program, Stmt};

        fn collect_names(stmts: &[Stmt], out: &mut BTreeSet<String>) {
            for s in stmts {
                match s {
                    Stmt::For(l) => {
                        out.insert(l.var.clone());
                        collect_names(&l.body, out);
                    }
                    Stmt::ScalarAssign(a) => {
                        out.insert(a.name.clone());
                    }
                    Stmt::Read(n) => {
                        out.insert(n.clone());
                    }
                    Stmt::If(i) => {
                        collect_names(&i.then_body, out);
                        collect_names(&i.else_body, out);
                    }
                    Stmt::ArrayAssign(_) => {}
                }
            }
        }

        struct Normalizer {
            taken: BTreeSet<String>,
            counter: usize,
        }

        impl Normalizer {
            fn fresh(&mut self, stem: &str) -> String {
                loop {
                    let name = format!("_{stem}{}", self.counter);
                    self.counter += 1;
                    if self.taken.insert(name.clone()) {
                        return name;
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
                            let step = l.step;
                            let lower = l.lower.clone();
                            let upper = l.upper.clone();
                            // i := L + s * i'  (reusing the same variable name keeps
                            // the program readable; the *meaning* of the name
                            // changes to the normalized counter).
                            let mapped = fold(&Expr::Add(
                                Box::new(lower.clone()),
                                Box::new(Expr::Mul(
                                    Box::new(Expr::Const(step)),
                                    Box::new(Expr::var(&l.var)),
                                )),
                            ));
                            let var = l.var.clone();
                            rewrite_exprs(&mut l.body, &mut |e| {
                                fold(&subst_scalar(e, &var, &mapped))
                            });
                            l.lower = Expr::Const(0);
                            l.upper = match (fold(&lower), fold(&upper)) {
                                (Expr::Const(lo), Expr::Const(up)) => {
                                    Expr::Const(dda_linalg::num::div_floor(up - lo, step))
                                }
                                _ => Expr::var(&self.fresh("trip")),
                            };
                            l.step = 1;
                        }
                        self.walk(&mut l.body);
                    }
                }
            }
        }

        /// Rewrites every loop to a normalized step of 1, in place.
        ///
        pub fn normalize_loops(program: &mut Program) {
            let mut taken = BTreeSet::new();
            collect_names(&program.stmts, &mut taken);
            let mut n = Normalizer { taken, counter: 0 };
            n.walk(&mut program.stmts);
        }
    }

    /// The old lowering: one `BTreeMap` per subexpression, panicking on
    /// overflow.
    pub fn from_expr(e: &Expr) -> Option<AffineExpr> {
        match e {
            Expr::Const(c) => Some(AffineExpr::constant(*c)),
            Expr::Var(v) => Some(AffineExpr::var(v)),
            Expr::ArrayRead(_) => None,
            Expr::Neg(inner) => Some(from_expr(inner)?.scale(-1)),
            Expr::Add(a, b) => Some(from_expr(a)?.add(&from_expr(b)?)),
            Expr::Sub(a, b) => Some(from_expr(a)?.sub(&from_expr(b)?)),
            Expr::Mul(a, b) => {
                let la = from_expr(a)?;
                let lb = from_expr(b)?;
                if la.is_constant() {
                    Some(lb.scale(la.constant_part()))
                } else if lb.is_constant() {
                    Some(la.scale(lb.constant_part()))
                } else {
                    None
                }
            }
        }
    }

    /// The access record as it was, with its own copy of the loop stack.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Access {
        pub id: usize,
        pub array: String,
        pub subscripts: Vec<Subscript>,
        pub loops: Vec<LoopInfo>,
        pub is_write: bool,
        pub stmt_index: usize,
        pub conditional: bool,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct AccessSet {
        pub accesses: Vec<Access>,
        pub symbolics: BTreeSet<String>,
    }

    struct Extractor {
        accesses: Vec<Access>,
        loop_stack: Vec<LoopInfo>,
        assigned_scalars: BTreeSet<String>,
        declared_symbolics: BTreeSet<String>,
        used_scalars: BTreeSet<String>,
        next_loop_id: usize,
        stmt_index: usize,
        cond_depth: usize,
    }

    impl Extractor {
        fn loop_vars(&self) -> BTreeSet<&str> {
            self.loop_stack.iter().map(|l| l.var.as_str()).collect()
        }

        fn lower(&self, e: &Expr) -> Option<AffineExpr> {
            let affine = from_expr(e)?;
            let loop_vars = self.loop_vars();
            for v in affine.vars() {
                if !loop_vars.contains(v) && self.assigned_scalars.contains(v) {
                    return None; // mutated scalar: not a symbolic constant
                }
            }
            Some(affine)
        }

        fn lower_subscript(&self, e: &Expr) -> Subscript {
            match self.lower(e) {
                Some(a) => Subscript::Affine(a),
                None => Subscript::NonAffine,
            }
        }

        fn lower_bound(&self, e: &Expr) -> Bound {
            match self.lower(e) {
                Some(a) => Bound::Affine(a),
                None => Bound::NonAffine,
            }
        }

        fn note_symbolic_uses(&mut self, a: &AffineExpr) {
            let loop_vars: BTreeSet<String> =
                self.loop_stack.iter().map(|l| l.var.clone()).collect();
            for v in a.vars() {
                if !loop_vars.contains(v) {
                    self.used_scalars.insert(v.to_owned());
                }
            }
        }

        fn record(&mut self, r: &ArrayRef, is_write: bool) {
            let subscripts: Vec<Subscript> = r
                .subscripts
                .iter()
                .map(|s| self.lower_subscript(s))
                .collect();
            for s in &subscripts {
                if let Subscript::Affine(a) = s {
                    let a = a.clone();
                    self.note_symbolic_uses(&a);
                }
            }
            self.accesses.push(Access {
                id: self.accesses.len(),
                array: r.array.clone(),
                subscripts,
                loops: self.loop_stack.clone(),
                is_write,
                stmt_index: self.stmt_index,
                conditional: self.cond_depth > 0,
            });
        }

        fn walk(&mut self, stmts: &[Stmt]) {
            for s in stmts {
                self.stmt_index += 1;
                match s {
                    Stmt::Read(n) => {
                        self.declared_symbolics.insert(n.clone());
                    }
                    Stmt::ScalarAssign(a) => {
                        for r in a.value.array_reads() {
                            self.record(r, false);
                        }
                    }
                    Stmt::ArrayAssign(a) => {
                        self.record(&a.target, true);
                        for r in a.value.array_reads() {
                            self.record(r, false);
                        }
                        for sub in &a.target.subscripts {
                            for r in sub.array_reads() {
                                self.record(r, false);
                            }
                        }
                    }
                    Stmt::If(i) => {
                        for r in i.lhs.array_reads() {
                            self.record(r, false);
                        }
                        for r in i.rhs.array_reads() {
                            self.record(r, false);
                        }
                        self.cond_depth += 1;
                        self.walk(&i.then_body);
                        self.walk(&i.else_body);
                        self.cond_depth -= 1;
                    }
                    Stmt::For(l) => {
                        let lower = self.lower_bound(&l.lower);
                        let upper = self.lower_bound(&l.upper);
                        if let Bound::Affine(a) = &lower {
                            let a = a.clone();
                            self.note_symbolic_uses(&a);
                        }
                        if let Bound::Affine(a) = &upper {
                            let a = a.clone();
                            self.note_symbolic_uses(&a);
                        }
                        self.loop_stack.push(LoopInfo {
                            id: self.next_loop_id,
                            var: l.var.clone(),
                            lower,
                            upper,
                        });
                        self.next_loop_id += 1;
                        self.walk(&l.body);
                        self.loop_stack.pop();
                    }
                }
            }
        }
    }

    fn collect_assigned_scalars(stmts: &[Stmt], out: &mut BTreeSet<String>) {
        for s in stmts {
            match s {
                Stmt::ScalarAssign(a) => {
                    out.insert(a.name.clone());
                }
                Stmt::For(l) => {
                    out.insert(l.var.clone());
                    collect_assigned_scalars(&l.body, out);
                }
                Stmt::If(i) => {
                    collect_assigned_scalars(&i.then_body, out);
                    collect_assigned_scalars(&i.else_body, out);
                }
                _ => {}
            }
        }
    }

    pub fn extract_accesses(program: &Program) -> AccessSet {
        let mut assigned = BTreeSet::new();
        collect_assigned_scalars(&program.stmts, &mut assigned);
        let mut ex = Extractor {
            accesses: Vec::new(),
            loop_stack: Vec::new(),
            assigned_scalars: assigned,
            declared_symbolics: BTreeSet::new(),
            used_scalars: BTreeSet::new(),
            next_loop_id: 0,
            stmt_index: 0,
            cond_depth: 0,
        };
        ex.walk(&program.stmts);
        let mut symbolics = ex.declared_symbolics;
        for v in &ex.used_scalars {
            if !ex.assigned_scalars.contains(v) {
                symbolics.insert(v.clone());
            }
        }
        AccessSet {
            accesses: ex.accesses,
            symbolics,
        }
    }

    /// `(a.id, b.id, common)` for every pair `reference_pairs` yielded.
    pub fn reference_pairs(
        set: &AccessSet,
        include_input_deps: bool,
    ) -> Vec<(usize, usize, usize)> {
        let mut by_array: BTreeMap<&str, Vec<&Access>> = BTreeMap::new();
        for a in &set.accesses {
            by_array.entry(a.array.as_str()).or_default().push(a);
        }
        let mut pairs = Vec::new();
        for group in by_array.values() {
            for (i, &a) in group.iter().enumerate() {
                for &b in &group[i + 1..] {
                    if !include_input_deps && !a.is_write && !b.is_write {
                        continue;
                    }
                    let common = a
                        .loops
                        .iter()
                        .zip(&b.loops)
                        .take_while(|(x, y)| x.id == y.id)
                        .count();
                    pairs.push((a.id, b.id, common));
                }
            }
        }
        pairs.sort_by_key(|p| (p.0, p.1));
        pairs
    }
}

/// Runs the old and the current front end over `program` and asserts
/// they agree bit for bit. Returns a mismatch description.
fn compare(program: &Program) -> Result<(), String> {
    let mut want = resolve::program(program);
    old::normalize(&mut want);
    let mut got = program.clone();
    passes::normalize(&mut got);
    let got_model = resolve::program(&got);
    if want != got_model {
        return Err(format!(
            "normalized programs differ:\nold:\n{want:#?}\nnew:\n{got}"
        ));
    }
    let want_set = old::extract_accesses(&want);
    let got_set = extract_accesses(&got);
    let got_symbolics = resolve::symbolics(&got_set);
    if want_set.symbolics != got_symbolics {
        return Err(format!(
            "symbolics differ: {:?} vs {:?}",
            want_set.symbolics, got_symbolics
        ));
    }
    if want_set.accesses.len() != got_set.accesses.len() {
        return Err(format!(
            "access counts differ: {} vs {}",
            want_set.accesses.len(),
            got_set.accesses.len()
        ));
    }
    for (w, g) in want_set.accesses.iter().zip(&got_set.accesses) {
        let g = resolve::access(&got_set, g);
        if *w != g {
            return Err(format!("access differs:\nold: {w:?}\nnew: {g:?}"));
        }
    }
    for include_input_deps in [false, true] {
        let want_pairs = old::reference_pairs(&want_set, include_input_deps);
        let got_pairs: Vec<(usize, usize, usize)> = reference_pairs(&got_set, include_input_deps)
            .iter()
            .map(|p| (p.a.id, p.b.id, p.common))
            .collect();
        if want_pairs != got_pairs {
            return Err(format!(
                "pair lists differ (read-read {include_input_deps}): {} vs {} pairs",
                want_pairs.len(),
                got_pairs.len()
            ));
        }
    }
    Ok(())
}

fn check_source(src: &str) -> Result<(), String> {
    let program = parse_program(src).map_err(|e| format!("parse: {e}\n{src}"))?;
    compare(&program).map_err(|e| format!("{e}\nsource:\n{src}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn wide_programs_match_the_old_front_end(src in arb_wide_program()) {
        if let Err(e) = check_source(&src) {
            prop_assert!(false, "{}", e);
        }
    }

    #[test]
    fn narrow_programs_match_the_old_front_end(src in arb_program()) {
        if let Err(e) = check_source(&src) {
            prop_assert!(false, "{}", e);
        }
    }
}

#[test]
fn perfect_suite_matches_the_old_front_end() {
    for sp in dda_perfect::perfect_suite(1.0) {
        if let Err(e) = compare(&sp.program) {
            panic!("{}: {}", sp.name(), e.lines().next().unwrap_or(""));
        }
    }
}

#[test]
fn checked_in_loop_files_match_the_old_front_end() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut seen = 0;
    for dir in ["examples/loops", "tests/corpus"] {
        let mut paths: Vec<_> = std::fs::read_dir(root.join(dir))
            .unwrap_or_else(|e| panic!("{dir}: {e}"))
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "loop"))
            .collect();
        paths.sort();
        for path in paths {
            let src = std::fs::read_to_string(&path).expect("read .loop file");
            if let Err(e) = check_source(&src) {
                panic!("{}: {e}", path.display());
            }
            seen += 1;
        }
    }
    assert!(seen >= 10, "only {seen} .loop files found");
}
