//! Extraction of array accesses and candidate reference pairs.
//!
//! Dependence testing operates on *pairs of array references* together with
//! their enclosing loop context. This module walks a [`Program`], lowers
//! every subscript and loop bound to affine form (or marks it non-affine),
//! classifies free scalars as symbolic constants, and enumerates the pairs
//! the analyzer must test.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;
use std::sync::Arc;

use crate::arena::{ArrayRef, Expr, ExprArena};
use crate::ast::{Program, Stmt};
use crate::expr::AffineExpr;
use crate::symbol::{Named, Sym, SymbolTable};

/// A loop bound in affine form, or a marker that it could not be lowered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bound {
    /// An affine function of outer loop variables and symbolic constants.
    Affine(AffineExpr),
    /// Not analyzable (non-linear, or uses a mutated scalar).
    NonAffine,
}

impl Bound {
    /// The affine payload, if any.
    #[must_use]
    pub fn as_affine(&self) -> Option<&AffineExpr> {
        match self {
            Bound::Affine(e) => Some(e),
            Bound::NonAffine => None,
        }
    }
}

/// One enclosing loop of an access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopInfo {
    /// Unique id of this loop instance within the program walk. Two
    /// accesses share an enclosing loop exactly when the ids match.
    pub id: usize,
    /// The induction variable.
    pub var: Sym,
    /// Inclusive lower bound.
    pub lower: Bound,
    /// Inclusive upper bound.
    pub upper: Bound,
}

/// A subscript in affine form, or a marker that it could not be lowered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Subscript {
    /// Affine in loop variables and symbolic constants.
    Affine(AffineExpr),
    /// Not analyzable.
    NonAffine,
}

impl Subscript {
    /// The affine payload, if any.
    #[must_use]
    pub fn as_affine(&self) -> Option<&AffineExpr> {
        match self {
            Subscript::Affine(e) => Some(e),
            Subscript::NonAffine => None,
        }
    }
}

/// A single array access (read or write) with its loop context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Access {
    /// Unique id within the extraction.
    pub id: usize,
    /// The array.
    pub array: Sym,
    /// Lowered subscripts, one per dimension.
    pub subscripts: Vec<Subscript>,
    /// Enclosing loops, outermost first. Accesses directly inside the
    /// same loop share one allocation.
    pub loops: Arc<[LoopInfo]>,
    /// Whether this access writes the element.
    pub is_write: bool,
    /// Index of the owning statement in a pre-order statement numbering.
    pub stmt_index: usize,
    /// Whether the access sits under an `if`: it may not execute on every
    /// iteration, so "dependent" answers are may-dependences for it.
    pub conditional: bool,
}

impl Access {
    /// Whether every subscript is affine.
    #[must_use]
    pub fn is_affine(&self) -> bool {
        self.subscripts
            .iter()
            .all(|s| matches!(s, Subscript::Affine(_)))
    }

    /// Loop nesting depth of the access.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.loops.len()
    }

    /// Displays the access with the names in `symbols`.
    #[must_use]
    pub fn display<'a>(&'a self, symbols: &'a SymbolTable) -> Named<'a, Access> {
        Named {
            value: self,
            symbols,
        }
    }
}

impl fmt::Display for Named<'_, Access> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = self.value;
        f.write_str(self.symbols.name(a.array))?;
        for s in &a.subscripts {
            match s {
                Subscript::Affine(e) => write!(f, "[{}]", e.display(self.symbols))?,
                Subscript::NonAffine => write!(f, "[?]")?,
            }
        }
        write!(f, " ({})", if a.is_write { "write" } else { "read" })
    }
}

/// All accesses of a program, plus the symbolic constants in scope.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AccessSet {
    /// Extracted accesses in program order.
    pub accesses: Vec<Access>,
    /// Scalars treated as loop-invariant unknowns (declared with `read(x);`
    /// or never assigned), in [`Sym`] order.
    pub symbolics: Vec<Sym>,
    /// The program's symbol table, which names every [`Sym`] above.
    pub symbols: Arc<SymbolTable>,
}

impl AccessSet {
    /// Whether `name` is a symbolic constant of the program.
    #[must_use]
    pub fn is_symbolic(&self, name: &str) -> bool {
        self.symbols
            .get(name)
            .is_some_and(|s| self.symbolics.binary_search(&s).is_ok())
    }
}

/// A candidate pair of accesses to the same array.
#[derive(Debug, Clone, Copy)]
pub struct RefPair<'a> {
    /// First access (earlier in program order).
    pub a: &'a Access,
    /// Second access.
    pub b: &'a Access,
    /// Number of loops enclosing *both* accesses (shared prefix length).
    pub common: usize,
    /// The table naming the symbols of both accesses.
    pub symbols: &'a SymbolTable,
}

impl RefPair<'_> {
    /// The name of the array both accesses touch; cloning it does not
    /// copy the text.
    #[must_use]
    pub fn array_name(&self) -> &Arc<str> {
        self.symbols.shared_name(self.a.array)
    }
}

/// Per-symbol facts gathered by the extraction, one byte per symbol.
const ASSIGNED: u8 = 1;
const DECLARED: u8 = 2;
const USED: u8 = 4;

struct Extractor<'p> {
    exprs: &'p ExprArena,
    accesses: Vec<Access>,
    loop_stack: Vec<LoopInfo>,
    /// `loop_stack` as shared by the accesses recorded at each depth:
    /// one entry per open loop, plus the outermost context. An entry is
    /// built when the first access at its depth is recorded, so a loop
    /// whose body is only another loop allocates none.
    contexts: Vec<Option<Arc<[LoopInfo]>>>,
    /// [`ASSIGNED`] (anywhere in the program, loop variables included),
    /// [`DECLARED`] by `read`, and [`USED`] as a free scalar in an
    /// affine subscript or bound; indexed by [`Sym::index`].
    facts: Vec<u8>,
    next_loop_id: usize,
    stmt_index: usize,
    cond_depth: usize,
}

impl Extractor<'_> {
    fn is_loop_var(&self, v: Sym) -> bool {
        self.loop_stack.iter().any(|l| l.var == v)
    }

    /// Lowers `e` to affine form valid in the current loop context: every
    /// variable must be a loop variable in scope or an immutable scalar.
    /// Notes the scalars an affine result uses.
    fn lower(&mut self, e: Expr) -> Option<AffineExpr> {
        let affine = AffineExpr::from_expr(self.exprs, e)?;
        for v in affine.vars() {
            if !self.is_loop_var(v) && self.facts[v.index()] & ASSIGNED != 0 {
                return None; // mutated scalar: not a symbolic constant
            }
        }
        for v in affine.vars() {
            if !self.is_loop_var(v) {
                self.facts[v.index()] |= USED;
            }
        }
        Some(affine)
    }

    fn lower_subscript(&mut self, e: Expr) -> Subscript {
        match self.lower(e) {
            Some(a) => Subscript::Affine(a),
            None => Subscript::NonAffine,
        }
    }

    fn lower_bound(&mut self, e: Expr) -> Bound {
        match self.lower(e) {
            Some(a) => Bound::Affine(a),
            None => Bound::NonAffine,
        }
    }

    fn record(&mut self, r: &ArrayRef, is_write: bool) {
        let exprs = self.exprs;
        let subscripts: Vec<Subscript> = exprs
            .subscripts(r)
            .iter()
            .map(|&s| self.lower_subscript(s))
            .collect();
        let depth = self.loop_stack.len();
        let loops = Arc::clone(
            self.contexts[depth].get_or_insert_with(|| Arc::from(self.loop_stack.as_slice())),
        );
        self.accesses.push(Access {
            id: self.accesses.len(),
            array: r.array,
            subscripts,
            loops,
            is_write,
            stmt_index: self.stmt_index,
            conditional: self.cond_depth > 0,
        });
    }

    /// Records every array read inside `e`, each reference before the
    /// reads nested in its subscripts.
    fn record_reads(&mut self, e: Expr) {
        let exprs = self.exprs;
        exprs.for_each_read(e, &mut |r| self.record(r, false));
    }

    fn walk(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.stmt_index += 1;
            match s {
                Stmt::Read(n) => self.facts[n.index()] |= DECLARED,
                Stmt::ScalarAssign(a) => {
                    // Already noted in the pre-scan; reads inside count too.
                    self.record_reads(a.value);
                }
                Stmt::ArrayAssign(a) => {
                    self.record(&a.target, true);
                    self.record_reads(a.value);
                    // Array refs nested inside subscripts count as reads.
                    let exprs = self.exprs;
                    for &sub in exprs.subscripts(&a.target) {
                        self.record_reads(sub);
                    }
                }
                Stmt::If(i) => {
                    // Condition reads always execute; branch accesses are
                    // conditional.
                    self.record_reads(i.lhs);
                    self.record_reads(i.rhs);
                    self.cond_depth += 1;
                    self.walk(&i.then_body);
                    self.walk(&i.else_body);
                    self.cond_depth -= 1;
                }
                Stmt::For(l) => {
                    let lower = self.lower_bound(l.lower);
                    let upper = self.lower_bound(l.upper);
                    self.loop_stack.push(LoopInfo {
                        id: self.next_loop_id,
                        var: l.var,
                        lower,
                        upper,
                    });
                    self.contexts.push(None);
                    self.next_loop_id += 1;
                    self.walk(&l.body);
                    self.contexts.pop();
                    self.loop_stack.pop();
                }
            }
        }
    }
}

fn mark_assigned(stmts: &[Stmt], facts: &mut [u8]) {
    for s in stmts {
        match s {
            Stmt::ScalarAssign(a) => facts[a.name.index()] |= ASSIGNED,
            Stmt::For(l) => {
                facts[l.var.index()] |= ASSIGNED;
                mark_assigned(&l.body, facts);
            }
            Stmt::If(i) => {
                mark_assigned(&i.then_body, facts);
                mark_assigned(&i.else_body, facts);
            }
            _ => {}
        }
    }
}

/// Extracts every array access of `program` with lowered subscripts, loop
/// contexts, and the set of symbolic constants.
///
/// Run the normalization passes first (see [`crate::passes`]) so that
/// scalar temporaries and induction variables have been substituted away —
/// exactly the prepass the paper relies on.
///
/// # Examples
///
/// ```
/// use dda_ir::{parse_program, extract_accesses};
///
/// let p = parse_program("read(n); for i = 1 to n { a[i + n] = a[i] + 1; }")?;
/// let set = extract_accesses(&p);
/// assert_eq!(set.accesses.len(), 2);
/// assert!(set.is_symbolic("n"));
/// assert!(set.accesses.iter().all(|a| a.is_affine()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn extract_accesses(program: &Program) -> AccessSet {
    let mut facts = vec![0u8; program.symbols.len()];
    mark_assigned(&program.stmts, &mut facts);
    let mut ex = Extractor {
        exprs: &program.exprs,
        accesses: Vec::new(),
        loop_stack: Vec::new(),
        contexts: vec![None],
        facts,
        next_loop_id: 0,
        stmt_index: 0,
        cond_depth: 0,
    };
    ex.walk(&program.stmts);

    // Symbolics: declared via read(), plus any used scalar that is never
    // assigned (a free parameter).
    let symbolics = ex
        .facts
        .iter()
        .enumerate()
        .filter(|&(_, &f)| f & DECLARED != 0 || f & (USED | ASSIGNED) == USED)
        .map(|(k, _)| Sym::from_index(k))
        .collect();
    AccessSet {
        accesses: ex.accesses,
        symbolics,
        symbols: Arc::clone(&program.symbols),
    }
}

/// Enumerates the reference pairs a dependence analyzer must test: pairs of
/// distinct accesses to the same array where at least one is a write (set
/// `include_input_deps` to also get read–read pairs).
///
/// # Examples
///
/// ```
/// use dda_ir::{parse_program, extract_accesses, reference_pairs};
///
/// let p = parse_program("for i = 1 to 10 { a[i + 1] = a[i] + b[i]; }")?;
/// let set = extract_accesses(&p);
/// let pairs = reference_pairs(&set, false);
/// assert_eq!(pairs.len(), 1); // a[i+1] vs a[i]; b has no write
/// assert_eq!(pairs[0].common, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn reference_pairs(set: &AccessSet, include_input_deps: bool) -> Vec<RefPair<'_>> {
    // Group by array with one stable sort: programs with many arrays
    // would otherwise pay a quadratic scan over unrelated accesses.
    // Within a group the accesses stay in program order.
    let mut by_array: Vec<&Access> = set.accesses.iter().collect();
    by_array.sort_by_key(|x| x.array);
    let mut pairs = Vec::new();
    for group in by_array.chunk_by(|x, y| x.array == y.array) {
        for (k, &a) in group.iter().enumerate() {
            for &b in &group[k + 1..] {
                if !include_input_deps && !a.is_write && !b.is_write {
                    continue;
                }
                let common = if Arc::ptr_eq(&a.loops, &b.loops) {
                    a.loops.len()
                } else {
                    a.loops
                        .iter()
                        .zip(b.loops.iter())
                        .take_while(|(x, y)| x.id == y.id)
                        .count()
                };
                pairs.push(RefPair {
                    a,
                    b,
                    common,
                    symbols: &set.symbols,
                });
            }
        }
    }
    // Keep the historical (id-ordered) enumeration order.
    pairs.sort_by_key(|p| (p.a.id, p.b.id));
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn extracts_writes_and_reads() {
        let p = parse_program("for i = 1 to 10 { a[i] = a[i + 10] + 3; }").unwrap();
        let set = extract_accesses(&p);
        assert_eq!(set.accesses.len(), 2);
        assert!(set.accesses[0].is_write);
        assert!(!set.accesses[1].is_write);
        assert_eq!(set.accesses[0].loops.len(), 1);
    }

    #[test]
    fn mutated_scalar_is_not_symbolic() {
        let p = parse_program("k = 5; for i = 1 to 10 { a[i + k] = a[i]; k = k + 1; }").unwrap();
        let set = extract_accesses(&p);
        // k is assigned, so a[i+k] is non-affine without forward subst.
        assert!(!set.accesses[0].is_affine());
        assert!(set.symbolics.is_empty());
        assert!(!set.is_symbolic("k"));
    }

    #[test]
    fn free_scalar_is_symbolic() {
        let p = parse_program("for i = 1 to m { a[i + n] = a[i]; }").unwrap();
        let set = extract_accesses(&p);
        assert!(set.is_symbolic("n"));
        assert!(set.is_symbolic("m"));
        assert!(!set.is_symbolic("i"));
        assert!(set.accesses[0].is_affine());
    }

    #[test]
    fn loop_ids_distinguish_sibling_loops() {
        let p = parse_program("for i = 1 to 10 { a[i] = 1; } for i = 1 to 10 { a[i] = a[i] + 2; }")
            .unwrap();
        let set = extract_accesses(&p);
        let pairs = reference_pairs(&set, false);
        // Three pairs among {w1, w2, r2}; only (w2, r2) shares its loop.
        assert_eq!(pairs.len(), 3);
        let commons: Vec<usize> = pairs.iter().map(|p| p.common).collect();
        assert_eq!(commons.iter().filter(|&&c| c == 0).count(), 2);
        assert_eq!(commons.iter().filter(|&&c| c == 1).count(), 1);
    }

    #[test]
    fn read_read_pairs_opt_in() {
        let p = parse_program("for i = 1 to 10 { b[i] = a[i] + a[i + 1]; }").unwrap();
        let set = extract_accesses(&p);
        assert_eq!(reference_pairs(&set, false).len(), 0);
        assert_eq!(reference_pairs(&set, true).len(), 1);
    }

    #[test]
    fn triangular_bounds_lowered() {
        let p =
            parse_program("for i = 1 to 10 { for j = i to 10 { a[i][j] = a[j][i]; } }").unwrap();
        let set = extract_accesses(&p);
        let inner = &set.accesses[0].loops[1];
        let lower = inner.lower.as_affine().unwrap();
        assert_eq!(lower.coeff(p.symbols.get("i").unwrap()), 1);
    }

    #[test]
    fn display_names_terms_in_name_order() {
        let p = parse_program("read(z); read(a); for i = 1 to 10 { x[z + a + i] = 0; }").unwrap();
        let set = extract_accesses(&p);
        assert_eq!(
            set.accesses[0].display(&set.symbols).to_string(),
            "x[a + i + z] (write)"
        );
    }

    #[test]
    fn nonlinear_subscript_marked() {
        let p = parse_program("for i = 1 to 10 { a[i * i] = 0; }").unwrap();
        let set = extract_accesses(&p);
        assert_eq!(set.accesses[0].subscripts[0], Subscript::NonAffine);
    }

    #[test]
    fn subscript_of_subscript_counts_as_read() {
        let p = parse_program("for i = 1 to 10 { a[b[i]] = 0; }").unwrap();
        let set = extract_accesses(&p);
        assert_eq!(set.accesses.len(), 2);
        assert_eq!(set.symbols.name(set.accesses[0].array), "a");
        assert!(!set.accesses[0].is_affine());
        assert_eq!(set.symbols.name(set.accesses[1].array), "b");
        assert!(!set.accesses[1].is_write);
    }
}
