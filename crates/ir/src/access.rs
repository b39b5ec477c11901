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
use crate::expr::{fmt_affine, AffineExpr};
use crate::symbol::{Sym, SymbolTable};

/// Identifies one lowered subscript or loop bound in its program's
/// [`Rows`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowId(u32);

/// Where one row's numbers sit in [`Rows`]: `1 + levels + 2 * syms`
/// values from `at`, or no values at all for a non-affine row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    at: usize,
    levels: u32,
    syms: u32,
}

/// The `levels` of a row that could not be lowered.
const NON_AFFINE: u32 = u32::MAX;

/// Every subscript and loop bound of one program, lowered to affine form
/// once, at extraction, into one flat `i64` table.
///
/// A row holds its constant, one coefficient per enclosing loop level,
/// and its symbolic terms. A loop variable is resolved to the level of
/// the loop that binds it where the expression stands: a loop's bounds
/// are lowered before the loop opens, so `for i = i + 5 to 20` nested in
/// another `i` loop reads the outer `i` in its bound. Coefficients past
/// the innermost level a row uses are not stored (they are zero), so a
/// constant row has no level coefficients at all.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Rows {
    spans: Vec<Span>,
    /// `[constant, level coefficients.., (symbolic, coefficient)..]` per
    /// row, back to back; symbolic terms ascend by symbolic.
    data: Vec<i64>,
    /// The program's symbolic constants in name order: a row's symbolic
    /// term names one by its index here.
    symbolics: Vec<Sym>,
}

/// One affine row of a [`Rows`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row<'a> {
    values: &'a [i64],
    levels: usize,
}

impl<'a> Row<'a> {
    /// The constant part.
    #[must_use]
    pub fn constant(&self) -> i64 {
        self.values[0]
    }

    /// The coefficients of loop levels `0..n`, outermost first, where
    /// level `n - 1` is the innermost level the row uses; every deeper
    /// level has coefficient zero.
    #[must_use]
    pub fn levels(&self) -> &'a [i64] {
        &self.values[1..=self.levels]
    }

    /// The symbolic terms as `(symbolic, coefficient)`, the symbolic an
    /// index into [`Rows::symbolics`], ascending.
    pub fn symbolic_terms(&self) -> impl Iterator<Item = (usize, i64)> + 'a {
        self.values[1 + self.levels..]
            .chunks_exact(2)
            .map(|t| (t[0] as usize, t[1]))
    }

    /// Whether the row has no symbolic terms.
    #[must_use]
    pub fn has_symbolics(&self) -> bool {
        self.values.len() > 1 + self.levels
    }

    /// Whether the row is a constant: no level or symbolic terms.
    #[must_use]
    pub fn is_constant(&self) -> bool {
        self.values.len() == 1
    }
}

impl Rows {
    /// Row `id`, or `None` when it could not be lowered (non-linear, a
    /// read of an array or a mutated scalar, or an overflow of `i64`).
    #[must_use]
    pub fn get(&self, id: RowId) -> Option<Row<'_>> {
        let span = self.spans[id.0 as usize];
        if span.levels == NON_AFFINE {
            return None;
        }
        let levels = span.levels as usize;
        let len = 1 + levels + 2 * span.syms as usize;
        Some(Row {
            values: &self.data[span.at..span.at + len],
            levels,
        })
    }

    /// The rows of `access`'s subscripts, one per dimension.
    pub fn subscripts(&self, access: &Access) -> impl ExactSizeIterator<Item = Option<Row<'_>>> {
        access.subscripts.iter().map(|id| self.get(id))
    }

    /// The symbolic constants in name order; [`Row::symbolic_terms`]
    /// index into this.
    #[must_use]
    pub fn symbolics(&self) -> &[Sym] {
        &self.symbolics
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the table has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    fn push_non_affine(&mut self) -> RowId {
        self.push_span(Span {
            at: self.data.len(),
            levels: NON_AFFINE,
            syms: 0,
        })
    }

    fn push_span(&mut self, span: Span) -> RowId {
        // Rows number fewer than the program's expression nodes, whose
        // ids are `u32`.
        let id = RowId(u32::try_from(self.spans.len()).unwrap_or(u32::MAX));
        self.spans.push(span);
        id
    }
}

/// A run of consecutive rows: an access's subscripts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowRange {
    start: u32,
    end: u32,
}

impl RowRange {
    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the range is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The rows, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = RowId> {
        (self.start..self.end).map(RowId)
    }
}

/// One `for` loop of a program. Extraction numbers the loops in
/// pre-order (statements in order, an `if`'s then-branch before its
/// else-branch), loops without accesses included: a loop's id is its
/// index in [`AccessSet::loops`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Loop {
    /// The induction variable.
    pub var: Sym,
    /// Nesting depth (0 = outermost).
    pub depth: usize,
    /// Id of the directly enclosing loop, if any.
    pub parent: Option<usize>,
    /// Inclusive lower bound, over the levels outside this loop.
    pub lower: RowId,
    /// Inclusive upper bound, over the levels outside this loop.
    pub upper: RowId,
}

/// An access's enclosing loops: a run of its set's loop paths, read
/// with [`AccessSet::loops_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopPath {
    start: usize,
    end: usize,
}

impl LoopPath {
    /// Number of loops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the access is outside every loop.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A single array access (read or write) with its loop context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Access {
    /// Unique id within the extraction.
    pub id: usize,
    /// The array.
    pub array: Sym,
    /// Lowered subscripts, one row per dimension (see
    /// [`Rows::subscripts`]).
    pub subscripts: RowRange,
    /// Enclosing loops, outermost first (see [`AccessSet::loops_of`]).
    /// Accesses directly inside the same loop share one path.
    pub loops: LoopPath,
    /// Whether this access writes the element.
    pub is_write: bool,
    /// Index of the owning statement in a pre-order statement numbering.
    pub stmt_index: usize,
    /// Whether the access sits under an `if`: it may not execute on every
    /// iteration, so "dependent" answers are may-dependences for it.
    pub conditional: bool,
    affine: bool,
}

impl Access {
    /// Whether every subscript is affine.
    #[must_use]
    pub fn is_affine(&self) -> bool {
        self.affine
    }

    /// Number of dimensions.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.subscripts.len()
    }

    /// Loop nesting depth of the access.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.loops.len()
    }

    /// Displays the access with the names and rows of `set`, the set it
    /// was extracted into.
    #[must_use]
    pub fn display<'a>(&'a self, set: &'a AccessSet) -> AccessDisplay<'a> {
        AccessDisplay { access: self, set }
    }
}

/// An access displayed with the names of its set; see
/// [`Access::display`].
#[derive(Debug, Clone, Copy)]
pub struct AccessDisplay<'a> {
    access: &'a Access,
    set: &'a AccessSet,
}

impl fmt::Display for AccessDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (a, set) = (self.access, self.set);
        let symbols = &set.symbols;
        let path = set.loops_of(a);
        f.write_str(symbols.name(a.array))?;
        let mut terms: Vec<(&str, i64)> = Vec::new();
        for row in set.rows.subscripts(a) {
            let Some(row) = row else {
                f.write_str("[?]")?;
                continue;
            };
            terms.clear();
            for (k, &c) in row.levels().iter().enumerate() {
                if c != 0 {
                    terms.push((symbols.name(set.loops[path[k]].var), c));
                }
            }
            for (s, c) in row.symbolic_terms() {
                terms.push((symbols.name(set.rows.symbolics[s]), c));
            }
            f.write_str("[")?;
            fmt_affine(f, &mut terms, row.constant())?;
            f.write_str("]")?;
        }
        write!(f, " ({})", if a.is_write { "write" } else { "read" })
    }
}

/// All accesses and loops of a program, plus the symbolic constants in
/// scope.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AccessSet {
    /// Extracted accesses in program order.
    pub accesses: Vec<Access>,
    /// Every loop of the program in pre-order: a loop's id is its index.
    pub loops: Vec<Loop>,
    /// The loop ids of every access's [`LoopPath`], outermost first,
    /// back to back.
    paths: Vec<usize>,
    /// Scalars treated as loop-invariant unknowns (declared with `read(x);`
    /// or never assigned), in [`Sym`] order.
    pub symbolics: Vec<Sym>,
    /// The program's symbol table, which names every [`Sym`] above.
    pub symbols: Arc<SymbolTable>,
    /// Every subscript and loop bound, lowered.
    pub rows: Rows,
}

impl AccessSet {
    /// The ids of `access`'s enclosing loops, outermost first: indexes
    /// into [`AccessSet::loops`].
    #[must_use]
    pub fn loops_of(&self, access: &Access) -> &[usize] {
        &self.paths[access.loops.start..access.loops.end]
    }

    /// Row `id` of `access` (one of its subscripts, or a bound of one of
    /// its loops) as an affine function of named symbols: each level's
    /// coefficient on that loop's variable, each symbolic's on the
    /// symbolic. A loop that shadows an outer one of the same name adds
    /// to that name's coefficient, so read the [`Row`] itself where that
    /// matters. `None` for a non-affine row, or a sum that overflows.
    #[must_use]
    pub fn affine(&self, access: &Access, id: RowId) -> Option<AffineExpr> {
        let row = self.rows.get(id)?;
        let path = self.loops_of(access);
        let levels = row
            .levels()
            .iter()
            .enumerate()
            .map(|(k, &c)| (self.loops[path[k]].var, c));
        let syms = row
            .symbolic_terms()
            .map(|(s, c)| (self.rows.symbolics[s], c));
        AffineExpr::from_terms(levels.chain(syms), row.constant())
    }

    /// `access`'s subscript in dimension `d` as an affine function (see
    /// [`AccessSet::affine`]).
    #[must_use]
    pub fn subscript(&self, access: &Access, d: usize) -> Option<AffineExpr> {
        self.affine(access, access.subscripts.iter().nth(d)?)
    }

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
    /// The set both accesses come from: their names and rows.
    pub set: &'a AccessSet,
}

impl RefPair<'_> {
    /// The name of the array both accesses touch; cloning it does not
    /// copy the text.
    #[must_use]
    pub fn array_name(&self) -> &Arc<str> {
        self.set.symbols.shared_name(self.a.array)
    }
}

/// Per-symbol facts gathered by the extraction, one byte per symbol.
const ASSIGNED: u8 = 1;
const DECLARED: u8 = 2;
const USED: u8 = 4;

struct Extractor<'p> {
    exprs: &'p ExprArena,
    accesses: Vec<Access>,
    loops: Vec<Loop>,
    /// The ids of the open loops, outermost first: level `k` is bound
    /// by loop `open[k]`.
    open: Vec<usize>,
    paths: Vec<usize>,
    /// `open` as a run of `paths`, copied there when the first access
    /// directly inside the innermost open loop is recorded; a loop
    /// whose body is only another loop copies none.
    path: Option<LoopPath>,
    /// [`ASSIGNED`] (anywhere in the program, loop variables included),
    /// [`DECLARED`] by `read`, and [`USED`] as a free scalar in an
    /// affine subscript or bound; indexed by [`Sym::index`].
    facts: Vec<u8>,
    rows: Rows,
    stmt_index: usize,
    cond_depth: usize,
}

impl Extractor<'_> {
    /// The level of the innermost open loop binding `v`.
    fn level_of(&self, v: Sym) -> Option<usize> {
        self.open.iter().rposition(|&id| self.loops[id].var == v)
    }

    /// Lowers `e` into a row valid in the current loop context: every
    /// variable must be a loop variable in scope, resolved to its level,
    /// or an immutable scalar, kept as a symbolic term (numbered by
    /// [`Sym`] until [`Extractor::finish`] renumbers it). Notes the
    /// scalars an affine row uses.
    fn lower(&mut self, e: Expr) -> RowId {
        let Some(affine) = AffineExpr::from_expr(self.exprs, e) else {
            return self.rows.push_non_affine();
        };
        let mut levels = 0;
        let mut syms = 0;
        for v in affine.vars() {
            match self.level_of(v) {
                Some(k) => levels = levels.max(k + 1),
                // A mutated scalar is not a symbolic constant.
                None if self.facts[v.index()] & ASSIGNED != 0 => {
                    return self.rows.push_non_affine();
                }
                None => syms += 1,
            }
        }
        let at = self.rows.data.len();
        self.rows.data.push(affine.constant_part());
        self.rows.data.resize(at + 1 + levels, 0);
        for (v, c) in affine.iter_terms() {
            match self.level_of(v) {
                Some(k) => self.rows.data[at + 1 + k] = c,
                None => {
                    self.facts[v.index()] |= USED;
                    self.rows.data.extend([v.index() as i64, c]);
                }
            }
        }
        self.rows.push_span(Span {
            at,
            levels: levels as u32,
            syms,
        })
    }

    fn record(&mut self, r: &ArrayRef, is_write: bool) {
        let exprs = self.exprs;
        let start = self.rows.spans.len() as u32;
        let mut affine = true;
        for &s in exprs.subscripts(r) {
            let id = self.lower(s);
            affine &= self.rows.spans[id.0 as usize].levels != NON_AFFINE;
        }
        let end = self.rows.spans.len() as u32;
        let loops = *self.path.get_or_insert_with(|| {
            let start = self.paths.len();
            self.paths.extend_from_slice(&self.open);
            LoopPath {
                start,
                end: self.paths.len(),
            }
        });
        self.accesses.push(Access {
            id: self.accesses.len(),
            array: r.array,
            subscripts: RowRange { start, end },
            loops,
            is_write,
            stmt_index: self.stmt_index,
            conditional: self.cond_depth > 0,
            affine,
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
                    // Bounds are lowered in the enclosing scope, before
                    // the loop's own variable is bound.
                    let lower = self.lower(l.lower);
                    let upper = self.lower(l.upper);
                    let id = self.loops.len();
                    self.loops.push(Loop {
                        var: l.var,
                        depth: self.open.len(),
                        parent: self.open.last().copied(),
                        lower,
                        upper,
                    });
                    self.open.push(id);
                    // The body builds its own path; the enclosing
                    // loop's comes back after it.
                    let outer = self.path.take();
                    self.walk(&l.body);
                    self.path = outer;
                    self.open.pop();
                }
            }
        }
    }

    /// The set, with the symbolic constants (declared via `read`, plus
    /// every used scalar that is never assigned: a free parameter) in
    /// [`Sym`] order, and the rows with their symbolic terms renumbered
    /// into name order.
    fn finish(mut self, symbols: &Arc<SymbolTable>) -> AccessSet {
        let symbolics: Vec<Sym> = self
            .facts
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f & DECLARED != 0 || f & (USED | ASSIGNED) == USED)
            .map(|(k, _)| Sym::from_index(k))
            .collect();
        if !symbolics.is_empty() {
            self.rank_symbolics(&symbolics, symbols);
        }
        AccessSet {
            accesses: self.accesses,
            loops: self.loops,
            paths: self.paths,
            symbolics,
            symbols: Arc::clone(symbols),
            rows: self.rows,
        }
    }

    /// Renumbers the symbolic terms of every row from [`Sym`] order
    /// into the name order of `symbolics`.
    fn rank_symbolics(&mut self, symbolics: &[Sym], symbols: &SymbolTable) {
        let mut by_name = symbolics.to_vec();
        by_name.sort_unstable_by(|&x, &y| symbols.name(x).cmp(symbols.name(y)));
        // Each symbolic's rank in name order.
        let mut rank = vec![0i64; self.facts.len()];
        for (r, s) in by_name.iter().enumerate() {
            rank[s.index()] = r as i64;
        }
        for span in &self.rows.spans {
            if span.levels == NON_AFFINE || span.syms == 0 {
                continue;
            }
            let at = span.at + 1 + span.levels as usize;
            let terms = &mut self.rows.data[at..at + 2 * span.syms as usize];
            for t in terms.chunks_exact_mut(2) {
                t[0] = rank[t[0] as usize];
            }
            // Insertion sort by rank: rows hold a handful of terms.
            for i in 1..span.syms as usize {
                let mut j = i;
                while j > 0 && terms[2 * (j - 1)] > terms[2 * j] {
                    terms.swap(2 * (j - 1), 2 * j);
                    terms.swap(2 * j - 1, 2 * j + 1);
                    j -= 1;
                }
            }
        }
        self.rows.symbolics = by_name;
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
        loops: Vec::new(),
        open: Vec::new(),
        paths: Vec::new(),
        path: None,
        facts,
        rows: Rows::default(),
        stmt_index: 0,
        cond_depth: 0,
    };
    ex.walk(&program.stmts);
    ex.finish(&program.symbols)
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
                let common = set
                    .loops_of(a)
                    .iter()
                    .zip(set.loops_of(b))
                    .take_while(|(x, y)| x == y)
                    .count();
                pairs.push(RefPair { a, b, common, set });
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
        assert_eq!(set.accesses[0].depth(), 1);
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
    fn every_loop_is_numbered_in_pre_order() {
        // Loops in sequence, under both branches of an `if`, nested, a
        // loop whose body is only a loop, and loops without accesses.
        let p = parse_program(
            "for i = 1 to 10 { a[i] = 1; }
             if (1 < 2) { for j = 1 to 5 { a[j] = 2; } } else { for m = 1 to 2 { } }
             for k = 1 to 3 { for l = k to 9 { a[k] = a[l]; } for q = 1 to 2 { } }",
        )
        .unwrap();
        let set = extract_accesses(&p);
        let table: Vec<(&str, usize, Option<usize>)> = set
            .loops
            .iter()
            .map(|l| (set.symbols.name(l.var), l.depth, l.parent))
            .collect();
        assert_eq!(
            table,
            [
                ("i", 0, None),
                ("j", 0, None),
                ("m", 0, None),
                ("k", 0, None),
                ("l", 1, Some(3)),
                ("q", 1, Some(3)),
            ]
        );
        let paths: Vec<&[usize]> = set.accesses.iter().map(|a| set.loops_of(a)).collect();
        assert_eq!(paths, [&[0][..], &[1], &[3, 4], &[3, 4]]);
        // The two accesses directly inside `l` share one path.
        assert_eq!(set.accesses[2].loops, set.accesses[3].loops);
    }

    #[test]
    fn loopless_program_has_no_loops() {
        let set = extract_accesses(&parse_program("a[1] = 2;").unwrap());
        assert!(set.loops.is_empty());
        assert!(set.loops_of(&set.accesses[0]).is_empty());
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
        let inner = &set.loops[set.loops_of(&set.accesses[0])[1]];
        let lower = set.rows.get(inner.lower).unwrap();
        assert_eq!(lower.levels(), [1]);
        assert_eq!(lower.constant(), 0);
        let upper = set.rows.get(inner.upper).unwrap();
        assert!(upper.is_constant());
        assert_eq!(upper.constant(), 10);
    }

    #[test]
    fn a_shadowed_loop_variable_resolves_to_its_level() {
        let p = parse_program("for i = 1 to 10 { for i = i + 5 to 20 { a[i] = a[i + 3] + 1; } }")
            .unwrap();
        let set = extract_accesses(&p);
        let inner = &set.loops[set.loops_of(&set.accesses[0])[1]];
        // The inner loop's bound reads the outer `i` (level 0) ...
        let lower = set.rows.get(inner.lower).unwrap();
        assert_eq!((lower.levels(), lower.constant()), (&[1][..], 5));
        // ... and the subscripts read the inner one (level 1).
        let sub = set
            .rows
            .subscripts(&set.accesses[1])
            .next()
            .unwrap()
            .unwrap();
        assert_eq!((sub.levels(), sub.constant()), (&[0, 1][..], 3));
    }

    #[test]
    fn symbolic_terms_are_numbered_in_name_order() {
        let p =
            parse_program("read(z); read(a); for i = 1 to n { x[z + 2 * a + i] = 0; }").unwrap();
        let set = extract_accesses(&p);
        let names: Vec<&str> = set
            .rows
            .symbolics()
            .iter()
            .map(|&s| set.symbols.name(s))
            .collect();
        assert_eq!(names, ["a", "n", "z"]);
        let sub = set
            .rows
            .subscripts(&set.accesses[0])
            .next()
            .unwrap()
            .unwrap();
        let terms: Vec<(usize, i64)> = sub.symbolic_terms().collect();
        assert_eq!(terms, [(0, 2), (2, 1)]);
        assert_eq!(sub.levels(), [1]);
    }

    #[test]
    fn display_names_terms_in_name_order() {
        let p = parse_program("read(z); read(a); for i = 1 to 10 { x[z + a + i] = 0; }").unwrap();
        let set = extract_accesses(&p);
        assert_eq!(
            set.accesses[0].display(&set).to_string(),
            "x[a + i + z] (write)"
        );
    }

    #[test]
    fn nonlinear_subscript_marked() {
        let p = parse_program("for i = 1 to 10 { a[i * i] = 0; }").unwrap();
        let set = extract_accesses(&p);
        assert!(!set.accesses[0].is_affine());
        assert_eq!(set.rows.subscripts(&set.accesses[0]).next(), Some(None));
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
