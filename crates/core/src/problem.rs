//! Construction of the dependence problem for a pair of references.
//!
//! Given two accesses of the same array with their enclosing loop
//! contexts, this module builds the paper's Section 2 system: one integer
//! variable per loop index *instance* (shared loops contribute one
//! variable per side, `i` and `i′`), plus one shared variable per symbolic
//! constant; one equality per array dimension; and two inequalities per
//! loop bound.
//!
//! The system is written from the pair's subscript and bound rows (see
//! [`dda_ir::Rows`]), in which every loop variable is already resolved to
//! its level, into the dense rows of a [`DependenceProblem`], whose
//! buffers are reused from pair to pair. Classification, the memo keys
//! and the solvers all read those rows. Every row operation is checked:
//! a row that does not fit in `i64` makes the pair unbuildable
//! ([`BuildError::Overflow`]), so dependence is assumed.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;
use std::sync::Arc;

use dda_ir::{Access, AccessSet, RefPair, Row};

use crate::memo::ColumnVec;

/// The name of one problem variable in the original (`x`) space, for
/// printing (see [`DependenceProblem::vars`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum XVar {
    /// Iteration variable of common loop `level` as seen by the first
    /// reference (`i` in the paper).
    CommonA(usize),
    /// Iteration variable of common loop `level` as seen by the second
    /// reference (`i′`).
    CommonB(usize),
    /// A loop enclosing only the first reference, `index` levels below the
    /// common nest.
    ExtraA(usize),
    /// A loop enclosing only the second reference.
    ExtraB(usize),
    /// A loop-invariant unknown, shared by both sides (Section 8), by
    /// name.
    Symbolic(Arc<str>),
}

impl fmt::Display for XVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XVar::CommonA(k) => write!(f, "i{k}"),
            XVar::CommonB(k) => write!(f, "i{k}'"),
            XVar::ExtraA(k) => write!(f, "ja{k}"),
            XVar::ExtraB(k) => write!(f, "jb{k}"),
            XVar::Symbolic(s) => write!(f, "{s}"),
        }
    }
}

/// Why a problem could not be built (the analyzer then assumes
/// dependence).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// A subscript is not an affine function of loop variables and
    /// symbolic constants.
    NonAffine,
    /// The two references disagree on dimensionality.
    DimensionMismatch,
    /// The pair uses symbolic constants but symbolic analysis is disabled
    /// (Section 8 ablation).
    SymbolicDisabled,
    /// An equality or bound row does not fit in `i64`.
    Overflow,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::NonAffine => f.write_str("non-affine subscript or bound"),
            BuildError::DimensionMismatch => f.write_str("references differ in rank"),
            BuildError::SymbolicDisabled => {
                f.write_str("symbolic terms present but symbolic analysis disabled")
            }
            BuildError::Overflow => f.write_str("a subscript or bound row overflows i64"),
        }
    }
}

impl std::error::Error for BuildError {}

/// One pair's dependence system in the original (`x`) space, dense: the
/// columns in the structural order of its [`Layout`], one equality row
/// `coeffs · x = rhs` per dimension and one bound row `coeffs · x ≤ rhs`
/// per loop bound, each row [`num_vars`](Self::num_vars)` + 1` wide with
/// the right-hand side last. [`lower`](Self::lower) writes a pair's system
/// into the buffers held, so one problem serves pair after pair.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DependenceProblem {
    layout: Layout,
    /// The pair's symbolics as indexes into [`Rows::symbolics`](dda_ir::Rows::symbolics),
    /// ascending, which is name order.
    symbolics: Vec<usize>,
    eqs: Vec<i64>,
    bounds: Vec<i64>,
}

impl DependenceProblem {
    /// A problem over `layout`'s columns, its symbolic columns standing
    /// for `symbolics` (indexes into the pair's
    /// [`Rows::symbolics`](dda_ir::Rows::symbolics), ascending), with the
    /// flat equality and bound rows given.
    ///
    /// # Panics
    ///
    /// When `symbolics` does not fill the layout's symbolic columns, or a
    /// row section is not a whole number of rows.
    #[must_use]
    pub fn from_rows(
        layout: Layout,
        symbolics: Vec<usize>,
        equations: Vec<i64>,
        bounds: Vec<i64>,
    ) -> DependenceProblem {
        let width = layout.num_vars() + 1;
        assert_eq!(
            symbolics.len(),
            layout.symbolics,
            "one id per symbolic column"
        );
        assert!(
            equations.len().is_multiple_of(width) && bounds.len().is_multiple_of(width),
            "rows are {width} wide"
        );
        DependenceProblem {
            layout,
            symbolics,
            eqs: equations,
            bounds,
        }
    }

    /// How the columns are laid out.
    #[must_use]
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Number of problem variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.layout.num_vars()
    }

    /// The symbolic columns' symbolics, as indexes into the pair's
    /// [`Rows::symbolics`](dda_ir::Rows::symbolics).
    #[must_use]
    pub fn symbolics(&self) -> &[usize] {
        &self.symbolics
    }

    /// Number of equality rows.
    #[must_use]
    pub fn num_equations(&self) -> usize {
        self.eqs.len() / self.width()
    }

    /// Equality row `i`: coefficients and right-hand side.
    #[must_use]
    pub fn equation(&self, i: usize) -> (&[i64], i64) {
        row_at(&self.eqs, self.width(), i)
    }

    /// The equality rows, in dimension order.
    pub fn equations(&self) -> impl ExactSizeIterator<Item = (&[i64], i64)> {
        split_rows(&self.eqs, self.width())
    }

    /// Number of bound rows.
    #[must_use]
    pub fn num_bounds(&self) -> usize {
        self.bounds.len() / self.width()
    }

    /// The bound rows: per side, per loop outermost first, its lower
    /// bound row and then its upper one.
    pub fn bounds(&self) -> impl ExactSizeIterator<Item = (&[i64], i64)> {
        split_rows(&self.bounds, self.width())
    }

    /// The variables, named, with the symbolics of `set` (the pair's
    /// set): for printing.
    #[must_use]
    pub fn vars(&self, set: &AccessSet) -> Vec<XVar> {
        let Layout {
            common,
            extra_a,
            extra_b,
            ..
        } = self.layout;
        let mut vars = Vec::with_capacity(self.num_vars());
        vars.extend((0..common).map(XVar::CommonA));
        vars.extend((0..common).map(XVar::CommonB));
        vars.extend((0..extra_a).map(XVar::ExtraA));
        vars.extend((0..extra_b).map(XVar::ExtraB));
        vars.extend(self.symbolics.iter().map(|&s| {
            let sym = set.rows.symbolics()[s];
            XVar::Symbolic(Arc::clone(set.symbols.shared_name(sym)))
        }));
        vars
    }

    /// Checks a witness: every equality and bound must hold.
    #[must_use]
    pub fn is_witness(&self, x: &[i64]) -> bool {
        let dot = |row: &[i64]| dda_linalg::num::dot(row, x).ok();
        x.len() == self.num_vars()
            && self.equations().all(|(row, rhs)| dot(row) == Some(rhs))
            && self
                .bounds()
                .all(|(row, rhs)| dot(row).is_some_and(|v| v <= rhs))
    }

    /// Width of one row: a coefficient per problem variable, then the
    /// right-hand side.
    fn width(&self) -> usize {
        self.layout.num_vars() + 1
    }
}

/// Row `i` of the `width`-wide rows `rows`.
fn row_at(rows: &[i64], width: usize, i: usize) -> (&[i64], i64) {
    let r = &rows[i * width..(i + 1) * width];
    (&r[..width - 1], r[width - 1])
}

/// The `width`-wide rows of `rows`.
fn split_rows(rows: &[i64], width: usize) -> impl ExactSizeIterator<Item = (&[i64], i64)> {
    rows.chunks_exact(width)
        .map(move |r| (&r[..width - 1], r[width - 1]))
}

/// How a pair's problem columns are laid out: the common loops as the
/// first reference sees them, then as the second does, the loops
/// enclosing only the first, only the second, and the symbolics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Layout {
    /// Number of common loops.
    pub common: usize,
    /// Loops enclosing only the first reference.
    pub extra_a: usize,
    /// Loops enclosing only the second reference.
    pub extra_b: usize,
    /// Symbolic constants.
    pub symbolics: usize,
}

impl Layout {
    /// Number of problem variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        2 * self.common + self.extra_a + self.extra_b + self.symbolics
    }

    /// The columns of common level `level` as the first and as the second
    /// reference see it (`i` and `i′`).
    #[must_use]
    pub fn common_columns(&self, level: usize) -> (usize, usize) {
        (level, self.common + level)
    }

    /// The mirror's column permutation: `columns[i]` is the column whose
    /// variable sits at position `i` of the mirror problem (the pair
    /// with its references swapped). The mirror maps `CommonA(k)` ↔
    /// `CommonB(k)` and `ExtraA(k)` ↔ `ExtraB(k)` and leaves symbolics in
    /// place; its bounds are the original's with columns permuted, and
    /// its equality rows are permuted and negated
    /// (`f_b − f_a = −(f_a − f_b)`). Memo keys are written from this
    /// permutation directly, so no mirror problem is ever built.
    ///
    /// `None` when the mirror is not well-defined: swapping the extra
    /// blocks must be a permutation, which requires the two references
    /// to have the same number of non-common enclosing loops.
    #[must_use]
    pub fn mirror_columns(&self) -> Option<ColumnVec> {
        if self.extra_a != self.extra_b {
            return None;
        }
        let (c, e) = (self.common, self.extra_a);
        let mut columns = ColumnVec::new();
        columns.extend((c..2 * c).chain(0..c));
        columns.extend((2 * c + e..2 * c + 2 * e).chain(2 * c..2 * c + e));
        columns.extend(2 * c + 2 * e..self.num_vars());
        Some(columns)
    }
}

/// If both references have all-constant subscripts, decides dependence by
/// direct comparison — the paper's "Constant" column, "handled without
/// dependence testing".
///
/// Returns `Some(true)` for dependent (all dimensions equal), `Some(false)`
/// for independent, and `None` when any subscript involves a variable.
#[must_use]
pub fn constant_compare(pair: RefPair<'_>) -> Option<bool> {
    let rows = &pair.set.rows;
    if pair.a.rank() != pair.b.rank() {
        return None;
    }
    let mut all_equal = true;
    for (ra, rb) in rows.subscripts(pair.a).zip(rows.subscripts(pair.b)) {
        let (ra, rb) = (ra?, rb?);
        if !ra.is_constant() || !rb.is_constant() {
            return None;
        }
        all_equal &= ra.constant() == rb.constant();
    }
    Some(all_equal)
}

/// How one reference's loop levels map to problem columns.
#[derive(Clone, Copy)]
struct Side<'a> {
    access: &'a Access,
    /// Column of the first common loop.
    common_at: usize,
    /// Column of the first loop below the common nest.
    extra_at: usize,
    common: usize,
}

impl Side<'_> {
    fn column(&self, level: usize) -> usize {
        if level < self.common {
            self.common_at + level
        } else {
            self.extra_at + (level - self.common)
        }
    }
}

impl DependenceProblem {
    /// Writes the system of `pair`, replacing the one held. With
    /// `allow_symbolics` off (the Section 8 ablation), a symbolic term in
    /// any subscript or bound of either side is
    /// [`BuildError::SymbolicDisabled`].
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when the pair cannot be expressed in the
    /// paper's model, including an equality or bound row that overflows
    /// `i64`; the caller assumes dependence. The problem is then left
    /// empty: no columns and no rows.
    pub fn lower(&mut self, pair: RefPair<'_>, allow_symbolics: bool) -> Result<(), BuildError> {
        let lowered = self.write_system(pair, allow_symbolics);
        if lowered.is_err() {
            self.layout = Layout::default();
            self.symbolics.clear();
            self.eqs.clear();
            self.bounds.clear();
        }
        lowered
    }

    /// The body of [`lower`](Self::lower), which may fail partway.
    fn write_system(&mut self, pair: RefPair<'_>, allow_symbolics: bool) -> Result<(), BuildError> {
        let RefPair { a, b, common, set } = pair;
        let rows = &set.rows;
        if a.rank() != b.rank() {
            return Err(BuildError::DimensionMismatch);
        }
        // The symbolics used anywhere in either side.
        self.symbolics.clear();
        for acc in [a, b] {
            for row in rows.subscripts(acc) {
                note_symbolics(&mut self.symbolics, row.ok_or(BuildError::NonAffine)?);
            }
            for &l in set.loops_of(acc) {
                let l = &set.loops[l];
                for id in [l.lower, l.upper] {
                    if let Some(row) = rows.get(id) {
                        note_symbolics(&mut self.symbolics, row);
                    }
                }
            }
        }
        if !allow_symbolics && !self.symbolics.is_empty() {
            return Err(BuildError::SymbolicDisabled);
        }

        let extra_a = a.depth() - common;
        self.layout = Layout {
            common,
            extra_a,
            extra_b: b.depth() - common,
            symbolics: self.symbolics.len(),
        };
        let width = self.width();
        let side_a = Side {
            access: a,
            common_at: 0,
            extra_at: 2 * common,
            common,
        };
        let side_b = Side {
            access: b,
            common_at: common,
            extra_at: 2 * common + extra_a,
            common,
        };

        // Equalities: f_d(i) − f′_d(i′) = 0 per dimension.
        let symbolics = Symbolics {
            syms: &self.symbolics,
            at: 2 * common + extra_a + self.layout.extra_b,
        };
        self.eqs.clear();
        self.eqs.resize(a.rank() * width, 0);
        for (d, (ra, rb)) in rows.subscripts(a).zip(rows.subscripts(b)).enumerate() {
            let (ra, rb) = (
                ra.ok_or(BuildError::NonAffine)?,
                rb.ok_or(BuildError::NonAffine)?,
            );
            let out = &mut self.eqs[d * width..(d + 1) * width];
            add_row(out, ra, side_a, &symbolics, false)?;
            add_row(out, rb, side_b, &symbolics, true)?;
            out[width - 1] = checked(rb.constant().checked_sub(ra.constant()))?;
        }

        // Bounds: L ≤ i and i ≤ U for every loop instance on each side.
        // A loop's bound rows use only the levels outside it, so its own
        // column starts at zero.
        self.bounds.clear();
        for side in [side_a, side_b] {
            for (k, &l) in set.loops_of(side.access).iter().enumerate() {
                let l = &set.loops[l];
                let column = side.column(k);
                if let Some(lo) = rows.get(l.lower) {
                    // L(x) ≤ i  ⇔  L_coeffs·x − i ≤ −L_const
                    let at = self.bounds.len();
                    self.bounds.resize(at + width, 0);
                    let out = &mut self.bounds[at..];
                    add_row(out, lo, side, &symbolics, false)?;
                    out[column] = checked(out[column].checked_sub(1))?;
                    out[width - 1] = checked(lo.constant().checked_neg())?;
                }
                if let Some(up) = rows.get(l.upper) {
                    // i ≤ U(x)  ⇔  i − U_coeffs·x ≤ U_const
                    let at = self.bounds.len();
                    self.bounds.resize(at + width, 0);
                    let out = &mut self.bounds[at..];
                    add_row(out, up, side, &symbolics, true)?;
                    out[column] = checked(out[column].checked_add(1))?;
                    out[width - 1] = up.constant();
                }
            }
        }
        Ok(())
    }
}

/// The symbolic columns of a pair: its symbolics (indexes into
/// [`Rows::symbolics`](dda_ir::Rows::symbolics), ascending) from column `at` on.
struct Symbolics<'a> {
    syms: &'a [usize],
    at: usize,
}

fn checked(v: Option<i64>) -> Result<i64, BuildError> {
    v.ok_or(BuildError::Overflow)
}

/// Adds (or with `negate`, subtracts) `row`'s terms, as `side` sees
/// them, into `out`.
fn add_row(
    out: &mut [i64],
    row: Row<'_>,
    side: Side<'_>,
    symbolics: &Symbolics<'_>,
    negate: bool,
) -> Result<(), BuildError> {
    let add = |x: &mut i64, c: i64| -> Result<(), BuildError> {
        *x = checked(if negate {
            x.checked_sub(c)
        } else {
            x.checked_add(c)
        })?;
        Ok(())
    };
    for (k, &c) in row.levels().iter().enumerate() {
        if c != 0 {
            add(&mut out[side.column(k)], c)?;
        }
    }
    for (s, c) in row.symbolic_terms() {
        // Every symbolic of the pair was noted, so the search finds it.
        let j = symbolics.syms.binary_search(&s).unwrap_or(0);
        add(&mut out[symbolics.at + j], c)?;
    }
    Ok(())
}

/// Adds the symbolics `row` uses to the ascending set `syms`.
fn note_symbolics(syms: &mut Vec<usize>, row: Row<'_>) {
    for (s, _) in row.symbolic_terms() {
        if let Err(at) = syms.binary_search(&s) {
            syms.insert(at, s);
        }
    }
}

/// Builds the dependence problem for `pair` from its rows.
///
/// `allow_symbolics` gates Section 8 support: when `false`, any
/// loop-invariant unknown in a subscript or bound yields
/// [`BuildError::SymbolicDisabled`].
///
/// # Errors
///
/// Returns a [`BuildError`] when the pair cannot be expressed in the
/// paper's model; the caller assumes dependence.
pub fn build_problem(
    pair: RefPair<'_>,
    allow_symbolics: bool,
) -> Result<DependenceProblem, BuildError> {
    let mut problem = DependenceProblem::default();
    problem.lower(pair, allow_symbolics)?;
    Ok(problem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dda_ir::{extract_accesses, parse_program, reference_pairs};

    fn problem_for(src: &str) -> DependenceProblem {
        let p = parse_program(src).unwrap();
        let set = extract_accesses(&p);
        let pairs = reference_pairs(&set, false);
        assert_eq!(pairs.len(), 1, "expected exactly one pair");
        build_problem(pairs[0], true).unwrap()
    }

    #[test]
    fn paper_first_loop() {
        // a[i] = a[i+10]: i − i′ = 10, bounds 1..10 each side.
        let p = problem_for("for i = 1 to 10 { a[i] = a[i + 10] + 3; }");
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.equations().collect::<Vec<_>>(), [(&[1, -1][..], 10)]);
        assert_eq!(p.num_bounds(), 4);
        assert_eq!(p.layout().common, 1);
        // (i, i') = (11, 1) solves the equality but violates bounds.
        assert!(!p.is_witness(&[11, 1]));
    }

    #[test]
    fn second_paper_loop_has_witness() {
        // a[i+1] = a[i]: i + 1 = i′ ⇒ i − i′ = −1.
        let p = problem_for("for i = 1 to 10 { a[i + 1] = a[i] + 3; }");
        assert_eq!(p.equation(0).1, -1);
        assert!(p.is_witness(&[1, 2]));
        assert!(!p.is_witness(&[10, 11])); // i' out of bounds
    }

    #[test]
    fn coupled_subscripts() {
        // a[i1][i2] = a[i2+10][i1+9]
        let p = problem_for(
            "for i1 = 1 to 10 { for i2 = 1 to 10 {
                a[i1][i2] = a[i2 + 10][i1 + 9];
            } }",
        );
        assert_eq!(p.num_vars(), 4); // i1, i2, i1', i2'
        assert_eq!(p.num_equations(), 2);
        // dim 0: i1 − i2′ = 10
        assert_eq!(p.equation(0), (&[1, 0, 0, -1][..], 10));
        // dim 1: i2 − i1′ = 9
        assert_eq!(p.equation(1), (&[0, 1, -1, 0][..], 9));
    }

    #[test]
    fn symbolic_constant_shared() {
        let p = problem_for("read(n); for i = 1 to 10 { a[i + n] = a[i + 2 * n + 1]; }");
        assert_eq!(p.num_vars(), 3);
        assert_eq!(p.layout().symbolics, 1);
        // i + n = i' + 2n + 1  ⇒  i − i′ − n = 1
        assert_eq!(p.equations().collect::<Vec<_>>(), [(&[1, -1, -1][..], 1)]);
    }

    #[test]
    fn symbolics_are_ordered_by_name_not_first_appearance() {
        let src = "read(z); read(a); for i = 1 to 10 { x[i + z] = x[i + 2 * a]; }";
        let set = extract_accesses(&parse_program(src).unwrap());
        let pairs = reference_pairs(&set, false);
        let p = build_problem(pairs[0], true).unwrap();
        let names: Vec<String> = p.vars(&set).iter().map(ToString::to_string).collect();
        assert_eq!(names, ["i0", "i0'", "a", "z"]);
        // i + z = i′ + 2a  ⇒  i − i′ − 2a + z = 0
        assert_eq!(
            p.equations().collect::<Vec<_>>(),
            [(&[1, -1, -2, 1][..], 0)]
        );
    }

    #[test]
    fn symbolic_disabled_errors() {
        let src = "read(n); for i = 1 to 10 { a[i + n] = a[i]; }";
        let prog = parse_program(src).unwrap();
        let set = extract_accesses(&prog);
        let pairs = reference_pairs(&set, false);
        let err = build_problem(pairs[0], false);
        assert_eq!(err.unwrap_err(), BuildError::SymbolicDisabled);
    }

    #[test]
    fn symbolic_bound_counts_as_symbolic() {
        let src = "for i = 1 to n { a[i] = a[i + 1]; }";
        let prog = parse_program(src).unwrap();
        let set = extract_accesses(&prog);
        let pairs = reference_pairs(&set, false);
        let err = build_problem(pairs[0], false);
        assert_eq!(err.unwrap_err(), BuildError::SymbolicDisabled);
        let ok = build_problem(pairs[0], true).unwrap();
        assert_eq!(ok.layout().symbolics, 1);
    }

    #[test]
    fn triangular_bounds_reference_outer_var() {
        let p = problem_for("for i = 1 to 10 { for j = i to 10 { a[i][j] = a[i - 1][j]; } }");
        // j's lower bound i ≤ j: row has +1 on i and −1 on j.
        let (idx_i, _) = p.layout().common_columns(0);
        let (idx_j, _) = p.layout().common_columns(1);
        let (_, rhs) = p
            .bounds()
            .find(|(c, _)| c[idx_i] == 1 && c[idx_j] == -1)
            .expect("triangular bound present");
        assert_eq!(rhs, 0);
    }

    #[test]
    fn constant_compare_cases() {
        let prog = parse_program("for i = 1 to 10 { a[3] = a[4]; b[5] = b[5]; }").unwrap();
        let set = extract_accesses(&prog);
        let pairs = reference_pairs(&set, false);
        let named = |name: &str| set.symbols.get(name).unwrap();
        let pa = pairs.iter().find(|p| p.a.array == named("a")).unwrap();
        let pb = pairs.iter().find(|p| p.a.array == named("b")).unwrap();
        assert_eq!(constant_compare(*pa), Some(false));
        assert_eq!(constant_compare(*pb), Some(true));
        let prog2 = parse_program("for i = 1 to 10 { c[i] = c[3]; }").unwrap();
        let set2 = extract_accesses(&prog2);
        let pairs2 = reference_pairs(&set2, false);
        assert_eq!(constant_compare(pairs2[0]), None);
    }

    #[test]
    fn sibling_loops_no_common() {
        let src = "for i = 1 to 10 { a[i] = 1; } for j = 1 to 5 { a[j + 20] = 2; }";
        let prog = parse_program(src).unwrap();
        let set = extract_accesses(&prog);
        let pairs = reference_pairs(&set, false);
        assert_eq!(pairs.len(), 1);
        let p = build_problem(pairs[0], true).unwrap();
        assert_eq!(p.layout().common, 0);
        assert_eq!(p.vars(&set), [XVar::ExtraA(0), XVar::ExtraB(0)]);
    }

    #[test]
    fn a_problem_from_rows_reads_back_its_rows() {
        let layout = Layout {
            common: 1,
            symbolics: 1,
            ..Layout::default()
        };
        let p = DependenceProblem::from_rows(layout, vec![0], vec![1, -1, 2, 5], vec![0, 1, 0, 9]);
        assert_eq!(p.equation(0), (&[1, -1, 2][..], 5));
        assert_eq!(p.bounds().collect::<Vec<_>>(), [(&[0, 1, 0][..], 9)]);
        assert_eq!(p.symbolics(), [0]);
    }
}
