//! Construction of the dependence problem for a pair of references.
//!
//! Given two accesses of the same array with their enclosing loop
//! contexts, this module builds the paper's Section 2 system: one integer
//! variable per loop index *instance* (shared loops contribute one
//! variable per side, `i` and `i′`), plus one shared variable per symbolic
//! constant; one equality per array dimension; and two inequalities per
//! loop bound.

use std::fmt;
use std::sync::Arc;

use dda_ir::{Access, AffineExpr, Bound, LoopInfo, Subscript, Sym, SymbolTable};

use crate::system::Constraint;

/// Identity of one problem variable in the original (`x`) space.
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
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::NonAffine => f.write_str("non-affine subscript or bound"),
            BuildError::DimensionMismatch => f.write_str("references differ in rank"),
            BuildError::SymbolicDisabled => {
                f.write_str("symbolic terms present but symbolic analysis disabled")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// The full dependence problem in the original variable space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependenceProblem {
    /// The variables, in a fixed structural order: common-A, common-B,
    /// extra-A, extra-B, symbolics (sorted by name).
    pub vars: Vec<XVar>,
    /// Equality rows: `eq_coeffs[d] · x = eq_rhs[d]`, one per dimension.
    pub eq_coeffs: Vec<Vec<i64>>,
    /// Equality right-hand sides.
    pub eq_rhs: Vec<i64>,
    /// Loop-bound inequalities `a · x ≤ b`.
    pub bounds: Vec<Constraint>,
    /// Number of common loops.
    pub num_common: usize,
}

impl DependenceProblem {
    /// Index of a variable in the structural order.
    #[must_use]
    pub fn var_index(&self, v: &XVar) -> Option<usize> {
        self.vars.iter().position(|x| x == v)
    }

    /// Number of problem variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Whether the problem involves symbolic constants.
    #[must_use]
    pub fn has_symbolics(&self) -> bool {
        self.vars.iter().any(|v| matches!(v, XVar::Symbolic(_)))
    }

    /// Checks a witness: every equality and bound must hold.
    #[must_use]
    pub fn is_witness(&self, x: &[i64]) -> bool {
        if x.len() != self.vars.len() {
            return false;
        }
        for (row, &rhs) in self.eq_coeffs.iter().zip(&self.eq_rhs) {
            match dda_linalg::num::dot(row, x) {
                Ok(v) if v == rhs => {}
                _ => return false,
            }
        }
        self.bounds
            .iter()
            .all(|c| c.is_satisfied_by(x) == Some(true))
    }
}

/// If both references have all-constant subscripts, decides dependence by
/// direct comparison — the paper's "Constant" column, "handled without
/// dependence testing".
///
/// Returns `Some(true)` for dependent (all dimensions equal), `Some(false)`
/// for independent, and `None` when any subscript involves a variable.
#[must_use]
pub fn constant_compare(a: &Access, b: &Access) -> Option<bool> {
    let mut all_equal = true;
    if a.subscripts.len() != b.subscripts.len() {
        return None;
    }
    for (sa, sb) in a.subscripts.iter().zip(&b.subscripts) {
        let (ea, eb) = (sa.as_affine()?, sb.as_affine()?);
        if !ea.is_constant() || !eb.is_constant() {
            return None;
        }
        if ea.constant_part() != eb.constant_part() {
            all_equal = false;
        }
    }
    Some(all_equal)
}

/// How one reference's variables map to problem columns.
struct Side<'a> {
    loops: &'a [LoopInfo],
    /// Column of the first common loop.
    common_at: usize,
    /// Column of the first loop below the common nest.
    extra_at: usize,
    common: usize,
}

impl Side<'_> {
    /// The column of loop variable `v`, the innermost loop of that name
    /// shadowing the outer ones.
    fn loop_column(&self, v: Sym) -> Option<usize> {
        let k = self.loops.iter().rposition(|l| l.var == v)?;
        Some(if k < self.common {
            self.common_at + k
        } else {
            self.extra_at + (k - self.common)
        })
    }
}

/// The symbolic constants of one problem, in column order (by name).
struct Symbolics {
    syms: Vec<Sym>,
    /// Column of the first symbolic.
    at: usize,
}

/// Maps an affine expression over one side's loop variables into problem
/// coordinates. Returns the coefficient row and the constant part.
fn map_expr(
    expr: &AffineExpr,
    side: &Side<'_>,
    symbolics: &Symbolics,
    num_vars: usize,
) -> Result<(Vec<i64>, i64), BuildError> {
    let mut row = vec![0i64; num_vars];
    for (v, coeff) in expr.iter_terms() {
        let idx = side
            .loop_column(v)
            .or_else(|| {
                let k = symbolics.syms.iter().position(|&s| s == v)?;
                Some(symbolics.at + k)
            })
            .ok_or(BuildError::NonAffine)?;
        row[idx] += coeff;
    }
    Ok((row, expr.constant_part()))
}

/// Builds the dependence problem for accesses `a` and `b` sharing
/// `common` enclosing loops. `symbols` is the table of the program the
/// accesses come from; it orders the symbolic constants by name.
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
    symbols: &SymbolTable,
    a: &Access,
    b: &Access,
    common: usize,
    allow_symbolics: bool,
) -> Result<DependenceProblem, BuildError> {
    if a.subscripts.len() != b.subscripts.len() {
        return Err(BuildError::DimensionMismatch);
    }

    // Collect the symbolics used anywhere in either side.
    let mut syms: Vec<Sym> = Vec::new();
    for acc in [a, b] {
        let mut note = |e: &AffineExpr| {
            for v in e.vars() {
                if !acc.loops.iter().any(|l| l.var == v) && !syms.contains(&v) {
                    syms.push(v);
                }
            }
        };
        for s in &acc.subscripts {
            match s {
                Subscript::Affine(e) => note(e),
                Subscript::NonAffine => return Err(BuildError::NonAffine),
            }
        }
        for l in acc.loops.iter() {
            for bnd in [&l.lower, &l.upper] {
                if let Bound::Affine(e) = bnd {
                    note(e);
                }
            }
        }
    }
    if !allow_symbolics && !syms.is_empty() {
        return Err(BuildError::SymbolicDisabled);
    }
    // Column order must not depend on first appearance: it reaches the
    // memo key.
    syms.sort_by(|&x, &y| symbols.name(x).cmp(symbols.name(y)));

    // Structural variable order.
    let extra_a = a.loops.len() - common;
    let extra_b = b.loops.len() - common;
    let mut vars = Vec::with_capacity(2 * common + extra_a + extra_b + syms.len());
    vars.extend((0..common).map(XVar::CommonA));
    vars.extend((0..common).map(XVar::CommonB));
    vars.extend((0..extra_a).map(XVar::ExtraA));
    vars.extend((0..extra_b).map(XVar::ExtraB));
    vars.extend(
        syms.iter()
            .map(|&s| XVar::Symbolic(Arc::clone(symbols.shared_name(s)))),
    );
    let num_vars = vars.len();

    let side_a = Side {
        loops: &a.loops,
        common_at: 0,
        extra_at: 2 * common,
        common,
    };
    let side_b = Side {
        loops: &b.loops,
        common_at: common,
        extra_at: 2 * common + extra_a,
        common,
    };
    let symbolics = Symbolics {
        syms,
        at: 2 * common + extra_a + extra_b,
    };

    // Equalities: f_d(i) − f′_d(i′) = 0 per dimension.
    let mut eq_coeffs = Vec::with_capacity(a.subscripts.len());
    let mut eq_rhs = Vec::with_capacity(a.subscripts.len());
    for (sa, sb) in a.subscripts.iter().zip(&b.subscripts) {
        let ea = sa.as_affine().ok_or(BuildError::NonAffine)?;
        let eb = sb.as_affine().ok_or(BuildError::NonAffine)?;
        let (mut row, ca) = map_expr(ea, &side_a, &symbolics, num_vars)?;
        let (row_b, cb) = map_expr(eb, &side_b, &symbolics, num_vars)?;
        for (x, y) in row.iter_mut().zip(&row_b) {
            *x -= y;
        }
        eq_coeffs.push(row);
        eq_rhs.push(cb - ca);
    }

    // Bounds: L ≤ i and i ≤ U for every loop instance on each side.
    let mut bounds = Vec::new();
    for side in [&side_a, &side_b] {
        for l in side.loops {
            let var_idx = side.loop_column(l.var).ok_or(BuildError::NonAffine)?;
            if let Bound::Affine(lo) = &l.lower {
                // L(x) ≤ i  ⇔  L_coeffs·x − i ≤ −L_const
                let (mut row, c) = map_expr(lo, side, &symbolics, num_vars)?;
                row[var_idx] -= 1;
                bounds.push(Constraint::new(row, -c));
            }
            if let Bound::Affine(up) = &l.upper {
                // i ≤ U(x)  ⇔  i − U_coeffs·x ≤ U_const
                let (mut row, c) = map_expr(up, side, &symbolics, num_vars)?;
                for v in &mut row {
                    *v = -*v;
                }
                row[var_idx] += 1;
                bounds.push(Constraint::new(row, c));
            }
        }
    }

    Ok(DependenceProblem {
        vars,
        eq_coeffs,
        eq_rhs,
        bounds,
        num_common: common,
    })
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
        build_problem(&set.symbols, pairs[0].a, pairs[0].b, pairs[0].common, true).unwrap()
    }

    #[test]
    fn paper_first_loop() {
        // a[i] = a[i+10]: i − i′ = 10, bounds 1..10 each side.
        let p = problem_for("for i = 1 to 10 { a[i] = a[i + 10] + 3; }");
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.eq_coeffs, vec![vec![1, -1]]);
        assert_eq!(p.eq_rhs, vec![10]);
        assert_eq!(p.bounds.len(), 4);
        assert_eq!(p.num_common, 1);
        // (i, i') = (11, 1) solves the equality but violates bounds.
        assert!(!p.is_witness(&[11, 1]));
    }

    #[test]
    fn second_paper_loop_has_witness() {
        // a[i+1] = a[i]: i + 1 = i′ ⇒ i − i′ = −1.
        let p = problem_for("for i = 1 to 10 { a[i + 1] = a[i] + 3; }");
        assert_eq!(p.eq_rhs, vec![-1]);
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
        assert_eq!(p.eq_coeffs.len(), 2);
        // dim 0: i1 − i2′ = 10
        assert_eq!(p.eq_coeffs[0], vec![1, 0, 0, -1]);
        assert_eq!(p.eq_rhs[0], 10);
        // dim 1: i2 − i1′ = 9
        assert_eq!(p.eq_coeffs[1], vec![0, 1, -1, 0]);
        assert_eq!(p.eq_rhs[1], 9);
    }

    #[test]
    fn symbolic_constant_shared() {
        let p = problem_for("read(n); for i = 1 to 10 { a[i + n] = a[i + 2 * n + 1]; }");
        assert_eq!(p.num_vars(), 3);
        assert!(p.has_symbolics());
        // i + n = i' + 2n + 1  ⇒  i − i′ − n = 1
        assert_eq!(p.eq_coeffs, vec![vec![1, -1, -1]]);
        assert_eq!(p.eq_rhs, vec![1]);
    }

    #[test]
    fn symbolics_are_ordered_by_name_not_first_appearance() {
        let p = problem_for("read(z); read(a); for i = 1 to 10 { x[i + z] = x[i + 2 * a]; }");
        let names: Vec<String> = p.vars.iter().map(ToString::to_string).collect();
        assert_eq!(names, ["i0", "i0'", "a", "z"]);
        // i + z = i′ + 2a  ⇒  i − i′ − 2a + z = 0
        assert_eq!(p.eq_coeffs, vec![vec![1, -1, -2, 1]]);
    }

    #[test]
    fn symbolic_disabled_errors() {
        let src = "read(n); for i = 1 to 10 { a[i + n] = a[i]; }";
        let prog = parse_program(src).unwrap();
        let set = extract_accesses(&prog);
        let pairs = reference_pairs(&set, false);
        let err = build_problem(&set.symbols, pairs[0].a, pairs[0].b, pairs[0].common, false);
        assert_eq!(err.unwrap_err(), BuildError::SymbolicDisabled);
    }

    #[test]
    fn symbolic_bound_counts_as_symbolic() {
        let src = "for i = 1 to n { a[i] = a[i + 1]; }";
        let prog = parse_program(src).unwrap();
        let set = extract_accesses(&prog);
        let pairs = reference_pairs(&set, false);
        let err = build_problem(&set.symbols, pairs[0].a, pairs[0].b, pairs[0].common, false);
        assert_eq!(err.unwrap_err(), BuildError::SymbolicDisabled);
        let ok =
            build_problem(&set.symbols, pairs[0].a, pairs[0].b, pairs[0].common, true).unwrap();
        assert!(ok.has_symbolics());
    }

    #[test]
    fn triangular_bounds_reference_outer_var() {
        let p = problem_for("for i = 1 to 10 { for j = i to 10 { a[i][j] = a[i - 1][j]; } }");
        // j's lower bound i ≤ j: row has +1 on i and −1 on j.
        let idx_i = p.var_index(&XVar::CommonA(0)).unwrap();
        let idx_j = p.var_index(&XVar::CommonA(1)).unwrap();
        let tri = p
            .bounds
            .iter()
            .find(|c| c.coeffs[idx_i] == 1 && c.coeffs[idx_j] == -1)
            .expect("triangular bound present");
        assert_eq!(tri.rhs, 0);
    }

    #[test]
    fn constant_compare_cases() {
        let prog = parse_program("for i = 1 to 10 { a[3] = a[4]; b[5] = b[5]; }").unwrap();
        let set = extract_accesses(&prog);
        let pairs = reference_pairs(&set, false);
        let named = |name: &str| set.symbols.get(name).unwrap();
        let pa = pairs.iter().find(|p| p.a.array == named("a")).unwrap();
        let pb = pairs.iter().find(|p| p.a.array == named("b")).unwrap();
        assert_eq!(constant_compare(pa.a, pa.b), Some(false));
        assert_eq!(constant_compare(pb.a, pb.b), Some(true));
        let prog2 = parse_program("for i = 1 to 10 { c[i] = c[3]; }").unwrap();
        let set2 = extract_accesses(&prog2);
        let pairs2 = reference_pairs(&set2, false);
        assert_eq!(constant_compare(pairs2[0].a, pairs2[0].b), None);
    }

    #[test]
    fn sibling_loops_no_common() {
        let src = "for i = 1 to 10 { a[i] = 1; } for j = 1 to 5 { a[j + 20] = 2; }";
        let prog = parse_program(src).unwrap();
        let set = extract_accesses(&prog);
        let pairs = reference_pairs(&set, false);
        assert_eq!(pairs.len(), 1);
        let p = build_problem(&set.symbols, pairs[0].a, pairs[0].b, pairs[0].common, true).unwrap();
        assert_eq!(p.num_common, 0);
        assert_eq!(p.num_vars(), 2); // one ExtraA, one ExtraB
        assert_eq!(p.vars[0], XVar::ExtraA(0));
        assert_eq!(p.vars[1], XVar::ExtraB(0));
    }
}
