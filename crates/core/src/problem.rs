//! Construction of the dependence problem for a pair of references.
//!
//! Given two accesses of the same array with their enclosing loop
//! contexts, this module builds the paper's Section 2 system: one integer
//! variable per loop index *instance* (shared loops contribute one
//! variable per side, `i` and `i′`), plus one shared variable per symbolic
//! constant; one equality per array dimension; and two inequalities per
//! loop bound.

use std::collections::BTreeMap;
use std::fmt;

use dda_ir::{Access, AffineExpr, Bound, Subscript};

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
    /// A loop-invariant unknown, shared by both sides (Section 8).
    Symbolic(String),
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

/// Maps an affine expression over one side's loop variables into problem
/// coordinates. Returns the coefficient row and the constant part.
fn map_expr(
    expr: &AffineExpr,
    side_map: &BTreeMap<&str, usize>,
    sym_map: &BTreeMap<&str, usize>,
    num_vars: usize,
) -> Result<(Vec<i64>, i64), BuildError> {
    let mut row = vec![0i64; num_vars];
    for (name, coeff) in expr.iter_terms() {
        let idx = side_map
            .get(name)
            .or_else(|| sym_map.get(name))
            .copied()
            .ok_or(BuildError::NonAffine)?;
        row[idx] += coeff;
    }
    Ok((row, expr.constant_part()))
}

/// Builds the dependence problem for accesses `a` and `b` sharing
/// `common` enclosing loops.
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
    a: &Access,
    b: &Access,
    common: usize,
    allow_symbolics: bool,
) -> Result<DependenceProblem, BuildError> {
    if a.subscripts.len() != b.subscripts.len() {
        return Err(BuildError::DimensionMismatch);
    }

    // Collect symbolic names used anywhere in either side.
    let mut symbolic_names: Vec<String> = Vec::new();
    {
        let mut note = |e: &AffineExpr, loop_vars: &[&str]| {
            for v in e.vars() {
                if !loop_vars.contains(&v) && !symbolic_names.iter().any(|s| s == v) {
                    symbolic_names.push(v.to_owned());
                }
            }
        };
        for acc in [a, b] {
            let loop_vars: Vec<&str> = acc.loops.iter().map(|l| l.var.as_str()).collect();
            for s in &acc.subscripts {
                match s {
                    Subscript::Affine(e) => note(e, &loop_vars),
                    Subscript::NonAffine => return Err(BuildError::NonAffine),
                }
            }
            for l in acc.loops.iter() {
                for bnd in [&l.lower, &l.upper] {
                    if let Bound::Affine(e) = bnd {
                        note(e, &loop_vars);
                    }
                }
            }
        }
        symbolic_names.sort();
    }
    if !allow_symbolics && !symbolic_names.is_empty() {
        return Err(BuildError::SymbolicDisabled);
    }

    // Structural variable order.
    let extra_a = a.loops.len() - common;
    let extra_b = b.loops.len() - common;
    let mut vars = Vec::new();
    for k in 0..common {
        vars.push(XVar::CommonA(k));
    }
    for k in 0..common {
        vars.push(XVar::CommonB(k));
    }
    for k in 0..extra_a {
        vars.push(XVar::ExtraA(k));
    }
    for k in 0..extra_b {
        vars.push(XVar::ExtraB(k));
    }
    for s in &symbolic_names {
        vars.push(XVar::Symbolic(s.clone()));
    }
    let num_vars = vars.len();

    // Per-side name → variable index maps (innermost shadowing outermost).
    let mut map_a: BTreeMap<&str, usize> = BTreeMap::new();
    for (k, l) in a.loops.iter().enumerate() {
        let idx = if k < common {
            k
        } else {
            2 * common + (k - common)
        };
        map_a.insert(l.var.as_str(), idx);
    }
    let mut map_b: BTreeMap<&str, usize> = BTreeMap::new();
    for (k, l) in b.loops.iter().enumerate() {
        let idx = if k < common {
            common + k
        } else {
            2 * common + extra_a + (k - common)
        };
        map_b.insert(l.var.as_str(), idx);
    }
    let sym_map: BTreeMap<&str, usize> = symbolic_names
        .iter()
        .enumerate()
        .map(|(i, s)| (s.as_str(), 2 * common + extra_a + extra_b + i))
        .collect();

    // Equalities: f_d(i) − f′_d(i′) = 0 per dimension.
    let mut eq_coeffs = Vec::new();
    let mut eq_rhs = Vec::new();
    for (sa, sb) in a.subscripts.iter().zip(&b.subscripts) {
        let ea = sa.as_affine().ok_or(BuildError::NonAffine)?;
        let eb = sb.as_affine().ok_or(BuildError::NonAffine)?;
        let (row_a, ca) = map_expr(ea, &map_a, &sym_map, num_vars)?;
        let (row_b, cb) = map_expr(eb, &map_b, &sym_map, num_vars)?;
        let row: Vec<i64> = row_a.iter().zip(&row_b).map(|(x, y)| x - y).collect();
        eq_coeffs.push(row);
        eq_rhs.push(cb - ca);
    }

    // Bounds: L ≤ i and i ≤ U for every loop instance on each side.
    let mut bounds = Vec::new();
    let mut add_bounds = |acc: &Access, map: &BTreeMap<&str, usize>| -> Result<(), BuildError> {
        for (k, l) in acc.loops.iter().enumerate() {
            let var_idx = map[l.var.as_str()];
            let _ = k;
            if let Bound::Affine(lo) = &l.lower {
                // L(x) ≤ i  ⇔  L_coeffs·x − i ≤ −L_const
                let (mut row, c) = map_expr(lo, map, &sym_map, num_vars)?;
                row[var_idx] -= 1;
                bounds.push(Constraint::new(row, -c));
            }
            if let Bound::Affine(up) = &l.upper {
                // i ≤ U(x)  ⇔  i − U_coeffs·x ≤ U_const
                let (urow, c) = map_expr(up, map, &sym_map, num_vars)?;
                let mut row: Vec<i64> = urow.iter().map(|v| -v).collect();
                row[var_idx] += 1;
                bounds.push(Constraint::new(row, c));
            }
        }
        Ok(())
    };
    add_bounds(a, &map_a)?;
    add_bounds(b, &map_b)?;

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
        build_problem(pairs[0].a, pairs[0].b, pairs[0].common, true).unwrap()
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
    fn symbolic_disabled_errors() {
        let src = "read(n); for i = 1 to 10 { a[i + n] = a[i]; }";
        let prog = parse_program(src).unwrap();
        let set = extract_accesses(&prog);
        let pairs = reference_pairs(&set, false);
        let err = build_problem(pairs[0].a, pairs[0].b, pairs[0].common, false);
        assert_eq!(err.unwrap_err(), BuildError::SymbolicDisabled);
    }

    #[test]
    fn symbolic_bound_counts_as_symbolic() {
        let src = "for i = 1 to n { a[i] = a[i + 1]; }";
        let prog = parse_program(src).unwrap();
        let set = extract_accesses(&prog);
        let pairs = reference_pairs(&set, false);
        let err = build_problem(pairs[0].a, pairs[0].b, pairs[0].common, false);
        assert_eq!(err.unwrap_err(), BuildError::SymbolicDisabled);
        let ok = build_problem(pairs[0].a, pairs[0].b, pairs[0].common, true).unwrap();
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
        let pa = pairs.iter().find(|p| p.a.array == "a").unwrap();
        let pb = pairs.iter().find(|p| p.a.array == "b").unwrap();
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
        let p = build_problem(pairs[0].a, pairs[0].b, pairs[0].common, true).unwrap();
        assert_eq!(p.num_common, 0);
        assert_eq!(p.num_vars(), 2); // one ExtraA, one ExtraB
        assert_eq!(p.vars[0], XVar::ExtraA(0));
        assert_eq!(p.vars[1], XVar::ExtraB(0));
    }
}
