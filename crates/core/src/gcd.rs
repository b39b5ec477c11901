//! Extended GCD preprocessing (Section 3.1).
//!
//! Solves the subscript equality system `A x = b` over the integers via
//! the unimodular/echelon factorization. Either no integer solution exists
//! — the references are independent regardless of bounds (the classic GCD
//! divisibility test, extended to multi-dimensional arrays) — or the
//! solution set is `x = x₀ + B·t` for free integer vectors `t`, and every
//! loop-bound inequality is re-expressed over `t`.
//!
//! The paper stresses why this transform pays off: each independent
//! equation eliminates one variable, all equality constraints disappear
//! (a precondition for the Acyclic test), and the rewritten constraints
//! are typically *simpler* — often single-variable, which is exactly what
//! the SVPC test wants.

#![warn(clippy::arithmetic_side_effects)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use dda_linalg::{diophantine, num, Matrix};

use crate::memo::ColumnVec;
use crate::problem::DependenceProblem;
use crate::system::{Constraint, System};

/// The reduced problem over the free variables `t`.
#[derive(Debug, Clone)]
pub struct Reduced {
    /// Bound constraints rewritten over `t`.
    pub system: System,
    /// Particular solution `x₀` of the equality system.
    x_particular: Vec<i64>,
    /// Lattice basis `B` (`num_x × num_t`).
    x_basis: Matrix,
}

impl Reduced {
    /// Number of free variables.
    #[must_use]
    pub fn num_t(&self) -> usize {
        self.x_basis.cols()
    }

    /// Number of original variables.
    #[must_use]
    pub fn num_x(&self) -> usize {
        self.x_particular.len()
    }

    /// Maps a free-variable assignment back to the original space:
    /// `x = x₀ + B t`.
    ///
    /// Returns `None` on overflow or arity mismatch.
    #[must_use]
    pub fn x_at(&self, t: &[i64]) -> Option<Vec<i64>> {
        let offset = self.x_basis.mul_vec(t).ok()?;
        self.x_particular
            .iter()
            .zip(&offset)
            .map(|(&p, &o)| p.checked_add(o))
            .collect()
    }

    /// Expresses original variable `xi` as an affine function of `t`:
    /// returns `(coeffs, constant)` with `x_i = coeffs · t + constant`.
    #[must_use]
    pub fn x_as_t(&self, xi: usize) -> (Vec<i64>, i64) {
        let coeffs = (0..self.x_basis.cols())
            .map(|j| self.x_basis[(xi, j)])
            .collect();
        (coeffs, self.x_particular[xi])
    }

    /// Rewrites an x-space constraint `coeffs · x ≤ rhs` over `t`.
    ///
    /// Returns `None` on overflow.
    #[must_use]
    pub fn x_constraint_to_t(&self, coeffs: &[i64], rhs: i64) -> Option<Constraint> {
        let mut t_coeffs = vec![0i64; self.num_t()];
        for (xi, &a) in coeffs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            for (j, tc) in t_coeffs.iter_mut().enumerate() {
                *tc = tc.checked_add(a.checked_mul(self.x_basis[(xi, j)])?)?;
            }
        }
        let shift = num::dot(coeffs, &self.x_particular).ok()?;
        Some(Constraint::new(t_coeffs, rhs.checked_sub(shift)?))
    }
}

/// Outcome of the preprocessing step.
// `Reduced` holds an inline-storage `System`; boxing it would trade one
// stack copy for a heap allocation on every GCD-stage exit.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum GcdOutcome {
    /// The equality system has no integer solution: independent, exact,
    /// no bounds needed (the paper's "GCD" column).
    Independent,
    /// Integer solutions exist; the bounds now constrain the free
    /// variables.
    Reduced(Reduced),
}

/// The bounds-independent part of the GCD result — exactly what the
/// paper's no-bounds memo table may reuse across pairs whose subscripts
/// match but whose loop bounds differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lattice {
    /// Particular solution `x₀`.
    pub particular: Vec<i64>,
    /// Lattice basis `B`.
    pub basis: Matrix,
}

/// Outcome of solving the equality system alone.
// Same trade-off as `GcdOutcome`: the lattice payload uses inline storage
// deliberately, and the enum is transient within a single analysis.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EqOutcome {
    /// No integer solution (GCD-independent).
    Independent {
        /// The divisibility refutation witness `(numer, denom)` behind
        /// the verdict, computed once at solve time so memo hits reuse
        /// it instead of refactorizing. From
        /// [`solve_system_restricted`] the multiplier entries are in
        /// *canonical* (key-sorted) row order — the only order that
        /// transfers between problems sharing a memo key; rehydrate with
        /// [`witness_for_problem`]. From [`solve_equalities`] they are in
        /// the problem's own row order. `None` when the witness
        /// overflowed `i64` (or the entry was warm-loaded from a v1
        /// table that never stored one).
        refutation: Option<(Vec<i64>, i64)>,
    },
    /// The solution lattice.
    Lattice(Lattice),
}

/// Solves the subscript equality system only (no bounds involved). An
/// independent outcome carries its refutation witness in the problem's
/// own row order.
///
/// Returns `None` on arithmetic overflow.
#[must_use]
pub fn solve_equalities(problem: &DependenceProblem) -> Option<EqOutcome> {
    let (a, rhs) = equality_matrix(problem, &all_columns(problem));
    match diophantine::solve(&a, &rhs) {
        Ok(Some(s)) => Some(EqOutcome::Lattice(Lattice {
            particular: s.particular().to_vec(),
            basis: s.basis().clone(),
        })),
        Ok(None) => Some(EqOutcome::Independent {
            refutation: diophantine::refute(&a, &rhs),
        }),
        Err(_) => None,
    }
}

/// Every column of `problem`.
fn all_columns(problem: &DependenceProblem) -> ColumnVec {
    (0..problem.num_vars()).collect()
}

/// The equality rows of `problem`, restricted to the `kept` columns, as
/// a matrix and a right-hand side.
fn equality_matrix(problem: &DependenceProblem, kept: &[usize]) -> (Matrix, Vec<i64>) {
    let mut a = Matrix::zeros(problem.num_equations(), kept.len());
    let mut rhs = Vec::with_capacity(problem.num_equations());
    for (i, (coeffs, b)) in problem.equations().enumerate() {
        for (j, &k) in kept.iter().enumerate() {
            a[(i, j)] = coeffs[k];
        }
        rhs.push(b);
    }
    (a, rhs)
}

/// The permutation sorting the equality rows of `problem` into the
/// canonical order of the no-bounds key
/// ([`write_nobounds_key`](crate::memo::write_nobounds_key)): `order[j]`
/// is the index of the row providing canonical row `j` (ascending by
/// coefficients restricted to `kept`, then right-hand side; duplicate
/// rows are interchangeable).
fn row_order(problem: &DependenceProblem, kept: &[usize]) -> ColumnVec {
    let segment = |i: usize| {
        let (coeffs, rhs) = problem.equation(i);
        kept.iter()
            .map(move |&k| coeffs[k])
            .chain(std::iter::once(rhs))
    };
    let mut order: ColumnVec = (0..problem.num_equations()).collect();
    order.sort_by(|&a, &b| segment(a).cmp(segment(b)));
    order
}

/// Reorders a canonical-row-order refutation witness onto a concrete
/// system's rows. Systems sharing a no-bounds key list the same row
/// multiset (restricted to `kept`, whose complement is all-zero), so the
/// reordered multiplier refutes this system's full equalities too. `None`
/// when the arities disagree — a corrupt warm entry; callers fall back
/// to [`refute_equalities`].
#[must_use]
pub fn witness_for_problem(
    problem: &DependenceProblem,
    kept: &[usize],
    canonical: &(Vec<i64>, i64),
) -> Option<(Vec<i64>, i64)> {
    let order = row_order(problem, kept);
    if canonical.0.len() != order.len() {
        return None;
    }
    let mut numer = vec![0i64; order.len()];
    for (j, &i) in order.iter().enumerate() {
        numer[i] = canonical.0[j];
    }
    Some((numer, canonical.1))
}

/// Rehydrates a lattice cached over a subset of variables (`kept`) into
/// one over all `n` variables: dropped variables take particular value 0
/// and get their own fresh basis column (they are unconstrained by the
/// equality system).
#[must_use]
// Column indices `m + j` are bounded by the constructed matrix width.
#[allow(clippy::arithmetic_side_effects)]
pub fn expand_lattice(lattice: &Lattice, kept: &[usize], n: usize) -> Lattice {
    if kept.len() == n {
        return lattice.clone();
    }
    let m = lattice.basis.cols();
    let dropped: Vec<usize> = (0..n).filter(|v| !kept.contains(v)).collect();
    let mut particular = vec![0i64; n];
    for (i, &v) in kept.iter().enumerate() {
        particular[v] = lattice.particular[i];
    }
    let mut basis = Matrix::zeros(n, m + dropped.len());
    for (i, &v) in kept.iter().enumerate() {
        for j in 0..m {
            basis[(v, j)] = lattice.basis[(i, j)];
        }
    }
    for (j, &v) in dropped.iter().enumerate() {
        basis[(v, m + j)] = 1;
    }
    Lattice { particular, basis }
}

/// Solves the equality rows of `problem` restricted to the `kept`
/// columns — the canonical form stored in the no-bounds memo table. An
/// independent outcome carries its refutation witness with multipliers
/// in canonical (key-sorted) row order, so the cached value is reusable
/// by every problem sharing the key.
///
/// Returns `None` on arithmetic overflow.
#[must_use]
pub fn solve_system_restricted(problem: &DependenceProblem, kept: &[usize]) -> Option<EqOutcome> {
    let (a, rhs) = equality_matrix(problem, kept);
    match diophantine::solve(&a, &rhs) {
        Ok(Some(s)) => Some(EqOutcome::Lattice(Lattice {
            particular: s.particular().to_vec(),
            basis: s.basis().clone(),
        })),
        Ok(None) => {
            // A multiplier for the restricted system refutes the full
            // one verbatim: the dropped columns are all-zero.
            let refutation = diophantine::refute(&a, &rhs).map(|(numer, denom)| {
                let order = row_order(problem, kept);
                (order.iter().map(|&i| numer[i]).collect(), denom)
            });
            Some(EqOutcome::Independent { refutation })
        }
        Err(_) => None,
    }
}

/// Reconstructs a divisibility refutation of the subscript equality
/// system: the rational row combination behind an
/// [`EqOutcome::Independent`] verdict, checkable without re-running the
/// solver. The solve paths carry this witness inside the outcome (and
/// through the memo table), so this standalone recomputation is only the
/// fallback for outcomes that arrived without one — v1 warm-started
/// entries, or witnesses that overflowed `i64` at solve time. It is
/// evidence, never the verdict itself.
#[must_use]
pub fn refute_equalities(problem: &DependenceProblem) -> Option<(Vec<i64>, i64)> {
    let (a, rhs) = equality_matrix(problem, &all_columns(problem));
    diophantine::refute(&a, &rhs)
}

/// Rewrites the problem's bound constraints over the lattice's free
/// variables.
///
/// Returns `None` on arithmetic overflow.
#[must_use]
pub fn reduce_with_lattice(problem: &DependenceProblem, lattice: &Lattice) -> Option<Reduced> {
    let shell = Reduced {
        system: System::new(lattice.basis.cols()),
        x_particular: lattice.particular.clone(),
        x_basis: lattice.basis.clone(),
    };
    let mut system = System::new(lattice.basis.cols());
    for (coeffs, rhs) in problem.bounds() {
        system.push(shell.x_constraint_to_t(coeffs, rhs)?);
    }
    system.normalize();
    Some(Reduced { system, ..shell })
}

/// Runs the extended GCD test and, on success, the change of variables.
///
/// Returns `None` when intermediate arithmetic overflows (the caller
/// assumes dependence).
///
/// # Examples
///
/// ```
/// use dda_ir::{parse_program, extract_accesses, reference_pairs};
/// use dda_core::problem::build_problem;
/// use dda_core::gcd::{gcd_preprocess, GcdOutcome};
///
/// // a[2i] vs a[2i+1]: even ≠ odd, gcd(2,2) ∤ 1.
/// let p = parse_program("for i = 1 to 10 { a[2 * i] = a[2 * i + 1]; }")?;
/// let set = extract_accesses(&p);
/// let pairs = reference_pairs(&set, false);
/// let problem = build_problem(pairs[0], true)?;
/// assert!(matches!(
///     gcd_preprocess(&problem),
///     Some(GcdOutcome::Independent)
/// ));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn gcd_preprocess(problem: &DependenceProblem) -> Option<GcdOutcome> {
    match solve_equalities(problem)? {
        EqOutcome::Independent { .. } => Some(GcdOutcome::Independent),
        EqOutcome::Lattice(lattice) => {
            Some(GcdOutcome::Reduced(reduce_with_lattice(problem, &lattice)?))
        }
    }
}

#[cfg(test)]
// Test fixtures use plain literal arithmetic; overflow aborts the test.
#[allow(clippy::arithmetic_side_effects)]
mod tests {
    use super::*;
    use dda_ir::{extract_accesses, parse_program, reference_pairs};

    use crate::problem::build_problem;

    fn reduce(src: &str) -> GcdOutcome {
        let p = parse_program(src).unwrap();
        let set = extract_accesses(&p);
        let pairs = reference_pairs(&set, false);
        assert_eq!(pairs.len(), 1);
        let problem = build_problem(pairs[0], true).unwrap();
        gcd_preprocess(&problem).unwrap()
    }

    #[test]
    fn parity_mismatch_is_gcd_independent() {
        assert!(matches!(
            reduce("for i = 1 to 10 { a[2 * i] = a[2 * i + 1]; }"),
            GcdOutcome::Independent
        ));
    }

    #[test]
    fn divisible_case_reduces() {
        let GcdOutcome::Reduced(r) = reduce("for i = 1 to 10 { a[2 * i] = a[2 * i + 4]; }") else {
            panic!("expected reduced");
        };
        // One equation over two variables: one free variable.
        assert_eq!(r.num_t(), 1);
        assert_eq!(r.system.num_vars, 1);
        // Every t maps back to x satisfying 2x0 = 2x1 + 4.
        for t in -3..3 {
            let x = r.x_at(&[t]).unwrap();
            assert_eq!(2 * x[0], 2 * x[1] + 4);
        }
    }

    #[test]
    fn paper_example_constraints_become_single_variable() {
        // for i = 1 to 10: a[i+10] = a[i]; the paper notes all transformed
        // constraints contain one variable.
        let GcdOutcome::Reduced(r) = reduce("for i = 1 to 10 { a[i + 10] = a[i]; }") else {
            panic!();
        };
        assert_eq!(r.num_t(), 1);
        for c in &r.system.constraints {
            assert!(c.num_nonzero() <= 1, "constraint {c} not single-var");
        }
    }

    #[test]
    fn x_as_t_matches_x_at() {
        let GcdOutcome::Reduced(r) =
            reduce("for i = 1 to 10 { for j = 1 to 10 { a[i + j] = a[i + j + 3]; } }")
        else {
            panic!();
        };
        for xi in 0..r.num_x() {
            let (coeffs, c0) = r.x_as_t(xi);
            let t: Vec<i64> = (0..r.num_t()).map(|k| (k as i64) * 2 - 1).collect();
            let x = r.x_at(&t).unwrap();
            let via_expr = num::dot(&coeffs, &t).unwrap() + c0;
            assert_eq!(x[xi], via_expr);
        }
    }

    #[test]
    fn x_constraint_round_trip() {
        let GcdOutcome::Reduced(r) = reduce("for i = 1 to 10 { a[i] = a[i + 1]; }") else {
            panic!();
        };
        // x0 - x1 ≤ -1 in x-space.
        let c = Constraint::new(vec![1, -1], -1);
        let tc = r.x_constraint_to_t(&c.coeffs, c.rhs).unwrap();
        for t in -5..5 {
            let x = r.x_at(&[t]).unwrap();
            assert_eq!(
                c.is_satisfied_by(&x).unwrap(),
                tc.is_satisfied_by(&[t]).unwrap(),
                "t = {t}"
            );
        }
    }

    #[test]
    fn no_equations_everything_free() {
        // Different constant dimensions never reach GCD in the analyzer,
        // but the preprocessing must still behave: build a problem by hand.
        use crate::problem::{DependenceProblem, Layout};
        let layout = Layout {
            common: 1,
            ..Layout::default()
        };
        let p = DependenceProblem::from_rows(layout, vec![], vec![], vec![1, 0, 10]);
        let GcdOutcome::Reduced(r) = gcd_preprocess(&p).unwrap() else {
            panic!();
        };
        assert_eq!(r.num_t(), 2);
    }
}
