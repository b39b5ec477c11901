//! `dda-check`: an independent proof-checking kernel for
//! certificate-carrying dependence verdicts.
//!
//! The analyzer (`dda-core`) attaches a [`Certificate`] to every pair
//! verdict. This crate re-verifies those certificates **without trusting
//! any solver code**: it shares only *data types* with the analyzer
//! ([`DependenceProblem`], [`Matrix`], the certificate grammar) and
//! re-derives everything else — witness substitution, lattice soundness,
//! the translated bound rows, and every derivation step — in exact `i128`
//! arithmetic of its own. In particular it does **not** call into the
//! extended-GCD solver, any cascade stage, the Fourier–Motzkin
//! eliminator, the direction refiner, the memo table, or the persistence
//! layer; evidence originating in all of those is rechecked from first
//! principles.
//!
//! ## Trust base
//!
//! A [`CheckOutcome::Verified`] outcome means the reported verdict
//! follows from:
//!
//! - [`build_problem`]: the translation from subscripts and loop bounds
//!   to the equality system `A·x = b` and the bound rows (the checker
//!   rebuilds the problem itself rather than accepting the analyzer's);
//! - the shared data-type definitions;
//! - this crate's own checking code.
//!
//! ## What is checked, per certificate
//!
//! - [`Certificate::Witness`]: the point satisfies every equality and
//!   bound of the rebuilt problem, by substitution.
//! - [`Certificate::ConstantsEqual`] / [`ConstantsDiffer`]: the
//!   subscripts really are all constant and equal (resp. differ
//!   somewhere), recomputed from the accesses.
//! - [`Certificate::GcdRefutation`]: the rational multiplier `y =
//!   numer/denom` has `yᵀA` integral with `yᵀb` fractional, or `yᵀA = 0`
//!   with `yᵀb ≠ 0` — either way `A·x = b` has no integer solution.
//! - [`Certificate::Refuted`]: the recorded lattice is sound (`A·x₀ = b`
//!   and `A·B = 0`, so `x₀ + B·t` covers only solutions of the equality
//!   system) **and complete** — the kernel derives its own ℤ-basis of
//!   `ker(A)` by integer column reduction and requires every generator
//!   to be an integer combination of `B`'s columns, so `x₀ + B·t`
//!   covers *every* solution and a refutation over `t` cannot quietly
//!   skip real dependences hiding in a strict sub-lattice — and the
//!   derivation refutes the bound rows translated onto `t` by the
//!   checker itself.
//! - [`Certificate::DirectionsExhausted`]: additionally, every leaf of
//!   the direction trichotomy tree refutes its region, where the
//!   direction rows are recomputed from the lattice and each split's
//!   three branches cover all of ℤ by construction.
//!
//! Derivations are nonnegative combinations and integer-division
//! tightenings of premise rows, where a premise is accepted only if it is
//! *literally a member* of the checker's recomputed row pool — the
//! analyzer cannot smuggle in a constraint the program does not imply.
//!
//! [`ConstantsDiffer`]: Certificate::ConstantsDiffer

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::arithmetic_side_effects)]

use dda_core::certificate::{Certificate, DirTree, FmTree, RefProof, Rule, SystemRefutation};
use dda_core::problem::{build_problem, DependenceProblem};
use dda_core::result::Answer;
use dda_core::{PairReport, ProgramReport};
use dda_ir::{extract_accesses, reference_pairs, Access, Program, RefPair, Rows};
use dda_linalg::Matrix;

/// The kernel's judgement on one pair's certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// The certificate proves the reported verdict.
    Verified,
    /// There is no checkable evidence (a conservative claim, or evidence
    /// that did not transfer through the memo table): the verdict is not
    /// contradicted, but not independently established either. Callers
    /// running under `--check` resolve these by re-analysis.
    Unverified,
    /// The certificate is ill-formed or does not support the verdict.
    Rejected(String),
}

impl CheckOutcome {
    /// Whether this outcome is [`Verified`](CheckOutcome::Verified).
    #[must_use]
    pub fn is_verified(&self) -> bool {
        matches!(self, CheckOutcome::Verified)
    }
}

/// A `≤`-row over the free variables: `coeffs · t ≤ rhs`, in exact
/// kernel arithmetic.
type Row = (Vec<i128>, i128);

const OVERFLOW: &str = "arithmetic overflow while checking";

// ---------------------------------------------------------------------
// Kernel arithmetic. Deliberately re-implemented here: the checker must
// not share `dda_linalg::num` with the code it is auditing.
// ---------------------------------------------------------------------

fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let r = a.checked_rem(b).unwrap_or(0);
        a = b;
        b = r;
    }
    a
}

/// Floor division by a *positive* divisor. `None` when `d ≤ 0` or on
/// overflow.
fn div_floor128(a: i128, d: i128) -> Option<i128> {
    if d <= 0 {
        return None;
    }
    let q = a.checked_div(d)?;
    let r = a.checked_rem(d)?;
    if r < 0 {
        q.checked_sub(1)
    } else {
        Some(q)
    }
}

/// `coeffs · x` in `i128`. `None` on arity mismatch or overflow.
fn dot128(coeffs: &[i64], x: &[i64]) -> Option<i128> {
    if coeffs.len() != x.len() {
        return None;
    }
    let mut acc: i128 = 0;
    for (&c, &v) in coeffs.iter().zip(x) {
        acc = acc.checked_add(i128::from(c).checked_mul(i128::from(v))?)?;
    }
    Some(acc)
}

// ---------------------------------------------------------------------
// Derivation checking.
// ---------------------------------------------------------------------

fn combine(a: &Row, b: &Row, ca: i128, cb: i128) -> Option<Row> {
    if a.0.len() != b.0.len() {
        return None;
    }
    let coeffs: Option<Vec<i128>> =
        a.0.iter()
            .zip(&b.0)
            .map(|(&x, &y)| ca.checked_mul(x)?.checked_add(cb.checked_mul(y)?))
            .collect();
    let rhs = ca.checked_mul(a.1)?.checked_add(cb.checked_mul(b.1)?)?;
    Some((coeffs?, rhs))
}

fn divide(row: &Row, d: i128) -> Result<Row, String> {
    let mut coeffs = Vec::with_capacity(row.0.len());
    for &c in &row.0 {
        if c.checked_rem(d).ok_or(OVERFLOW)? != 0 {
            return Err("divisor does not divide every coefficient".into());
        }
        coeffs.push(c.checked_div(d).ok_or(OVERFLOW)?);
    }
    let rhs = div_floor128(row.1, d).ok_or(OVERFLOW)?;
    Ok((coeffs, rhs))
}

/// Evaluates a rule list into concrete rows. Premises must be members of
/// `pool`; `Comb`/`Div` steps may reference only earlier steps.
fn eval_rules(num_t: usize, pool: &[Row], rules: &[Rule]) -> Result<Vec<Row>, String> {
    let mut rows: Vec<Row> = Vec::with_capacity(rules.len());
    for (idx, rule) in rules.iter().enumerate() {
        let row = match rule {
            Rule::Premise { coeffs, rhs } => {
                if coeffs.len() != num_t {
                    return Err(format!(
                        "step {idx}: premise has {} coefficients, system has {num_t} variables",
                        coeffs.len()
                    ));
                }
                let row: Row = (
                    coeffs.iter().map(|&c| i128::from(c)).collect(),
                    i128::from(*rhs),
                );
                if !pool.contains(&row) {
                    return Err(format!(
                        "step {idx}: premise is not a row of the recomputed system"
                    ));
                }
                row
            }
            Rule::Comb { a, ca, b, cb } => {
                if *ca < 0 || *cb < 0 {
                    return Err(format!("step {idx}: negative combination multiplier"));
                }
                let (ra, rb) = match (a, b) {
                    _ if *a >= idx || *b >= idx => {
                        return Err(format!("step {idx}: reference to a non-earlier step"))
                    }
                    _ => (&rows[*a], &rows[*b]),
                };
                combine(ra, rb, i128::from(*ca), i128::from(*cb))
                    .ok_or_else(|| format!("step {idx}: {OVERFLOW}"))?
            }
            Rule::Div { of, d } => {
                if *d < 1 {
                    return Err(format!("step {idx}: non-positive divisor"));
                }
                if *of >= idx {
                    return Err(format!("step {idx}: reference to a non-earlier step"));
                }
                divide(&rows[*of], i128::from(*d)).map_err(|e| format!("step {idx}: {e}"))?
            }
        };
        rows.push(row);
    }
    Ok(rows)
}

fn check_seal(rows: &[Row], seal: usize) -> Result<(), String> {
    let row = rows
        .get(seal)
        .ok_or_else(|| format!("seal index {seal} is out of range"))?;
    if row.0.iter().all(|&c| c == 0) && row.1 < 0 {
        Ok(())
    } else {
        Err(format!(
            "seal step {seal} is not a contradiction (needs all-zero coefficients and negative rhs)"
        ))
    }
}

fn verify_fmtree(num_t: usize, pool: &[Row], tree: &FmTree) -> Result<(), String> {
    match tree {
        FmTree::Sealed(d) => {
            let rows = eval_rules(num_t, pool, &d.rules)?;
            check_seal(&rows, d.seal)
        }
        FmTree::Split {
            var,
            le,
            ge,
            left,
            right,
        } => {
            if *var >= num_t {
                return Err(format!("split variable t{var} is out of range"));
            }
            // Coverage: `t ≤ le ∨ t ≥ ge` exhausts ℤ only if ge ≤ le + 1.
            if i128::from(*ge) > i128::from(*le).checked_add(1).ok_or(OVERFLOW)? {
                return Err(format!(
                    "branch hypotheses t{var} ≤ {le} ∨ t{var} ≥ {ge} do not cover ℤ"
                ));
            }
            let mut unit = vec![0i128; num_t];
            unit[*var] = 1;
            let mut left_pool = pool.to_vec();
            left_pool.push((unit.clone(), i128::from(*le)));
            verify_fmtree(num_t, &left_pool, left)?;
            let mut neg_unit = vec![0i128; num_t];
            neg_unit[*var] = -1;
            let mut right_pool = pool.to_vec();
            right_pool.push((neg_unit, i128::from(*ge).checked_neg().ok_or(OVERFLOW)?));
            verify_fmtree(num_t, &right_pool, right)
        }
    }
}

fn verify_rows_refutation(
    num_t: usize,
    pool: &[Row],
    refutation: &SystemRefutation,
) -> Result<(), String> {
    let arena = eval_rules(num_t, pool, &refutation.arena)?;
    match &refutation.proof {
        RefProof::Arena { seal } => check_seal(&arena, *seal),
        // Fourier–Motzkin leaves draw premises from the evaluated arena
        // rows plus the branch hypotheses accumulated down their path.
        RefProof::Fm { tree } => verify_fmtree(num_t, &arena, tree),
    }
}

/// Verifies a [`SystemRefutation`] against an explicit row pool
/// `rows[i].0 · t ≤ rows[i].1` over `num_t` variables.
///
/// This is the raw entry point used by translation-validation tests; the
/// higher-level [`check_pair`] recomputes the pool from the problem.
///
/// # Errors
///
/// Returns a description of the first invalid step when the derivation
/// does not refute the row system.
pub fn verify_refutation(
    num_t: usize,
    rows: &[(Vec<i64>, i64)],
    refutation: &SystemRefutation,
) -> Result<(), String> {
    let pool: Vec<Row> = rows
        .iter()
        .map(|(c, r)| (c.iter().map(|&v| i128::from(v)).collect(), i128::from(*r)))
        .collect();
    verify_rows_refutation(num_t, &pool, refutation)
}

// ---------------------------------------------------------------------
// Problem-level checks.
// ---------------------------------------------------------------------

fn rebuild_problem(pair: RefPair<'_>) -> Result<DependenceProblem, String> {
    // Symbolic support is always on here: analyzer configurations with
    // symbolics disabled answer conservatively for such pairs and never
    // emit a checkable certificate, so rebuilding in the more general
    // model is safe and keeps the kernel configuration-free.
    build_problem(pair, true).map_err(|e| format!("problem construction failed: {e}"))
}

fn check_witness(problem: &DependenceProblem, x: &[i64]) -> Result<(), String> {
    if x.len() != problem.num_vars() {
        return Err(format!(
            "witness has {} coordinates, problem has {} variables",
            x.len(),
            problem.num_vars()
        ));
    }
    for (i, (row, rhs)) in problem.equations().enumerate() {
        if dot128(row, x).ok_or(OVERFLOW)? != i128::from(rhs) {
            return Err(format!("witness violates subscript equation {i}"));
        }
    }
    for (i, (row, rhs)) in problem.bounds().enumerate() {
        if dot128(row, x).ok_or(OVERFLOW)? > i128::from(rhs) {
            return Err(format!("witness violates bound row {i}"));
        }
    }
    Ok(())
}

fn constant_subscripts(rows: &Rows, access: &Access) -> Option<Vec<i64>> {
    rows.subscripts(access)
        .map(|row| {
            let row = row?;
            row.is_constant().then(|| row.constant())
        })
        .collect()
}

fn check_constants(pair: RefPair<'_>, want_equal: bool) -> Result<(), String> {
    let rows = &pair.set.rows;
    let ca = constant_subscripts(rows, pair.a)
        .ok_or("first reference's subscripts are not all constant")?;
    let cb = constant_subscripts(rows, pair.b)
        .ok_or("second reference's subscripts are not all constant")?;
    if ca.len() != cb.len() {
        return Err("references differ in rank".into());
    }
    match (ca == cb, want_equal) {
        (true, true) | (false, false) => Ok(()),
        (true, false) => Err("constant subscripts are equal in every dimension".into()),
        (false, true) => Err("constant subscripts differ".into()),
    }
}

fn check_gcd_refutation(
    problem: &DependenceProblem,
    numer: &[i64],
    denom: i64,
) -> Result<(), String> {
    if denom < 1 {
        return Err("refutation denominator must be positive".into());
    }
    if numer.len() != problem.num_equations() {
        return Err(format!(
            "multiplier has {} entries, system has {} equality rows",
            numer.len(),
            problem.num_equations()
        ));
    }
    let nv = problem.num_vars();
    let mut col_sums = vec![0i128; nv];
    let mut rhs_sum: i128 = 0;
    for (&y, (row, rhs)) in numer.iter().zip(problem.equations()) {
        if row.len() != nv {
            return Err("equality row arity mismatch".into());
        }
        let y = i128::from(y);
        for (sum, &a) in col_sums.iter_mut().zip(row) {
            *sum = sum
                .checked_add(y.checked_mul(i128::from(a)).ok_or(OVERFLOW)?)
                .ok_or(OVERFLOW)?;
        }
        rhs_sum = rhs_sum
            .checked_add(y.checked_mul(i128::from(rhs)).ok_or(OVERFLOW)?)
            .ok_or(OVERFLOW)?;
    }
    // `y = numer/denom` refutes `A·x = b` when yᵀA = 0 but yᵀb ≠ 0
    // (rational infeasibility), or yᵀA is integral while yᵀb is not
    // (every integer x gives an integer left side, never the right).
    if col_sums.iter().all(|&s| s == 0) && rhs_sum != 0 {
        return Ok(());
    }
    let d = i128::from(denom);
    let integral = col_sums
        .iter()
        .all(|&s| s.checked_rem(d).is_some_and(|r| r == 0));
    if integral && rhs_sum.checked_rem(d).ok_or(OVERFLOW)? != 0 {
        return Ok(());
    }
    Err("multiplier does not witness unsolvability of the equality system".into())
}

// ---------------------------------------------------------------------
// Kernel lattice algebra. The checker derives its own ℤ-basis of
// `ker(A)` — sharing no code with `dda_linalg::diophantine` — so a
// certificate's basis can be audited for *completeness*, not just
// soundness: a strict sub-lattice would let a refutation over `t` miss
// real solutions that lie in the kernel but not in the basis's span.
// ---------------------------------------------------------------------

/// Subtracts `q` times column `k` from column `j` (columns are vectors
/// in a slice; `j ≠ k`).
fn col_sub_mul(cols: &mut [Vec<i128>], j: usize, k: usize, q: i128) -> Result<(), String> {
    if q == 0 {
        return Ok(());
    }
    let ck = cols[k].clone();
    for (x, &v) in cols[j].iter_mut().zip(&ck) {
        *x = x
            .checked_sub(q.checked_mul(v).ok_or(OVERFLOW)?)
            .ok_or(OVERFLOW)?;
    }
    Ok(())
}

/// Reduces `cols` to column echelon form by unimodular column operations
/// (swap, and subtracting integer multiples of one column from another),
/// mirroring every operation on `mirror` when present. On return, column
/// `j < p` has its first nonzero entry at the `j`-th pivot row, pivot
/// rows strictly increase with `j`, and columns `≥ p` are zero; returns
/// the pivot count `p`.
fn column_echelon(
    cols: &mut [Vec<i128>],
    mut mirror: Option<&mut [Vec<i128>]>,
) -> Result<usize, String> {
    let ncols = cols.len();
    let nrows = cols.first().map_or(0, Vec::len);
    let mut p = 0;
    for r in 0..nrows {
        if p == ncols {
            break;
        }
        // Gcd-style elimination at row `r` over columns `p..`: repeatedly
        // reduce every entry modulo the smallest one (each pass strictly
        // shrinks the row's magnitude sum) until at most one survives.
        loop {
            let mut best: Option<usize> = None;
            for (j, col) in cols.iter().enumerate().skip(p) {
                if col[r] != 0
                    && best.is_none_or(|b: usize| col[r].unsigned_abs() < cols[b][r].unsigned_abs())
                {
                    best = Some(j);
                }
            }
            let Some(piv) = best else {
                break; // row has no pivot: every column ≥ p is zero here
            };
            let mut reduced_any = false;
            for j in p..ncols {
                if j == piv || cols[j][r] == 0 {
                    continue;
                }
                reduced_any = true;
                let q = cols[j][r].checked_div(cols[piv][r]).ok_or(OVERFLOW)?;
                col_sub_mul(cols, j, piv, q)?;
                if let Some(m) = mirror.as_deref_mut() {
                    col_sub_mul(m, j, piv, q)?;
                }
            }
            if !reduced_any {
                cols.swap(p, piv);
                if let Some(m) = mirror.as_deref_mut() {
                    m.swap(p, piv);
                }
                p = p.checked_add(1).ok_or(OVERFLOW)?;
                break;
            }
        }
    }
    Ok(p)
}

/// The checker's own ℤ-basis of `ker(A)` over `nv` variables: column
/// reduction of `A` under a unimodular transform `U`; since `x = U·y`
/// ranges over all of ℤⁿ, the `U`-columns paired with the zero columns
/// of the reduced `A` generate exactly the integer kernel lattice.
fn kernel_basis(eq: &[&[i64]], nv: usize) -> Result<Vec<Vec<i128>>, String> {
    let mut cols: Vec<Vec<i128>> = (0..nv)
        .map(|j| eq.iter().map(|row| i128::from(row[j])).collect())
        .collect();
    let mut u: Vec<Vec<i128>> = (0..nv)
        .map(|j| {
            let mut e = vec![0i128; nv];
            e[j] = 1;
            e
        })
        .collect();
    let pivots = column_echelon(&mut cols, Some(&mut u))?;
    Ok(u.split_off(pivots))
}

/// Whether `v` is an integer combination of `echelon`'s columns, which
/// must already be in column echelon form: peel one pivot at a time by
/// exact division, then demand a zero residual.
fn lattice_contains(echelon: &[Vec<i128>], v: &[i128]) -> Result<bool, String> {
    let mut rem: Vec<i128> = v.to_vec();
    let mut j = 0;
    for r in 0..rem.len() {
        if j < echelon.len() && echelon[j][r] != 0 {
            // Pivot row of column j: columns > j are still zero here, so
            // the combination's j-th coefficient is forced.
            if rem[r].checked_rem(echelon[j][r]).ok_or(OVERFLOW)? != 0 {
                return Ok(false);
            }
            let q = rem[r].checked_div(echelon[j][r]).ok_or(OVERFLOW)?;
            for (x, &h) in rem.iter_mut().zip(&echelon[j]) {
                *x = x
                    .checked_sub(q.checked_mul(h).ok_or(OVERFLOW)?)
                    .ok_or(OVERFLOW)?;
            }
            j = j.checked_add(1).ok_or(OVERFLOW)?;
        } else if rem[r] != 0 {
            return Ok(false); // no generator reaches this row
        }
    }
    Ok(rem.iter().all(|&x| x == 0))
}

/// Checks that `x = x₀ + B·t` produces *exactly* the solutions of the
/// equality system: soundness (`A·x₀ = b` and `A·B = 0`, so every `t`
/// maps into the solution set) and completeness (every generator of the
/// kernel's own ℤ-basis of `ker(A)` is an integer combination of `B`'s
/// columns, so no solution lies outside the parametrization).
fn check_lattice(problem: &DependenceProblem, x0: &[i64], basis: &Matrix) -> Result<(), String> {
    let nv = problem.num_vars();
    if x0.len() != nv || basis.rows() != nv {
        return Err("lattice dimensions do not match the problem".into());
    }
    for (r, (row, rhs)) in problem.equations().enumerate() {
        if row.len() != nv {
            return Err("equality row arity mismatch".into());
        }
        if dot128(row, x0).ok_or(OVERFLOW)? != i128::from(rhs) {
            return Err(format!("particular solution violates equality row {r}"));
        }
        for j in 0..basis.cols() {
            let mut sum: i128 = 0;
            for (i, &a) in row.iter().enumerate() {
                sum = sum
                    .checked_add(
                        i128::from(a)
                            .checked_mul(i128::from(basis[(i, j)]))
                            .ok_or(OVERFLOW)?,
                    )
                    .ok_or(OVERFLOW)?;
            }
            if sum != 0 {
                return Err(format!(
                    "basis column {j} leaves the solution set of equality row {r}"
                ));
            }
        }
    }
    let mut bcols: Vec<Vec<i128>> = (0..basis.cols())
        .map(|j| (0..nv).map(|i| i128::from(basis[(i, j)])).collect())
        .collect();
    column_echelon(&mut bcols, None)?;
    let rows: Vec<&[i64]> = problem.equations().map(|(row, _)| row).collect();
    for (k, gen) in kernel_basis(&rows, nv)?.iter().enumerate() {
        if !lattice_contains(&bcols, gen)? {
            return Err(format!(
                "basis spans a strict sub-lattice: kernel generator {k} is not an \
                 integer combination of its columns"
            ));
        }
    }
    Ok(())
}

/// Divides a row through by the gcd of its coefficients, flooring the
/// right-hand side — the same integer tightening the analyzer applies to
/// translated bounds, recomputed here so honest certificates' premises
/// match the pool literally.
fn normalize_row(mut row: Row) -> Result<Row, String> {
    let g = row
        .0
        .iter()
        .fold(0u128, |acc, &c| gcd_u128(acc, c.unsigned_abs()));
    if g > 1 {
        let g = i128::try_from(g).map_err(|_| OVERFLOW)?;
        for c in &mut row.0 {
            *c = c.checked_div(g).ok_or(OVERFLOW)?;
        }
        row.1 = div_floor128(row.1, g).ok_or(OVERFLOW)?;
    }
    Ok(row)
}

/// Rewrites the problem's bound rows onto the free variables:
/// `c·x ≤ r` becomes `(c·B)·t ≤ r − c·x₀`, then normalizes.
fn translate_bounds(
    problem: &DependenceProblem,
    x0: &[i64],
    basis: &Matrix,
) -> Result<Vec<Row>, String> {
    let nt = basis.cols();
    let mut out = Vec::with_capacity(problem.num_bounds());
    for (coeffs, rhs) in problem.bounds() {
        if coeffs.len() != problem.num_vars() {
            return Err("bound row arity mismatch".into());
        }
        let mut t_coeffs = vec![0i128; nt];
        for (i, &ci) in coeffs.iter().enumerate() {
            if ci == 0 {
                continue;
            }
            for (j, tc) in t_coeffs.iter_mut().enumerate() {
                *tc = tc
                    .checked_add(
                        i128::from(ci)
                            .checked_mul(i128::from(basis[(i, j)]))
                            .ok_or(OVERFLOW)?,
                    )
                    .ok_or(OVERFLOW)?;
            }
        }
        let shift = dot128(coeffs, x0).ok_or(OVERFLOW)?;
        let rhs = i128::from(rhs).checked_sub(shift).ok_or(OVERFLOW)?;
        out.push(normalize_row((t_coeffs, rhs))?);
    }
    Ok(out)
}

/// Walks a direction trichotomy tree, extending the row pool with the
/// recomputed direction rows of each branch (kept raw, exactly as the
/// analyzer pushes them).
fn verify_dirtree(
    problem: &DependenceProblem,
    x0: &[i64],
    basis: &Matrix,
    pool: &[Row],
    tree: &DirTree,
) -> Result<(), String> {
    match tree {
        DirTree::Refuted(refutation) => verify_rows_refutation(basis.cols(), pool, refutation),
        DirTree::Split { level, lt, eq, gt } => {
            let layout = problem.layout();
            if *level >= layout.common {
                return Err(format!("split level {level} exceeds the common nest depth"));
            }
            let (ia, ib) = layout.common_columns(*level);
            // `D(t) = i′ − i` over the lattice: coeffs B[ib]−B[ia],
            // constant x₀[ib]−x₀[ia].
            let mut d_coeffs = Vec::with_capacity(basis.cols());
            for j in 0..basis.cols() {
                d_coeffs.push(
                    i128::from(basis[(ib, j)])
                        .checked_sub(i128::from(basis[(ia, j)]))
                        .ok_or(OVERFLOW)?,
                );
            }
            let d_const = i128::from(x0[ib])
                .checked_sub(i128::from(x0[ia]))
                .ok_or(OVERFLOW)?;
            let neg: Vec<i128> = d_coeffs
                .iter()
                .map(|&c| c.checked_neg())
                .collect::<Option<_>>()
                .ok_or(OVERFLOW)?;
            let neg_const = d_const.checked_neg().ok_or(OVERFLOW)?;
            // `<`: D ≥ 1 ⇔ −D_coeffs·t ≤ D_const − 1.
            let mut branch = pool.to_vec();
            branch.push((neg.clone(), d_const.checked_sub(1).ok_or(OVERFLOW)?));
            verify_dirtree(problem, x0, basis, &branch, lt)?;
            // `=`: D = 0, as two inequalities.
            let mut branch = pool.to_vec();
            branch.push((d_coeffs.clone(), neg_const));
            branch.push((neg, d_const));
            verify_dirtree(problem, x0, basis, &branch, eq)?;
            // `>`: D ≤ −1.
            let mut branch = pool.to_vec();
            branch.push((d_coeffs, neg_const.checked_sub(1).ok_or(OVERFLOW)?));
            verify_dirtree(problem, x0, basis, &branch, gt)
        }
    }
}

// ---------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------

fn verify_claim(pair: RefPair<'_>, answer: &Answer, cert: &Certificate) -> Result<(), String> {
    let claims_independent = matches!(
        cert,
        Certificate::ConstantsDiffer
            | Certificate::GcdRefutation { .. }
            | Certificate::Refuted { .. }
            | Certificate::DirectionsExhausted { .. }
    );
    match (claims_independent, answer) {
        (true, Answer::Independent) | (false, Answer::Dependent(_)) => {}
        (true, _) => return Err("certificate proves independence but verdict disagrees".into()),
        (false, _) => return Err("certificate proves dependence but verdict disagrees".into()),
    }
    match cert {
        Certificate::Conservative | Certificate::Unverified => {
            unreachable!("dispatched in check_pair")
        }
        Certificate::Witness { x } => check_witness(&rebuild_problem(pair)?, x),
        Certificate::ConstantsEqual => check_constants(pair, true),
        Certificate::ConstantsDiffer => check_constants(pair, false),
        Certificate::GcdRefutation { numer, denom } => {
            check_gcd_refutation(&rebuild_problem(pair)?, numer, *denom)
        }
        Certificate::Refuted {
            particular,
            basis,
            refutation,
        } => {
            let problem = rebuild_problem(pair)?;
            check_lattice(&problem, particular, basis)?;
            let pool = translate_bounds(&problem, particular, basis)?;
            verify_rows_refutation(basis.cols(), &pool, refutation)
        }
        Certificate::DirectionsExhausted {
            particular,
            basis,
            tree,
        } => {
            let problem = rebuild_problem(pair)?;
            check_lattice(&problem, particular, basis)?;
            let pool = translate_bounds(&problem, particular, basis)?;
            verify_dirtree(&problem, particular, basis, &pool, tree)
        }
    }
}

/// Checks one pair's certificate against the accesses it was computed
/// from.
///
/// A report that names other accesses or another array than `pair` does
/// not belong to it and comes back
/// [`Rejected`](CheckOutcome::Rejected). Conservative claims of
/// dependence are trivially sound and come back
/// [`Verified`](CheckOutcome::Verified); an *independence* verdict
/// without checkable evidence comes back
/// [`Unverified`](CheckOutcome::Unverified).
#[must_use]
pub fn check_pair(pair: RefPair<'_>, report: &PairReport) -> CheckOutcome {
    let array = pair.array_name();
    if report.a_access != pair.a.id || report.b_access != pair.b.id || report.array != *array {
        return CheckOutcome::Rejected(format!(
            "the report is for {}[{} vs {}], not {array}[{} vs {}]",
            report.array, report.a_access, report.b_access, pair.a.id, pair.b.id
        ));
    }
    match &report.certificate {
        Certificate::Conservative => {
            if report.result.is_independent() {
                CheckOutcome::Rejected(
                    "independence verdict carries a conservative certificate".into(),
                )
            } else {
                // Assuming dependence never enables an unsound
                // transformation; there is nothing to refute.
                CheckOutcome::Verified
            }
        }
        Certificate::Unverified => CheckOutcome::Unverified,
        cert => match verify_claim(pair, &report.result.answer, cert) {
            Ok(()) => CheckOutcome::Verified,
            Err(e) => CheckOutcome::Rejected(e),
        },
    }
}

/// Checks every pair of a program's report, re-enumerating the reference
/// pairs from the program text. Returns one outcome per pair, in report
/// order; a pair report that names other accesses or another array than
/// the program's pair at its position is rejected (see [`check_pair`]).
///
/// # Errors
///
/// Fails when the report covers another number of pairs than the
/// program enumerates — a sign the report belongs to a different
/// program.
pub fn check_program(
    program: &Program,
    include_input_deps: bool,
    report: &ProgramReport,
) -> Result<Vec<CheckOutcome>, String> {
    let set = extract_accesses(program);
    let pairs = reference_pairs(&set, include_input_deps);
    if pairs.len() != report.pairs().len() {
        return Err(format!(
            "report covers {} pairs but the program enumerates {}",
            report.pairs().len(),
            pairs.len()
        ));
    }
    Ok(pairs
        .iter()
        .zip(report.pairs())
        .map(|(p, r)| check_pair(*p, r))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dda_core::{AnalyzerConfig, DependenceAnalyzer, MemoMode};
    use dda_ir::parse_program;

    fn analyze(src: &str) -> (Program, ProgramReport) {
        let program = parse_program(src).expect("parse");
        let mut analyzer = DependenceAnalyzer::with_config(AnalyzerConfig {
            memo: MemoMode::Off,
            ..AnalyzerConfig::default()
        });
        let report = analyzer.analyze_program(&program);
        (program, report)
    }

    fn outcomes(src: &str) -> Vec<(PairReport, CheckOutcome)> {
        let (program, report) = analyze(src);
        let checks = check_program(&program, false, &report).expect("enumeration matches");
        report.pairs().iter().cloned().zip(checks).collect()
    }

    #[track_caller]
    fn assert_all_verified(src: &str) {
        for (pair, outcome) in outcomes(src) {
            assert_eq!(
                outcome,
                CheckOutcome::Verified,
                "{src}: {}[{} vs {}] cert {:?}",
                pair.array,
                pair.a_access,
                pair.b_access,
                pair.certificate
            );
        }
    }

    #[test]
    fn dependent_pairs_verify_by_witness() {
        assert_all_verified("for i = 1 to 10 { a[i] = a[i] + 1; }");
        assert_all_verified("for i = 1 to 10 { a[i + 1] = a[i] + 1; }");
        assert_all_verified("for i = 1 to 4 { for j = 1 to 4 { a[i][j] = a[j][i] + 1; } }");
    }

    #[test]
    fn gcd_refutations_verify() {
        // 2i vs 2i′+1: parity refutation.
        assert_all_verified("for i = 1 to 10 { a[2 * i] = a[2 * i + 1]; }");
    }

    #[test]
    fn bound_refutations_verify() {
        // Equality solvable, bounds empty: SVPC/FM refutation territory.
        assert_all_verified("for i = 1 to 10 { a[i] = a[i + 20] + 1; }");
        assert_all_verified("for i = 1 to 10 { a[2 * i + 2] = a[2 * i] + 1; }");
    }

    #[test]
    fn constant_subscript_certificates_verify() {
        assert_all_verified("for i = 1 to 10 { a[3] = a[3] + 1; }");
        assert_all_verified("for i = 1 to 10 { a[3] = a[4] + 1; }");
    }

    #[test]
    fn larger_programs_fully_verify() {
        assert_all_verified(
            "for i = 1 to 20 { for j = 1 to 20 {
                a[i][j] = a[i - 1][j] + a[i][j - 1];
                b[2 * i] = b[2 * j + 1] + a[i][j];
                c[i + j] = c[i + j + 50];
            } }",
        );
    }

    fn first_pair(src: &str) -> (Program, PairReport) {
        let (program, report) = analyze(src);
        (program, report.pairs()[0].clone())
    }

    fn recheck(program: &Program, report: &PairReport) -> CheckOutcome {
        let set = extract_accesses(program);
        let pairs = reference_pairs(&set, false);
        let pair = pairs
            .iter()
            .find(|p| p.a.id == report.a_access && p.b.id == report.b_access)
            .expect("pair exists");
        check_pair(*pair, report)
    }

    #[test]
    fn a_report_of_another_pair_is_rejected() {
        let (program, report) = analyze("for i = 1 to 10 { a[i + 1] = a[i] + 1; }");
        let set = extract_accesses(&program);
        let pair = reference_pairs(&set, false)[0];
        let good = &report.pairs()[0];
        assert_eq!(check_pair(pair, good), CheckOutcome::Verified);
        let mut renamed = good.clone();
        renamed.array = "b".into();
        let mut swapped = good.clone();
        std::mem::swap(&mut swapped.a_access, &mut swapped.b_access);
        for forged in [&renamed, &swapped] {
            assert!(
                matches!(check_pair(pair, forged), CheckOutcome::Rejected(_)),
                "{forged:?}"
            );
        }
        // A program check rejects the pair at its position.
        let forged = ProgramReport::from_parts(vec![renamed], report.stats);
        let outcomes = check_program(&program, false, &forged).expect("one pair each");
        assert!(matches!(outcomes[..], [CheckOutcome::Rejected(_)]));
    }

    #[test]
    fn mutated_witness_coordinate_is_rejected() {
        let (program, mut report) = first_pair("for i = 1 to 10 { a[i + 1] = a[i] + 1; }");
        let Certificate::Witness { x } = &mut report.certificate else {
            panic!("expected a witness, got {:?}", report.certificate);
        };
        x[0] = x[0].wrapping_add(1);
        assert!(
            matches!(recheck(&program, &report), CheckOutcome::Rejected(_)),
            "corrupted witness must be rejected"
        );
    }

    #[test]
    fn mutated_refutation_row_is_rejected() {
        let (program, mut report) = first_pair("for i = 1 to 10 { a[i] = a[i + 20] + 1; }");
        let Certificate::Refuted { refutation, .. } = &mut report.certificate else {
            panic!("expected a refutation, got {:?}", report.certificate);
        };
        // Weaken one premise's rhs: no longer a member of the pool.
        let premise = refutation
            .arena
            .iter_mut()
            .find_map(|r| match r {
                Rule::Premise { rhs, .. } => Some(rhs),
                _ => None,
            })
            .expect("arena has a premise");
        *premise = premise.wrapping_add(1);
        assert!(
            matches!(recheck(&program, &report), CheckOutcome::Rejected(_)),
            "corrupted premise must be rejected"
        );
    }

    #[test]
    fn mutated_gcd_multiplier_is_rejected() {
        let (program, mut report) = first_pair("for i = 1 to 10 { a[2 * i] = a[2 * i + 1]; }");
        let Certificate::GcdRefutation { denom, .. } = &mut report.certificate else {
            panic!("expected a gcd refutation, got {:?}", report.certificate);
        };
        *denom = denom.wrapping_add(1);
        assert!(
            matches!(recheck(&program, &report), CheckOutcome::Rejected(_)),
            "corrupted multiplier must be rejected"
        );
    }

    #[test]
    fn forged_sublattice_refutation_is_rejected() {
        use dda_core::result::{Answer, DependenceResult, ResolvedBy, TestKind};
        // a[i] = a[i] + 1 is dependent: i = i′ has solutions throughout
        // the bounds. Forge an "independence" certificate whose lattice
        // x = x₀ + B·t is *sound* (A·x₀ = b and A·B = 0 for x₀ = 0,
        // B = [20, 20]ᵀ) but spans only the sub-lattice (20t, 20t) — and
        // the bounds 1 ≤ x ≤ 10 integrally refute that sub-lattice
        // (20t ≤ 10 ⇒ t ≤ 0, 1 ≤ 20t ⇒ t ≥ 1) even though the real
        // solutions (i, i) exist. A soundness-only kernel would verify
        // this; completeness must reject it.
        let (program, mut report) = first_pair("for i = 1 to 10 { a[i] = a[i] + 1; }");
        assert!(report.result.answer.is_dependent());
        report.result = DependenceResult {
            answer: Answer::Independent,
            resolved_by: ResolvedBy::Test(TestKind::FourierMotzkin),
        };
        report.witness = None;
        report.direction_vectors.clear();
        report.certificate = Certificate::Refuted {
            particular: vec![0, 0],
            basis: Matrix::from_rows(&[vec![20], vec![20]]),
            refutation: SystemRefutation {
                arena: vec![
                    Rule::Premise {
                        coeffs: vec![1],
                        rhs: 0,
                    },
                    Rule::Premise {
                        coeffs: vec![-1],
                        rhs: -1,
                    },
                    Rule::Comb {
                        a: 0,
                        ca: 1,
                        b: 1,
                        cb: 1,
                    },
                ],
                proof: RefProof::Arena { seal: 2 },
            },
        };
        match recheck(&program, &report) {
            CheckOutcome::Rejected(msg) => assert!(
                msg.contains("sub-lattice"),
                "must be rejected for incompleteness, got: {msg}"
            ),
            other => panic!("forged sub-lattice certificate must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn kernel_basis_and_membership() {
        // ker([1, -1]) is generated by (1, 1).
        let gens = kernel_basis(&[&[1, -1]], 2).unwrap();
        assert_eq!(gens.len(), 1);
        assert!(gens[0] == vec![1, 1] || gens[0] == vec![-1, -1]);
        // No equations: the kernel is all of ℤⁿ.
        assert_eq!(kernel_basis(&[], 2).unwrap().len(), 2);
        // Membership peels pivots by exact division.
        let mut full = vec![vec![1i128, 1]];
        column_echelon(&mut full, None).unwrap();
        assert!(lattice_contains(&full, &[3, 3]).unwrap());
        assert!(!lattice_contains(&full, &[3, 2]).unwrap());
        let mut doubled = vec![vec![2i128, 2]];
        column_echelon(&mut doubled, None).unwrap();
        assert!(lattice_contains(&doubled, &[4, 4]).unwrap());
        assert!(!lattice_contains(&doubled, &[1, 1]).unwrap());
        // A mixed 2-D lattice: (2, 0) and (1, 1) generate exactly the
        // points with x + y even.
        let mut mixed = vec![vec![2i128, 0], vec![1, 1]];
        column_echelon(&mut mixed, None).unwrap();
        assert!(lattice_contains(&mixed, &[3, 1]).unwrap());
        assert!(lattice_contains(&mixed, &[0, 2]).unwrap());
        assert!(!lattice_contains(&mixed, &[1, 0]).unwrap());
    }

    #[test]
    fn verdict_certificate_mismatch_is_rejected() {
        let (program, mut report) = first_pair("for i = 1 to 10 { a[i] = a[i + 20] + 1; }");
        assert!(report.result.is_independent());
        report.certificate = Certificate::Witness { x: vec![1, 1] };
        assert!(matches!(
            recheck(&program, &report),
            CheckOutcome::Rejected(_)
        ));
    }

    #[test]
    fn unverified_certificates_stay_unverified() {
        let (program, mut report) = first_pair("for i = 1 to 10 { a[i] = a[i + 20] + 1; }");
        report.certificate = Certificate::Unverified;
        assert_eq!(recheck(&program, &report), CheckOutcome::Unverified);
    }

    #[test]
    fn raw_refutation_checker_accepts_and_rejects() {
        use dda_core::certificate::Derivation;
        // Pool: t ≤ −1 and −t ≤ 0 (i.e. t ≥ 0): contradictory.
        let rows = vec![(vec![1], -1), (vec![-1], 0)];
        let good = SystemRefutation {
            arena: vec![
                Rule::Premise {
                    coeffs: vec![1],
                    rhs: -1,
                },
                Rule::Premise {
                    coeffs: vec![-1],
                    rhs: 0,
                },
                Rule::Comb {
                    a: 0,
                    ca: 1,
                    b: 1,
                    cb: 1,
                },
            ],
            proof: RefProof::Arena { seal: 2 },
        };
        assert_eq!(verify_refutation(1, &rows, &good), Ok(()));
        // A premise not in the pool is rejected.
        let bad = SystemRefutation {
            arena: vec![Rule::Premise {
                coeffs: vec![0],
                rhs: -1,
            }],
            proof: RefProof::Arena { seal: 0 },
        };
        assert!(verify_refutation(1, &rows, &bad).is_err());
        // Division floors: 2t ≤ −1 ⇒ t ≤ −1, then t ≥ 0 seals.
        let rows2 = vec![(vec![2, 0], -1), (vec![-1, 0], 0)];
        let div = SystemRefutation {
            arena: vec![
                Rule::Premise {
                    coeffs: vec![2, 0],
                    rhs: -1,
                },
                Rule::Div { of: 0, d: 2 },
                Rule::Premise {
                    coeffs: vec![-1, 0],
                    rhs: 0,
                },
                Rule::Comb {
                    a: 1,
                    ca: 1,
                    b: 2,
                    cb: 1,
                },
            ],
            proof: RefProof::Arena { seal: 3 },
        };
        assert_eq!(verify_refutation(2, &rows2, &div), Ok(()));
        // Negative multipliers are rejected even if they would "seal".
        let neg = SystemRefutation {
            arena: vec![
                Rule::Premise {
                    coeffs: vec![1],
                    rhs: -1,
                },
                Rule::Comb {
                    a: 0,
                    ca: -1,
                    b: 0,
                    cb: 0,
                },
            ],
            proof: RefProof::Arena { seal: 1 },
        };
        assert!(verify_refutation(1, &rows, &neg).is_err());
        // Fm split: t ≤ 0 ∨ t ≥ 1 with 2t ≤ 1 and −2t ≤ −1 (t = 1/2).
        let rows3 = vec![(vec![2], 1), (vec![-2], -1)];
        let fm = SystemRefutation {
            arena: vec![
                Rule::Premise {
                    coeffs: vec![2],
                    rhs: 1,
                },
                Rule::Premise {
                    coeffs: vec![-2],
                    rhs: -1,
                },
            ],
            proof: RefProof::Fm {
                tree: FmTree::Split {
                    var: 0,
                    le: 0,
                    ge: 1,
                    // Left: t ≤ 0 with −2t ≤ −1: 2·hyp + arena row 1.
                    left: Box::new(FmTree::Sealed(Derivation {
                        rules: vec![
                            Rule::Premise {
                                coeffs: vec![1],
                                rhs: 0,
                            },
                            Rule::Premise {
                                coeffs: vec![-2],
                                rhs: -1,
                            },
                            Rule::Comb {
                                a: 0,
                                ca: 2,
                                b: 1,
                                cb: 1,
                            },
                        ],
                        seal: 2,
                    })),
                    // Right: t ≥ 1 (−t ≤ −1) with 2t ≤ 1.
                    right: Box::new(FmTree::Sealed(Derivation {
                        rules: vec![
                            Rule::Premise {
                                coeffs: vec![-1],
                                rhs: -1,
                            },
                            Rule::Premise {
                                coeffs: vec![2],
                                rhs: 1,
                            },
                            Rule::Comb {
                                a: 0,
                                ca: 2,
                                b: 1,
                                cb: 1,
                            },
                        ],
                        seal: 2,
                    })),
                },
            },
        };
        assert_eq!(verify_refutation(1, &rows3, &fm), Ok(()));
    }

    #[test]
    fn direction_exhaustion_certificates_verify() {
        // A pair whose base query is inconclusive but whose direction
        // refinement refutes every branch would carry DirectionsExhausted;
        // independent pairs that resolve earlier carry Refuted. Either
        // way the whole corpus must verify.
        assert_all_verified(
            "for i = 1 to 10 { for j = 1 to 10 { a[2 * i][2 * j] = a[2 * j + 1][i] + 1; } }",
        );
    }
}
