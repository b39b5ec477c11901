//! The Fourier–Motzkin backup test (Section 3.5).
//!
//! Exact real-valued elimination: project variables away one at a time by
//! combining every lower bound with every upper bound. If the projected
//! system is infeasible over the reals, the integer system is certainly
//! infeasible (independent, exact). If it is feasible, back-substitution
//! walks the variables in reverse, picking "the integer at the middle of
//! the allowed range" (the paper's heuristic):
//!
//! - if an integral sample comes out, the system is dependent (exact);
//! - if the *first* back-substituted variable's range contains no integer,
//!   the system is independent (exact) — the paper's special case, since
//!   no other choice constrains that range;
//! - otherwise branch and bound splits on the empty range and recurses,
//!   giving up (`Unknown`) after a bounded number of steps.
//!
//! Engineering details that keep the arithmetic small and the test sharp:
//! every derived row is gcd-normalized with a floored right-hand side
//! (preserving exactly the integer solutions), and the elimination order
//! greedily minimizes the number of generated rows (`p·q`). The hot loop
//! is storage- and certificate-frugal: rows live in inline
//! [`CoeffVec`] storage (cloning one is a `memcpy`), each elimination
//! step moves its bound rows into a bump arena and records *ranges*
//! instead of per-step vectors, back-substitution compares bounds in the
//! tiered [`Coeff`] arithmetic (`i64`-component fast path, no gcd), and
//! derivation steps are logged as `Copy` values that materialize into
//! [`Rule`]s only when a refutation is actually returned.

#![warn(clippy::arithmetic_side_effects)]

use std::mem;
use std::ops::Range;
use std::time::Instant;

use dda_linalg::{num, Coeff, CoeffVec};

use crate::certificate::{Derivation, FmTree, Rule};
use crate::system::Constraint;

/// Outcome of the Fourier–Motzkin test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FmOutcome {
    /// No real (hence no integer) solution: independent, exact.
    Infeasible,
    /// An integral witness was found: dependent, exact.
    Sample(Vec<i64>),
    /// Real-feasible but no integral witness within the branch-and-bound
    /// budget: dependence must be assumed (inexact).
    Unknown,
}

/// Hard caps that bound the (worst-case exponential) work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FmLimits {
    /// Maximum number of rows the elimination may generate.
    pub max_constraints: usize,
    /// Maximum branch-and-bound recursion depth.
    pub max_branch_depth: usize,
    /// A wall-clock cutoff for branch-and-bound and direction
    /// refinement, which then give up (`Unknown`, or `*` directions).
    /// `None`, the default, never cuts, so answers stay deterministic;
    /// a caller that sets it must discard what it computed past it.
    pub deadline: Option<Instant>,
}

impl Default for FmLimits {
    fn default() -> FmLimits {
        FmLimits {
            max_constraints: 20_000,
            max_branch_depth: 12,
            deadline: None,
        }
    }
}

impl FmLimits {
    /// Whether a deadline is set and has passed (the clock is read only
    /// when one is set).
    #[must_use]
    pub fn past_deadline(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// A derived elimination step, logged as a `Copy` value. Premises are
/// implicit — the input rows, in order — so the derivation arena is built
/// ([`materialize`]) only when a refutation is actually emitted; the
/// dependent and `Unknown` paths never construct a single [`Rule`].
#[derive(Debug, Clone, Copy)]
enum DStep {
    /// `ca · step[a] + cb · step[b]`.
    Comb {
        a: usize,
        ca: i64,
        b: usize,
        cb: i64,
    },
    /// Step `of` divided by `d`.
    Div { of: usize, d: i64 },
}

/// Builds the local derivation arena: one [`Rule::Premise`] per input
/// row, then the logged derivations. Step numbering matches the indices
/// recorded during elimination (`inputs.len() + log position`), so the
/// output is byte-for-byte what the eager construction used to produce.
fn materialize(inputs: &[Constraint], derived: &[DStep]) -> Vec<Rule> {
    let mut rules = Vec::with_capacity(inputs.len().saturating_add(derived.len()));
    rules.extend(inputs.iter().map(|c| Rule::Premise {
        coeffs: c.coeffs.to_vec(),
        rhs: c.rhs,
    }));
    rules.extend(derived.iter().map(|d| match *d {
        DStep::Comb { a, ca, b, cb } => Rule::Comb { a, ca, b, cb },
        DStep::Div { of, d } => Rule::Div { of, d },
    }));
    rules
}

/// One elimination step, recorded for back-substitution: the eliminated
/// variable plus the ranges of its lower/upper bound rows in the bound
/// arena (where partitioning moved them).
#[derive(Debug, Clone)]
struct Step {
    var: usize,
    lo: Range<usize>,
    up: Range<usize>,
}

/// Runs Fourier–Motzkin with default limits.
///
/// # Examples
///
/// ```
/// use dda_core::system::Constraint;
/// use dda_core::fourier_motzkin::{fourier_motzkin, FmOutcome};
///
/// // t0 + t1 ≤ 3, t0 ≥ 1, t1 ≥ 1: dependent with e.g. (1, 1).
/// let cs = vec![
///     Constraint::new(vec![1, 1], 3),
///     Constraint::new(vec![-1, 0], -1),
///     Constraint::new(vec![0, -1], -1),
/// ];
/// let FmOutcome::Sample(t) = fourier_motzkin(2, &cs) else { panic!() };
/// assert!(t[0] + t[1] <= 3 && t[0] >= 1 && t[1] >= 1);
/// ```
#[must_use]
pub fn fourier_motzkin(num_vars: usize, constraints: &[Constraint]) -> FmOutcome {
    fourier_motzkin_with(num_vars, constraints, FmLimits::default())
}

/// Runs Fourier–Motzkin with explicit limits.
#[must_use]
pub fn fourier_motzkin_with(
    num_vars: usize,
    constraints: &[Constraint],
    limits: FmLimits,
) -> FmOutcome {
    solve(num_vars, constraints, limits, 0).0
}

/// Runs Fourier–Motzkin and, on `Infeasible`, also returns a refutation
/// tree whose leaf premises are drawn (by value) from `constraints`.
///
/// Public for the differential test oracle; not a stable API.
#[doc(hidden)]
#[must_use]
pub fn fourier_motzkin_cert(
    num_vars: usize,
    constraints: &[Constraint],
    limits: FmLimits,
) -> (FmOutcome, Option<FmTree>) {
    solve(num_vars, constraints, limits, 0)
}

/// The elimination core. Alongside the outcome it keeps a `Copy` log of
/// derived steps (premises are the input rows, implicitly) and, when the
/// answer is `Infeasible`, materializes a tree whose sealed derivations
/// refute `constraints`; branch hypotheses become the premises of the
/// recursive subtrees.
// Unchecked ops here are structurally safe: arena step numbering bounded
// by `max_constraints`, a `Comb` multiplier whose negation `combine`
// already proved representable, and i128 midpoint arithmetic guarded by
// checked addition.
#[allow(clippy::arithmetic_side_effects)]
fn solve(
    num_vars: usize,
    constraints: &[Constraint],
    limits: FmLimits,
    depth: usize,
) -> (FmOutcome, Option<FmTree>) {
    let n_inputs = constraints.len();
    let mut derived: Vec<DStep> = Vec::new();
    // The live working set: (row, local derivation step).
    let mut rows: Vec<(Constraint, usize)> = Vec::with_capacity(n_inputs);
    for (i, c) in constraints.iter().enumerate() {
        let mut step = i;
        let mut c = c.clone();
        let g = num::gcd_slice(&c.coeffs);
        c.normalize();
        if g > 1 {
            derived.push(DStep::Div { of: step, d: g });
            step = n_inputs + derived.len() - 1;
        }
        if c.is_trivial() {
            if !c.trivially_satisfied() {
                let tree = FmTree::Sealed(Derivation {
                    rules: materialize(constraints, &derived),
                    seal: step,
                });
                return (FmOutcome::Infeasible, Some(tree));
            }
            continue;
        }
        rows.push((c, step));
    }

    let mut remaining: Vec<usize> = (0..num_vars)
        .filter(|&v| rows.iter().any(|(c, _)| c.coeffs[v] != 0))
        .collect();
    // Bump arena of bound rows: each elimination step moves its lower and
    // upper rows here (contiguously) and records ranges, so the per-step
    // row sets cost no per-step allocations and survive untouched for
    // back-substitution.
    let mut arena: Vec<(Constraint, usize)> = Vec::new();
    let mut steps: Vec<Step> = Vec::new();

    while let Some(pick_idx) = pick_variable(&rows, &remaining) {
        if limits.past_deadline() {
            return (FmOutcome::Unknown, None);
        }
        let v = remaining.swap_remove(pick_idx);
        // Partition: move `v`'s lower rows into the arena, then its upper
        // rows, then compact the untouched rest in place. Taken slots are
        // recognizable by their empty coefficient vectors.
        let lo_start = arena.len();
        for (c, s) in &mut rows {
            if c.coeffs.get(v).is_some_and(|&a| a < 0) {
                arena.push((mem::take(c), *s));
            }
        }
        let lo_end = arena.len();
        for (c, s) in &mut rows {
            if c.coeffs.get(v).is_some_and(|&a| a > 0) {
                arena.push((mem::take(c), *s));
            }
        }
        let up_end = arena.len();
        rows.retain(|(c, _)| !c.coeffs.is_empty());

        for li in lo_start..lo_end {
            for ui in lo_end..up_end {
                let (lo, lo_s) = &arena[li];
                let (up, up_s) = &arena[ui];
                let Some(mut combined) = combine(lo, up, v) else {
                    return (FmOutcome::Unknown, None); // overflow
                };
                // combine succeeding proves `−a_lo` did not overflow.
                derived.push(DStep::Comb {
                    a: *lo_s,
                    ca: up.coeffs[v],
                    b: *up_s,
                    cb: -lo.coeffs[v],
                });
                let mut cstep = n_inputs + derived.len() - 1;
                let g = num::gcd_slice(&combined.coeffs);
                combined.normalize();
                if g > 1 {
                    derived.push(DStep::Div { of: cstep, d: g });
                    cstep = n_inputs + derived.len() - 1;
                }
                if combined.is_trivial() {
                    if !combined.trivially_satisfied() {
                        let tree = FmTree::Sealed(Derivation {
                            rules: materialize(constraints, &derived),
                            seal: cstep,
                        });
                        return (FmOutcome::Infeasible, Some(tree));
                    }
                } else {
                    rows.push((combined, cstep));
                }
                if rows.len() > limits.max_constraints {
                    return (FmOutcome::Unknown, None);
                }
            }
        }
        steps.push(Step {
            var: v,
            lo: lo_start..lo_end,
            up: lo_end..up_end,
        });
    }
    debug_assert!(rows.iter().all(|(c, _)| c.is_trivial()));

    // Real-feasible. Back-substitute in reverse elimination order.
    let mut sample = vec![0i64; num_vars];
    let mut assigned = vec![false; num_vars];
    for (k, step) in steps.iter().rev().enumerate() {
        let lowers = &arena[step.lo.clone()];
        let uppers = &arena[step.up.clone()];
        let lo = tightest(lowers, step.var, &sample, &assigned, true);
        let up = tightest(uppers, step.var, &sample, &assigned, false);
        let (lo, up) = match (lo, up) {
            (Err(()), _) | (_, Err(())) => return (FmOutcome::Unknown, None), // overflow
            (Ok(l), Ok(u)) => (l, u),
        };
        let lo_int = lo.as_ref().map(Coeff::ceil);
        let up_int = up.as_ref().map(Coeff::floor);
        let value = match (lo_int, up_int) {
            (Some(l), Some(u)) if l > u => {
                // Empty integer range.
                if k == 0 {
                    // No other choices constrain the first back-substituted
                    // variable: its real range is the exact projection, so
                    // an empty integer range proves independence.
                    let tree = seal_last_var(constraints, derived, lowers, uppers, step.var);
                    return (FmOutcome::Infeasible, tree);
                }
                if depth >= limits.max_branch_depth {
                    return (FmOutcome::Unknown, None);
                }
                // Branch: t_v ≤ ⌊lo⌋  ∨  t_v ≥ ⌈up⌉ covers every integer.
                return branch(
                    num_vars,
                    constraints,
                    limits,
                    depth,
                    step.var,
                    lo.expect("two-sided").floor(),
                    up.expect("two-sided").ceil(),
                );
            }
            (Some(l), Some(u)) => {
                // The integer nearest the middle of the allowed range:
                // ⌊(l + u + 1) / 2⌋, computed with checked addition so
                // extreme bounds fall back to `l` instead of wrapping.
                let mid = l
                    .checked_add(u)
                    .and_then(|s| s.checked_add(1))
                    .map_or(l, |s| s.div_euclid(2));
                mid.clamp(l, u)
            }
            (Some(l), None) => l,
            (None, Some(u)) => u,
            (None, None) => 0,
        };
        let Ok(value) = i64::try_from(value) else {
            return (FmOutcome::Unknown, None);
        };
        sample[step.var] = value;
        assigned[step.var] = true;
    }
    (FmOutcome::Sample(sample), None)
}

/// Seals the empty integer range of the first back-substituted variable:
/// its rows are single-variable (±1 after normalization — every other
/// variable was eliminated before it, zeroing its coefficient), so the
/// tightest lower row `−v ≤ −l` plus the tightest upper row `v ≤ u` sums
/// to `0 ≤ u − l < 0`. Returns `None` if the rows violate that shape.
// i128-widened row constants and in-bounds step numbering cannot overflow.
#[allow(clippy::arithmetic_side_effects)]
fn seal_last_var(
    inputs: &[Constraint],
    mut derived: Vec<DStep>,
    lowers: &[(Constraint, usize)],
    uppers: &[(Constraint, usize)],
    v: usize,
) -> Option<FmTree> {
    let mut best_lo: Option<(i128, usize)> = None; // (l, arena step)
    for (c, s) in lowers {
        if c.single_var() != Some(v) || c.coeffs[v] != -1 {
            return None;
        }
        let l = -i128::from(c.rhs);
        if best_lo.is_none_or(|(b, _)| l > b) {
            best_lo = Some((l, *s));
        }
    }
    let mut best_up: Option<(i128, usize)> = None; // (u, arena step)
    for (c, s) in uppers {
        if c.single_var() != Some(v) || c.coeffs[v] != 1 {
            return None;
        }
        let u = i128::from(c.rhs);
        if best_up.is_none_or(|(b, _)| u < b) {
            best_up = Some((u, *s));
        }
    }
    let ((l, lo_s), (u, up_s)) = (best_lo?, best_up?);
    debug_assert!(l > u, "range was reported empty");
    derived.push(DStep::Comb {
        a: up_s,
        ca: 1,
        b: lo_s,
        cb: 1,
    });
    let seal = inputs.len() + derived.len() - 1;
    Some(FmTree::Sealed(Derivation {
        rules: materialize(inputs, &derived),
        seal,
    }))
}

/// Picks the remaining variable minimizing the number of generated rows
/// (`p·q − p − q`, Fourier–Motzkin's growth measure); returns its index in
/// `remaining`.
// `p`, `q` are row counts capped by `FmLimits::max_constraints`, so the
// i64 growth measure `p*q - p - q` stays far from overflow.
#[allow(clippy::arithmetic_side_effects)]
fn pick_variable(rows: &[(Constraint, usize)], remaining: &[usize]) -> Option<usize> {
    remaining
        .iter()
        .enumerate()
        .map(|(idx, &v)| {
            let p = rows.iter().filter(|(c, _)| c.coeffs[v] > 0).count() as i64;
            let q = rows.iter().filter(|(c, _)| c.coeffs[v] < 0).count() as i64;
            (idx, p * q - p - q)
        })
        .min_by_key(|&(_, growth)| growth)
        .map(|(idx, _)| idx)
}

/// Combines a lower bound (`a_v < 0`) with an upper bound (`a_v > 0`) so
/// the coefficient of `v` cancels. Returns `None` on overflow.
fn combine(lo: &Constraint, up: &Constraint, v: usize) -> Option<Constraint> {
    let a_lo = lo.coeffs[v]; // < 0
    let a_up = up.coeffs[v]; // > 0
    let m_lo = a_up; // multiply lower row by the upper coefficient
    let m_up = a_lo.checked_neg()?; // and the upper row by |lower coefficient|
    let mut coeffs = CoeffVec::new();
    for (l, u) in lo.coeffs.iter().zip(&up.coeffs) {
        let term = l.checked_mul(m_lo)?.checked_add(u.checked_mul(m_up)?)?;
        coeffs.push(term);
    }
    debug_assert_eq!(coeffs[v], 0);
    let rhs = lo
        .rhs
        .checked_mul(m_lo)?
        .checked_add(up.rhs.checked_mul(m_up)?)?;
    Some(Constraint::new(coeffs, rhs))
}

/// The tightest bound on `var` over `rows`, given the already-assigned
/// sample values. `is_lower` selects max-of-lowers vs min-of-uppers.
/// `Ok(None)` means unbounded; `Err(())` signals overflow.
///
/// Bounds are built as [`Coeff`]s: the dominant small-coefficient rows
/// stay on the `i64`-component fast path (two multiplies per comparison,
/// no gcd), promoting only when components actually outgrow it.
#[allow(clippy::result_unit_err)]
fn tightest(
    rows: &[(Constraint, usize)],
    var: usize,
    sample: &[i64],
    assigned: &[bool],
    is_lower: bool,
) -> Result<Option<Coeff>, ()> {
    let mut best: Option<Coeff> = None;
    for (c, _) in rows {
        let a = c.coeffs[var];
        debug_assert_ne!(a, 0);
        let mut rest = i128::from(c.rhs);
        for (j, &aj) in c.coeffs.iter().enumerate() {
            if j != var && aj != 0 {
                // Unassigned variables here were eliminated earlier (and
                // will be back-substituted later); their coefficients in
                // this row are necessarily zero. Assigned ones contribute.
                debug_assert!(assigned[j] || sample[j] == 0);
                rest = rest
                    .checked_sub(
                        i128::from(aj)
                            .checked_mul(i128::from(sample[j]))
                            .ok_or(())?,
                    )
                    .ok_or(())?;
            }
        }
        let bound = Coeff::ratio128(rest, i128::from(a)).map_err(|_| ())?;
        best = Some(match best {
            None => bound,
            Some(b) if is_lower => b.max(bound),
            Some(b) => b.min(bound),
        });
    }
    Ok(best)
}

// `depth + 1` is bounded by `FmLimits::max_branch_depth`.
#[allow(clippy::arithmetic_side_effects)]
fn branch(
    num_vars: usize,
    constraints: &[Constraint],
    limits: FmLimits,
    depth: usize,
    var: usize,
    le_val: i128,
    ge_val: i128,
) -> (FmOutcome, Option<FmTree>) {
    let (Ok(le_val), Ok(ge_val)) = (i64::try_from(le_val), i64::try_from(ge_val)) else {
        return (FmOutcome::Unknown, None);
    };
    if limits.past_deadline() {
        return (FmOutcome::Unknown, None);
    }
    let mut left = Vec::with_capacity(constraints.len() + 1);
    left.extend_from_slice(constraints);
    let mut coeffs = CoeffVec::from_elem(0, num_vars);
    coeffs[var] = 1;
    left.push(Constraint::new(coeffs.clone(), le_val));
    let mut right = Vec::with_capacity(constraints.len() + 1);
    right.extend_from_slice(constraints);
    coeffs[var] = -1;
    let Some(neg) = ge_val.checked_neg() else {
        return (FmOutcome::Unknown, None);
    };
    right.push(Constraint::new(coeffs, neg));

    let (left_out, left_tree) = solve(num_vars, &left, limits, depth + 1);
    match left_out {
        FmOutcome::Sample(s) => return (FmOutcome::Sample(s), None),
        FmOutcome::Infeasible => {}
        FmOutcome::Unknown => {
            // Even if the right branch proves infeasible, the left side
            // stays unresolved.
            return match solve(num_vars, &right, limits, depth + 1).0 {
                FmOutcome::Sample(s) => (FmOutcome::Sample(s), None),
                _ => (FmOutcome::Unknown, None),
            };
        }
    }
    let (right_out, right_tree) = solve(num_vars, &right, limits, depth + 1);
    match right_out {
        FmOutcome::Infeasible => {
            // Both sides refuted: `t_var ≤ le ∨ t_var ≥ ge` covers ℤ.
            let tree = match (left_tree, right_tree) {
                (Some(l), Some(r)) => Some(FmTree::Split {
                    var,
                    le: le_val,
                    ge: ge_val,
                    left: Box::new(l),
                    right: Box::new(r),
                }),
                _ => None,
            };
            (FmOutcome::Infeasible, tree)
        }
        other => (other, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::System;

    fn sys(rows: &[(&[i64], i64)]) -> (usize, Vec<Constraint>) {
        let n = rows.first().map_or(0, |(c, _)| c.len());
        (
            n,
            rows.iter()
                .map(|(c, r)| Constraint::new(c.to_vec(), *r))
                .collect(),
        )
    }

    fn assert_sample(rows: &[(&[i64], i64)]) -> Vec<i64> {
        let (n, cs) = sys(rows);
        let FmOutcome::Sample(t) = fourier_motzkin(n, &cs) else {
            panic!("expected sample for {rows:?}");
        };
        let mut s = System::new(n);
        for c in &cs {
            s.push(c.clone());
        }
        assert!(s.is_satisfied_by(&t).unwrap(), "witness {t:?} invalid");
        t
    }

    #[test]
    fn simple_feasible() {
        assert_sample(&[(&[1, 1], 3), (&[-1, 0], -1), (&[0, -1], -1)]);
    }

    #[test]
    fn real_infeasible() {
        // t ≥ 2 and t ≤ 1.
        let (n, cs) = sys(&[(&[-1], -2), (&[1], 1)]);
        assert_eq!(fourier_motzkin(n, &cs), FmOutcome::Infeasible);
    }

    #[test]
    fn integer_gap_detected_exactly() {
        // 2t = 1: real solution 0.5, no integer. The single remaining
        // variable's empty integer range proves independence.
        let (n, cs) = sys(&[(&[2], 1), (&[-2], -1)]);
        assert_eq!(fourier_motzkin(n, &cs), FmOutcome::Infeasible);
    }

    #[test]
    fn coupled_integer_gap_via_branch_and_bound() {
        // 2t0 + 2t1 = 1 over integers: infeasible, but real-feasible.
        // (GCD normalization already tightens 2t0+2t1 ≤ 1 to t0+t1 ≤ 0 and
        // ≥ 1: directly infeasible.)
        let (n, cs) = sys(&[(&[2, 2], 1), (&[-2, -2], -1)]);
        assert_eq!(fourier_motzkin(n, &cs), FmOutcome::Infeasible);
    }

    #[test]
    fn branch_and_bound_finds_lattice_point() {
        // 3t0 + 5t1 = 7 with 0 ≤ t0,t1 ≤ 10: t0=4,t1=-1 out of range;
        // feasible at t0 = 4? 3*4=12 no. Try: 3*4+5*(-1)=7 (t1<0). In
        // range: t0=4,t1=-1 invalid; 3* -1 +5*2 = 7 (t0<0). Actually
        // t0=4, t1=-1 and t0=-1,t1=2 are the only small ones... with
        // 0 ≤ t ≤ 10 there is NO solution: 3t0+5t1=7, t1=(7-3t0)/5
        // integral needs 3t0 ≡ 7 (mod 5) → t0 ≡ 4 (mod 5): t0=4 → t1=-1;
        // t0=9 → t1=-4. So infeasible over the box.
        let (n, cs) = sys(&[
            (&[3, 5], 7),
            (&[-3, -5], -7),
            (&[-1, 0], 0),
            (&[0, -1], 0),
            (&[1, 0], 10),
            (&[0, 1], 10),
        ]);
        assert_eq!(fourier_motzkin(n, &cs), FmOutcome::Infeasible);
    }

    #[test]
    fn branch_and_bound_positive_case() {
        // 3t0 + 5t1 = 22, 0 ≤ t0,t1 ≤ 10: t0=4, t1=2 works.
        assert_sample(&[
            (&[3, 5], 22),
            (&[-3, -5], -22),
            (&[-1, 0], 0),
            (&[0, -1], 0),
            (&[1, 0], 10),
            (&[0, 1], 10),
        ]);
    }

    #[test]
    fn unconstrained_variables_default_zero() {
        let (_, cs) = sys(&[(&[1, 0], 5)]);
        let FmOutcome::Sample(t) = fourier_motzkin(2, &cs) else {
            panic!()
        };
        assert_eq!(t[1], 0);
        assert!(t[0] <= 5);
    }

    #[test]
    fn empty_system_feasible() {
        assert_eq!(fourier_motzkin(0, &[]), FmOutcome::Sample(vec![]));
        assert_eq!(fourier_motzkin(3, &[]), FmOutcome::Sample(vec![0, 0, 0]));
    }

    #[test]
    fn trivial_contradiction() {
        let (n, cs) = sys(&[(&[0, 0], -3)]);
        assert_eq!(fourier_motzkin(n, &cs), FmOutcome::Infeasible);
    }

    #[test]
    fn three_variable_system() {
        // t0 + t1 + t2 = 10, each in [0, 4]: e.g. (2, 4, 4).
        assert_sample(&[
            (&[1, 1, 1], 10),
            (&[-1, -1, -1], -10),
            (&[-1, 0, 0], 0),
            (&[0, -1, 0], 0),
            (&[0, 0, -1], 0),
            (&[1, 0, 0], 4),
            (&[0, 1, 0], 4),
            (&[0, 0, 1], 4),
        ]);
    }

    #[test]
    fn middle_of_range_heuristic_used() {
        // 0 ≤ t ≤ 10: middle is 5.
        let (n, cs) = sys(&[(&[-1], 0), (&[1], 10)]);
        let FmOutcome::Sample(t) = fourier_motzkin(n, &cs) else {
            panic!()
        };
        assert_eq!(t, vec![5]);
    }

    #[test]
    fn midpoint_survives_extreme_bounds() {
        // The widest range the elimination itself survives: the midpoint
        // arithmetic must not wrap (the old `Rational::new(l + u, 2)` used
        // an unchecked i128 addition). Here l + u = -1: midpoint 0.
        let half = i64::MAX / 2;
        let (n, cs) = sys(&[(&[-1], half), (&[1], half - 1)]);
        let FmOutcome::Sample(t) = fourier_motzkin(n, &cs) else {
            panic!()
        };
        assert_eq!(t, vec![0], "midpoint of [-MAX/2, MAX/2 - 1]");
    }

    #[test]
    fn tight_limits_yield_unknown() {
        let limits = FmLimits {
            max_constraints: 1,
            max_branch_depth: 0,
            deadline: None,
        };
        // A system that must generate a few rows.
        let (n, cs) = sys(&[(&[1, 1], 3), (&[1, -1], 0), (&[-1, 1], 0), (&[-1, -1], -1)]);
        let out = fourier_motzkin_with(n, &cs, limits);
        assert!(matches!(out, FmOutcome::Unknown | FmOutcome::Sample(_)));
    }
}
