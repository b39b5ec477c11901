//! Differential oracle for the Fourier–Motzkin rewrite.
//!
//! `oracle_solve` below is the pre-refactor elimination copied verbatim
//! from the tree before the tiered-numeric/arena rewrite: rational-first
//! back-substitution bounds, eagerly built `Rule` arenas, per-step
//! lower/upper row vectors. The rewritten [`fourier_motzkin_cert`] must
//! agree with it **bit-for-bit** on every input — same outcome (including
//! the exact sample and the exact `Unknown` overflow boundary) and the
//! byte-identical refutation tree, across generators that keep bounds in
//! the `i64`-component fast tier and generators that force promotion.

use dda_core::certificate::{Derivation, FmTree, Rule};
use dda_core::fourier_motzkin::{fourier_motzkin_cert, FmLimits, FmOutcome};
use dda_core::system::Constraint;
use dda_linalg::{num, Rational};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// One elimination step of the pre-refactor solver: the eliminated
/// variable plus its lower/upper bound rows and their arena steps.
struct Step {
    var: usize,
    lowers: Vec<Constraint>,
    uppers: Vec<Constraint>,
    lower_steps: Vec<usize>,
    upper_steps: Vec<usize>,
}

/// The pre-refactor elimination core, kept as a test-only oracle.
fn oracle_solve(
    num_vars: usize,
    constraints: &[Constraint],
    limits: FmLimits,
    depth: usize,
) -> (FmOutcome, Option<FmTree>) {
    let mut lrules: Vec<Rule> = constraints
        .iter()
        .map(|c| Rule::Premise {
            coeffs: c.coeffs.to_vec(),
            rhs: c.rhs,
        })
        .collect();
    let mut rows: Vec<Constraint> = Vec::with_capacity(constraints.len());
    let mut row_steps: Vec<usize> = Vec::with_capacity(constraints.len());
    for (i, c) in constraints.iter().enumerate() {
        let mut step = i;
        let mut c = c.clone();
        let g = num::gcd_slice(&c.coeffs);
        c.normalize();
        if g > 1 {
            lrules.push(Rule::Div { of: step, d: g });
            step = lrules.len() - 1;
        }
        if c.is_trivial() {
            if !c.trivially_satisfied() {
                let tree = FmTree::Sealed(Derivation {
                    rules: lrules,
                    seal: step,
                });
                return (FmOutcome::Infeasible, Some(tree));
            }
            continue;
        }
        rows.push(c);
        row_steps.push(step);
    }

    let mut remaining: Vec<usize> = (0..num_vars)
        .filter(|&v| rows.iter().any(|c| c.coeffs[v] != 0))
        .collect();
    let mut steps: Vec<Step> = Vec::new();

    while let Some(pick_idx) = pick_variable(&rows, &remaining) {
        let v = remaining.swap_remove(pick_idx);
        let mut lowers = Vec::new();
        let mut uppers = Vec::new();
        let mut rest = Vec::new();
        let mut lower_steps = Vec::new();
        let mut upper_steps = Vec::new();
        let mut rest_steps = Vec::new();
        for (c, s) in rows.into_iter().zip(row_steps) {
            match c.coeffs[v].cmp(&0) {
                std::cmp::Ordering::Less => {
                    lowers.push(c);
                    lower_steps.push(s);
                }
                std::cmp::Ordering::Greater => {
                    uppers.push(c);
                    upper_steps.push(s);
                }
                std::cmp::Ordering::Equal => {
                    rest.push(c);
                    rest_steps.push(s);
                }
            }
        }
        for (lo, lo_s) in lowers.iter().zip(&lower_steps) {
            for (up, up_s) in uppers.iter().zip(&upper_steps) {
                let Some(mut combined) = combine(lo, up, v) else {
                    return (FmOutcome::Unknown, None); // overflow
                };
                lrules.push(Rule::Comb {
                    a: *lo_s,
                    ca: up.coeffs[v],
                    b: *up_s,
                    cb: -lo.coeffs[v],
                });
                let mut cstep = lrules.len() - 1;
                let g = num::gcd_slice(&combined.coeffs);
                combined.normalize();
                if g > 1 {
                    lrules.push(Rule::Div { of: cstep, d: g });
                    cstep = lrules.len() - 1;
                }
                if combined.is_trivial() {
                    if !combined.trivially_satisfied() {
                        let tree = FmTree::Sealed(Derivation {
                            rules: lrules,
                            seal: cstep,
                        });
                        return (FmOutcome::Infeasible, Some(tree));
                    }
                } else {
                    rest.push(combined);
                    rest_steps.push(cstep);
                }
                if rest.len() > limits.max_constraints {
                    return (FmOutcome::Unknown, None);
                }
            }
        }
        steps.push(Step {
            var: v,
            lowers,
            uppers,
            lower_steps,
            upper_steps,
        });
        rows = rest;
        row_steps = rest_steps;
    }

    // Real-feasible. Back-substitute in reverse elimination order.
    let mut sample = vec![0i64; num_vars];
    let mut assigned = vec![false; num_vars];
    for (k, step) in steps.iter().rev().enumerate() {
        let lo = tightest(&step.lowers, step.var, &sample, &assigned, true);
        let up = tightest(&step.uppers, step.var, &sample, &assigned, false);
        let (lo, up) = match (lo, up) {
            (Err(()), _) | (_, Err(())) => return (FmOutcome::Unknown, None), // overflow
            (Ok(l), Ok(u)) => (l, u),
        };
        let lo_int = lo.as_ref().map(Rational::ceil);
        let up_int = up.as_ref().map(Rational::floor);
        let value = match (lo_int, up_int) {
            (Some(l), Some(u)) if l > u => {
                if k == 0 {
                    let tree = seal_last_var(lrules, step);
                    return (FmOutcome::Infeasible, tree);
                }
                if depth >= limits.max_branch_depth {
                    return (FmOutcome::Unknown, None);
                }
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
                // The integer nearest the middle of the allowed range.
                let mid = Rational::new(l + u, 2).map_or(l, |m| m.round_nearest());
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

fn seal_last_var(mut lrules: Vec<Rule>, step: &Step) -> Option<FmTree> {
    let v = step.var;
    let mut best_lo: Option<(i128, usize)> = None;
    for (c, &s) in step.lowers.iter().zip(&step.lower_steps) {
        if c.single_var() != Some(v) || c.coeffs[v] != -1 {
            return None;
        }
        let l = -i128::from(c.rhs);
        if best_lo.is_none_or(|(b, _)| l > b) {
            best_lo = Some((l, s));
        }
    }
    let mut best_up: Option<(i128, usize)> = None;
    for (c, &s) in step.uppers.iter().zip(&step.upper_steps) {
        if c.single_var() != Some(v) || c.coeffs[v] != 1 {
            return None;
        }
        let u = i128::from(c.rhs);
        if best_up.is_none_or(|(b, _)| u < b) {
            best_up = Some((u, s));
        }
    }
    let ((l, lo_s), (u, up_s)) = (best_lo?, best_up?);
    debug_assert!(l > u, "range was reported empty");
    lrules.push(Rule::Comb {
        a: up_s,
        ca: 1,
        b: lo_s,
        cb: 1,
    });
    let seal = lrules.len() - 1;
    Some(FmTree::Sealed(Derivation {
        rules: lrules,
        seal,
    }))
}

fn pick_variable(rows: &[Constraint], remaining: &[usize]) -> Option<usize> {
    remaining
        .iter()
        .enumerate()
        .map(|(idx, &v)| {
            let p = rows.iter().filter(|c| c.coeffs[v] > 0).count() as i64;
            let q = rows.iter().filter(|c| c.coeffs[v] < 0).count() as i64;
            (idx, p * q - p - q)
        })
        .min_by_key(|&(_, growth)| growth)
        .map(|(idx, _)| idx)
}

fn combine(lo: &Constraint, up: &Constraint, v: usize) -> Option<Constraint> {
    let a_lo = lo.coeffs[v]; // < 0
    let a_up = up.coeffs[v]; // > 0
    let m_lo = a_up;
    let m_up = a_lo.checked_neg()?;
    let mut coeffs = Vec::with_capacity(lo.coeffs.len());
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

#[allow(clippy::result_unit_err)]
fn tightest(
    rows: &[Constraint],
    var: usize,
    sample: &[i64],
    assigned: &[bool],
    is_lower: bool,
) -> Result<Option<Rational>, ()> {
    let mut best: Option<Rational> = None;
    for c in rows {
        let a = c.coeffs[var];
        debug_assert_ne!(a, 0);
        let mut rest = i128::from(c.rhs);
        for (j, &aj) in c.coeffs.iter().enumerate() {
            if j != var && aj != 0 {
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
        let bound = Rational::new(rest, i128::from(a)).map_err(|_| ())?;
        best = Some(match best {
            None => bound,
            Some(b) if is_lower => b.max(bound),
            Some(b) => b.min(bound),
        });
    }
    Ok(best)
}

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
    let mut left = constraints.to_vec();
    let mut coeffs = vec![0i64; num_vars];
    coeffs[var] = 1;
    left.push(Constraint::new(coeffs.clone(), le_val));
    let mut right = constraints.to_vec();
    coeffs[var] = -1;
    let Some(neg) = ge_val.checked_neg() else {
        return (FmOutcome::Unknown, None);
    };
    right.push(Constraint::new(coeffs, neg));

    let (left_out, left_tree) = oracle_solve(num_vars, &left, limits, depth + 1);
    match left_out {
        FmOutcome::Sample(s) => return (FmOutcome::Sample(s), None),
        FmOutcome::Infeasible => {}
        FmOutcome::Unknown => {
            return match oracle_solve(num_vars, &right, limits, depth + 1).0 {
                FmOutcome::Sample(s) => (FmOutcome::Sample(s), None),
                _ => (FmOutcome::Unknown, None),
            };
        }
    }
    let (right_out, right_tree) = oracle_solve(num_vars, &right, limits, depth + 1);
    match right_out {
        FmOutcome::Infeasible => {
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

// ---------------------------------------------------------------------
// Generators and the differential property itself.

/// Small systems: 1–3 vars, boxed, mixing feasible, directly-infeasible,
/// integer-gap, and branch-and-bound paths.
fn arb_small_system() -> impl Strategy<Value = (usize, Vec<Constraint>)> {
    (1usize..=3)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(
                    (proptest::collection::vec(-4i64..=4, n), -12i64..=12),
                    0..=5,
                ),
                1i64..=8,
            )
        })
        .prop_map(|(n, rows, bx)| {
            let mut cs: Vec<Constraint> = rows
                .into_iter()
                .map(|(c, r)| Constraint::new(c, r))
                .collect();
            for v in 0..n {
                let mut row = vec![0i64; n];
                row[v] = 1;
                cs.push(Constraint::new(row.clone(), bx));
                row[v] = -1;
                cs.push(Constraint::new(row, bx));
            }
            (n, cs)
        })
}

/// Wide systems: right-hand sides drawn from near-`i64`-extreme bands so
/// back-substitution bounds outgrow the `i64`-component tier and the
/// overflow cutoffs (`combine`, `tightest`) are actually reached. The
/// rewrite must land on `Unknown` on *exactly* the same inputs.
fn arb_wide_system() -> impl Strategy<Value = (usize, Vec<Constraint>)> {
    let wide_rhs = (
        0u8..8,
        -12i64..=12,
        (i64::MAX / 2)..=i64::MAX,
        (i64::MAX / 4096)..=(i64::MAX / 2048),
    )
        .prop_map(|(band, small, big, mid)| match band {
            0..=2 => small,
            3 | 4 => big,
            5 | 6 => -big,
            _ => mid,
        });
    (1usize..=3)
        .prop_flat_map(move |n| {
            (
                Just(n),
                proptest::collection::vec(
                    (proptest::collection::vec(-4i64..=4, n), wide_rhs.clone()),
                    1..=5,
                ),
            )
        })
        .prop_map(|(n, rows)| {
            (
                n,
                rows.into_iter()
                    .map(|(c, r)| Constraint::new(c, r))
                    .collect(),
            )
        })
}

/// Asserts the rewrite and the oracle agree bit-for-bit.
fn assert_identical(n: usize, cs: &[Constraint], limits: FmLimits) -> Result<(), TestCaseError> {
    let new = fourier_motzkin_cert(n, cs, limits);
    let old = oracle_solve(n, cs, limits, 0);
    prop_assert_eq!(
        &new,
        &old,
        "rewrite diverged from rational-first oracle on {:?}",
        cs
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    /// Bit-identical verdicts, samples, and refutation trees on boxed
    /// small systems (the fast-tier steady state).
    #[test]
    fn rewrite_matches_oracle_small((n, cs) in arb_small_system()) {
        assert_identical(n, &cs, FmLimits::default())?;
    }

    /// Bit-identical behaviour under tight limits, where both sides give
    /// up — the `Unknown` budget boundary must not move.
    #[test]
    fn rewrite_matches_oracle_tight_limits((n, cs) in arb_small_system()) {
        assert_identical(
            n,
            &cs,
            FmLimits { max_constraints: 6, max_branch_depth: 1, deadline: None },
        )?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Bit-identical behaviour on extreme-magnitude systems: tier
    /// promotion in the rewrite's bounds must be invisible, and overflow
    /// `Unknown`s must trip at the identical inputs.
    #[test]
    fn rewrite_matches_oracle_wide((n, cs) in arb_wide_system()) {
        assert_identical(n, &cs, FmLimits::default())?;
    }
}

/// Fixed regressions through both implementations: the doc example, an
/// integer gap, a branch-and-bound refutation, and the extreme midpoint.
#[test]
fn rewrite_matches_oracle_fixtures() {
    let fixtures: Vec<(usize, Vec<Constraint>)> = vec![
        (
            2,
            vec![
                Constraint::new(vec![1, 1], 3),
                Constraint::new(vec![-1, 0], -1),
                Constraint::new(vec![0, -1], -1),
            ],
        ),
        (
            1,
            vec![Constraint::new(vec![2], 1), Constraint::new(vec![-2], -1)],
        ),
        (
            2,
            vec![
                Constraint::new(vec![3, 5], 7),
                Constraint::new(vec![-3, -5], -7),
                Constraint::new(vec![-1, 0], 0),
                Constraint::new(vec![0, -1], 0),
                Constraint::new(vec![1, 0], 10),
                Constraint::new(vec![0, 1], 10),
            ],
        ),
        (
            1,
            vec![
                Constraint::new(vec![-1], i64::MAX / 2),
                Constraint::new(vec![1], i64::MAX / 2 - 1),
            ],
        ),
    ];
    for (n, cs) in fixtures {
        let new = fourier_motzkin_cert(n, &cs, FmLimits::default());
        let old = oracle_solve(n, &cs, FmLimits::default(), 0);
        assert_eq!(new, old, "diverged on fixture {cs:?}");
    }
}
