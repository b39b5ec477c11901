//! Banerjee's inequalities (the trapezoidal test, algorithm 4.3.1), with
//! Wolfe's direction-vector restriction.
//!
//! For each dimension, bound the real-valued range of `f(i) − f′(i′)` over
//! the iteration space (optionally restricted by a direction at each
//! common level). If 0 falls outside the range, the dimension — and hence
//! the pair — is independent. The test is inexact in two ways the paper's
//! suite repairs: it relaxes to the reals, and it treats dimensions
//! separately (no coupled subscripts).
//!
//! Triangular (trapezoidal) bounds are handled by interval-evaluating each
//! bound expression over the outer loops' ranges before bounding the
//! terms, which is the interval form of Banerjee's trapezoidal extension.

use crate::interval::Interval;
use crate::model::PairModel;

/// A direction restriction at one common level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// `i < i′`
    Lt,
    /// `i = i′`
    Eq,
    /// `i > i′`
    Gt,
    /// Unrestricted.
    Any,
}

/// Bounds `a·x − b·y` for `x, y` in `range` subject to `x dir y`.
///
/// Returns `None` when the restricted region is empty (which proves
/// independence under that direction).
fn term_bounds(a: i64, b: i64, range: Interval, dir: Dir) -> Option<Interval> {
    match dir {
        Dir::Any => Some(range.scale(a).add(&range.scale(-b))),
        Dir::Eq => {
            if range.is_empty() {
                return None;
            }
            Some(range.scale(a - b))
        }
        Dir::Lt | Dir::Gt => {
            // Restricted triangle; exact vertex enumeration needs finite
            // bounds — otherwise stay conservative (unbounded).
            let (Some(lo), Some(hi)) = (range.lo, range.hi) else {
                return Some(Interval::UNBOUNDED);
            };
            if lo > hi {
                return None;
            }
            // Region: lo ≤ x, y ≤ hi and x ≤ y − 1 (Lt) or x ≥ y + 1 (Gt).
            // With x, y from the same loop range, the triangle is empty
            // exactly when the range has a single point.
            if lo + 1 > hi {
                return None;
            }
            // Vertices of {lo ≤ x ≤ hi, lo ≤ y ≤ hi, x ≤ y − 1}:
            // (lo, lo+1), (lo, hi), (hi−1, hi).
            let verts_lt = [(lo, lo + 1), (lo, hi), (hi - 1, hi)];
            let value = |(x, y): (i64, i64)| {
                a.checked_mul(x)?
                    .checked_add(b.checked_neg()?.checked_mul(y)?)
            };
            let mut min: Option<i64> = None;
            let mut max: Option<i64> = None;
            for v in verts_lt {
                let v = if matches!(dir, Dir::Gt) {
                    (v.1, v.0)
                } else {
                    v
                };
                let Some(t) = value(v) else {
                    return Some(Interval::UNBOUNDED);
                };
                min = Some(min.map_or(t, |m| m.min(t)));
                max = Some(max.map_or(t, |m| m.max(t)));
            }
            Some(Interval { lo: min, hi: max })
        }
    }
}

/// Runs the Banerjee inequalities with per-level direction restrictions
/// (`dirs.len()` must equal the number of common levels; use `Dir::Any`
/// everywhere for the plain test).
///
/// Returns `true` when the pair is provably independent under the given
/// directions.
#[must_use]
pub fn banerjee_independent(model: &PairModel, dirs: &[Dir]) -> bool {
    assert_eq!(dirs.len(), model.num_common, "one direction per level");
    model.dims.iter().any(|dim| {
        if dim.has_symbolic {
            return false;
        }
        let mut range = Interval::point(dim.constant);
        for (k, &(a, b)) in dim.common.iter().enumerate() {
            match term_bounds(a, b, model.common_intervals[k], dirs[k]) {
                Some(t) => range = range.add(&t),
                None => return true, // empty region: independent
            }
        }
        for &(c, iv) in &dim.extra {
            range = range.add(&iv.scale(c));
        }
        !range.contains(0)
    })
}

/// The plain (all-`*`) Banerjee test.
#[must_use]
pub fn banerjee_independent_star(model: &PairModel) -> bool {
    banerjee_independent(model, &vec![Dir::Any; model.num_common])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::build_model;
    use dda_ir::{extract_accesses, parse_program, reference_pairs};

    fn model(src: &str) -> PairModel {
        let p = parse_program(src).unwrap();
        let set = extract_accesses(&p);
        let pairs = reference_pairs(&set, false);
        build_model(pairs[0]).unwrap()
    }

    #[test]
    fn bounds_conflict_detected() {
        // a[i] vs a[i+10] over 1..10: range of i − i' − 10 is [-19, -1].
        let m = model("for i = 1 to 10 { a[i] = a[i + 10]; }");
        assert!(banerjee_independent_star(&m));
    }

    #[test]
    fn overlapping_case_unknown() {
        let m = model("for i = 1 to 10 { a[i + 1] = a[i]; }");
        assert!(!banerjee_independent_star(&m));
    }

    #[test]
    fn coupled_subscripts_missed() {
        // a[i][i] vs a[i'][i'+1]: dimension 0 forces i = i′, dimension 1
        // forces i = i′ + 1 — jointly impossible, but each dimension
        // alone can reach zero, so per-dimension Banerjee cannot see it.
        let m = model("for i = 1 to 10 { a[i][i] = a[i][i + 1]; }");
        assert!(!banerjee_independent_star(&m), "baseline is inexact here");
    }

    #[test]
    fn directions_tighten_the_range() {
        // a[i+1] = a[i]: i + 1 = i', so i < i'. Direction '>' (i > i')
        // forces i − i' + 1 ∈ [2, 10]: independent. '<' stays possible.
        let m = model("for i = 1 to 10 { a[i + 1] = a[i]; }");
        assert!(banerjee_independent(&m, &[Dir::Gt]));
        assert!(banerjee_independent(&m, &[Dir::Eq]));
        assert!(!banerjee_independent(&m, &[Dir::Lt]));
    }

    #[test]
    fn lt_region_empty_for_singleton_range() {
        let m = model("for i = 5 to 5 { a[i + 1] = a[i]; }");
        assert!(banerjee_independent(&m, &[Dir::Lt]));
        assert!(banerjee_independent(&m, &[Dir::Gt]));
    }

    #[test]
    fn symbolic_bounds_stay_unknown() {
        let m = model("for i = 1 to n { a[i] = a[i + 10]; }");
        assert!(!banerjee_independent_star(&m), "unbounded range");
    }

    #[test]
    fn real_relaxation_misses_integer_gaps() {
        // 2i = 2i' + 1 has a real solution inside the bounds but no
        // integer one; Banerjee (without GCD) cannot reject it.
        let m = model("for i = 1 to 10 { a[2 * i] = a[2 * i + 1]; }");
        assert!(!banerjee_independent_star(&m));
    }

    #[test]
    fn term_bounds_vertices() {
        // T = x − y over 1..10 with x < y: vertices (1,2),(1,10),(9,10):
        // values -1, -9, -1 → [-9, -1].
        assert_eq!(
            term_bounds(1, 1, Interval::new(1, 10), Dir::Lt),
            Some(Interval::new(-9, -1))
        );
        // x > y mirrors to [1, 9].
        assert_eq!(
            term_bounds(1, 1, Interval::new(1, 10), Dir::Gt),
            Some(Interval::new(1, 9))
        );
        // Eq collapses to (a−b)·z.
        assert_eq!(
            term_bounds(3, 1, Interval::new(0, 5), Dir::Eq),
            Some(Interval::new(0, 10))
        );
    }
}
