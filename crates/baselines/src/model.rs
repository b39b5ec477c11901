//! A per-pair model shared by the baseline tests: linear terms per array
//! dimension plus interval approximations of every loop range.

use std::collections::BTreeMap;

use dda_ir::{Access, AccessSet, RefPair, Row};

use crate::interval::Interval;

/// The linear form `f(i) − f′(i′)` of one array dimension, decomposed the
/// way the classic tests consume it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimTerms {
    /// Per common level `k`: `(a_k, b_k)` — the coefficient of `i_k` in
    /// the first subscript and of `i′_k` in the second. The level's term
    /// is `a_k·i_k − b_k·i′_k`.
    pub common: Vec<(i64, i64)>,
    /// Terms over loops enclosing only one reference: `(coefficient,
    /// value interval)`.
    pub extra: Vec<(i64, Interval)>,
    /// Whether a symbolic constant survives with a non-zero net
    /// coefficient (making the dimension's range unbounded).
    pub has_symbolic: bool,
    /// Constant difference `const(f) − const(f′)`; the dimension's form
    /// must be able to reach 0 overall.
    pub constant: i64,
}

/// Everything the baseline tests need about one reference pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairModel {
    /// One decomposition per array dimension.
    pub dims: Vec<DimTerms>,
    /// Value interval of each common loop index.
    pub common_intervals: Vec<Interval>,
    /// Number of common loops.
    pub num_common: usize,
    /// Per common level: whether its bounds couple it to other loops (its
    /// bound expressions mention variables, or another loop's bounds
    /// mention it). Coupled levels must be refined even when they appear
    /// in no subscript — the same rule the exact analyzer uses, keeping
    /// the Section 7 vector counts comparable.
    pub level_coupled: Vec<bool>,
}

/// Interval-evaluates a bound row over the intervals of the loop levels
/// outside it; symbolic terms make it unbounded.
fn eval_interval(row: Row<'_>, env: &[Interval]) -> Interval {
    let mut acc = Interval::point(row.constant());
    for (k, &c) in row.levels().iter().enumerate() {
        if c != 0 {
            acc = acc.add(&env[k].scale(c));
        }
    }
    for (_, c) in row.symbolic_terms() {
        acc = acc.add(&Interval::UNBOUNDED.scale(c));
    }
    acc
}

/// Computes the value interval of every loop in `acc`'s stack,
/// outermost-in.
fn loop_intervals(set: &AccessSet, acc: &Access) -> Vec<Interval> {
    let (rows, path) = (&set.rows, set.loops_of(acc));
    let mut out: Vec<Interval> = Vec::with_capacity(path.len());
    for &l in path {
        let l = &set.loops[l];
        let lo = rows.get(l.lower).and_then(|r| eval_interval(r, &out).lo);
        let hi = rows.get(l.upper).and_then(|r| eval_interval(r, &out).hi);
        out.push(Interval { lo, hi });
    }
    out
}

/// Builds the baseline model for a pair. Returns `None` when a subscript
/// is non-affine (the baselines then assume dependence, like everyone
/// else), the references disagree on rank, or a dimension's constant
/// difference overflows `i64`.
#[must_use]
pub fn build_model(pair: RefPair<'_>) -> Option<PairModel> {
    let RefPair { a, b, common, set } = pair;
    let rows = &set.rows;
    if a.rank() != b.rank() {
        return None;
    }
    let ivs_a = loop_intervals(set, a);
    let ivs_b = loop_intervals(set, b);

    let mut dims = Vec::with_capacity(a.rank());
    for (ra, rb) in rows.subscripts(a).zip(rows.subscripts(b)) {
        let (ra, rb) = (ra?, rb?);
        let mut common_terms = vec![(0i64, 0i64); common];
        let mut extra: Vec<(i64, Interval)> = Vec::new();
        let mut symbolic: BTreeMap<usize, i128> = BTreeMap::new();

        for (k, &c) in ra.levels().iter().enumerate() {
            match k {
                _ if c == 0 => {}
                k if k < common => common_terms[k].0 = c,
                k => extra.push((c, ivs_a[k])),
            }
        }
        for (k, &c) in rb.levels().iter().enumerate() {
            match k {
                _ if c == 0 => {}
                k if k < common => common_terms[k].1 = c,
                k => extra.push((c.checked_neg()?, ivs_b[k])),
            }
        }
        for (s, c) in ra.symbolic_terms() {
            *symbolic.entry(s).or_insert(0) += i128::from(c);
        }
        for (s, c) in rb.symbolic_terms() {
            *symbolic.entry(s).or_insert(0) -= i128::from(c);
        }
        dims.push(DimTerms {
            common: common_terms,
            extra,
            has_symbolic: symbolic.values().any(|&c| c != 0),
            constant: ra.constant().checked_sub(rb.constant())?,
        });
    }

    let common_intervals = ivs_a.iter().take(common).copied().collect();

    let mut level_coupled = vec![false; common];
    for acc in [a, b] {
        for (k, &l) in set.loops_of(acc).iter().enumerate() {
            let l = &set.loops[l];
            let mut mentions_any = false;
            for id in [l.lower, l.upper] {
                let Some(row) = rows.get(id) else {
                    if k < common {
                        level_coupled[k] = true;
                    }
                    continue;
                };
                mentions_any |= row.has_symbolics();
                for (kk, &c) in row.levels().iter().enumerate() {
                    if c != 0 {
                        mentions_any = true;
                        // Any common loop referenced by this loop's
                        // bounds is coupled.
                        if kk < common {
                            level_coupled[kk] = true;
                        }
                    }
                }
            }
            if k < common && mentions_any {
                level_coupled[k] = true;
            }
        }
    }

    Some(PairModel {
        dims,
        common_intervals,
        num_common: common,
        level_coupled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dda_ir::{extract_accesses, parse_program, reference_pairs};

    fn model(src: &str) -> PairModel {
        let p = parse_program(src).unwrap();
        let set = extract_accesses(&p);
        let pairs = reference_pairs(&set, false);
        assert_eq!(pairs.len(), 1);
        build_model(pairs[0]).unwrap()
    }

    #[test]
    fn simple_model() {
        let m = model("for i = 1 to 10 { a[2 * i + 3] = a[i]; }");
        assert_eq!(m.num_common, 1);
        assert_eq!(m.dims[0].common, vec![(2, 1)]);
        assert_eq!(m.dims[0].constant, 3);
        assert_eq!(m.common_intervals[0], Interval::new(1, 10));
    }

    #[test]
    fn triangular_interval_widens() {
        let m = model("for i = 1 to 10 { for j = i to 10 { a[j] = a[j - 1]; } }");
        // j's lower bound is i ∈ [1,10], so j ∈ [1, 10] conservatively.
        assert_eq!(m.common_intervals[1], Interval::new(1, 10));
    }

    #[test]
    fn symbolic_net_coefficient() {
        let m = model("read(n); for i = 1 to 10 { a[i + n] = a[i + n]; }");
        assert!(!m.dims[0].has_symbolic, "n cancels");
        let m2 = model("read(n); for i = 1 to 10 { a[i + 2 * n] = a[i + n]; }");
        assert!(m2.dims[0].has_symbolic);
    }

    #[test]
    fn symbolic_bounds_unbounded() {
        let m = model("for i = 1 to n { a[i] = a[i + 1]; }");
        assert_eq!(m.common_intervals[0].lo, Some(1));
        assert_eq!(m.common_intervals[0].hi, None);
    }

    #[test]
    fn a_shadowing_loop_bound_reads_the_outer_variable() {
        // The inner `i` starts at the outer `i` + 5, so it spans 6..=20.
        let m = model("for i = 1 to 10 { for i = i + 5 to 20 { a[i] = a[i + 3] + 1; } }");
        assert_eq!(m.common_intervals[1], Interval::new(6, 20));
        assert_eq!(m.dims[0].common, vec![(0, 0), (1, 1)]);
        assert_eq!(m.level_coupled, vec![true, true]);
    }

    #[test]
    fn extra_loops_become_interval_terms() {
        let m = model("for i = 1 to 10 { a[i] = 1; } for j = 1 to 5 { a[j + 7] = 2; }");
        assert_eq!(m.num_common, 0);
        assert_eq!(m.dims[0].common.len(), 0);
        assert_eq!(m.dims[0].extra.len(), 2);
    }
}
