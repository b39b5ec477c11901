//! A per-pair model shared by the baseline tests: linear terms per array
//! dimension plus interval approximations of every loop range.

use std::collections::BTreeMap;

use dda_ir::{Access, AffineExpr, Bound, Sym};

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

/// Interval-evaluates an affine bound expression over known loop
/// intervals; symbolic variables make it unbounded.
fn eval_interval(e: &AffineExpr, env: &BTreeMap<Sym, Interval>) -> Interval {
    let mut acc = Interval::point(e.constant_part());
    for (v, c) in e.iter_terms() {
        let vi = env.get(&v).copied().unwrap_or(Interval::UNBOUNDED);
        acc = acc.add(&vi.scale(c));
    }
    acc
}

/// Computes the value interval of every loop in `acc`'s stack,
/// outermost-in.
fn loop_intervals(acc: &Access) -> Vec<Interval> {
    let mut env: BTreeMap<Sym, Interval> = BTreeMap::new();
    let mut out = Vec::with_capacity(acc.loops.len());
    for l in acc.loops.iter() {
        let lo = match &l.lower {
            Bound::Affine(e) => eval_interval(e, &env).lo,
            Bound::NonAffine => None,
        };
        let hi = match &l.upper {
            Bound::Affine(e) => eval_interval(e, &env).hi,
            Bound::NonAffine => None,
        };
        let iv = Interval { lo, hi };
        env.insert(l.var, iv);
        out.push(iv);
    }
    out
}

/// Builds the baseline model for a pair. Returns `None` when a subscript
/// is non-affine (the baselines then assume dependence, like everyone
/// else) or the references disagree on rank.
#[must_use]
pub fn build_model(a: &Access, b: &Access, common: usize) -> Option<PairModel> {
    if a.subscripts.len() != b.subscripts.len() {
        return None;
    }
    let ivs_a = loop_intervals(a);
    let ivs_b = loop_intervals(b);

    let pos_a: BTreeMap<Sym, usize> = a
        .loops
        .iter()
        .enumerate()
        .map(|(k, l)| (l.var, k))
        .collect();
    let pos_b: BTreeMap<Sym, usize> = b
        .loops
        .iter()
        .enumerate()
        .map(|(k, l)| (l.var, k))
        .collect();

    let mut dims = Vec::with_capacity(a.subscripts.len());
    for (sa, sb) in a.subscripts.iter().zip(&b.subscripts) {
        let ea = sa.as_affine()?;
        let eb = sb.as_affine()?;
        let mut common_terms = vec![(0i64, 0i64); common];
        let mut extra: Vec<(i64, Interval)> = Vec::new();
        let mut symbolic: BTreeMap<Sym, i64> = BTreeMap::new();

        for (v, c) in ea.iter_terms() {
            match pos_a.get(&v) {
                Some(&k) if k < common => common_terms[k].0 += c,
                Some(&k) => extra.push((c, ivs_a[k])),
                None => *symbolic.entry(v).or_insert(0) += c,
            }
        }
        for (v, c) in eb.iter_terms() {
            match pos_b.get(&v) {
                Some(&k) if k < common => common_terms[k].1 += c,
                Some(&k) => extra.push((-c, ivs_b[k])),
                None => *symbolic.entry(v).or_insert(0) -= c,
            }
        }
        dims.push(DimTerms {
            common: common_terms,
            extra,
            has_symbolic: symbolic.values().any(|&c| c != 0),
            constant: ea.constant_part() - eb.constant_part(),
        });
    }

    let common_intervals = ivs_a.iter().take(common).copied().collect();
    let _ = ivs_b;

    let mut level_coupled = vec![false; common];
    for acc in [a, b] {
        for (k, l) in acc.loops.iter().enumerate() {
            let mut mentioned: Vec<Sym> = Vec::new();
            for bnd in [&l.lower, &l.upper] {
                match bnd {
                    Bound::Affine(e) => mentioned.extend(e.vars()),
                    Bound::NonAffine => {
                        if k < common {
                            level_coupled[k] = true;
                        }
                    }
                }
            }
            if k < common && !mentioned.is_empty() {
                level_coupled[k] = true;
            }
            // Any common loop referenced by this loop's bounds is coupled.
            for v in mentioned {
                if let Some(&kk) = (if std::ptr::eq(acc, a) { &pos_a } else { &pos_b }).get(&v) {
                    if kk < common {
                        level_coupled[kk] = true;
                    }
                }
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
        build_model(pairs[0].a, pairs[0].b, pairs[0].common).unwrap()
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
    fn extra_loops_become_interval_terms() {
        let m = model("for i = 1 to 10 { a[i] = 1; } for j = 1 to 5 { a[j + 7] = 2; }");
        assert_eq!(m.num_common, 0);
        assert_eq!(m.dims[0].common.len(), 0);
        assert_eq!(m.dims[0].extra.len(), 2);
    }
}
