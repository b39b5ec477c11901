//! Differential oracles for the memo key encoders.
//!
//! The keys are written into one flat vector whose constraint sections
//! are sorted in place, and a pair's mirror key (its references swapped)
//! is written straight from the column permutation. Both must produce
//! the bytes of the straightforward construction kept here as the
//! oracle: one vector per constraint row, sorted as a `Vec<Vec<i64>>`,
//! and the mirror key read off a mirror problem that is actually built
//! ([`swap_problem`]).

use std::sync::Arc;

use dda_core::memo::{bounds_key, nobounds_key, MemoKey};
use dda_core::problem::{build_problem, DependenceProblem, XVar};
use dda_core::steps::full_key;
use dda_core::symmetry::swappable;
use dda_core::system::Constraint;
use dda_core::{AnalyzerConfig, MemoMode};
use dda_ir::{extract_accesses, parse_program, reference_pairs};
use proptest::prelude::*;

/// The mirror problem: reference roles swapped. Variables keep the
/// structural order, so the mirror maps `CommonA(k)` ↔ `CommonB(k)` and
/// `ExtraA` ↔ `ExtraB` — a permutation of columns — and negates the
/// equality rows (`f_b − f_a = −(f_a − f_b)`). `None` when negating a
/// row overflows.
fn swap_problem(p: &DependenceProblem) -> Option<DependenceProblem> {
    let mut permutation = Vec::with_capacity(p.num_vars());
    let mut vars = Vec::with_capacity(p.num_vars());
    for v in &p.vars {
        let (mirror, source) = match v {
            XVar::CommonA(k) => (XVar::CommonA(*k), XVar::CommonB(*k)),
            XVar::CommonB(k) => (XVar::CommonB(*k), XVar::CommonA(*k)),
            XVar::ExtraA(k) => (XVar::ExtraA(*k), XVar::ExtraB(*k)),
            XVar::ExtraB(k) => (XVar::ExtraB(*k), XVar::ExtraA(*k)),
            XVar::Symbolic(s) => (XVar::Symbolic(s.clone()), XVar::Symbolic(s.clone())),
        };
        vars.push(mirror);
        permutation.push(
            p.var_index(&source)
                .expect("mirror variable exists in a well-formed problem"),
        );
    }
    let permute = |row: &[i64]| -> Vec<i64> { permutation.iter().map(|&src| row[src]).collect() };
    let eq_coeffs: Vec<Vec<i64>> = p
        .eq_coeffs
        .iter()
        .map(|row| permute(row).iter().map(|c| c.checked_neg()).collect())
        .collect::<Option<_>>()?;
    let eq_rhs: Vec<i64> = p
        .eq_rhs
        .iter()
        .map(|c| c.checked_neg())
        .collect::<Option<_>>()?;
    let bounds = p
        .bounds
        .iter()
        .map(|c| Constraint::new(permute(&c.coeffs), c.rhs))
        .collect();
    Some(DependenceProblem {
        vars,
        eq_coeffs,
        eq_rhs,
        bounds,
        num_common: p.num_common,
    })
}

const SECTION_MARKER: i64 = i64::MIN + 7;

/// The used-variable closure: equation variables, closed under
/// co-occurrence in bounds.
fn used_mask(p: &DependenceProblem) -> Vec<bool> {
    let mut used = vec![false; p.num_vars()];
    for row in &p.eq_coeffs {
        for (v, &c) in row.iter().enumerate() {
            used[v] |= c != 0;
        }
    }
    loop {
        let mut changed = false;
        for c in &p.bounds {
            if c.coeffs.iter().enumerate().any(|(v, &a)| a != 0 && used[v]) {
                for (v, &a) in c.coeffs.iter().enumerate() {
                    if a != 0 && !used[v] {
                        used[v] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return used;
        }
    }
}

/// The no-bounds key, one vector per row.
fn nobounds_oracle(p: &DependenceProblem, improved: bool) -> (Vec<i64>, Vec<usize>) {
    let kept: Vec<usize> = (0..p.num_vars())
        .filter(|&v| !improved || p.eq_coeffs.iter().any(|row| row[v] != 0))
        .collect();
    let mut segments: Vec<Vec<i64>> = p
        .eq_coeffs
        .iter()
        .zip(&p.eq_rhs)
        .map(|(row, &rhs)| kept.iter().map(|&k| row[k]).chain([rhs]).collect())
        .collect();
    segments.sort();
    let mut v = vec![kept.len() as i64, p.eq_coeffs.len() as i64];
    v.extend(segments.into_iter().flatten());
    (v, kept)
}

/// The with-bounds key, one vector per row.
fn bounds_oracle(p: &DependenceProblem, improved: bool) -> (Vec<i64>, Vec<usize>) {
    let used = used_mask(p);
    let keep: Vec<usize> = (0..p.num_vars())
        .filter(|&v| !improved || used[v])
        .collect();
    let kept_levels: Vec<usize> = (0..p.num_common)
        .filter(|&k| {
            let ia = p.var_index(&XVar::CommonA(k)).unwrap();
            let ib = p.var_index(&XVar::CommonB(k)).unwrap();
            !improved || used[ia] || used[ib]
        })
        .collect();
    let mut eqs: Vec<Vec<i64>> = p
        .eq_coeffs
        .iter()
        .zip(&p.eq_rhs)
        .map(|(row, &rhs)| keep.iter().map(|&k| row[k]).chain([rhs]).collect())
        .collect();
    eqs.sort();
    let mut bounds: Vec<Vec<i64>> = p
        .bounds
        .iter()
        .filter(|c| keep.iter().any(|&k| c.coeffs[k] != 0))
        .map(|c| keep.iter().map(|&k| c.coeffs[k]).chain([c.rhs]).collect())
        .collect();
    bounds.sort();
    let mut v = vec![
        keep.len() as i64,
        kept_levels.len() as i64,
        p.eq_coeffs.len() as i64,
    ];
    v.extend(eqs.into_iter().flatten());
    v.push(SECTION_MARKER);
    v.extend(bounds.into_iter().flatten());
    (v, kept_levels)
}

/// Coefficients biased to zero, with both extremes of `i64`.
fn coeff() -> impl Strategy<Value = i64> {
    proptest::sample::select(vec![0, 0, 0, 0, 1, -1, 2, -2, 3, i64::MIN, i64::MAX])
}

/// A structurally ordered problem: up to two common levels, up to two
/// extra levels per side (equal about half the time, so most problems
/// are swappable), up to two symbolics, one or two equalities and up to
/// six bounds.
fn arb_problem() -> impl Strategy<Value = DependenceProblem> {
    (
        0usize..=2,
        0usize..=2,
        0usize..=3,
        0usize..=2,
        1usize..=2,
        0usize..=6,
    )
        .prop_flat_map(|(common, extra_a, b_choice, syms, dims, nbounds)| {
            let extra_b = if b_choice == 3 { extra_a } else { b_choice };
            let n = 2 * common + extra_a + extra_b + syms;
            (
                Just((common, extra_a, extra_b, syms)),
                proptest::collection::vec(proptest::collection::vec(coeff(), n), dims),
                proptest::collection::vec(coeff(), dims),
                proptest::collection::vec(
                    (proptest::collection::vec(coeff(), n), coeff()),
                    nbounds,
                ),
            )
        })
        .prop_map(
            |((common, extra_a, extra_b, syms), eq_coeffs, eq_rhs, bounds)| {
                let mut vars = Vec::new();
                vars.extend((0..common).map(XVar::CommonA));
                vars.extend((0..common).map(XVar::CommonB));
                vars.extend((0..extra_a).map(XVar::ExtraA));
                vars.extend((0..extra_b).map(XVar::ExtraB));
                vars.extend((0..syms).map(|s| XVar::Symbolic(Arc::from(format!("n{s}")))));
                DependenceProblem {
                    vars,
                    eq_coeffs,
                    eq_rhs,
                    bounds: bounds
                        .into_iter()
                        .map(|(c, rhs)| Constraint::new(c, rhs))
                        .collect(),
                    num_common: common,
                }
            },
        )
}

fn symmetric(memo: MemoMode) -> AnalyzerConfig {
    AnalyzerConfig {
        memo,
        memo_symmetry: true,
        ..AnalyzerConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn flat_keys_match_row_by_row_encoding(p in arb_problem(), improved in proptest::bool::ANY) {
        let nk = nobounds_key(&p, improved);
        let (raw, kept) = nobounds_oracle(&p, improved);
        prop_assert_eq!(nk.key, MemoKey::from_vec(raw));
        prop_assert_eq!(nk.kept_vars.to_vec(), kept);
        let ck = bounds_key(&p, improved);
        let (raw, kept_levels) = bounds_oracle(&p, improved);
        prop_assert_eq!(ck.key, MemoKey::from_vec(raw));
        prop_assert_eq!(ck.kept_levels.to_vec(), kept_levels);
    }

    #[test]
    fn full_key_is_the_smaller_of_a_pair_and_its_built_mirror(
        p in arb_problem(),
        improved in proptest::bool::ANY,
    ) {
        let memo = if improved { MemoMode::Improved } else { MemoMode::Simple };
        let own = bounds_key(&p, improved);
        let mirror = if swappable(&p) {
            swap_problem(&p).map(|m| bounds_key(&m, improved))
        } else {
            None
        };
        let expected = match mirror {
            Some(m) if m.key < own.key => (m, true),
            _ => (own.clone(), false),
        };
        prop_assert_eq!(full_key(&symmetric(memo), &p), Some(expected));
        // Without symmetry the pair keeps its own key.
        let plain = AnalyzerConfig { memo, ..AnalyzerConfig::default() };
        prop_assert_eq!(full_key(&plain, &p), Some((own, false)));
    }
}

fn problem(src: &str) -> DependenceProblem {
    let p = parse_program(src).unwrap();
    let set = extract_accesses(&p);
    let pairs = reference_pairs(&set, false);
    build_problem(&set.symbols, pairs[0].a, pairs[0].b, pairs[0].common, true).unwrap()
}

#[test]
fn mirror_of_mirror_is_identity() {
    for src in [
        "for i = 1 to 10 { a[i + 1] = a[i]; }",
        "for i = 1 to 10 { for j = i to 10 { a[i][j] = a[j][i + 2]; } }",
        "read(n); for i = 1 to 10 { a[i + n] = a[i]; }",
    ] {
        let p = problem(src);
        assert!(swappable(&p));
        let back = swap_problem(&swap_problem(&p).unwrap()).unwrap();
        assert_eq!(p, back, "{src}");
    }
}

#[test]
fn mirror_preserves_witnesses_up_to_permutation() {
    let p = problem("for i = 1 to 10 { a[i + 1] = a[i]; }");
    let m = swap_problem(&p).unwrap();
    // (i, i') = (1, 2) satisfies p; the mirror swaps roles: (2, 1).
    assert!(p.is_witness(&[1, 2]));
    assert!(m.is_witness(&[2, 1]));
    assert!(!m.is_witness(&[1, 2]));
}

#[test]
fn an_overflowing_mirror_keeps_the_pairs_own_key() {
    // Negating the `i64::MIN` right-hand side overflows: no mirror.
    let mut p = problem("for i = 1 to 10 { a[i + 1] = a[i]; }");
    p.eq_rhs[0] = i64::MIN;
    assert!(swap_problem(&p).is_none());
    let own = bounds_key(&p, true);
    assert_eq!(
        full_key(&symmetric(MemoMode::Improved), &p),
        Some((own, false))
    );
}

#[test]
fn a_mirror_pair_is_served_flipped() {
    // a[i] = a[i+1] is the mirror of a[i+1] = a[i], whose key is the
    // smaller one.
    let p = problem("for i = 1 to 10 { a[i] = a[i + 1]; }");
    let mirror = problem("for i = 1 to 10 { a[i + 1] = a[i]; }");
    let (ck, flipped) = full_key(&symmetric(MemoMode::Improved), &p).unwrap();
    assert!(flipped);
    assert_eq!(ck, bounds_key(&mirror, true));
}
