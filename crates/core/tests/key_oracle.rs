//! Differential oracles for the memo key encoders and the problem
//! builder.
//!
//! The keys are written into one flat vector whose constraint sections
//! are sorted in place, and a pair's mirror key (its references swapped)
//! is written straight from the column permutation. Both must produce
//! the bytes of the straightforward construction kept here as the
//! oracle: one vector per constraint row, sorted as a `Vec<Vec<i64>>`,
//! and the mirror key read off a mirror problem that is actually built
//! ([`swap_problem`]).
//!
//! The analysis driver lowers pair after pair into one reused
//! [`DependenceProblem`] per thread and appends their keys to shared
//! buffers. Over generated programs, a problem lowered that way must
//! equal a freshly built one and [`naive_problem`], a straightforward
//! builder over the rows in `i128` (so an equality or bound row that
//! overflows `i64` is caught independently of the checked arithmetic);
//! lowering must fail exactly when the naive builder does; and the keys
//! appended to a shared buffer must equal the row-by-row oracle's.

use std::sync::Arc;

use std::collections::BTreeSet;

use dda_core::memo::{nobounds_columns, write_full_key, write_nobounds_key};
use dda_core::problem::{build_problem, BuildError, DependenceProblem, Layout, XVar};
use dda_core::symmetry::swappable;
use dda_ir::{extract_accesses, parse_program, reference_pairs, RefPair, Row};
use proptest::prelude::*;

/// The variables of `layout`, in structural order, with symbolics named
/// by position.
fn structural_vars(layout: Layout) -> Vec<XVar> {
    let mut vars = Vec::with_capacity(layout.num_vars());
    vars.extend((0..layout.common).map(XVar::CommonA));
    vars.extend((0..layout.common).map(XVar::CommonB));
    vars.extend((0..layout.extra_a).map(XVar::ExtraA));
    vars.extend((0..layout.extra_b).map(XVar::ExtraB));
    vars.extend((0..layout.symbolics).map(|s| XVar::Symbolic(Arc::from(format!("n{s}")))));
    vars
}

/// Rows, flattened: each row's coefficients, then its right-hand side.
fn flat<'a>(rows: impl Iterator<Item = (&'a [i64], i64)>) -> Vec<i64> {
    rows.flat_map(|(row, rhs)| row.iter().copied().chain([rhs]))
        .collect()
}

/// The mirror problem: reference roles swapped. Variables keep the
/// structural order, so the mirror maps `CommonA(k)` ↔ `CommonB(k)` and
/// `ExtraA` ↔ `ExtraB` — a permutation of columns — and negates the
/// equality rows (`f_b − f_a = −(f_a − f_b)`). `None` when negating a
/// row overflows.
fn swap_problem(p: &DependenceProblem) -> Option<DependenceProblem> {
    let vars = structural_vars(p.layout());
    let mut permutation = Vec::with_capacity(p.num_vars());
    for v in &vars {
        let source = match v {
            XVar::CommonA(k) => XVar::CommonB(*k),
            XVar::CommonB(k) => XVar::CommonA(*k),
            XVar::ExtraA(k) => XVar::ExtraB(*k),
            XVar::ExtraB(k) => XVar::ExtraA(*k),
            XVar::Symbolic(s) => XVar::Symbolic(s.clone()),
        };
        permutation.push(
            vars.iter()
                .position(|x| *x == source)
                .expect("mirror variable exists in a well-formed problem"),
        );
    }
    let permute = |row: &[i64]| -> Vec<i64> { permutation.iter().map(|&src| row[src]).collect() };
    let mut equations = Vec::new();
    for (row, rhs) in p.equations() {
        for c in permute(row) {
            equations.push(c.checked_neg()?);
        }
        equations.push(rhs.checked_neg()?);
    }
    let mut bounds = Vec::new();
    for (row, rhs) in p.bounds() {
        bounds.extend(permute(row));
        bounds.push(rhs);
    }
    Some(DependenceProblem::from_rows(
        p.layout(),
        p.symbolics().to_vec(),
        equations,
        bounds,
    ))
}

const SECTION_MARKER: i64 = i64::MIN + 7;

/// The used-variable closure: equation variables, closed under
/// co-occurrence in bounds.
fn used_mask(p: &DependenceProblem) -> Vec<bool> {
    let mut used = vec![false; p.num_vars()];
    for (row, _) in p.equations() {
        for (v, &c) in row.iter().enumerate() {
            used[v] |= c != 0;
        }
    }
    loop {
        let mut changed = false;
        for (coeffs, _) in p.bounds() {
            if coeffs.iter().enumerate().any(|(v, &a)| a != 0 && used[v]) {
                for (v, &a) in coeffs.iter().enumerate() {
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
        .filter(|&v| !improved || p.equations().any(|(row, _)| row[v] != 0))
        .collect();
    let mut segments: Vec<Vec<i64>> = p
        .equations()
        .map(|(row, rhs)| kept.iter().map(|&k| row[k]).chain([rhs]).collect())
        .collect();
    segments.sort();
    let mut v = vec![kept.len() as i64, p.num_equations() as i64];
    v.extend(segments.into_iter().flatten());
    (v, kept)
}

/// The with-bounds key, one vector per row.
fn bounds_oracle(p: &DependenceProblem, improved: bool) -> (Vec<i64>, Vec<usize>) {
    let used = used_mask(p);
    let keep: Vec<usize> = (0..p.num_vars())
        .filter(|&v| !improved || used[v])
        .collect();
    let vars = structural_vars(p.layout());
    let at = |v: XVar| vars.iter().position(|x| *x == v).unwrap();
    let kept_levels: Vec<usize> = (0..p.layout().common)
        .filter(|&k| {
            let ia = at(XVar::CommonA(k));
            let ib = at(XVar::CommonB(k));
            !improved || used[ia] || used[ib]
        })
        .collect();
    let mut eqs: Vec<Vec<i64>> = p
        .equations()
        .map(|(row, rhs)| keep.iter().map(|&k| row[k]).chain([rhs]).collect())
        .collect();
    eqs.sort();
    let mut bounds: Vec<Vec<i64>> = p
        .bounds()
        .filter(|(row, _)| keep.iter().any(|&k| row[k] != 0))
        .map(|(row, rhs)| keep.iter().map(|&k| row[k]).chain([rhs]).collect())
        .collect();
    bounds.sort();
    let mut v = vec![
        keep.len() as i64,
        kept_levels.len() as i64,
        p.num_equations() as i64,
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
            |((common, extra_a, extra_b, symbolics), eq_rows, eq_rhs, bounds)| {
                let layout = Layout {
                    common,
                    extra_a,
                    extra_b,
                    symbolics,
                };
                let equations = eq_rows.iter().map(|row| &row[..]).zip(eq_rhs);
                let equations = flat(equations);
                let bounds = flat(bounds.iter().map(|(row, rhs)| (&row[..], *rhs)));
                DependenceProblem::from_rows(layout, (0..symbolics).collect(), equations, bounds)
            },
        )
}

/// [`write_full_key`] into fresh buffers: the key, the common levels it
/// keeps and whether it is the mirror's.
fn full_key(
    p: &DependenceProblem,
    improved: bool,
    symmetric: bool,
) -> (Vec<i64>, Vec<usize>, bool) {
    let mut key = Vec::new();
    let (levels, flipped) = write_full_key(p, improved, symmetric, &mut key, &mut Vec::new());
    (key, levels.to_vec(), flipped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn flat_keys_match_row_by_row_encoding(p in arb_problem(), improved in proptest::bool::ANY) {
        let kept = nobounds_columns(&p, improved);
        let mut key = Vec::new();
        write_nobounds_key(&p, &kept, &mut key);
        let (raw, oracle_kept) = nobounds_oracle(&p, improved);
        prop_assert_eq!(key, raw);
        prop_assert_eq!(kept.to_vec(), oracle_kept);
        let (key, kept_levels, flipped) = full_key(&p, improved, false);
        let (raw, oracle_levels) = bounds_oracle(&p, improved);
        prop_assert_eq!(key, raw);
        prop_assert_eq!(kept_levels, oracle_levels);
        prop_assert!(!flipped);
    }

    #[test]
    fn full_key_is_the_smaller_of_a_pair_and_its_built_mirror(
        p in arb_problem(),
        improved in proptest::bool::ANY,
    ) {
        let (own, own_levels) = bounds_oracle(&p, improved);
        let mirror = if swappable(&p) {
            swap_problem(&p).map(|m| bounds_oracle(&m, improved))
        } else {
            None
        };
        let expected = match mirror {
            Some((m, levels)) if m < own => (m, levels, true),
            _ => (own, own_levels, false),
        };
        prop_assert_eq!(full_key(&p, improved, true), expected);
    }
}

fn problem(src: &str) -> DependenceProblem {
    let p = parse_program(src).unwrap();
    let set = extract_accesses(&p);
    let pairs = reference_pairs(&set, false);
    build_problem(pairs[0], true).unwrap()
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
    let p = problem("for i = 1 to 10 { a[i + 1] = a[i]; }");
    let equations = flat(p.equations().map(|(row, _)| (row, i64::MIN)));
    let p = DependenceProblem::from_rows(p.layout(), vec![], equations, flat(p.bounds()));
    assert!(swap_problem(&p).is_none());
    let (own, levels) = bounds_oracle(&p, true);
    assert_eq!(full_key(&p, true, true), (own, levels, false));
}

#[test]
fn a_mirror_pair_is_served_flipped() {
    // a[i] = a[i+1] is the mirror of a[i+1] = a[i], whose key is the
    // smaller one.
    let p = problem("for i = 1 to 10 { a[i] = a[i + 1]; }");
    let mirror = problem("for i = 1 to 10 { a[i + 1] = a[i]; }");
    let (key, levels, flipped) = full_key(&p, true, true);
    assert!(flipped);
    assert_eq!((key, levels), bounds_oracle(&mirror, true));
}

// ---------------------------------------------------------------------
// Keys written from rows, over generated programs.
// ---------------------------------------------------------------------

/// The problem of `pair` built the plain way over its rows: every sum in
/// `i128`, and `None` when a value does not fit in `i64` or the pair has
/// no system (non-affine, ranks differ, symbolics while they are off).
fn naive_problem(pair: RefPair<'_>, symbolic: bool) -> Option<DependenceProblem> {
    let RefPair { a, b, common, set } = pair;
    let rows = &set.rows;
    if a.rank() != b.rank() {
        return None;
    }
    let mut syms = BTreeSet::new();
    for acc in [a, b] {
        let bounds = set
            .loops_of(acc)
            .iter()
            .flat_map(|&l| [set.loops[l].lower, set.loops[l].upper]);
        for row in rows
            .subscripts(acc)
            .collect::<Option<Vec<Row<'_>>>>()?
            .into_iter()
            .chain(bounds.filter_map(|id| rows.get(id)))
        {
            syms.extend(row.symbolic_terms().map(|(s, _)| s));
        }
    }
    if !symbolic && !syms.is_empty() {
        return None;
    }
    let syms: Vec<usize> = syms.into_iter().collect();
    let (extra_a, extra_b) = (a.depth() - common, b.depth() - common);
    let n = 2 * common + extra_a + extra_b + syms.len();
    let column = |second: bool, k: usize| match (second, k < common) {
        (false, true) => k,
        (true, true) => common + k,
        (false, false) => 2 * common + k - common,
        (true, false) => 2 * common + extra_a + k - common,
    };
    // `sign · row`, as the side (`second`) sees it, over all columns.
    let terms = |row: Row<'_>, second: bool, sign: i128| -> Vec<i128> {
        let mut out = vec![0i128; n];
        for (k, &c) in row.levels().iter().enumerate() {
            out[column(second, k)] += sign * i128::from(c);
        }
        for (s, c) in row.symbolic_terms() {
            let j = syms.iter().position(|&x| x == s).expect("noted");
            out[2 * common + extra_a + extra_b + j] += sign * i128::from(c);
        }
        out
    };
    let fit =
        |v: &[i128]| -> Option<Vec<i64>> { v.iter().map(|&x| i64::try_from(x).ok()).collect() };
    let mut equations = Vec::new();
    for (ra, rb) in rows.subscripts(a).zip(rows.subscripts(b)) {
        let (ra, rb) = (ra?, rb?);
        let mut row = terms(ra, false, 1);
        for (x, y) in row.iter_mut().zip(terms(rb, true, -1)) {
            *x += y;
        }
        equations.extend(fit(&row)?);
        equations.push(i64::try_from(i128::from(rb.constant()) - i128::from(ra.constant())).ok()?);
    }
    let mut bounds = Vec::new();
    for (second, acc) in [(false, a), (true, b)] {
        for (k, &l) in set.loops_of(acc).iter().enumerate() {
            let l = &set.loops[l];
            if let Some(lo) = rows.get(l.lower) {
                let mut row = terms(lo, second, 1);
                row[column(second, k)] -= 1;
                bounds.extend(fit(&row)?);
                bounds.push(i64::try_from(-i128::from(lo.constant())).ok()?);
            }
            if let Some(up) = rows.get(l.upper) {
                let mut row = terms(up, second, -1);
                row[column(second, k)] += 1;
                bounds.extend(fit(&row)?);
                bounds.push(up.constant());
            }
        }
    }
    let layout = Layout {
        common,
        extra_a,
        extra_b,
        symbolics: syms.len(),
    };
    Some(DependenceProblem::from_rows(
        layout, syms, equations, bounds,
    ))
}

/// A subscript coefficient: small, or one that overflows a row once
/// two of them are subtracted.
fn row_coeff() -> impl Strategy<Value = i64> {
    proptest::sample::select(vec![
        0,
        0,
        1,
        1,
        -1,
        2,
        3,
        9_223_372_036_854_775_807,
        -9_223_372_036_854_775_807,
    ])
}

/// The names a generated expression may use: the symbolics `n` and `m`
/// and the loop variables.
const NAMES: [&str; 5] = ["n", "m", "i", "j", "k"];

/// An affine expression: a coefficient per name of [`NAMES`] and a
/// constant.
type Terms = (Vec<i64>, i64);

fn arb_terms() -> impl Strategy<Value = Terms> {
    (
        proptest::collection::vec(row_coeff(), NAMES.len()),
        -4i64..=4,
    )
}

/// `terms` over the names in `scope` (the others are dropped).
fn render((coeffs, c): &Terms, scope: &[&str]) -> String {
    let mut s = c.to_string();
    for (name, &k) in NAMES.iter().zip(coeffs) {
        if k != 0 && scope.contains(name) {
            s.push_str(&format!(" + {k} * {name}"));
        }
    }
    s
}

/// A statement `a[..] = a[..] + 1` of rank one or two.
fn arb_stmt() -> impl Strategy<Value = (usize, Vec<Terms>, Vec<Terms>)> {
    (
        1usize..=2,
        proptest::collection::vec(arb_terms(), 2),
        proptest::collection::vec(arb_terms(), 2),
    )
}

/// A program of one nest, one to three loops deep over the names `i`,
/// `j` and `k` (a name may repeat, so an inner loop can shadow an outer
/// one), with bounds that may read an outer loop or a symbolic, a
/// statement in the innermost loop, one after the inner loops and a
/// sibling nest with a single loop — so pairs have common and extra
/// levels, symbolics, ranks that differ and rows that overflow.
fn arb_row_program() -> impl Strategy<Value = String> {
    (
        1usize..=3,
        proptest::collection::vec(2usize..5, 3),
        proptest::collection::vec((arb_terms(), arb_terms()), 3),
        arb_stmt(),
        arb_stmt(),
        arb_stmt(),
    )
        .prop_map(|(depth, picks, bounds, inner, outer, sibling)| {
            let access = |(rank, w, r): &(usize, Vec<Terms>, Vec<Terms>), scope: &[&str]| {
                let sub = |v: &[Terms]| -> String {
                    v.iter()
                        .take(*rank)
                        .map(|t| format!("[{}]", render(t, scope)))
                        .collect()
                };
                format!("a{} = a{} + 1; ", sub(w), sub(r))
            };
            let mut scope = vec!["n", "m"];
            let mut src = String::from("read(n); ");
            for (&pick, (lo, hi)) in picks[..depth].iter().zip(&bounds) {
                let name = NAMES[pick];
                src.push_str(&format!(
                    "for {name} = {} to {} {{ ",
                    render(lo, &scope),
                    render(hi, &scope)
                ));
                scope.push(name);
            }
            src.push_str(&access(&inner, &scope));
            for k in (0..depth).rev() {
                if k == 0 {
                    src.push_str(&access(&outer, &scope[..3]));
                }
                src.push_str("} ");
            }
            src.push_str(&format!(
                "for i = 1 to m {{ {}}}",
                access(&sibling, &["n", "m", "i"])
            ));
            src
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_reused_problem_lowers_every_pair_as_built_afresh_and_naively(src in arb_row_program()) {
        let program = parse_program(&src).expect("generated programs parse");
        let set = extract_accesses(&program);
        let pairs = reference_pairs(&set, true);
        // One problem, one key buffer and one mirror scratch buffer for
        // every pair, as in the driver; `expected` is what the key buffer
        // must hold at the end.
        let mut reused = DependenceProblem::default();
        let (mut keys, mut spare, mut expected) = (Vec::new(), Vec::new(), Vec::new());
        for pair in pairs {
            for symbolic in [true, false] {
                let lowered = reused.lower(pair, symbolic);
                let built = build_problem(pair, symbolic);
                let naive = naive_problem(pair, symbolic);
                prop_assert_eq!(lowered.is_ok(), naive.is_some(), "{}", src);
                prop_assert_eq!(lowered.err(), built.as_ref().err().cloned());
                prop_assert_eq!(built.as_ref().ok(), naive.as_ref(), "{}", src);
                let Some(naive) = naive else {
                    // A failed lowering leaves the problem empty.
                    prop_assert_eq!(&reused, &DependenceProblem::default());
                    continue;
                };
                prop_assert_eq!(&reused, &naive, "{}", src);
                // Keys appended to a shared buffer read the reused rows.
                for improved in [false, true] {
                    let kept = nobounds_columns(&reused, improved);
                    let start = keys.len();
                    write_nobounds_key(&reused, &kept, &mut keys);
                    let (raw, oracle_kept) = nobounds_oracle(&naive, improved);
                    prop_assert_eq!(&keys[start..], &raw[..]);
                    prop_assert_eq!(kept.to_vec(), oracle_kept);
                    expected.extend(raw);
                    // The mirror's key, when the pair has a mirror that
                    // does not overflow.
                    let (own, own_levels) = bounds_oracle(&naive, improved);
                    let mirror = swappable(&naive)
                        .then(|| swap_problem(&naive))
                        .flatten()
                        .map(|m| bounds_oracle(&m, improved).0);
                    for memo_symmetry in [false, true] {
                        let start = keys.len();
                        let (levels, flipped) = write_full_key(
                            &reused,
                            improved,
                            memo_symmetry,
                            &mut keys,
                            &mut spare,
                        );
                        let (want, want_flipped) = match &mirror {
                            Some(m) if memo_symmetry && *m < own => (m, true),
                            _ => (&own, false),
                        };
                        prop_assert_eq!(&keys[start..], &want[..]);
                        prop_assert_eq!(flipped, want_flipped);
                        // A pair and its mirror keep the same levels.
                        prop_assert_eq!(levels.to_vec(), own_levels.clone());
                        expected.extend_from_slice(want);
                    }
                }
            }
        }
        prop_assert_eq!(keys, expected);
    }
}

#[test]
fn an_overflowing_equation_row_is_unbuildable() {
    let src = "read(n); for i = 1 to 10 { \
               a[9223372036854775807 * n + i] = a[-9223372036854775807 * n + i] + 1; }";
    let set = extract_accesses(&parse_program(src).unwrap());
    let pairs = reference_pairs(&set, false);
    assert!(set.accesses.iter().all(|a| a.is_affine()));
    assert!(naive_problem(pairs[0], true).is_none());
    assert_eq!(build_problem(pairs[0], true), Err(BuildError::Overflow));
}
