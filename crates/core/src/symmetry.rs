//! Symmetric-pair canonicalization — the "further optimization" of
//! Section 5.
//!
//! "Comparing `a[i]` to `a[i-1]` is the same as comparing `a[i-1]` to
//! `a[i]`":
//! swapping the two references of a pair produces a mirror problem whose
//! analysis is the mirror of the original (directions reversed, distances
//! negated). Canonicalizing each problem to the lexicographically smaller
//! of itself and its mirror lets the memo table serve both orientations
//! from one entry.

#![warn(clippy::arithmetic_side_effects)]

use crate::problem::{DependenceProblem, XVar};
use crate::result::{Direction, DirectionVector, DistanceVector};
use crate::system::Constraint;

/// Builds the mirror problem: reference roles swapped.
///
/// Variables keep the structural order (common-A block first, then
/// common-B, extras, symbolics), so the mirror maps `CommonA(k)` ↔
/// `CommonB(k)` and `ExtraA` ↔ `ExtraB` — a permutation of columns — and
/// negates the equality rows (`f_b − f_a = −(f_a − f_b)`).
///
/// Returns `None` when negating a row overflows (`i64::MIN` coefficient);
/// callers then simply skip canonicalization, which is always sound.
#[must_use]
pub fn swap_problem(p: &DependenceProblem) -> Option<DependenceProblem> {
    let n = p.num_vars();
    // permutation[i] = index in the original of the variable that sits at
    // position i of the mirror.
    let mut permutation = Vec::with_capacity(n);
    let mut vars = Vec::with_capacity(n);
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
    let bounds: Vec<Constraint> = p
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

/// Whether the mirror is well-defined: swapping the ExtraA/ExtraB blocks
/// must be a permutation, which requires the two references to have the
/// same number of non-common enclosing loops.
#[must_use]
pub fn swappable(p: &DependenceProblem) -> bool {
    let extra_a = p
        .vars
        .iter()
        .filter(|v| matches!(v, XVar::ExtraA(_)))
        .count();
    let extra_b = p
        .vars
        .iter()
        .filter(|v| matches!(v, XVar::ExtraB(_)))
        .count();
    extra_a == extra_b
}

/// Reverses a direction (the mirror pair's `<` is the original's `>`).
#[must_use]
pub fn flip_direction(d: Direction) -> Direction {
    match d {
        Direction::Lt => Direction::Gt,
        Direction::Gt => Direction::Lt,
        other => other,
    }
}

/// Mirrors a set of direction vectors.
#[must_use]
pub fn flip_vectors(vectors: &[DirectionVector]) -> Vec<DirectionVector> {
    vectors
        .iter()
        .map(|v| DirectionVector(v.0.iter().map(|&d| flip_direction(d)).collect()))
        .collect()
}

/// Mirrors a distance vector (`i′ − i` negates). A component whose
/// negation overflows degrades to unknown — conservative, never wrong.
#[must_use]
pub fn flip_distance(d: &DistanceVector) -> DistanceVector {
    DistanceVector(d.0.iter().map(|v| v.and_then(i64::checked_neg)).collect())
}

#[cfg(test)]
// Test fixtures use plain literals arithmetic; overflow aborts the test.
#[allow(clippy::arithmetic_side_effects)]
mod tests {
    use super::*;
    use crate::memo::bounds_key;
    use crate::problem::build_problem;
    use dda_ir::{extract_accesses, parse_program, reference_pairs};

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
    fn mirrored_pairs_share_canonical_keys() {
        // a[i+1] = a[i]  vs  a[i] = a[i+1]: mirrors of each other.
        let p1 = problem("for i = 1 to 10 { a[i + 1] = a[i]; }");
        let p2 = problem("for i = 1 to 10 { a[i] = a[i + 1]; }");
        assert_ne!(bounds_key(&p1, true).key, bounds_key(&p2, true).key);
        let c1 = bounds_key(&p1, true)
            .key
            .min(bounds_key(&swap_problem(&p1).unwrap(), true).key);
        let c2 = bounds_key(&p2, true)
            .key
            .min(bounds_key(&swap_problem(&p2).unwrap(), true).key);
        assert_eq!(c1, c2);
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
    fn flips() {
        assert_eq!(flip_direction(Direction::Lt), Direction::Gt);
        assert_eq!(flip_direction(Direction::Eq), Direction::Eq);
        assert_eq!(flip_direction(Direction::Any), Direction::Any);
        let v = vec![DirectionVector(vec![Direction::Lt, Direction::Eq])];
        assert_eq!(
            flip_vectors(&v),
            vec![DirectionVector(vec![Direction::Gt, Direction::Eq])]
        );
        let d = DistanceVector(vec![Some(3), None]);
        assert_eq!(flip_distance(&d), DistanceVector(vec![Some(-3), None]));
    }

    #[test]
    fn unequal_extra_depths_not_swappable() {
        let src = "for i = 1 to 10 { a[i] = 1; }
                   for i = 1 to 10 { for j = 1 to 10 { a[j] = a[j] + 2; } }";
        let p = parse_program(src).unwrap();
        let set = extract_accesses(&p);
        let pairs = reference_pairs(&set, false);
        // The (w1, w2) pair has one ExtraA level and two ExtraB levels.
        let prob =
            build_problem(&set.symbols, pairs[0].a, pairs[0].b, pairs[0].common, true).unwrap();
        assert!(!swappable(&prob));
    }
}
