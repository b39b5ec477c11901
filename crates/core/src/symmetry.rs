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

use crate::memo::ColumnVec;
use crate::problem::{DependenceProblem, XVar};
use crate::result::{Direction, DistanceVector};

/// The mirror's column permutation: `columns[i]` is the column of `p`
/// whose variable sits at position `i` of the mirror problem (the pair
/// with its references swapped).
///
/// Variables keep the structural order (common-A block first, then
/// common-B, extras, symbolics), so the mirror maps `CommonA(k)` ↔
/// `CommonB(k)` and `ExtraA(k)` ↔ `ExtraB(k)` and leaves symbolics in
/// place. Its bounds are `p`'s with columns permuted, and its equality
/// rows are `p`'s permuted and negated (`f_b − f_a = −(f_a − f_b)`).
/// Memo keys are written from this permutation directly
/// ([`mirror_bounds_key`](crate::memo::mirror_bounds_key)), so no mirror
/// problem is ever built.
///
/// Returns `None` when the mirror is not well-defined (see
/// [`swappable`]).
#[must_use]
pub fn mirror_columns(p: &DependenceProblem) -> Option<ColumnVec> {
    if !swappable(p) {
        return None;
    }
    p.vars
        .iter()
        .enumerate()
        .map(|(i, v)| match v {
            XVar::CommonA(k) => p.var_index(&XVar::CommonB(*k)),
            XVar::CommonB(k) => p.var_index(&XVar::CommonA(*k)),
            XVar::ExtraA(k) => p.var_index(&XVar::ExtraB(*k)),
            XVar::ExtraB(k) => p.var_index(&XVar::ExtraA(*k)),
            XVar::Symbolic(_) => Some(i),
        })
        .collect()
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

/// Mirrors one distance component (`i′ − i` negates). A component whose
/// negation overflows degrades to unknown — conservative, never wrong.
#[must_use]
pub fn flip_offset(d: Option<i64>) -> Option<i64> {
    d.and_then(i64::checked_neg)
}

/// Mirrors a distance vector component by component (see
/// [`flip_offset`]).
#[must_use]
pub fn flip_distance(d: &DistanceVector) -> DistanceVector {
    DistanceVector(d.0.iter().map(|&v| flip_offset(v)).collect())
}

#[cfg(test)]
// Test fixtures use plain literals arithmetic; overflow aborts the test.
#[allow(clippy::arithmetic_side_effects)]
mod tests {
    use super::*;
    use crate::memo::{bounds_key, mirror_bounds_key};
    use crate::problem::build_problem;
    use dda_ir::{extract_accesses, parse_program, reference_pairs};

    fn problem(src: &str) -> DependenceProblem {
        let p = parse_program(src).unwrap();
        let set = extract_accesses(&p);
        let pairs = reference_pairs(&set, false);
        build_problem(&set.symbols, pairs[0].a, pairs[0].b, pairs[0].common, true).unwrap()
    }

    #[test]
    fn mirror_columns_are_an_involution() {
        for src in [
            "for i = 1 to 10 { a[i + 1] = a[i]; }",
            "for i = 1 to 10 { for j = i to 10 { a[i][j] = a[j][i + 2]; } }",
            "read(n); for i = 1 to 10 { a[i + n] = a[i]; }",
        ] {
            let p = problem(src);
            let mirror = mirror_columns(&p).expect("swappable");
            for (i, &c) in mirror.iter().enumerate() {
                assert_eq!(mirror[c], i, "{src}");
            }
        }
    }

    #[test]
    fn mirrored_pairs_share_canonical_keys() {
        // a[i+1] = a[i]  vs  a[i] = a[i+1]: mirrors of each other.
        let p1 = problem("for i = 1 to 10 { a[i + 1] = a[i]; }");
        let p2 = problem("for i = 1 to 10 { a[i] = a[i + 1]; }");
        assert_ne!(bounds_key(&p1, true).key, bounds_key(&p2, true).key);
        let canonical = |p: &DependenceProblem| {
            let mirror = mirror_bounds_key(p, &mirror_columns(p).unwrap(), true).unwrap();
            bounds_key(p, true).key.min(mirror)
        };
        assert_eq!(canonical(&p1), canonical(&p2));
        assert_eq!(
            mirror_bounds_key(&p1, &mirror_columns(&p1).unwrap(), true),
            Some(bounds_key(&p2, true).key)
        );
    }

    #[test]
    fn flips() {
        assert_eq!(flip_direction(Direction::Lt), Direction::Gt);
        assert_eq!(flip_direction(Direction::Gt), Direction::Lt);
        assert_eq!(flip_direction(Direction::Eq), Direction::Eq);
        assert_eq!(flip_direction(Direction::Any), Direction::Any);
        let d = DistanceVector([Some(3), None, Some(i64::MIN)].into());
        assert_eq!(
            flip_distance(&d),
            DistanceVector([Some(-3), None, None].into())
        );
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
