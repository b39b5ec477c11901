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

use crate::problem::DependenceProblem;
use crate::result::{Direction, DistanceVector};

/// Whether the mirror is well-defined: swapping the ExtraA/ExtraB blocks
/// must be a permutation, which requires the two references to have the
/// same number of non-common enclosing loops.
#[must_use]
pub fn swappable(p: &DependenceProblem) -> bool {
    let layout = p.layout();
    layout.extra_a == layout.extra_b
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
    use crate::memo::write_full_key;
    use crate::problem::build_problem;
    use dda_ir::{extract_accesses, parse_program, reference_pairs};

    fn problem(src: &str) -> DependenceProblem {
        let p = parse_program(src).unwrap();
        let set = extract_accesses(&p);
        let pairs = reference_pairs(&set, false);
        build_problem(pairs[0], true).unwrap()
    }

    #[test]
    fn mirror_columns_are_an_involution() {
        for src in [
            "for i = 1 to 10 { a[i + 1] = a[i]; }",
            "for i = 1 to 10 { for j = i to 10 { a[i][j] = a[j][i + 2]; } }",
            "read(n); for i = 1 to 10 { a[i + n] = a[i]; }",
        ] {
            let p = problem(src);
            let mirror = p.layout().mirror_columns().expect("swappable");
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
        let key = |p: &DependenceProblem, symmetric: bool| {
            let mut key = Vec::new();
            let (_, flipped) = write_full_key(p, true, symmetric, &mut key, &mut Vec::new());
            (key, flipped)
        };
        assert_ne!(key(&p1, false).0, key(&p2, false).0);
        let (k1, flipped1) = key(&p1, true);
        let (k2, flipped2) = key(&p2, true);
        assert_eq!(k1, k2);
        // Exactly one of them is served through its mirror, whose key
        // is the other pair's own.
        assert_ne!(flipped1, flipped2);
        let own = if flipped1 { &p2 } else { &p1 };
        assert_eq!(k1, key(own, false).0);
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
        let prob = build_problem(pairs[0], true).unwrap();
        assert!(!swappable(&prob));
    }
}
