//! Wolfe's direction-vector extension of the rectangular Banerjee test
//! (algorithm 2.5.2 in *Optimizing Supercompilers for Supercomputers*).
//!
//! Directions are enumerated hierarchically exactly like the exact
//! analyzer's Burke–Cytron refinement, but each node is decided by the
//! *inexact* pair of simple GCD + direction-restricted Banerjee
//! inequalities. Unused loop indices are eliminated first, so `a[i]` vs
//! `a[i-1]` under an irrelevant outer loop reports the single vector
//! `(*, <)` — matching the methodology of the paper's Section 7
//! comparison.

use dda_core::{Direction, DirectionVector};

use crate::banerjee::{banerjee_independent, Dir};
use crate::gcd_simple::simple_gcd_independent;
use crate::model::PairModel;

fn to_dir(d: Direction) -> Dir {
    match d {
        Direction::Lt => Dir::Lt,
        Direction::Eq => Dir::Eq,
        Direction::Gt => Dir::Gt,
        Direction::Any => Dir::Any,
    }
}

/// Whether common level `k` is used by any subscript.
fn level_used(model: &PairModel, k: usize) -> bool {
    model.dims.iter().any(|d| d.common[k] != (0, 0))
}

/// Counts a Banerjee invocation and answers "maybe dependent under these
/// directions?".
fn maybe_dependent(model: &PairModel, dirs: &[Direction], tests: &mut u64) -> bool {
    *tests += 1;
    let dirs: Vec<Dir> = dirs.iter().map(|&d| to_dir(d)).collect();
    !banerjee_independent(model, &dirs)
}

/// The baseline direction-vector computation: every vector the inexact
/// tests cannot rule out. Also returns the number of Banerjee
/// invocations performed.
///
/// An empty result means even the baseline proved full independence.
#[must_use]
pub fn wolfe_direction_vectors(model: &PairModel) -> (Vec<DirectionVector>, u64) {
    let mut tests = 0u64;
    // The simple GCD test ignores directions entirely; one call up front.
    if simple_gcd_independent(model) {
        return (Vec::new(), tests);
    }
    let n = model.num_common;
    let mut dirs = vec![Direction::Any; n];
    if !maybe_dependent(model, &dirs, &mut tests) {
        return (Vec::new(), tests);
    }
    let refine: Vec<usize> = (0..n)
        .filter(|&k| level_used(model, k) || model.level_coupled[k])
        .collect();
    let mut out = Vec::new();
    expand(model, &refine, 0, &mut dirs, &mut out, &mut tests);
    (out, tests)
}

fn expand(
    model: &PairModel,
    refine: &[usize],
    idx: usize,
    dirs: &mut Vec<Direction>,
    out: &mut Vec<DirectionVector>,
    tests: &mut u64,
) {
    if idx == refine.len() {
        out.push(DirectionVector(dirs.as_slice().into()));
        return;
    }
    let level = refine[idx];
    for d in Direction::REFINED {
        dirs[level] = d;
        if maybe_dependent(model, dirs, tests) {
            expand(model, refine, idx + 1, dirs, out, tests);
        }
    }
    dirs[level] = Direction::Any;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::build_model;
    use dda_ir::{extract_accesses, parse_program, reference_pairs};

    fn vectors(src: &str) -> Vec<String> {
        let p = parse_program(src).unwrap();
        let set = extract_accesses(&p);
        let pairs = reference_pairs(&set, false);
        let m = build_model(pairs[0]).unwrap();
        let (vs, _) = wolfe_direction_vectors(&m);
        let mut out: Vec<String> = vs.iter().map(ToString::to_string).collect();
        out.sort();
        out
    }

    #[test]
    fn distance_one_flow() {
        assert_eq!(vectors("for i = 1 to 10 { a[i + 1] = a[i]; }"), vec!["(<)"]);
    }

    #[test]
    fn unused_outer_level_reports_star() {
        // The paper's stated methodology: a[j] vs a[j-1] under an unused
        // outer loop yields (*, <), not three vectors.
        assert_eq!(
            vectors("for i = 1 to 10 { for j = 1 to 10 { a[j + 1] = a[j]; } }"),
            vec!["(*, <)"]
        );
    }

    #[test]
    fn inexact_coupled_case_over_reports() {
        // Exact answer: (<, >), (=, =), (>, <). The per-dimension
        // baseline cannot couple i with j, so it reports extra vectors.
        let vs = vectors("for i = 1 to 4 { for j = 1 to 4 { a[i][j] = a[j][i] + 1; } }");
        assert!(vs.contains(&"(=, =)".to_owned()));
        assert!(
            vs.len() > 3,
            "baseline should over-report ({} vectors: {vs:?})",
            vs.len()
        );
    }

    #[test]
    fn gcd_rejects_before_enumeration() {
        let vs = vectors("for i = 1 to 10 { a[2 * i] = a[2 * i + 1]; }");
        assert!(vs.is_empty());
    }

    #[test]
    fn bounds_reject_star_immediately() {
        let vs = vectors("for i = 1 to 10 { a[i] = a[i + 10]; }");
        assert!(vs.is_empty());
    }
}
