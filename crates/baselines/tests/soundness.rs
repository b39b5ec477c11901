//! Property tests: the inexact baselines are *sound* — whenever they
//! claim independence, the exact analyzer (whose own exactness is
//! oracle-validated) agrees — and their direction vectors always cover
//! the exact set.

use dda_baselines::{analyze_with_baselines, banerjee, gcd_simple, model};
use dda_core::{DependenceAnalyzer, Direction};
use dda_ir::{extract_accesses, parse_program, reference_pairs};
use proptest::prelude::*;

/// A random single- or double-loop program over one array with affine
/// subscripts (constant bounds so both sides fully apply).
fn arb_program() -> impl Strategy<Value = String> {
    (
        1usize..=2,
        proptest::collection::vec((-2i64..=2, -2i64..=2, -6i64..=6), 2),
        2i64..=8,
    )
        .prop_map(|(depth, subs, hi)| {
            let mut src = String::new();
            for k in 0..depth {
                src.push_str(&format!("for v{k} = 1 to {hi} {{ "));
            }
            let sub = |&(ci, cj, c): &(i64, i64, i64)| {
                if depth == 2 {
                    format!("{ci} * v0 + {cj} * v1 + {c}")
                } else {
                    format!("{ci} * v0 + {c}")
                }
            };
            src.push_str(&format!(
                "arr[{}] = arr[{}] + 1; ",
                sub(&subs[0]),
                sub(&subs[1])
            ));
            for _ in 0..depth {
                src.push_str("} ");
            }
            src
        })
}

/// Expands `*` components so vector-set coverage can be compared.
fn covers(reported: &[Direction], observed: &[Direction]) -> bool {
    reported
        .iter()
        .zip(observed)
        .all(|(r, o)| *r == Direction::Any || r == o)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// Baseline "independent" never contradicts the exact answer, with or
    /// without direction vectors.
    #[test]
    fn baselines_sound(src in arb_program()) {
        let program = parse_program(&src).expect("parse");
        let exact = DependenceAnalyzer::new().analyze_program(&program);
        for directions in [false, true] {
            let base = analyze_with_baselines(&program, directions);
            for (bp, ep) in base.pairs.iter().zip(exact.pairs()) {
                if bp.independent {
                    prop_assert!(
                        ep.result.is_independent(),
                        "baseline (directions={directions}) wrongly independent on\n{src}"
                    );
                }
            }
        }
    }

    /// Every exact direction vector is covered by some baseline vector.
    #[test]
    fn baseline_vectors_cover_exact(src in arb_program()) {
        let program = parse_program(&src).expect("parse");
        let exact = DependenceAnalyzer::new().analyze_program(&program);
        let base = analyze_with_baselines(&program, true);
        for (bp, ep) in base.pairs.iter().zip(exact.pairs()) {
            for ev in &ep.direction_vectors {
                // Exact vectors may contain `*` (pruned levels); any
                // concrete refinement of them must still be covered, so
                // compare conservatively: a baseline vector covers an
                // exact one if they agree wherever both are concrete.
                let ok = bp.direction_vectors.iter().any(|bv| {
                    bv.0.iter().zip(&ev.0).all(|(b, e)| {
                        *b == Direction::Any || *e == Direction::Any || b == e
                    })
                });
                prop_assert!(
                    ok,
                    "exact vector {ev} uncovered by baseline {:?} on\n{src}",
                    bp.direction_vectors
                );
            }
        }
    }

    /// The per-test entry points never panic and never disagree with the
    /// combined driver.
    #[test]
    fn baseline_parts_consistent(src in arb_program()) {
        let program = parse_program(&src).expect("parse");
        let set = extract_accesses(&program);
        let pairs = reference_pairs(&set, false);
        for p in &pairs {
            if let Some(m) = model::build_model(*p) {
                let gcd_ind = gcd_simple::simple_gcd_independent(&m);
                let ban_ind = banerjee::banerjee_independent_star(&m);
                let combined = analyze_with_baselines(&program, false);
                if gcd_ind || ban_ind {
                    prop_assert!(
                        combined.pairs.iter().any(|bp| bp.independent),
                        "driver missed a component's independence on\n{src}"
                    );
                }
            }
        }
    }

    /// `covers` sanity (meta-test for the helper used above).
    #[test]
    fn covers_reflexive(dirs in proptest::collection::vec(
        prop::sample::select(vec![Direction::Lt, Direction::Eq, Direction::Gt]), 1..3))
    {
        prop_assert!(covers(&dirs, &dirs));
    }
}
