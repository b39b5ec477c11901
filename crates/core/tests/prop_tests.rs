//! Property-based tests: the exact tests against brute-force enumeration
//! on randomly generated constraint systems.
//!
//! Each system is small enough (≤ 3 variables, coefficients ≤ 4 in
//! magnitude, right-hand sides ≤ 12) that any feasible instance has a
//! witness inside a modest box, so "no solution in the box plus a
//! bounding argument" gives ground truth. Every generated system includes
//! explicit box bounds, which makes brute force complete.

use dda_core::acyclic::{acyclic, AcyclicOutcome};
use dda_core::cascade::{complete_with_trace, CascadeOutcome};
use dda_core::fourier_motzkin::{fourier_motzkin, fourier_motzkin_with, FmLimits, FmOutcome};
use dda_core::loop_residue::{loop_residue, LoopResidueOutcome};
use dda_core::pipeline::run_pipeline;
use dda_core::svpc::{svpc, SvpcOutcome};
use dda_core::system::{Constraint, System};
use dda_core::{
    AnalyzerConfig, Answer, DependenceAnalyzer, MemoMode, NullProbe, PipelineConfig,
    RecordingProbe, TestKind,
};
use dda_ir::parse_program;
use proptest::prelude::*;

const BOX: i64 = 8;

/// A random constraint over `n` vars (plus implicit box bounds added by
/// the caller).
fn arb_constraint(n: usize) -> impl Strategy<Value = Constraint> {
    (proptest::collection::vec(-4i64..=4, n), -12i64..=12)
        .prop_map(|(coeffs, rhs)| Constraint::new(coeffs, rhs))
}

/// A system of 0..=4 random constraints over 1..=3 vars, each variable
/// boxed to [-BOX, BOX] so brute force is complete.
fn arb_system() -> impl Strategy<Value = System> {
    (1usize..=3)
        .prop_flat_map(|n| {
            proptest::collection::vec(arb_constraint(n), 0..=4).prop_map(move |cs| (n, cs))
        })
        .prop_map(|(n, cs)| {
            let mut s = System::new(n);
            for c in cs {
                s.push(c);
            }
            for v in 0..n {
                let mut up = vec![0i64; n];
                up[v] = 1;
                s.push(Constraint::new(up.clone(), BOX));
                up[v] = -1;
                s.push(Constraint::new(up, BOX));
            }
            s
        })
}

/// Exhaustive search over the box.
#[allow(unreachable_code)] // the odometer loop exits via `return`
fn brute_force(s: &System) -> Option<Vec<i64>> {
    let n = s.num_vars;
    let mut t = vec![-BOX; n];
    loop {
        if s.is_satisfied_by(&t) == Some(true) {
            return Some(t);
        }
        // Odometer increment.
        let mut k = 0;
        loop {
            if k == n {
                return None;
            }
            t[k] += 1;
            if t[k] <= BOX {
                break;
            }
            t[k] = -BOX;
            k += 1;
        }
    }
}

/// The pre-refactor cascade driver, copied verbatim (modulo the public
/// `complete_with_trace` accessor) from the tree before the pipeline
/// unification. [`run_pipeline`] with the full configuration must agree
/// with this function bit-for-bit on every input.
fn legacy_cascade(system: &System, limits: FmLimits) -> CascadeOutcome {
    let (bounds, residual) = match svpc(system) {
        SvpcOutcome::Infeasible => {
            return CascadeOutcome {
                answer: Answer::Independent,
                used: TestKind::Svpc,
            }
        }
        SvpcOutcome::Complete { sample } => {
            return CascadeOutcome {
                answer: Answer::Dependent(Some(sample)),
                used: TestKind::Svpc,
            }
        }
        SvpcOutcome::Partial { bounds, residual } => (bounds, residual),
    };

    let (bounds, residual, trace) = match acyclic(&bounds, &residual) {
        AcyclicOutcome::Infeasible => {
            return CascadeOutcome {
                answer: Answer::Independent,
                used: TestKind::Acyclic,
            }
        }
        AcyclicOutcome::Complete { sample } => {
            return CascadeOutcome {
                answer: Answer::Dependent(Some(sample)),
                used: TestKind::Acyclic,
            }
        }
        AcyclicOutcome::Stuck {
            bounds,
            residual,
            trace,
        } => (bounds, residual, trace),
    };

    match loop_residue(&bounds, &residual) {
        LoopResidueOutcome::Infeasible => {
            return CascadeOutcome {
                answer: Answer::Independent,
                used: TestKind::LoopResidue,
            }
        }
        LoopResidueOutcome::Feasible(mut sample) => {
            let answer = match complete_with_trace(&trace, &mut sample) {
                Some(()) => Answer::Dependent(Some(sample)),
                None => Answer::Dependent(None),
            };
            return CascadeOutcome {
                answer,
                used: TestKind::LoopResidue,
            };
        }
        LoopResidueOutcome::NotApplicable => {}
    }

    let n = bounds.len();
    let mut constraints = residual;
    for v in 0..n {
        if let Some(u) = bounds.ub[v] {
            let mut row = vec![0i64; n];
            row[v] = 1;
            constraints.push(Constraint::new(row, u));
        }
        if let Some(l) = bounds.lb[v] {
            let mut row = vec![0i64; n];
            row[v] = -1;
            let Some(neg) = l.checked_neg() else {
                return CascadeOutcome {
                    answer: Answer::Unknown,
                    used: TestKind::FourierMotzkin,
                };
            };
            constraints.push(Constraint::new(row, neg));
        }
    }
    match fourier_motzkin_with(n, &constraints, limits) {
        FmOutcome::Infeasible => CascadeOutcome {
            answer: Answer::Independent,
            used: TestKind::FourierMotzkin,
        },
        FmOutcome::Sample(mut sample) => {
            let answer = match complete_with_trace(&trace, &mut sample) {
                Some(()) => Answer::Dependent(Some(sample)),
                None => Answer::Dependent(None),
            };
            CascadeOutcome {
                answer,
                used: TestKind::FourierMotzkin,
            }
        }
        FmOutcome::Unknown => CascadeOutcome {
            answer: Answer::Unknown,
            used: TestKind::FourierMotzkin,
        },
    }
}

/// A small random two-level affine loop nest: coefficients and offsets
/// chosen so pairs land across the whole cascade (GCD independence, each
/// cascade test, direction refinement).
fn arb_program_source() -> impl Strategy<Value = String> {
    (
        (2i64..=8, 2i64..=8),              // trip counts
        (-3i64..=3, -3i64..=3, -5i64..=5), // write: i, j coefficients + offset
        (-3i64..=3, -3i64..=3, -5i64..=5), // read: i, j coefficients + offset
    )
        .prop_map(|((n, m), (wi, wj, wo), (ri, rj, ro))| {
            format!(
                "for i = 1 to {n} {{ for j = 1 to {m} {{ \
                 a[{wi} * i + {wj} * j + {wo}] = a[{ri} * i + {rj} * j + {ro}] + 1; }} }}"
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The cascade agrees with brute force on every boxed system.
    #[test]
    fn cascade_matches_brute_force(s in arb_system()) {
        let truth = brute_force(&s);
        let out = run_pipeline(&s, &PipelineConfig::full(), FmLimits::default(), &mut NullProbe);
        match out.answer {
            Answer::Independent => {
                prop_assert!(truth.is_none(),
                    "cascade says independent, brute force found {truth:?}\n{s}");
            }
            Answer::Dependent(witness) => {
                prop_assert!(truth.is_some(),
                    "cascade says dependent, brute force found nothing\n{s}");
                if let Some(w) = witness {
                    prop_assert_eq!(s.is_satisfied_by(&w), Some(true),
                        "witness invalid\n{}", s);
                }
            }
            Answer::Unknown => {
                // Allowed (inexact), but on these tiny systems it should
                // never happen — matching the paper's experience.
                prop_assert!(false, "cascade returned unknown on\n{s}");
            }
        }
    }

    /// Fourier–Motzkin alone is exact on every boxed system.
    #[test]
    fn fourier_motzkin_matches_brute_force(s in arb_system()) {
        let truth = brute_force(&s);
        match fourier_motzkin(s.num_vars, &s.constraints) {
            FmOutcome::Infeasible => prop_assert!(truth.is_none(), "{s}"),
            FmOutcome::Sample(w) => {
                prop_assert!(truth.is_some(), "{s}");
                prop_assert_eq!(s.is_satisfied_by(&w), Some(true), "{}", s);
            }
            FmOutcome::Unknown => prop_assert!(false, "unknown on\n{s}"),
        }
    }

    /// SVPC never lies: Infeasible means brute force finds nothing;
    /// Complete witnesses check out.
    #[test]
    fn svpc_sound(s in arb_system()) {
        match svpc(&s) {
            SvpcOutcome::Infeasible => {
                prop_assert!(brute_force(&s).is_none(), "{s}");
            }
            SvpcOutcome::Complete { sample } => {
                prop_assert_eq!(s.is_satisfied_by(&sample), Some(true), "{}", s);
            }
            SvpcOutcome::Partial { .. } => {}
        }
    }

    /// The unified pipeline at its full configuration is bit-identical to
    /// the pre-refactor cascade on every boxed system.
    #[test]
    fn pipeline_matches_legacy_cascade(s in arb_system()) {
        let legacy = legacy_cascade(&s, FmLimits::default());
        let piped = run_pipeline(&s, &PipelineConfig::full(), FmLimits::default(), &mut NullProbe);
        prop_assert_eq!(&piped, &legacy, "pipeline diverged from legacy cascade on\n{}", s);
    }

    /// Attaching a recording probe never changes the pipeline's answer.
    #[test]
    fn pipeline_probe_is_transparent(s in arb_system()) {
        let silent = run_pipeline(&s, &PipelineConfig::full(), FmLimits::default(), &mut NullProbe);
        let mut probe = RecordingProbe::default();
        let recorded = run_pipeline(&s, &PipelineConfig::full(), FmLimits::default(), &mut probe);
        prop_assert_eq!(&recorded, &silent, "probe changed the outcome on\n{}", s);
        prop_assert!(!probe.events.is_empty(), "recording probe saw no events on\n{}", s);
    }

    /// gcd-row normalization preserves the integer solution set.
    #[test]
    fn normalization_preserves_integer_points(s in arb_system()) {
        let mut normalized = s.clone();
        normalized.normalize();
        let n = s.num_vars;
        let mut t = vec![-BOX; n];
        'grid: loop {
            prop_assert_eq!(
                s.is_satisfied_by(&t),
                normalized.is_satisfied_by(&t),
                "normalization changed satisfaction at {:?}\n{}", t, s
            );
            let mut k = 0;
            loop {
                if k == n {
                    break 'grid;
                }
                t[k] += 1;
                if t[k] <= BOX {
                    break;
                }
                t[k] = -BOX;
                k += 1;
            }
        }
    }
}

proptest! {
    // Whole-program analysis is heavier per case; fewer cases suffice
    // because each program contributes several pairs.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Analyzer-level probe transparency: for every memoization mode, an
    /// analysis observed by a recording probe returns a report identical
    /// to the unobserved analysis — same answers, same witnesses, same
    /// statistics, same cache attribution.
    #[test]
    fn analyzer_probe_transparent_across_memo_modes(src in arb_program_source()) {
        let program = parse_program(&src).unwrap();
        for memo in [MemoMode::Off, MemoMode::Simple, MemoMode::Improved] {
            let config = AnalyzerConfig { memo, ..AnalyzerConfig::default() };
            let silent = DependenceAnalyzer::with_config(config).analyze_program(&program);
            let mut probe = RecordingProbe::default();
            let observed = DependenceAnalyzer::with_config(config)
                .analyze_program_probed(&program, &mut probe);
            prop_assert_eq!(
                &observed, &silent,
                "probe changed the report under {:?} for\n{}", memo, src
            );
        }
    }
}
