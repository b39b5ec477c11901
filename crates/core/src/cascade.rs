//! The cascade driver: SVPC → Acyclic → Loop Residue → Fourier–Motzkin.
//!
//! "Our approach is to use a series of special case exact tests. If the
//! input is not of the appropriate form for an algorithm, then we try the
//! next one." The cascade is ordered by measured cost (Section 7), and a
//! later test always runs on the system as *simplified* by the earlier
//! ones: SVPC absorbs single-variable constraints into scalar bounds, and
//! the Acyclic test eliminates every variable outside the constraint
//! cycle.

use crate::acyclic::Trace;
use crate::result::{Answer, TestKind};

/// Result of running the cascade on a `t`-space system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CascadeOutcome {
    /// The verdict, with a `t`-space witness for dependent answers.
    pub answer: Answer,
    /// Which test produced the verdict.
    pub used: TestKind,
}

/// Re-exported for tests: completes a witness through an elimination
/// trace. (Public consumers use [`run_pipeline`](crate::pipeline::run_pipeline).)
#[doc(hidden)]
#[must_use]
pub fn complete_with_trace(trace: &Trace, sample: &mut [i64]) -> Option<()> {
    trace.complete(sample)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fourier_motzkin::FmLimits;
    use crate::pipeline::{run_pipeline, NullProbe, PipelineConfig};
    use crate::system::{Constraint, System};

    fn full_cascade(s: &System) -> CascadeOutcome {
        run_pipeline(
            s,
            &PipelineConfig::full(),
            FmLimits::default(),
            &mut NullProbe,
        )
    }

    fn sys(rows: &[(&[i64], i64)]) -> System {
        let n = rows.first().map_or(0, |(c, _)| c.len());
        let mut s = System::new(n);
        for (coeffs, rhs) in rows {
            s.push(Constraint::new(coeffs.to_vec(), *rhs));
        }
        s
    }

    fn check_dependent(s: &System, out: &CascadeOutcome) {
        let Answer::Dependent(Some(sample)) = &out.answer else {
            panic!("expected dependent with witness, got {out:?}");
        };
        assert_eq!(
            s.is_satisfied_by(sample),
            Some(true),
            "witness {sample:?} invalid for\n{s}"
        );
    }

    #[test]
    fn svpc_resolves_single_variable_systems() {
        let s = sys(&[(&[-1, 0], -1), (&[1, 0], 10), (&[0, 1], 10), (&[0, -1], -1)]);
        let out = full_cascade(&s);
        assert_eq!(out.used, TestKind::Svpc);
        check_dependent(&s, &out);
    }

    #[test]
    fn acyclic_resolves_one_directional_chains() {
        let s = sys(&[
            (&[1, 1, -1], 0),
            (&[-1, 0, 0], -1),
            (&[1, 0, 0], 10),
            (&[0, -1, 0], -1),
            (&[0, 0, 1], 4),
        ]);
        let out = full_cascade(&s);
        assert_eq!(out.used, TestKind::Acyclic);
        check_dependent(&s, &out);
    }

    #[test]
    fn loop_residue_resolves_difference_cycles() {
        // t0 = t1 (two-constraint cycle) with compatible bounds.
        let s = sys(&[
            (&[1, -1], 0),
            (&[-1, 1], 0),
            (&[-1, 0], -1),
            (&[1, 0], 10),
            (&[0, 1], 10),
            (&[0, -1], -1),
        ]);
        let out = full_cascade(&s);
        assert_eq!(out.used, TestKind::LoopResidue);
        check_dependent(&s, &out);
    }

    #[test]
    fn loop_residue_detects_negative_cycle() {
        // t0 ≤ t1 - 1 and t1 ≤ t0 - 1: cycle of value -2.
        let s = sys(&[(&[1, -1], -1), (&[-1, 1], -1)]);
        let out = full_cascade(&s);
        assert_eq!(out.used, TestKind::LoopResidue);
        assert!(out.answer.is_independent());
    }

    #[test]
    fn fourier_motzkin_handles_general_cycles() {
        // 2t0 - t1 ≤ 0 and t1 - 2t0 ≤ -1: unequal magnitudes, FM territory;
        // adds to 0 ≤ -1: infeasible.
        let s = sys(&[(&[2, -1], 0), (&[-2, 1], -1)]);
        let out = full_cascade(&s);
        assert_eq!(out.used, TestKind::FourierMotzkin);
        assert!(out.answer.is_independent());
    }

    #[test]
    fn fourier_motzkin_feasible_general_cycle() {
        // 2t0 - t1 ≤ 0, t1 - 2t0 ≤ 3, 0 ≤ t0 ≤ 5, 0 ≤ t1 ≤ 5.
        let s = sys(&[
            (&[2, -1], 0),
            (&[-2, 1], 3),
            (&[-1, 0], 0),
            (&[1, 0], 5),
            (&[0, -1], 0),
            (&[0, 1], 5),
        ]);
        let out = full_cascade(&s);
        assert_eq!(out.used, TestKind::FourierMotzkin);
        check_dependent(&s, &out);
    }

    #[test]
    fn acyclic_simplification_reaches_loop_residue() {
        // A difference cycle between t0, t1 plus a pendant t2 ≤ t0 that
        // the Acyclic phase strips off; witness must cover t2 too.
        let s = sys(&[
            (&[1, -1, 0], 0),
            (&[-1, 1, 0], 0),
            (&[0, 0, 1], 0),  // keep t2's bound single-var: t2 ≤ 0
            (&[1, 0, -1], 5), // hmm t0 - t2 ≤ 5: two-var, t2 appears once
            (&[-1, 0, 0], -1),
            (&[1, 0, 0], 10),
            (&[0, -1, 0], -1),
            (&[0, 1, 0], 10),
        ]);
        let out = full_cascade(&s);
        check_dependent(&s, &out);
    }

    #[test]
    fn empty_system_dependent() {
        let out = full_cascade(&System::new(0));
        assert!(matches!(out.answer, Answer::Dependent(_)));
        assert_eq!(out.used, TestKind::Svpc);
    }
}
