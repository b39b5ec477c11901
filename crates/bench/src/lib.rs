//! Benchmark harness: regenerates every table of the paper's evaluation.
//!
//! Each table has a binary (`table1` … `table7`, `section7`) that runs the
//! synthetic PERFECT suite through the analyzer in the configuration the
//! paper used for that table and prints measured values next to the
//! paper's published ones. The Criterion benches in `benches/` time the
//! individual tests, whole-program analysis, and the ablations called out
//! in `DESIGN.md`.
//!
//! Set `DDA_SCALE` (default `1.0`) to shrink the suite proportionally for
//! quick runs.

#![warn(missing_docs)]

pub mod record;

use std::time::{Duration, Instant};

use dda_core::gcd::{gcd_preprocess, GcdOutcome};
use dda_core::problem::build_problem;
use dda_core::system::{Constraint, System};
use dda_core::{AnalyzerConfig, DependenceAnalyzer, MemoMode, TestKind};
use dda_ir::{extract_accesses, parse_program, reference_pairs};
use dda_perfect::{perfect_suite, SyntheticProgram};

pub use dda_core::stats::AnalysisStats;

/// Reads the workload scale from `DDA_SCALE` (default 1.0).
#[must_use]
pub fn scale_from_env() -> f64 {
    std::env::var("DDA_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s: &f64| s > 0.0 && s <= 1.0)
        .unwrap_or(1.0)
}

/// Generates the suite at the environment scale, printing a note when
/// scaled down.
#[must_use]
pub fn suite_from_env() -> Vec<SyntheticProgram> {
    let scale = scale_from_env();
    if (scale - 1.0).abs() > f64::EPSILON {
        println!("(running at DDA_SCALE={scale}; counts scale proportionally)\n");
    }
    perfect_suite(scale)
}

/// The result of analyzing one program, with timing.
#[derive(Debug, Clone)]
pub struct ProgramRun {
    /// Program acronym.
    pub name: &'static str,
    /// Original Fortran line count (from the paper).
    pub lines: u32,
    /// The per-program statistics.
    pub stats: AnalysisStats,
    /// Wall-clock analysis time.
    pub elapsed: Duration,
}

/// Runs the analyzer over every program with the given configuration.
/// A fresh analyzer per program (the paper's per-compilation setting).
#[must_use]
pub fn run_suite(suite: &[SyntheticProgram], config: AnalyzerConfig) -> Vec<ProgramRun> {
    suite
        .iter()
        .map(|p| {
            let mut analyzer = DependenceAnalyzer::with_config(config);
            let start = Instant::now();
            let report = analyzer.analyze_program(&p.program);
            let elapsed = start.elapsed();
            ProgramRun {
                name: p.name(),
                lines: p.spec.lines,
                stats: report.stats,
                elapsed,
            }
        })
        .collect()
}

/// The analyzer configuration used for Table 1: no memoization, no
/// direction vectors — count every base test.
#[must_use]
pub fn table1_config() -> AnalyzerConfig {
    AnalyzerConfig {
        memo: MemoMode::Off,
        compute_directions: false,
        ..AnalyzerConfig::default()
    }
}

/// Sums a column over runs.
#[must_use]
pub fn total<F: Fn(&ProgramRun) -> u64>(runs: &[ProgramRun], f: F) -> u64 {
    runs.iter().map(f).sum()
}

/// Builds a single x-space inequality system for a dependence problem
/// (equalities expanded to inequality pairs) — the "no GCD preprocessing"
/// ablation input.
#[must_use]
pub fn xspace_system(problem: &dda_core::problem::DependenceProblem) -> System {
    let n = problem.num_vars();
    let mut system = System::new(n);
    for (row, rhs) in problem.equations() {
        system.push(Constraint::new(row, rhs));
        let neg: Vec<i64> = row.iter().map(|&c| -c).collect();
        system.push(Constraint::new(neg, -rhs));
    }
    for (row, rhs) in problem.bounds() {
        system.push(Constraint::new(row, rhs));
    }
    system
}

/// The reduced system of the calibrated pattern `kind` resolves: the
/// earlier cascade tests pass on it and `kind` decides, so one
/// `run_pipeline` over it is `kind`'s resolving latency (the Table 6
/// view of `table6`, `stage_times`, `solver_core`, the recorded snapshot
/// and the `cascade` micro-benchmarks).
///
/// # Panics
///
/// If the pattern no longer parses, lowers or reaches the cascade.
#[must_use]
pub fn calibrated_system(kind: TestKind) -> System {
    let src = match kind {
        TestKind::Svpc => "for i = 1 to 10 { a[i + 3] = a[i] + 1; }",
        TestKind::Acyclic => "for i = 1 to 10 { for j = i to 10 { a[j + 2] = a[j] + 1; } }",
        TestKind::LoopResidue => "for i = 1 to 10 { for j = i to i + 3 { a[j] = a[j + 1] + 1; } }",
        TestKind::FourierMotzkin => {
            "for i = 1 to 10 { for j = 1 to 10 { a[2 * i + j] = a[i + 2 * j + 1] + 1; } }"
        }
    };
    let program = parse_program(src).expect("pattern parses");
    let set = extract_accesses(&program);
    let pairs = reference_pairs(&set, false);
    let problem = build_problem(pairs[0], true).expect("pattern is affine");
    let GcdOutcome::Reduced(reduced) = gcd_preprocess(&problem).expect("no overflow") else {
        panic!("pattern must reach the cascade");
    };
    reduced.system
}

/// Formats a measured/paper column pair, e.g. `613 (613)`.
#[must_use]
pub fn cell(measured: u64, paper: u32) -> String {
    format!("{measured} ({paper})")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dda_perfect::SPECS;

    #[test]
    fn table1_shape_matches_paper() {
        // At 5% scale the attribution must match the spec per program
        // (templates are calibrated). Symbolic pairs resolve through
        // regular tests, so each test column may exceed its spec count by
        // at most the symbolic allowance.
        let suite = dda_perfect::perfect_suite(0.05);
        let runs = run_suite(&suite, table1_config());
        for (run, spec) in runs.iter().zip(&SPECS) {
            let scaled = |c: u32| -> u64 {
                if c == 0 {
                    0
                } else {
                    (((f64::from(c)) * 0.05).round() as u64).max(1)
                }
            };
            assert_eq!(run.stats.constant, scaled(spec.constant), "{}", run.name);
            assert_eq!(run.stats.gcd_independent, scaled(spec.gcd), "{}", run.name);
            let sym = scaled(spec.symbolic);
            let cols = [
                (0, spec.svpc),
                (1, spec.acyclic),
                (2, spec.loop_residue),
                (3, spec.fourier_motzkin),
            ];
            for (idx, expected) in cols {
                let got = run.stats.base_tests.calls[idx];
                let lo = scaled(expected);
                assert!(
                    got >= lo && got <= lo + sym,
                    "{}: column {idx} got {got}, expected {lo}..={}",
                    run.name,
                    lo + sym
                );
            }
            assert_eq!(
                run.stats.base_tests.total(),
                scaled(spec.svpc)
                    + scaled(spec.acyclic)
                    + scaled(spec.loop_residue)
                    + scaled(spec.fourier_motzkin)
                    + sym,
                "{}: total tests",
                run.name
            );
            assert_eq!(run.stats.assumed, 0, "{}", run.name);
        }
    }

    #[test]
    fn xspace_system_equivalent() {
        use dda_core::problem::build_problem;
        use dda_ir::{extract_accesses, parse_program, reference_pairs};
        let p = parse_program("for i = 1 to 10 { a[i] = a[i + 3]; }").unwrap();
        let set = extract_accesses(&p);
        let pairs = reference_pairs(&set, false);
        let problem = build_problem(pairs[0], true).unwrap();
        let sys = xspace_system(&problem);
        // a[i] meets a[i′ + 3] when i = i′ + 3: (7, 4) is a witness.
        assert_eq!(sys.is_satisfied_by(&[7, 4]), Some(true));
        assert_eq!(sys.is_satisfied_by(&[7, 5]), Some(false));
    }
}
