//! Table 6: cost of dependence testing.
//!
//! The paper timed its analyzer on a 12-MIPS MIPS R2000 against `f77 -O3`
//! compile times, reporting per-test averages (SVPC ≈ 0.1 ms, Acyclic ≈
//! 0.5 ms, Loop Residue ≈ 0.9 ms, Fourier–Motzkin ≈ 3 ms) and a ~3%
//! compile-time overhead. Absolute 1991 numbers are not reproducible; this
//! binary reproduces the *structure*: per-test average latency (same
//! ordering), per-program analysis time, and the overhead relative to a
//! simulated baseline compilation (parsing + normalization + access
//! extraction, standing in for scalar optimization).

use std::time::{Duration, Instant};

use dda_bench::{run_suite, suite_from_env};
use dda_core::fourier_motzkin::FmLimits;
use dda_core::gcd::{gcd_preprocess, GcdOutcome};
use dda_core::pipeline::{run_pipeline, NullProbe, PipelineConfig};
use dda_core::problem::build_problem;
use dda_core::{AnalyzerConfig, MemoMode, TestKind};
use dda_ir::{extract_accesses, parse_program, passes, reference_pairs};

/// Measures the average latency of a cascade that resolves via `kind`,
/// using a calibrated representative pattern.
fn time_test(kind: TestKind) -> Duration {
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
    let problem =
        build_problem(pairs[0].a, pairs[0].b, pairs[0].common, true).expect("pattern is affine");
    let GcdOutcome::Reduced(reduced) = gcd_preprocess(&problem).expect("no overflow") else {
        panic!("pattern must reach the cascade");
    };
    // Warm up, then measure.
    let iters = 2_000u32;
    for _ in 0..100 {
        std::hint::black_box(run_pipeline(
            &reduced.system,
            &PipelineConfig::full(),
            FmLimits::default(),
            &mut NullProbe,
        ));
    }
    let start = Instant::now();
    for _ in 0..iters {
        let out = std::hint::black_box(run_pipeline(
            &reduced.system,
            &PipelineConfig::full(),
            FmLimits::default(),
            &mut NullProbe,
        ));
        assert_eq!(out.used, kind, "calibration drift");
    }
    start.elapsed() / iters
}

fn main() {
    println!("Table 6: cost of dependence testing\n");
    println!("Per-test average latency (paper, on a 1991 MIPS R2000):");
    let paper_us = [100.0, 500.0, 900.0, 3000.0];
    for (kind, paper) in TestKind::ALL.into_iter().zip(paper_us) {
        let d = time_test(kind);
        println!(
            "  {kind:<16} {:>9.2} us/test   (paper ~{:.0} us)",
            d.as_secs_f64() * 1e6,
            paper
        );
    }

    println!(
        "\nPer-program analysis time. The paper compared against `f77 -O3`\n\
         (~3% overhead); no 1991 Fortran compiler is available, so the\n\
         \"front end\" column (parse + normalize + extract, x3) is only a\n\
         crude floor for the rest of a compiler — the meaningful measures\n\
         are the absolute times and ms per 1,000 source lines:"
    );
    println!(
        "{:<8} {:>12} {:>15} {:>14}",
        "Program", "dep (ms)", "front end (ms)", "ms/1k lines"
    );
    let suite = suite_from_env();
    let runs = run_suite(
        &suite,
        AnalyzerConfig {
            memo: MemoMode::Improved,
            compute_directions: true,
            ..AnalyzerConfig::default()
        },
    );
    let mut dep_total = Duration::ZERO;
    let mut base_total = Duration::ZERO;
    for (run, prog) in runs.iter().zip(&suite) {
        // Simulated "rest of the compiler": re-parse, normalize, extract.
        let start = Instant::now();
        for _ in 0..3 {
            let mut p = parse_program(&prog.source).expect("parses");
            passes::normalize(&mut p);
            std::hint::black_box(extract_accesses(&p));
        }
        let baseline = start.elapsed();
        dep_total += run.elapsed;
        base_total += baseline;
        println!(
            "{:<8} {:>12.2} {:>15.2} {:>14.2}",
            run.name,
            run.elapsed.as_secs_f64() * 1e3,
            baseline.as_secs_f64() * 1e3,
            run.elapsed.as_secs_f64() * 1e6 / f64::from(run.lines),
        );
    }
    let total_lines: u32 = runs.iter().map(|r| r.lines).sum();
    println!(
        "\nTOTAL: dependence testing {:.1} ms for {} (paper-equivalent) source \
         lines = {:.2} ms per 1,000 lines; front-end proxy {:.1} ms.\n\
         The paper's own totals were ~31 s of dependence testing against \
         ~1,477 s of f77 -O3 on a 12-MIPS machine (~3%).",
        dep_total.as_secs_f64() * 1e3,
        total_lines,
        dep_total.as_secs_f64() * 1e6 / f64::from(total_lines),
        base_total.as_secs_f64() * 1e3,
    );
}
