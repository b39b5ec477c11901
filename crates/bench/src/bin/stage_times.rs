//! Per-stage latency table from the instrumented pipeline.
//!
//! Two views, both recorded by the probes the analyzer itself threads
//! through its pipeline (no parallel timing harness):
//!
//! 1. Suite-wide distributions: the PERFECT suite analyzed with
//!    memoization off so every pair contributes timed samples, recorded
//!    through a [`MetricsProbe`] into the observability registry's
//!    log2-bucketed histograms — calls, totals, means, and the p50/p99
//!    spread per cascade stage. Cheap tests also *run* (and quickly
//!    pass) on systems they cannot decide, so the distributions blend
//!    deciding and passing calls; the quantiles make that visible where
//!    a bare mean hides it.
//! 2. Resolving latency per test: one calibrated pattern per test (the
//!    pattern each test resolves), timed through [`run_pipeline`] —
//!    earlier tests pass, the named test decides, and the whole pipeline
//!    run is the latency, one histogram sample per run. This is the view
//!    comparable to the paper's Table 6 and must reproduce its cost
//!    ordering: SVPC < Acyclic < Loop Residue < Fourier–Motzkin.
//!
//! Quantiles are log2-bucket upper bounds (see [`Histogram`]), so p50
//! and p99 read as "at most" figures with power-of-two resolution.

use dda_bench::suite_from_env;
use dda_core::fourier_motzkin::FmLimits;
use dda_core::gcd::{gcd_preprocess, GcdOutcome};
use dda_core::pipeline::run_pipeline;
use dda_core::problem::build_problem;
use dda_core::{AnalyzerConfig, DependenceAnalyzer, MemoMode, PipelineConfig, TestKind};
use dda_ir::{extract_accesses, parse_program, reference_pairs};
use dda_obs::{Histogram, LatencySummary, MetricsProbe, MetricsRegistry};

/// Latency distribution of the pipeline resolving `kind`'s calibrated
/// pattern: each sample is the sum of every stage that runs (earlier
/// tests pass first, then `kind` decides) — the paper's notion of
/// per-test latency.
fn resolving_latency(kind: TestKind) -> LatencySummary {
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
    let config = PipelineConfig::full();
    let histogram = Histogram::new();
    let registry = MetricsRegistry::new();
    let mut probe = MetricsProbe::new(&registry);
    for _ in 0..100 {
        std::hint::black_box(run_pipeline(
            &reduced.system,
            &config,
            FmLimits::default(),
            &mut probe,
        ));
    }
    let stage_nanos = || registry.stage_timings().nanos.iter().sum::<u64>();
    for _ in 0..2_000 {
        let before = stage_nanos();
        let out = std::hint::black_box(run_pipeline(
            &reduced.system,
            &config,
            FmLimits::default(),
            &mut probe,
        ));
        assert_eq!(out.used, kind, "calibration drift");
        histogram.record(stage_nanos() - before);
    }
    histogram.summary()
}

fn print_row(label: &str, s: LatencySummary) {
    println!(
        "{:<16} {:>9} {:>12.2} {:>12.3} {:>10.3} {:>10.3}",
        label,
        s.count,
        s.sum as f64 / 1e6,
        if s.count == 0 {
            0.0
        } else {
            s.sum as f64 / s.count as f64 / 1e3
        },
        s.p50.unwrap_or(0) as f64 / 1e3,
        s.p99.unwrap_or(0) as f64 / 1e3
    );
}

fn main() {
    println!("Per-stage latency (probed pipeline, memoization off)\n");
    let suite = suite_from_env();
    let config = AnalyzerConfig {
        memo: MemoMode::Off,
        ..AnalyzerConfig::default()
    };

    let registry = MetricsRegistry::new();
    let mut probe = MetricsProbe::new(&registry);
    for prog in &suite {
        // Fresh analyzer per program (the paper's per-compilation
        // setting); the probe accumulates across the whole suite.
        let mut analyzer = DependenceAnalyzer::with_config(config);
        std::hint::black_box(analyzer.analyze_program_probed(&prog.program, &mut probe));
    }

    println!(
        "{:<16} {:>9} {:>12} {:>12} {:>10} {:>10}",
        "Stage", "calls", "total (ms)", "mean (us)", "p50 (us)", "p99 (us)"
    );
    print_row("extended GCD", registry.gcd_latency());
    for kind in TestKind::ALL {
        print_row(&kind.to_string(), registry.stage_latency(kind));
    }

    println!(
        "\n(suite-wide figures blend deciding and quick-pass calls; the\n\
         resolving latency below is the Table 6-comparable view.\n\
         p50/p99 are log2-bucket upper bounds)\n"
    );

    println!("Pipeline latency per resolving test (calibrated patterns):");
    println!(
        "{:<16} {:>12} {:>10} {:>10}",
        "Resolved by", "mean (us)", "p50 (us)", "p99 (us)"
    );
    let means: Vec<f64> = TestKind::ALL
        .iter()
        .map(|&kind| {
            let s = resolving_latency(kind);
            let mean = s.sum as f64 / s.count as f64;
            println!(
                "{:<16} {:>12.3} {:>10.3} {:>10.3}",
                kind.to_string(),
                mean / 1e3,
                s.p50.unwrap_or(0) as f64 / 1e3,
                s.p99.unwrap_or(0) as f64 / 1e3
            );
            mean
        })
        .collect();
    let ordered = means.windows(2).all(|w| w[0] <= w[1]);
    println!(
        "\ncost ordering SVPC <= Acyclic <= Loop Residue <= Fourier-Motzkin: {}",
        if ordered { "holds" } else { "VIOLATED" }
    );
}
