//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! - cascade vs Fourier–Motzkin-only on the reduced system;
//! - extended-GCD preprocessing vs FM on the raw x-space system (the
//!   constraint/variable reduction the paper credits it with);
//! - memoization off / simple / improved;
//! - direction-vector pruning none / unused-vars / distance / both.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use dda_bench::xspace_system;
use dda_core::fourier_motzkin::{fourier_motzkin, FmLimits};
use dda_core::gcd::{gcd_preprocess, GcdOutcome};
use dda_core::pipeline::{run_pipeline, NullProbe, PipelineConfig};
use dda_core::problem::build_problem;
use dda_core::{AnalyzerConfig, DependenceAnalyzer, MemoMode, TestKind};
use dda_ir::{extract_accesses, parse_program, reference_pairs};
use dda_perfect::{generate, SPECS};

const PATTERNS: &[&str] = &[
    "for i = 1 to 10 { a[i + 3] = a[i] + 1; }",
    "for i = 1 to 10 { for j = i to 10 { a[j + 2] = a[j] + 1; } }",
    "for i = 1 to 10 { for j = 1 to 10 { a[2 * i + j] = a[i + 2 * j + 1] + 1; } }",
    "for i1 = 1 to 10 { for i2 = 1 to 10 { a[i1][i2] = a[i2 + 10][i1 + 9]; } }",
];

fn bench_cascade_vs_fm(c: &mut Criterion) {
    let problems: Vec<_> = PATTERNS
        .iter()
        .map(|src| {
            let p = parse_program(src).unwrap();
            let set = extract_accesses(&p);
            let pairs = reference_pairs(&set, false);
            build_problem(pairs[0], true).unwrap()
        })
        .collect();
    let reduced: Vec<_> = problems
        .iter()
        .map(|p| match gcd_preprocess(p).unwrap() {
            GcdOutcome::Reduced(r) => r,
            GcdOutcome::Independent => unreachable!(),
        })
        .collect();

    // Every variant runs through run_pipeline — the exact code path the
    // analyzer uses — so ablations measure configuration, not a parallel
    // reimplementation.
    let mut group = c.benchmark_group("cascade_order");
    let variants = [
        ("cascade", PipelineConfig::full()),
        (
            "fm_only",
            PipelineConfig::from_tests(&[TestKind::FourierMotzkin]).expect("valid order"),
        ),
        ("no_svpc", PipelineConfig::full().without(TestKind::Svpc)),
        (
            "fm_first",
            PipelineConfig::from_tests(&[
                TestKind::FourierMotzkin,
                TestKind::Svpc,
                TestKind::Acyclic,
                TestKind::LoopResidue,
            ])
            .expect("valid order"),
        ),
    ];
    for (label, cfg) in variants {
        group.bench_function(label, |b| {
            b.iter(|| {
                for r in &reduced {
                    std::hint::black_box(run_pipeline(
                        &r.system,
                        &cfg,
                        FmLimits::default(),
                        &mut NullProbe,
                    ));
                }
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("gcd_preprocessing");
    group.bench_function("with_gcd_then_cascade", |b| {
        b.iter(|| {
            for p in &problems {
                let GcdOutcome::Reduced(r) = gcd_preprocess(p).unwrap() else {
                    continue;
                };
                std::hint::black_box(run_pipeline(
                    &r.system,
                    &PipelineConfig::full(),
                    FmLimits::default(),
                    &mut NullProbe,
                ));
            }
        })
    });
    group.bench_function("fm_on_raw_xspace", |b| {
        b.iter(|| {
            for p in &problems {
                let sys = xspace_system(p);
                std::hint::black_box(fourier_motzkin(sys.num_vars, &sys.constraints));
            }
        })
    });
    group.finish();
}

fn bench_memo_modes(c: &mut Criterion) {
    let spec = SPECS.iter().find(|s| s.name == "SR").unwrap(); // most repetitive
    let prog = generate(spec, 0.05);
    let mut group = c.benchmark_group("memo_mode");
    for (label, mode) in [
        ("off", MemoMode::Off),
        ("simple", MemoMode::Simple),
        ("improved", MemoMode::Improved),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut an = DependenceAnalyzer::with_config(AnalyzerConfig {
                    memo: mode,
                    ..AnalyzerConfig::default()
                });
                std::hint::black_box(an.analyze_program(&prog.program))
            })
        });
    }
    group.finish();
}

fn bench_pruning_modes(c: &mut Criterion) {
    let spec = SPECS.iter().find(|s| s.name == "NA").unwrap(); // direction-heavy
    let prog = generate(spec, 0.05);
    let mut group = c.benchmark_group("direction_pruning");
    for (label, unused, distance) in [
        ("none", false, false),
        ("unused_only", true, false),
        ("distance_only", false, true),
        ("both", true, true),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut an = DependenceAnalyzer::with_config(AnalyzerConfig {
                    memo: MemoMode::Improved,
                    prune_unused: unused,
                    prune_distance: distance,
                    ..AnalyzerConfig::default()
                });
                std::hint::black_box(an.analyze_program(&prog.program))
            })
        });
    }
    group.finish();
}

fn bench_extensions(c: &mut Criterion) {
    // Symmetric memoization on a workload full of mirrored pairs.
    let mut src = String::new();
    for k in 0..100 {
        if k % 2 == 0 {
            src.push_str(&format!("for i = 1 to 50 {{ x{k}[i + 1] = x{k}[i]; }}\n"));
        } else {
            src.push_str(&format!("for i = 1 to 50 {{ x{k}[i] = x{k}[i + 1]; }}\n"));
        }
    }
    let program = parse_program(&src).unwrap();
    let mut group = c.benchmark_group("memo_symmetry");
    for (label, sym) in [("off", false), ("on", true)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut an = DependenceAnalyzer::with_config(AnalyzerConfig {
                    memo_symmetry: sym,
                    ..AnalyzerConfig::default()
                });
                std::hint::black_box(an.analyze_program(&program))
            })
        });
    }
    group.finish();

    // Separable direction computation on decoupled 2-D refs (unpruned so
    // both levels actually refine).
    let src = "for i = 1 to 12 { for j = 1 to 12 { a[2 * i][2 * j] = a[i][j]; } }";
    let program = parse_program(src).unwrap();
    let mut group = c.benchmark_group("separable_directions");
    for (label, sep) in [("hierarchical", false), ("separable", true)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut an = DependenceAnalyzer::with_config(AnalyzerConfig {
                    memo: MemoMode::Off,
                    prune_distance: false,
                    prune_unused: false,
                    separable_directions: sep,
                    ..AnalyzerConfig::default()
                });
                std::hint::black_box(an.analyze_program(&program))
            })
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(15)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1200))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_cascade_vs_fm, bench_memo_modes, bench_pruning_modes, bench_extensions
}
criterion_main!(benches);
