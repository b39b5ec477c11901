//! Micro-benchmarks for the individual dependence tests — the per-test
//! cost ordering behind the paper's cascade (Section 7 reports SVPC ≈
//! 0.1 ms, Acyclic ≈ 0.5 ms, Loop Residue ≈ 0.9 ms, FM ≈ 3 ms on a 1991
//! MIPS R2000; only the ordering is expected to survive 35 years).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use dda_core::fourier_motzkin::FmLimits;
use dda_core::gcd::{gcd_preprocess, GcdOutcome, Reduced};
use dda_core::memo::{bounds_key, nobounds_key};
use dda_core::pipeline::{run_pipeline, NullProbe, PipelineConfig};
use dda_core::problem::{build_problem, DependenceProblem};
use dda_ir::{extract_accesses, parse_program, reference_pairs};

fn problem_for(src: &str) -> DependenceProblem {
    let p = parse_program(src).expect("parse");
    let set = extract_accesses(&p);
    let pairs = reference_pairs(&set, false);
    build_problem(pairs[0].a, pairs[0].b, pairs[0].common, true).expect("affine")
}

fn reduced_for(src: &str) -> Reduced {
    let problem = problem_for(src);
    match gcd_preprocess(&problem).expect("no overflow") {
        GcdOutcome::Reduced(r) => r,
        GcdOutcome::Independent => panic!("pattern must reach the cascade"),
    }
}

fn bench_cascade(c: &mut Criterion) {
    let cases = [
        ("svpc", "for i = 1 to 10 { a[i + 3] = a[i] + 1; }"),
        (
            "acyclic",
            "for i = 1 to 10 { for j = i to 10 { a[j + 2] = a[j] + 1; } }",
        ),
        (
            "loop_residue",
            "for i = 1 to 10 { for j = i to i + 3 { a[j] = a[j + 1] + 1; } }",
        ),
        (
            "fourier_motzkin",
            "for i = 1 to 10 { for j = 1 to 10 { a[2 * i + j] = a[i + 2 * j + 1] + 1; } }",
        ),
    ];
    let mut group = c.benchmark_group("cascade");
    for (name, src) in cases {
        let reduced = reduced_for(src);
        group.bench_function(name, |b| {
            b.iter(|| {
                std::hint::black_box(run_pipeline(
                    &reduced.system,
                    &PipelineConfig::full(),
                    FmLimits::default(),
                    &mut NullProbe,
                ))
            })
        });
    }
    group.finish();
}

fn bench_gcd(c: &mut Criterion) {
    let coupled =
        problem_for("for i1 = 1 to 10 { for i2 = 1 to 10 { a[i1][i2] = a[i2 + 10][i1 + 9]; } }");
    let simple = problem_for("for i = 1 to 10 { a[i + 3] = a[i]; }");
    let mut group = c.benchmark_group("gcd_preprocess");
    group.bench_function("one_equation", |b| {
        b.iter(|| std::hint::black_box(gcd_preprocess(&simple)))
    });
    group.bench_function("coupled_2d", |b| {
        b.iter(|| std::hint::black_box(gcd_preprocess(&coupled)))
    });
    group.finish();
}

fn bench_memo_keys(c: &mut Criterion) {
    let problem = problem_for("for i = 1 to 10 { for j = 1 to 10 { a[i][j + 2] = a[i][j] + 1; } }");
    let mut group = c.benchmark_group("memo");
    group.bench_function("nobounds_key", |b| {
        b.iter(|| std::hint::black_box(nobounds_key(&problem, true)))
    });
    group.bench_function("bounds_key_simple", |b| {
        b.iter(|| std::hint::black_box(bounds_key(&problem, false)))
    });
    group.bench_function("bounds_key_improved", |b| {
        b.iter(|| std::hint::black_box(bounds_key(&problem, true)))
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(30)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(900))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_cascade, bench_gcd, bench_memo_keys
}
criterion_main!(benches);
