//! Micro-benchmarks for the individual dependence tests — the per-test
//! cost ordering behind the paper's cascade (Section 7 reports SVPC ≈
//! 0.1 ms, Acyclic ≈ 0.5 ms, Loop Residue ≈ 0.9 ms, FM ≈ 3 ms on a 1991
//! MIPS R2000; only the ordering is expected to survive 35 years).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use dda_bench::calibrated_system;
use dda_core::fourier_motzkin::FmLimits;
use dda_core::gcd::gcd_preprocess;
use dda_core::memo::{nobounds_columns, write_full_key, write_nobounds_key};
use dda_core::pipeline::{run_pipeline, NullProbe, PipelineConfig};
use dda_core::problem::{build_problem, DependenceProblem};
use dda_core::TestKind;
use dda_ir::{extract_accesses, parse_program, reference_pairs};

fn problem_for(src: &str) -> DependenceProblem {
    let p = parse_program(src).expect("parse");
    let set = extract_accesses(&p);
    let pairs = reference_pairs(&set, false);
    build_problem(pairs[0], true).expect("affine")
}

fn bench_cascade(c: &mut Criterion) {
    let cases = [
        ("svpc", TestKind::Svpc),
        ("acyclic", TestKind::Acyclic),
        ("loop_residue", TestKind::LoopResidue),
        ("fourier_motzkin", TestKind::FourierMotzkin),
    ];
    let mut group = c.benchmark_group("cascade");
    for (name, kind) in cases {
        let system = calibrated_system(kind);
        group.bench_function(name, |b| {
            b.iter(|| {
                std::hint::black_box(run_pipeline(
                    &system,
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
    // Keys are written into reused buffers, as the analysis driver does.
    let (mut key, mut spare) = (Vec::new(), Vec::new());
    let mut group = c.benchmark_group("memo");
    group.bench_function("nobounds_key", |b| {
        b.iter(|| {
            key.clear();
            let kept = nobounds_columns(&problem, true);
            write_nobounds_key(&problem, &kept, &mut key);
            std::hint::black_box((&key, kept));
        })
    });
    for (name, improved) in [("bounds_key_simple", false), ("bounds_key_improved", true)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                key.clear();
                let levels = write_full_key(&problem, improved, false, &mut key, &mut spare);
                std::hint::black_box((&key, levels));
            })
        });
    }
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
