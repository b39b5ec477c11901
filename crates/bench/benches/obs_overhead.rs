//! Overhead guard for the always-on observability layer.
//!
//! Two probes analyze the same corpus (the calibrated cascade patterns
//! plus the paper's running example, memoization off so every pair
//! emits timed events): the zero-cost `NullProbe` baseline and the
//! `MetricsProbe` feeding the registry, which `--stats`, `--metrics`
//! and the engine all read. The per-event recording cost is also
//! measured bare.
//!
//! The numbers land in `results/obs_overhead.txt`; the probe path
//! being allocation-free is asserted separately by the counting
//! allocator in `crates/obs/tests/alloc.rs` — this bench documents
//! that the remaining cost (a few relaxed atomic adds per event) stays
//! in the noise of an analysis run.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use dda_core::pipeline::{GcdVerdict, Probe, StageVerdict, TraceEvent};
use dda_core::{AnalyzerConfig, DependenceAnalyzer, MemoMode, TestKind};
use dda_ir::{parse_program, passes, Program};
use dda_obs::{MetricsProbe, MetricsRegistry};

fn corpus() -> Vec<Program> {
    [
        "for i = 1 to 10 { a[i + 3] = a[i] + 1; }",
        "for i = 1 to 10 { for j = i to 10 { a[j + 2] = a[j] + 1; } }",
        "for i = 1 to 10 { for j = i to i + 3 { a[j] = a[j + 1] + 1; } }",
        "for i = 1 to 10 { for j = 1 to 10 { a[2 * i + j] = a[i + 2 * j + 1] + 1; } }",
        "for i = 1 to 100 { for j = 1 to 100 { a[i][j] = a[i][j + 1] + a[i + 1][j]; } }",
    ]
    .iter()
    .map(|src| {
        let mut p = parse_program(src).expect("corpus parses");
        passes::normalize(&mut p);
        p
    })
    .collect()
}

fn analyzer() -> DependenceAnalyzer {
    DependenceAnalyzer::with_config(AnalyzerConfig {
        memo: MemoMode::Off,
        ..AnalyzerConfig::default()
    })
}

fn bench_probe_overhead(c: &mut Criterion) {
    let programs = corpus();
    let mut group = c.benchmark_group("obs_overhead");

    group.bench_function("analyze/null_probe", |b| {
        b.iter(|| {
            let mut a = analyzer();
            for p in &programs {
                std::hint::black_box(a.analyze_program(p));
            }
        })
    });
    group.bench_function("analyze/metrics_probe", |b| {
        let registry = MetricsRegistry::new();
        b.iter(|| {
            let mut a = analyzer();
            let mut probe = MetricsProbe::new(&registry);
            for p in &programs {
                std::hint::black_box(a.analyze_program_probed(p, &mut probe));
            }
        })
    });

    // The bare per-event cost, outside any analysis: one Stage and one
    // GCD event through the probe per iteration.
    group.bench_function("record/stage_and_gcd_event", |b| {
        let registry = MetricsRegistry::new();
        let mut probe = MetricsProbe::new(&registry);
        let mut n = 0u64;
        b.iter(|| {
            n = n.wrapping_add(1);
            probe.record(TraceEvent::Stage {
                test: TestKind::Svpc,
                verdict: StageVerdict::Independent,
                nanos: n,
            });
            probe.record(TraceEvent::Gcd {
                verdict: GcdVerdict::Lattice,
                cached: false,
                nanos: n,
            });
        })
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_probe_overhead
}
criterion_main!(benches);
