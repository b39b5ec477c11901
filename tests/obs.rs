//! Determinism proptests: observability never changes analysis results.
//!
//! The hard invariant of the `dda-obs` layer is that probes only watch.
//! These properties pin it down end to end:
//!
//! 1. A serial analyzer run with a [`MetricsProbe`] (and a
//!    [`SpanRecorder`]) attached produces reports and statistics
//!    bit-identical to a bare run — `ProgramReport: PartialEq` covers
//!    per-pair verdicts, vectors, distances, cache flags and the full
//!    `AnalysisStats`.
//! 2. The engine — whose metrics registry is always on — matches the
//!    bare serial analyzer at every worker/shard combination, so the
//!    always-on instrumentation cannot perturb batch results either.
//! 3. Request-scoped tracing is invisible: `analyze_batch` /
//!    `graph_batch` with a [`TraceContext`] attached produce reports,
//!    stats, spliced/resolved splits, and rendered JSONL bit-identical
//!    to the same calls without one — across worker and shard counts,
//!    and on both cold and warm memo tables.
//! 4. The flight recorder stays off the analysis path: a capture
//!    directory that cannot be created degrades to a metered error
//!    counter, never an analysis failure.

use dda::core::{AnalyzerConfig, DependenceAnalyzer, MemoMode, ProgramReport, SharedMemo};
use dda::engine::{analyze_batch, graph_batch, Deadline, Engine, EngineConfig};
use dda::graph::render::parallel_json_line;
use dda::ir::{parse_program, passes, Program};
use dda::obs::{MetricsProbe, MetricsRegistry, SpanRecorder, TraceContext, TraceId};
use dda::serve::render::batch_json_line;
use proptest::prelude::*;

/// A small program mixing affine and symbolic subscripts over 1–2
/// loops, enough to reach every cascade stage and both memo tables.
fn arb_program() -> impl Strategy<Value = String> {
    (1usize..=2)
        .prop_flat_map(|depth| {
            let bounds = proptest::collection::vec((0i64..=2, 2i64..=6), depth);
            let stmts = proptest::collection::vec(
                (
                    proptest::collection::vec(-2i64..=2, depth),
                    -4i64..=4,
                    proptest::collection::vec(-2i64..=2, depth),
                    -4i64..=4,
                    0u8..=9,
                ),
                1..=2,
            );
            (Just(depth), bounds, stmts)
        })
        .prop_map(|(depth, bounds, stmts)| {
            let mut src = String::new();
            for (k, (lo, hi)) in bounds.iter().enumerate() {
                src.push_str(&format!("for v{k} = {lo} to {hi} {{ "));
            }
            let sub = |coeffs: &[i64], c: i64| {
                let mut s = String::new();
                for (k, a) in coeffs.iter().enumerate() {
                    if *a != 0 {
                        if !s.is_empty() {
                            s.push_str(" + ");
                        }
                        s.push_str(&format!("{a} * v{k}"));
                    }
                }
                if s.is_empty() {
                    format!("{c}")
                } else {
                    format!("{s} + {c}")
                }
            };
            let mut symbolic = false;
            for (wc, w0, rc, r0, kind) in &stmts {
                let mut read = sub(rc, *r0);
                if *kind == 0 {
                    read = format!("{read} + n");
                    symbolic = true;
                }
                src.push_str(&format!("a[{}] = a[{read}] + 1; ", sub(wc, *w0)));
            }
            for _ in 0..depth {
                src.push_str("} ");
            }
            if symbolic {
                format!("read(n); {src}")
            } else {
                src
            }
        })
}

fn parse_batch(sources: &[String]) -> Vec<Program> {
    sources
        .iter()
        .map(|s| {
            let mut p = parse_program(s).expect("generated programs parse");
            passes::normalize(&mut p);
            p
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Serial analyzer: bare vs metrics-probed vs span-probed runs are
    /// bit-identical, for every memo mode.
    #[test]
    fn serial_results_identical_with_metrics_attached(
        sources in proptest::collection::vec(arb_program(), 1..=3),
    ) {
        let programs = parse_batch(&sources);
        for memo in [MemoMode::Off, MemoMode::Simple, MemoMode::Improved] {
            let config = AnalyzerConfig { memo, ..AnalyzerConfig::default() };

            let mut bare = DependenceAnalyzer::with_config(config);
            let want: Vec<ProgramReport> =
                programs.iter().map(|p| bare.analyze_program(p)).collect();

            let registry = MetricsRegistry::new();
            let mut probe = MetricsProbe::new(&registry);
            let mut metered = DependenceAnalyzer::with_config(config);
            let got: Vec<ProgramReport> = programs
                .iter()
                .map(|p| metered.analyze_program_probed(p, &mut probe))
                .collect();
            prop_assert_eq!(&got, &want, "metrics probe changed results (memo {:?})", memo);
            prop_assert_eq!(metered.stats(), bare.stats());

            let mut spans = SpanRecorder::new();
            let mut spanned = DependenceAnalyzer::with_config(config);
            let got: Vec<ProgramReport> = programs
                .iter()
                .map(|p| {
                    spans.begin_program("prog");
                    spanned.analyze_program_probed(p, &mut spans)
                })
                .collect();
            prop_assert_eq!(&got, &want, "span recorder changed results (memo {:?})", memo);
            prop_assert_eq!(spanned.stats(), bare.stats());
        }
    }

    /// Engine (metrics always on) vs bare serial analyzer, across
    /// worker and shard counts.
    #[test]
    fn engine_results_identical_across_workers_and_shards(
        sources in proptest::collection::vec(arb_program(), 1..=3),
    ) {
        let programs = parse_batch(&sources);
        let mut serial = DependenceAnalyzer::new();
        let want: Vec<ProgramReport> =
            programs.iter().map(|p| serial.analyze_program(p)).collect();
        for workers in [1usize, 4] {
            for shards in [1usize, 3] {
                let mut engine = Engine::with_config(EngineConfig {
                    workers,
                    shards,
                    memo_mode: MemoMode::Improved,
                    analyzer: AnalyzerConfig::default(),
                    check: false,
                });
                let got = engine.analyze_programs(&programs);
                prop_assert_eq!(
                    &got, &want,
                    "engine diverged at workers={} shards={}", workers, shards
                );
                prop_assert_eq!(engine.stats(), serial.stats());
            }
        }
    }

    /// Request-scoped tracing is pure telemetry: the traced batch entry
    /// points match the untraced ones bit for bit — reports, cumulative
    /// stats, the incremental spliced/resolved split, and the service's
    /// rendered JSONL — on cold *and* warm memo tables, across
    /// worker/shard combinations.
    #[test]
    fn traced_batches_identical_to_untraced(
        sources in proptest::collection::vec(arb_program(), 1..=3),
    ) {
        let programs = parse_batch(&sources);
        for (workers, shards) in [(1usize, 1usize), (4, 3)] {
            let config = EngineConfig {
                workers,
                shards,
                memo_mode: MemoMode::Improved,
                analyzer: AnalyzerConfig::default(),
                check: false,
            };
            let bare_memo = SharedMemo::new(shards);
            let bare_obs = MetricsRegistry::new();
            let traced_memo = SharedMemo::new(shards);
            let traced_obs = MetricsRegistry::new();

            // Round 1 runs cold, round 2 re-analyzes the same batch on
            // the now-warm tables (memo hits flow through the traced
            // forwarders too).
            for round in ["cold", "warm"] {
                let want = analyze_batch(
                    &config, &bare_memo, &bare_obs, &programs, Deadline::none(), None,
                );
                let ctx = TraceContext::new(TraceId(0xdda0_0b50_0000_0001));
                let got = analyze_batch(
                    &config, &traced_memo, &traced_obs, &programs,
                    Deadline::none(), Some(&ctx),
                );
                prop_assert_eq!(
                    &got.reports, &want.reports,
                    "tracing changed verdicts ({} round, workers={} shards={})",
                    round, workers, shards
                );
                prop_assert_eq!(&got.stats, &want.stats);
                prop_assert_eq!(got.spliced, want.spliced);
                prop_assert_eq!(got.resolved, want.resolved);
                prop_assert_eq!(got.deadline_exceeded, want.deadline_exceeded);
                for (w, g) in want.reports.iter().zip(&got.reports) {
                    prop_assert_eq!(
                        batch_json_line("p.loop", w),
                        batch_json_line("p.loop", g),
                        "tracing changed rendered JSONL ({} round)", round
                    );
                }
            }

            // Graph batches too: verdict JSONL must match untraced.
            let g_want = graph_batch(
                &config, &bare_memo, &bare_obs, &programs, Deadline::none(), None,
            );
            let ctx = TraceContext::new(TraceId(7));
            let g_got = graph_batch(
                &config, &traced_memo, &traced_obs, &programs,
                Deadline::none(), Some(&ctx),
            );
            prop_assert_eq!(&g_got.batch.reports, &g_want.batch.reports);
            for (w, g) in g_want.graphs.iter().zip(&g_got.graphs) {
                prop_assert_eq!(
                    parallel_json_line("p.loop", w),
                    parallel_json_line("p.loop", g),
                    "tracing changed graph JSONL"
                );
            }
        }
    }
}

/// Capture-dir write failure degrades to a metered counter: pointing
/// the store at a path whose parent is a regular file makes every
/// capture attempt fail, the error counter ticks, and nothing panics
/// or propagates into the analysis path.
#[test]
fn capture_failure_is_metered_not_fatal() {
    use dda::obs::{CaptureStore, RequestSummary};
    let dir = std::env::temp_dir().join(format!("dda_obs_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, "not a directory").unwrap();

    let store = CaptureStore::new(blocker.join("captures"), 0, 4);
    let summary = RequestSummary::blank(TraceId(0x77), "/analyze");
    store.capture(&summary);
    store.capture(&summary);
    assert_eq!(store.errors(), 2, "each failed capture must be metered");
    assert_eq!(store.captured(), 0);
    assert!(store.read(TraceId(0x77)).is_none());
    std::fs::remove_dir_all(&dir).ok();
}
