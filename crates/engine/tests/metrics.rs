//! Property tests for the engine's memo and telemetry accounting.
//!
//! Two invariants, across worker and shard counts:
//!
//! 1. **Shard-op conservation** — every operation the sharded tables
//!    perform is counted on exactly one shard, so the per-shard op
//!    counts sum to `queries + inserts` for each table.
//! 2. **Stats equivalence** — the memo counters inside the engine's
//!    cumulative [`AnalysisStats`] (the per-pair accounting replayed in
//!    the assembly wave) equal a serial analyzer's, bit for bit. The
//!    broader equivalence suite already pins whole reports; this test
//!    names the memo counters so a telemetry regression fails here
//!    with a focused message.
//!
//! Plus one exposition-validity check: a snapshot of an engine run
//! joined with a service section whose request counts are split by
//! `(endpoint, outcome)` must render a Prometheus exposition that
//! [`dda_obs::prom::parse_exposition`] accepts (declared types, no
//! duplicate series), with the labeled `dda_serve_requests_total`
//! samples carrying the exact per-cell counts.

use dda_core::{AnalyzerConfig, DependenceAnalyzer, MemoMode};
use dda_engine::{Engine, EngineConfig};
use dda_ir::{parse_program, passes, Program};
use dda_obs::prom::parse_exposition;
use dda_obs::{MetricsSnapshot, ServiceSection};
use proptest::prelude::*;

/// A small affine program: 1–2 loops around 1–2 statements over one
/// array, with enough coefficient spread to exercise both memo tables.
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
            for (wc, w0, rc, r0) in &stmts {
                src.push_str(&format!("a[{}] = a[{}] + 1; ", sub(wc, *w0), sub(rc, *r0)));
            }
            for _ in 0..depth {
                src.push_str("} ");
            }
            src
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

    #[test]
    fn shard_ops_conserve_table_traffic(
        sources in proptest::collection::vec(arb_program(), 1..=3),
        workers in 1usize..=4,
        shards in 1usize..=5,
    ) {
        let programs = parse_batch(&sources);
        let mut engine = Engine::with_config(EngineConfig {
            workers,
            shards,
            memo_mode: MemoMode::Improved,
            analyzer: AnalyzerConfig::default(),
            check: false,
        });
        engine.analyze_programs(&programs);
        let memo = engine.memo();
        for (label, table_ops, queries, inserts) in [
            (
                "full",
                memo.full.shard_ops(),
                memo.full.queries(),
                memo.full.inserts(),
            ),
            (
                "gcd",
                memo.gcd.shard_ops(),
                memo.gcd.queries(),
                memo.gcd.inserts(),
            ),
        ] {
            prop_assert_eq!(table_ops.len(), shards);
            let total: u64 = table_ops.iter().sum();
            prop_assert_eq!(
                total,
                queries + inserts,
                "{} table: shard ops must sum to queries + inserts",
                label
            );
        }
    }

    #[test]
    fn engine_memo_stats_match_serial(
        sources in proptest::collection::vec(arb_program(), 1..=3),
        workers in 1usize..=4,
        shards in 1usize..=5,
    ) {
        let programs = parse_batch(&sources);
        let mut serial = DependenceAnalyzer::new();
        for p in &programs {
            serial.analyze_program(p);
        }
        let mut engine = Engine::with_config(EngineConfig {
            workers,
            shards,
            memo_mode: MemoMode::Improved,
            analyzer: AnalyzerConfig::default(),
            check: false,
        });
        engine.analyze_programs(&programs);
        let (s, e) = (serial.stats(), engine.stats());
        prop_assert_eq!(e.memo_queries, s.memo_queries);
        prop_assert_eq!(e.memo_hits, s.memo_hits);
        prop_assert_eq!(e.gcd_memo_queries, s.gcd_memo_queries);
        prop_assert_eq!(e.gcd_memo_hits, s.gcd_memo_hits);
        // The registry is pure telemetry, but its wave accounting still
        // has exact structure: every pair-bearing wave item is counted.
        let reg = engine.metrics();
        prop_assert!(reg.tasks() >= programs.len() as u64);
        prop_assert_eq!(
            reg.worker_tasks().iter().sum::<u64>(),
            reg.tasks(),
            "per-worker task counts must sum to the wave total"
        );
    }
}

/// The exposition with outcome/endpoint-labeled request counters is
/// valid Prometheus text: parses cleanly, the labeled series carry the
/// exact counts, and the unlabeled legacy sample is gone once labels
/// are present.
#[test]
fn labeled_request_counters_render_a_valid_exposition() {
    let mut engine = Engine::with_config(EngineConfig {
        workers: 2,
        shards: 2,
        memo_mode: MemoMode::Improved,
        analyzer: AnalyzerConfig::default(),
        check: false,
    });
    let mut program = parse_program("for i = 1 to 9 { a[i + 1] = a[i]; }").unwrap();
    passes::normalize(&mut program);
    engine.analyze_programs(std::slice::from_ref(&program));

    let service = ServiceSection {
        in_flight: 1,
        max_in_flight: 8,
        requests: 12,
        shed: 2,
        deadline_exceeded: 1,
        requests_by: vec![
            ("/analyze", "ok", 8),
            ("/analyze", "deadline", 1),
            ("/batch", "error", 1),
            ("(accept)", "shed", 2),
        ],
    };
    let text = MetricsSnapshot::new(
        engine.metrics(),
        engine.stats(),
        engine.memo(),
        Some(service),
    )
    .to_prometheus();

    let exp = parse_exposition(&text).expect("exposition must parse");
    assert_eq!(
        exp.types
            .get("dda_serve_requests_total")
            .map(String::as_str),
        Some("counter")
    );
    for (endpoint, outcome, count) in [
        ("/analyze", "ok", 8.0),
        ("/analyze", "deadline", 1.0),
        ("/batch", "error", 1.0),
        ("(accept)", "shed", 2.0),
    ] {
        assert_eq!(
            exp.value(
                "dda_serve_requests_total",
                &[("endpoint", endpoint), ("outcome", outcome)],
            ),
            Some(count),
            "missing series endpoint={endpoint} outcome={outcome}"
        );
    }
    // The unlabeled sample is replaced, not duplicated.
    assert_eq!(exp.value("dda_serve_requests_total", &[]), None);
    // The engine-side series still render alongside.
    assert!(exp.value("dda_pairs_total", &[]).is_some());
    assert!(exp
        .value("dda_memo_queries_total", &[("table", "full")])
        .is_some());
}
