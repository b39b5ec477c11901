//! Golden renderings of [`MetricsSnapshot`]: the full Prometheus and
//! JSON text of snapshots built from fixed recordings, byte for byte.
//!
//! Every recording carries fixed nanoseconds, so the log2 quantiles are
//! deterministic. The one value no test can fix is the wall time of a
//! memo file load (`dda_memo_load_nanos_total`, the `memo_load` object's
//! `"nanos"`): the golden files hold `<nanos>` there, and each test puts
//! the memo's own `memo_load_stats().nanos` in its place before comparing,
//! so the rendered value must be that field. On a mismatch the actual
//! rendering is written next to the test binary's scratch directory and
//! its path is named in the panic message.

use std::sync::Arc;

use dda_core::gcd::EqOutcome;
use dda_core::memo::MemoKey;
use dda_core::pipeline::{GcdVerdict, StageVerdict};
use dda_core::stats::AnalysisStats;
use dda_core::{SharedMemo, TestKind};
use dda_obs::{
    MemoTableKind, MetricsRegistry, MetricsSnapshot, ServiceSection, WaveReport, WorkerWork,
};

/// Renders one snapshot of the given sources as (Prometheus, JSON).
fn render(
    registry: &MetricsRegistry,
    stats: &AnalysisStats,
    memo: &SharedMemo,
    service: Option<ServiceSection>,
) -> (String, String) {
    let snapshot = MetricsSnapshot::new(registry, stats, memo, service);
    (snapshot.to_prometheus(), snapshot.to_json())
}

/// Compares `actual` with the golden file `name`, whose `<nanos>`
/// placeholders stand for the memo-load wall time `load_nanos`.
fn assert_golden(name: &str, actual: &str, load_nanos: u64) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .replace(
            "dda_memo_load_nanos_total <nanos>\n",
            &format!("dda_memo_load_nanos_total {load_nanos}\n"),
        )
        .replace(
            "\"nanos\":\"<nanos>\",",
            &format!("\"nanos\":{load_nanos},"),
        );
    if actual != expected {
        let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&dump, actual).expect("write actual rendering");
        panic!(
            "{name} differs from {path} (memo-load nanos {load_nanos}); \
             actual rendering written to {}",
            dump.display()
        );
    }
}

fn key(n: i64) -> MemoKey {
    MemoKey::from_vec(vec![n, 1, -n])
}

fn independent() -> EqOutcome {
    EqOutcome::Independent { refutation: None }
}

/// A registry with every family recorded: all four stages, every GCD
/// verdict (solved and cached), a refinement, a graph build, an
/// incremental split, leader elections and two waves over two slots.
fn full_registry() -> MetricsRegistry {
    let reg = MetricsRegistry::with_workers(2);
    reg.record_stage(TestKind::Svpc, StageVerdict::Independent, 100);
    reg.record_stage(TestKind::Svpc, StageVerdict::Pass, 300);
    reg.record_stage(TestKind::Acyclic, StageVerdict::Dependent, 1_500);
    reg.record_stage(TestKind::LoopResidue, StageVerdict::Unknown, 40_000);
    reg.record_stage(TestKind::FourierMotzkin, StageVerdict::Independent, 900_000);
    reg.record_gcd(GcdVerdict::Lattice, false, 50);
    reg.record_gcd(GcdVerdict::Independent, false, 70);
    reg.record_gcd(GcdVerdict::Lattice, true, 0);
    reg.record_gcd(GcdVerdict::Overflow, false, 2_000);
    reg.record_refinement(7, 12_000);
    reg.record_graph([3, 1, 2, 0], 4, 2, 1_500);
    reg.record_incremental(5, 11);
    reg.record_leader_elections(MemoTableKind::Full, 6);
    reg.record_leader_elections(MemoTableKind::Gcd, 9);
    reg.record_wave(&WaveReport {
        wall_nanos: 1_000,
        workers: vec![
            WorkerWork {
                tasks: 3,
                busy_nanos: 700,
                queue_wait_nanos: 10,
            },
            WorkerWork {
                tasks: 1,
                busy_nanos: 300,
                queue_wait_nanos: 20,
            },
        ],
    });
    reg.record_wave(&WaveReport {
        wall_nanos: 400,
        workers: vec![WorkerWork {
            tasks: 2,
            busy_nanos: 100,
            queue_wait_nanos: 5,
        }],
    });
    reg
}

fn full_stats() -> AnalysisStats {
    AnalysisStats {
        pairs: 21,
        constant: 2,
        gcd_independent: 4,
        assumed: 1,
        memo_queries: 13,
        memo_hits: 5,
        gcd_memo_queries: 17,
        gcd_memo_hits: 8,
        ..AnalysisStats::default()
    }
}

/// A two-shard, byte-capped memo warm-started from a v3 archive: both
/// tables see misses, the GCD table faults, hits, inserts and evicts.
fn full_memo() -> SharedMemo {
    let path = std::env::temp_dir().join(format!("dda-obs-golden-{}.memo", std::process::id()));
    let source = SharedMemo::new(1);
    for n in 1..=3 {
        source.gcd.insert(key(n), Arc::new(independent()));
    }
    source.save_memo_file_v3(&path, 1).expect("save archive");

    let memo = SharedMemo::with_capacity(2, 4096);
    memo.load_memo_file(&path).expect("load archive");
    let _ = std::fs::remove_file(&path);
    assert!(memo.lookup_gcd(&key(1)).is_some(), "archive fault");
    assert!(memo.lookup_gcd(&key(1)).is_some(), "resident hit");
    assert!(memo.lookup_gcd(&key(2)).is_some(), "archive fault");
    assert!(memo.lookup_gcd(&key(40)).is_none(), "miss");
    assert!(memo.lookup_full(&key(41)).is_none(), "miss");
    for n in 10..30 {
        memo.gcd.insert(key(n), Arc::new(independent()));
    }
    memo
}

fn full_service() -> ServiceSection {
    ServiceSection {
        in_flight: -1,
        max_in_flight: 8,
        requests: 12,
        shed: 2,
        deadline_exceeded: 1,
        requests_by: vec![
            ("/analyze", "ok", 9),
            ("/analyze", "deadline", 1),
            ("(accept)", "shed", 2),
        ],
    }
}

#[test]
fn full_snapshot_renders_its_golden_text() {
    let memo = full_memo();
    let (prom, json) = render(&full_registry(), &full_stats(), &memo, Some(full_service()));
    // The load's wall time is rendered from the memo's own figure.
    let nanos = memo.memo_load_stats().nanos;
    assert!(nanos > 0, "a file load takes time");
    assert!(prom.contains(&format!("\ndda_memo_load_nanos_total {nanos}\n")));
    assert!(json.contains(&format!(",\"nanos\":{nanos},\"archive_faults\":")));
    assert_golden("full.prom", &prom, nanos);
    assert_golden("full.json", &json, nanos);
}

#[test]
fn bare_snapshot_renders_its_golden_text() {
    let memo = SharedMemo::new(1);
    let (prom, json) = render(
        &MetricsRegistry::new(),
        &AnalysisStats::default(),
        &memo,
        None,
    );
    assert_golden("bare.prom", &prom, memo.memo_load_stats().nanos);
    assert_golden("bare.json", &json, memo.memo_load_stats().nanos);
}

/// An idle service over an idle pool: the unlabeled request sample and
/// an engine section with no waves.
#[test]
fn idle_service_snapshot_renders_its_golden_text() {
    let service = ServiceSection {
        max_in_flight: 4,
        requests: 3,
        ..ServiceSection::default()
    };
    let memo = SharedMemo::new(3);
    let (prom, json) = render(
        &MetricsRegistry::with_workers(1),
        &AnalysisStats::default(),
        &memo,
        Some(service),
    );
    assert_golden("idle_service.prom", &prom, memo.memo_load_stats().nanos);
    assert_golden("idle_service.json", &json, memo.memo_load_stats().nanos);
}
