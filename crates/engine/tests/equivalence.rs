//! Property tests: the engine is bit-identical to the serial analyzer.
//!
//! For random batches of random programs — spanning constant subscripts,
//! non-affine subscripts (assumed dependence), symbolic terms,
//! triangular nests and coupled dimensions — the engine must reproduce a
//! serial [`DependenceAnalyzer`] run exactly: same [`ProgramReport`]s
//! (per-pair verdicts, vectors, distances, cache flags *and* per-program
//! statistics, since `ProgramReport: PartialEq` covers them all), same
//! cumulative statistics, same memo-table population — for every memo
//! mode, with and without symmetric canonicalization, at 1, 2 and 8
//! workers. A byte-capped memo, too, evicts the same entries at any
//! worker count.

use dda_core::memo::MemoKey;
use dda_core::{AnalyzerConfig, DependenceAnalyzer, MemoMode, ProgramReport, SharedMemo};
use dda_engine::{analyze_batch, Deadline, Engine, EngineConfig};
use dda_ir::{passes, Program};
use dda_obs::MetricsRegistry;
use proptest::prelude::*;

mod common;
use common::{arb_batch, parse_batch, temp_path};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cold-start equivalence across every memo mode, symmetry setting
    /// and worker count.
    #[test]
    fn engine_matches_serial_analyzer(sources in arb_batch()) {
        let programs = parse_batch(&sources);
        for memo in [MemoMode::Off, MemoMode::Simple, MemoMode::Improved] {
            for memo_symmetry in [false, true] {
                if memo == MemoMode::Off && memo_symmetry {
                    // Symmetry only shapes full-memo keys; with
                    // memoization off it is a no-op.
                    continue;
                }
                let analyzer_cfg = AnalyzerConfig {
                    memo,
                    memo_symmetry,
                    ..AnalyzerConfig::default()
                };
                let mut analyzer = DependenceAnalyzer::with_config(analyzer_cfg);
                let want: Vec<ProgramReport> =
                    programs.iter().map(|p| analyzer.analyze_program(p)).collect();
                for workers in [1usize, 2, 8] {
                    let mut engine = Engine::with_config(EngineConfig {
                        workers,
                        shards: 4,
                        memo_mode: memo,
                        analyzer: analyzer_cfg,
                        ..EngineConfig::default()
                    });
                    let got = engine.analyze_programs(&programs);
                    let ctx = format!(
                        "memo={memo:?} symmetry={memo_symmetry} workers={workers}\n\
                         sources: {sources:#?}"
                    );
                    assert_eq!(got, want, "reports diverge: {ctx}");
                    assert_eq!(engine.stats(), analyzer.stats(), "stats diverge: {ctx}");
                    assert_eq!(
                        engine.memo_entries(),
                        analyzer.memo_entries(),
                        "full-table population diverges: {ctx}"
                    );
                    assert_eq!(
                        engine.gcd_memo_entries(),
                        analyzer.gcd_memo_entries(),
                        "gcd-table population diverges: {ctx}"
                    );
                }
            }
        }
    }

    /// Warm-start equivalence: a table saved by the engine warms a
    /// serial analyzer and a fresh engine into the same replay.
    #[test]
    fn warm_start_matches_serial_analyzer(sources in arb_batch()) {
        let programs = parse_batch(&sources);
        let config = EngineConfig {
            workers: 4,
            shards: 2,
            ..EngineConfig::default()
        };
        let mut cold = Engine::with_config(config);
        cold.analyze_programs(&programs);
        let saved = temp_path("dda-memo3");
        cold.save_memo_file_v3(&saved, 3).expect("v3 save");
        let entries = cold.memo().merged_entries().unwrap();

        let mut analyzer =
            DependenceAnalyzer::with_config(config.effective_analyzer_config());
        analyzer.load_memo_file(&saved).expect("saved tables load");
        let want: Vec<ProgramReport> =
            programs.iter().map(|p| analyzer.analyze_program(p)).collect();

        let mut warm = Engine::with_config(config);
        warm.load_memo_file(&saved).expect("saved tables load");
        std::fs::remove_file(&saved).ok();
        let got = warm.analyze_programs(&programs);
        assert_eq!(got, want, "warm replay diverges\nsources: {sources:#?}");
        assert_eq!(warm.stats(), analyzer.stats());
        // The warm run discovered nothing new: both ends hold the same
        // entries.
        assert_eq!(warm.memo().merged_entries().unwrap(), entries);
        assert_eq!(analyzer.memo().merged_entries().unwrap(), entries);
    }

    /// Batching is invisible: one engine over the whole batch equals one
    /// engine call per program (state carries across calls).
    #[test]
    fn batch_equals_sequential_calls(sources in arb_batch()) {
        let programs = parse_batch(&sources);
        let config = EngineConfig { workers: 3, ..EngineConfig::default() };
        let mut batched = Engine::with_config(config);
        let want = batched.analyze_programs(&programs);
        let mut one_by_one = Engine::with_config(config);
        let got: Vec<ProgramReport> =
            programs.iter().map(|p| one_by_one.analyze_program(p)).collect();
        assert_eq!(got, want, "sources: {sources:#?}");
        assert_eq!(one_by_one.stats(), batched.stats());
    }
}

/// Three consecutive batches over one byte-capped memo: leaders insert
/// serially in job order, so the CLOCK ring, and with it every eviction,
/// is the same at any worker count. Reports, statistics, splices, the
/// eviction count and the surviving keys must not move with it, at one
/// shard and at sixteen.
#[test]
fn a_capped_memo_evicts_the_same_entries_at_any_worker_count() {
    let programs: Vec<Program> = dda_perfect::perfect_suite(0.05)
        .into_iter()
        .map(|sp| {
            let mut p = sp.program;
            passes::normalize(&mut p);
            p
        })
        .collect();
    // Later batches revisit the patterns of earlier ones.
    let batches: Vec<Vec<Program>> = (0..3)
        .map(|b| programs.iter().skip(b).step_by(3).cloned().collect())
        .collect();
    let run = |workers: usize, memo: &SharedMemo| {
        let config = EngineConfig {
            workers,
            ..EngineConfig::default()
        };
        let obs = MetricsRegistry::new();
        let outcomes: Vec<_> = batches
            .iter()
            .map(|batch| {
                let out = analyze_batch(&config, memo, &obs, batch, Deadline::none(), None);
                (out.reports, out.stats, out.spliced)
            })
            .collect();
        let gcd: Vec<MemoKey> = memo.gcd.snapshot().into_iter().map(|(k, _)| k).collect();
        let full: Vec<MemoKey> = memo.full.snapshot().into_iter().map(|(k, _)| k).collect();
        (outcomes, memo.evictions(), gcd, full)
    };
    let unbounded = SharedMemo::new(1);
    run(1, &unbounded);
    let cap = unbounded.bytes() / 3;
    for shards in [1, 16] {
        let capped = |workers| run(workers, &SharedMemo::with_capacity(shards, cap));
        let want = capped(1);
        assert!(want.1 > 0, "the cap must evict at {shards} shard(s)");
        for workers in [2, 8] {
            assert!(
                capped(workers) == want,
                "{workers} workers diverge from one at {shards} shard(s)"
            );
        }
    }
}
