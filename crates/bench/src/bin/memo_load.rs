//! Memo warm-start benchmark: the numbers behind the dda-memo v3
//! archive, the only memo format (`results/memo_load.txt`).
//!
//! Three views:
//!
//! 1. **Load latency** of the trained memo's v3 archive: read the whole
//!    file, verify checksums, decode nothing. Loading attaches the
//!    archive as a lazy read tier; records fault in on first lookup.
//! 2. **Warm-batch wall time**: load + analyze the full corpus, cold vs
//!    v3-warm, on the parallel engine. Verdict equality is asserted,
//!    not assumed.
//! 3. **Incremental re-analysis**: edit a fraction of the corpus and
//!    re-run warm; report the spliced/re-solved split from the
//!    `dda_incremental_*` counters and the wall time against a full
//!    cold re-analysis.
//!
//! Single-core container caveat: absolute numbers are indicative only;
//! before/after deltas on the same machine are the point.

use std::path::PathBuf;
use std::time::Instant;

use dda_core::MemoArchive;
use dda_engine::{Engine, EngineConfig};
use dda_ir::{parse_program, Program};

const LOAD_REPS: usize = 25;
const EDIT_EVERY: usize = 10;

/// A corpus large enough that load time is measurable: distinct
/// one- and two-dimensional affine patterns (distinct memo keys).
fn corpus() -> Vec<Program> {
    let mut sources = Vec::new();
    for k in 1..=400usize {
        sources.push(format!("for i = 1 to 50 {{ a[i] = a[i + {k}] + 1; }}"));
        sources.push(format!(
            "for i = 1 to 20 {{ for j = 1 to 20 {{ b[i][j + {k}] = b[j][i] + 1; }} }}"
        ));
    }
    sources
        .iter()
        .map(|s| parse_program(s).expect("corpus parses"))
        .collect()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dda_memo_load_bench");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Median wall nanoseconds of `f` over [`LOAD_REPS`] runs.
fn median_nanos(mut f: impl FnMut()) -> u64 {
    let mut samples = Vec::with_capacity(LOAD_REPS);
    for _ in 0..LOAD_REPS {
        let start = Instant::now();
        f();
        samples.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

fn main() {
    let programs = corpus();
    let v3_path = tmp("memo.dda3");

    // Train once and persist.
    let mut trainer = Engine::with_config(EngineConfig::default());
    let cold_start = Instant::now();
    let cold_reports = trainer.analyze_programs(&programs);
    let cold_nanos = u64::try_from(cold_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    trainer.save_memo_file_v3(&v3_path, 16).expect("save v3");
    let records = {
        let memo = trainer.memo();
        memo.gcd.unique_entries() + memo.full.unique_entries()
    };
    let v3_bytes = std::fs::metadata(&v3_path).unwrap().len();
    println!(
        "corpus: {} programs, {} pairs, {records} memo records",
        programs.len(),
        trainer.stats().pairs,
    );
    println!("file size: v3 binary {v3_bytes} bytes");
    println!();

    // --- view 1: load latency -------------------------------------------
    let v3_open = median_nanos(|| {
        let archive = MemoArchive::open(&v3_path).expect("v3 opens");
        std::hint::black_box(&archive);
    });
    println!("memo load (median of {LOAD_REPS}):");
    println!("  v3 open            {:>10.3} ms", ms(v3_open));
    println!();

    // --- view 2: warm-batch wall time -----------------------------------
    let mut v3_engine = Engine::with_config(EngineConfig::default());
    let v3_warm = {
        let start = Instant::now();
        v3_engine.load_memo_file(&v3_path).expect("v3 loads");
        let reports = v3_engine.analyze_programs(&programs);
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        for (warm, cold) in reports.iter().zip(&cold_reports) {
            for (w, c) in warm.pairs().iter().zip(cold.pairs()) {
                assert_eq!(w.result.answer, c.result.answer, "warm verdict drifted");
            }
        }
        nanos
    };
    println!("full-corpus batch (load + analyze):");
    println!("  cold               {:>10.3} ms", ms(cold_nanos));
    println!(
        "  v3 warm            {:>10.3} ms   ({:.1}x vs cold)",
        ms(v3_warm),
        cold_nanos as f64 / v3_warm as f64
    );
    let faults = v3_engine.memo().memo_load_stats().archive_faults;
    println!("  v3 archive faults  {faults:>10} records (of {records})");
    println!();

    // --- view 3: incremental re-analysis --------------------------------
    let mut edited = programs.clone();
    let mut edits = 0usize;
    for (i, slot) in edited.iter_mut().enumerate() {
        if i % EDIT_EVERY == 0 {
            let src = format!("for i = 1 to 50 {{ c[3 * i] = c[3 * i + {}] + 1; }}", i + 7);
            *slot = parse_program(&src).expect("edit parses");
            edits += 1;
        }
    }
    let mut incr = Engine::with_config(EngineConfig::default());
    let incr_nanos = {
        let start = Instant::now();
        incr.load_memo_file(&v3_path).expect("v3 loads");
        let reports = incr.analyze_programs(&edited);
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        std::hint::black_box(&reports);
        nanos
    };
    let spliced = incr.metrics().incremental_spliced();
    let resolved = incr.metrics().incremental_resolved();
    let mut cold_again = Engine::with_config(EngineConfig::default());
    let cold_edit_nanos = {
        let start = Instant::now();
        let reports = cold_again.analyze_programs(&edited);
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        std::hint::black_box(&reports);
        nanos
    };
    println!(
        "incremental re-analysis ({edits}/{} programs edited):",
        edited.len()
    );
    println!("  cold re-analysis   {:>10.3} ms", ms(cold_edit_nanos));
    println!(
        "  v3 incremental     {:>10.3} ms   ({:.1}x vs cold)",
        ms(incr_nanos),
        cold_edit_nanos as f64 / incr_nanos as f64
    );
    println!(
        "  spliced {spliced} / re-solved {resolved} pairs  (splice ratio {:.1}%)",
        100.0 * spliced as f64 / (spliced + resolved) as f64
    );

    std::fs::remove_file(&v3_path).ok();
}
