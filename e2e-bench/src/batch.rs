//! The three batch workloads. One operation is the `dda batch` path on a
//! fresh engine: optional warm start from a v3 archive, parse,
//! normalize, analyze, render.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dda_engine::{Engine, EngineConfig};

use crate::calib;
use crate::check;
use crate::corpus::{self, Corpus};
use crate::layers::{self, Analyzed, Calls};
use crate::report::{
    mean, ms_between, peak_rss_mb, quantile, ratio, Accum, Outcome, Spans, SETUP_REPEATS,
};
use crate::Opts;

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The PERFECT suite, cold: high sharing, small solver share.
    PerfectCold,
    /// Distinct two-deep coupled nests: the memo only receives writes.
    UniqueSolve,
    /// The PERFECT suite with 10% of nests edited, warm from an archive
    /// trained on the unedited suite.
    IncrementalWarm,
}

/// Workload sizes: the full sizes, or smoke sizes under `--quick`.
struct Sizes {
    perfect_scale: f64,
    unique_programs: usize,
    unique_nests: usize,
    /// Edited corpora cycled by `incremental-warm`.
    variants: usize,
    /// Least measured operations, whatever the time budget.
    min_ops: usize,
    /// Under `--quick`, measure exactly `min_ops` operations.
    quick: bool,
}

impl Sizes {
    fn new(quick: bool) -> Sizes {
        if quick {
            Sizes {
                perfect_scale: 0.05,
                unique_programs: 4,
                unique_nests: 10,
                variants: 2,
                min_ops: 4,
                quick,
            }
        } else {
            Sizes {
                perfect_scale: 1.0,
                unique_programs: 80,
                unique_nests: 50,
                variants: 4,
                min_ops: 10,
                quick,
            }
        }
    }
}

/// Share of each program's nests `incremental-warm` replaces.
const EDIT_FRACTION: f64 = 0.1;

/// Everything the timed loop reads.
struct Input {
    /// Inputs cycled by the timed loop (one, or the edited variants).
    corpora: Vec<Corpus>,
    /// The warm-start archive (`incremental-warm` only).
    archive: Option<PathBuf>,
}

/// One batch: a fresh engine, warm-started from `archive` when given,
/// running the pipeline over `corpus`.
fn batch(
    corpus: &Corpus,
    config: EngineConfig,
    archive: Option<&Path>,
    spans: &mut Spans,
    op: u64,
) -> Result<(Engine, Analyzed, Calls), String> {
    let root = spans.open("batch", None, "batch", op);
    let mut calls = Calls::default();
    let mut engine = Engine::with_config(config);
    if let Some(path) = archive {
        let s = spans.open("memo.load", Some(root), "batch", op);
        engine
            .load_memo_file(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        calls.open = spans.close(s);
    }
    let analyzed = layers::pipeline(&mut engine, corpus, spans, (root, "batch", op), &mut calls)?;
    spans.close(root);
    Ok((engine, analyzed, calls))
}

/// Builds the workload's inputs (and, for `incremental-warm`, trains
/// and writes the archive), then runs one warm-up batch, so the measured
/// loop starts with caches filled and the allocator grown.
fn setup(kind: Kind, sizes: &Sizes, seed: u64, work: &Path) -> Result<Input, String> {
    let off = &mut Spans::new(false);
    let input = match kind {
        Kind::PerfectCold => Input {
            corpora: vec![corpus::perfect(sizes.perfect_scale, seed)],
            archive: None,
        },
        Kind::UniqueSolve => Input {
            corpora: vec![corpus::unique(
                sizes.unique_programs,
                sizes.unique_nests,
                seed,
            )],
            archive: None,
        },
        Kind::IncrementalWarm => {
            let base = corpus::perfect(sizes.perfect_scale, seed);
            let corpora = (0..sizes.variants as u64)
                .map(|v| corpus::edited(&base, EDIT_FRACTION, seed, v))
                .collect();
            let (trained, _, _) = batch(&base, EngineConfig::default(), None, off, 0)?;
            let path = work.join("memo.v3");
            trained
                .save_memo_file_v3(&path, trained.config().shards)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            Input {
                corpora,
                archive: Some(path),
            }
        }
    };
    batch(
        &input.corpora[0],
        EngineConfig::default(),
        input.archive.as_deref(),
        off,
        0,
    )?;
    Ok(input)
}

/// Runs one batch workload.
///
/// # Errors
///
/// Set-up failures, which leave nothing to measure.
pub fn run(kind: Kind, opts: &Opts, work: &Path) -> Result<Outcome, String> {
    let sizes = Sizes::new(opts.quick);
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut input = None;
    for _ in 0..SETUP_REPEATS {
        drop(input.take());
        let reference = calib::reference_ms();
        let start = Instant::now();
        input = Some(setup(kind, &sizes, opts.seed, work)?);
        setup_s.push(calib::scaled(start.elapsed().as_secs_f64(), reference));
    }
    let input = input.expect("at least one set-up ran");
    let variants = input.corpora.len();

    let mut out = Outcome::default();
    let mut spans = Spans::new(opts.traced);
    let mut off = Spans::new(false);
    // Untraced batch walls: raw, and scaled to the reference speed.
    let mut walls = Vec::new();
    let mut scaled = Vec::new();
    let mut references = Vec::new();
    let mut traced_walls = Vec::new();
    let mut traced_scaled = Vec::new();
    let mut digests: Vec<(usize, u64)> = Vec::new();
    let mut times = Accum::default();
    let mut counts = Accum::default();
    let mut counted = vec![false; variants];
    // A traced run alternates an untraced and a traced batch on the same
    // input, so both see the same machine state.
    let per_input = if opts.traced { 2 } else { 1 };
    let min_ops = sizes.min_ops.max(per_input * variants);
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut op = 0usize;
    while op < min_ops || (!sizes.quick && start.elapsed() < budget) {
        let variant = (op / per_input) % variants;
        let traced = opts.traced && op % 2 == 1;
        let rec = if traced { &mut spans } else { &mut off };
        let reference = calib::reference_ms();
        let t0 = Instant::now();
        let result = batch(
            &input.corpora[variant],
            EngineConfig::default(),
            input.archive.as_deref(),
            rec,
            op as u64,
        );
        let wall = ms_between(t0, Instant::now());
        op += 1;
        let (engine, analyzed, calls) = match result {
            Ok(r) => r,
            Err(e) => {
                out.failed += 1;
                out.errors.push(e);
                continue;
            }
        };
        digests.push((variant, check::verdict_digest(&analyzed.output)));
        if !traced {
            walls.push(wall);
            scaled.push(calib::scaled(wall, reference));
            references.push(reference);
            continue;
        }
        traced_walls.push(wall);
        traced_scaled.push(calib::scaled(wall, reference));
        let (extract_ms, pairs) =
            layers::replay_extract(&analyzed.programs, &mut spans, ("batch", op as u64 - 1));
        if pairs != engine.stats().pairs {
            out.errors.push(format!(
                "replayed pair enumeration found {pairs} pairs, the engine {}",
                engine.stats().pairs
            ));
        }
        let sample = layers::op_sample(
            layers::engine_sample(&engine),
            &calls,
            extract_ms,
            analyzed.output.len(),
        );
        times.add(&sample);
        if !counted[variant] {
            counted[variant] = true;
            counts.add(&sample);
        }
    }
    let rss = peak_rss_mb();
    out.attempted = op as u64;

    verify(kind, &sizes, &input, &digests, &mut out)?;

    let p50 = quantile(&scaled, 0.5);
    out.set("p50_ms", p50);
    out.set("ops_per_s", ratio(1e3, p50));
    out.set("setup_s", quantile(&setup_s, 0.5));
    out.set("peak_rss_mb", rss);
    out.extra
        .push(("samples".into(), walls.len() as f64, "count"));
    out.extra
        .push(("p90_ms".into(), quantile(&scaled, 0.9), "ms"));
    out.extra
        .push(("raw_p50_ms".into(), quantile(&walls, 0.5), "ms"));
    out.extra
        .push(("reference_ms".into(), quantile(&references, 0.5), "ms"));
    if opts.traced {
        out.set("batch.p90_ms", quantile(&scaled, 0.9));
        out.set("batch.raw_p50_ms", quantile(&walls, 0.5));
        out.set("calib.reference_ms", quantile(&references, 0.5));
        let wall = mean(&traced_walls);
        layers::set_layer_metrics(&mut out, &times, &counts, wall);
        let covered = times.mean("memo.archive_open_ms")
            + times.mean("ir.parse_ms")
            + times.mean("ir.normalize_ms")
            + times.mean("engine.analyze_ms")
            + times.mean("render.ms");
        out.set("budget.wall_ms", wall);
        out.set("budget.covered_pct", 100.0 * ratio(covered, wall));
        out.set("budget.unaccounted_ms", wall - covered);
        out.set(
            "trace.overhead_pct",
            100.0 * ratio(quantile(&traced_scaled, 0.5) - p50, p50),
        );
        out.set("trace.ops", traced_walls.len() as f64);
        if let Some(path) = &opts.spans {
            spans
                .write_jsonl(path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(out)
}

/// The correctness checks, per distinct input: every measured batch's
/// verdict digest equals a cold single-worker run's, the measured path's
/// certificates pass the independent kernel, and (PERFECT cold) the
/// suite reproduces Table 1.
fn verify(
    kind: Kind,
    sizes: &Sizes,
    input: &Input,
    digests: &[(usize, u64)],
    out: &mut Outcome,
) -> Result<(), String> {
    let off = &mut Spans::new(false);
    for (v, corpus) in input.corpora.iter().enumerate() {
        let (_, reference, _) = batch(corpus, check::reference_config(), None, off, 0)?;
        let want = check::verdict_digest(&reference.output);
        let wrong = digests
            .iter()
            .filter(|&&(dv, d)| dv == v && d != want)
            .count();
        if wrong > 0 {
            out.fail(
                format!("input {v}: {wrong} batch(es) differ from the cold single-worker verdicts"),
                wrong as u64,
            );
        }
        if kind == Kind::PerfectCold {
            for e in check::table1(&corpus.labels, &reference.programs, sizes.perfect_scale) {
                out.fail(e, out.attempted);
            }
        }
        drop(reference);
        let (_, measured, _) = batch(
            corpus,
            EngineConfig::default(),
            input.archive.as_deref(),
            off,
            0,
        )?;
        for e in check::certificates(&corpus.labels, &measured.programs, &measured.reports) {
            out.fail(e, out.attempted);
        }
    }
    Ok(())
}
