//! The pipeline the benchmark drives (parse, normalize, analyze,
//! render) and the per-layer numbers read back from the program's own
//! exported counters.

use std::collections::BTreeMap;

use dda_core::{ProgramReport, TestKind};
use dda_engine::Engine;
use dda_ir::{extract_accesses, parse_program, passes, reference_pairs, Program};
use dda_obs::MemoTableKind;
use dda_serve::render::batch_json_line;

use crate::corpus::Corpus;
use crate::report::{ratio, Accum, Outcome, SpanId, Spans};

/// What one pass through the pipeline produced.
#[derive(Debug)]
pub struct Analyzed {
    /// Parsed and normalized programs.
    pub programs: Vec<Program>,
    /// One report per program.
    pub reports: Vec<ProgramReport>,
    /// The rendered JSONL, as `dda batch` prints it.
    pub output: String,
}

/// Durations of the calls inside one traced operation, in ms (0 when
/// the span recorder is disabled).
#[derive(Debug, Default, Clone, Copy)]
pub struct Calls {
    /// `Engine::load_memo_file`.
    pub open: f64,
    /// `parse_program` over the batch.
    pub parse: f64,
    /// `passes::normalize` over the batch.
    pub normalize: f64,
    /// `Engine::analyze_programs`.
    pub analyze: f64,
    /// `render::batch_json_line` over the batch.
    pub render: f64,
}

/// Parses, normalizes, analyzes and renders `corpus` on `engine`,
/// timing each call under `root` when `spans` is enabled.
///
/// # Errors
///
/// A located parse error.
pub fn pipeline(
    engine: &mut Engine,
    corpus: &Corpus,
    spans: &mut Spans,
    (root, op_kind, op): (SpanId, &'static str, u64),
    calls: &mut Calls,
) -> Result<Analyzed, String> {
    let s = spans.open("ir.parse", Some(root), op_kind, op);
    let mut programs = corpus
        .sources
        .iter()
        .zip(&corpus.labels)
        .map(|(src, label)| parse_program(src).map_err(|e| format!("{label}:\n{}", e.render(src))))
        .collect::<Result<Vec<_>, _>>()?;
    calls.parse = spans.close(s);
    let s = spans.open("ir.normalize", Some(root), op_kind, op);
    for p in &mut programs {
        passes::normalize(p);
    }
    calls.normalize = spans.close(s);
    let s = spans.open("engine.analyze", Some(root), op_kind, op);
    let reports = engine.analyze_programs(&programs);
    calls.analyze = spans.close(s);
    let s = spans.open("render", Some(root), op_kind, op);
    let mut output = String::new();
    for (label, report) in corpus.labels.iter().zip(&reports) {
        output.push_str(&batch_json_line(label, report));
        output.push('\n');
    }
    calls.render = spans.close(s);
    Ok(Analyzed {
        programs,
        reports,
        output,
    })
}

/// Times a replay of the engine's first step, access extraction and pair
/// enumeration, and returns (ms, pairs found).
pub fn replay_extract(
    programs: &[Program],
    spans: &mut Spans,
    (op_kind, op): (&'static str, u64),
) -> (f64, u64) {
    let s = spans.open("ir.extract.replay", None, op_kind, op);
    let mut pairs = 0usize;
    for p in programs {
        pairs += reference_pairs(&extract_accesses(p), false).len();
    }
    (spans.close(s), pairs as u64)
}

/// Keys of [`engine_sample`] that are levels, not running totals.
const LEVELS: [&str; 3] = ["memo.entries", "memo.bytes", "engine.workers"];

/// The engine's exported counters and CPU times, keyed by metric name
/// (plus the raw operands of derived ratios). Values are running totals
/// since the engine was built, except the [`LEVELS`].
#[must_use]
pub fn engine_sample(engine: &Engine) -> BTreeMap<&'static str, f64> {
    let m = engine.metrics();
    let memo = engine.memo();
    let stats = engine.stats();
    let ms = |ns: u64| ns as f64 / 1e6;
    let stage = |k: TestKind| m.stage_latency(k);
    let gcd = m.gcd_latency();
    let refine = m.refinement_latency();
    let stages = [
        (
            TestKind::Svpc,
            "core.cascade_ms.svpc",
            "core.cascade_calls.svpc",
        ),
        (
            TestKind::Acyclic,
            "core.cascade_ms.acyclic",
            "core.cascade_calls.acyclic",
        ),
        (
            TestKind::LoopResidue,
            "core.cascade_ms.residue",
            "core.cascade_calls.residue",
        ),
        (
            TestKind::FourierMotzkin,
            "core.cascade_ms.fm",
            "core.cascade_calls.fm",
        ),
    ];
    let cascade_ms: f64 = stages.iter().map(|&(k, _, _)| ms(stage(k).sum)).sum();
    // Refinement time already contains the cascades it issues. Every
    // cascade enters SVPC first, so the share of cascades run outside
    // refinement is 1 - refinement tests / SVPC entries; only that share
    // of the cascade time is added to the solver's CPU time.
    let cascades = stage(TestKind::Svpc).count as f64;
    let base_share = 1.0 - ratio(m.refinement_cascade_tests() as f64, cascades).min(1.0);
    let mut s = BTreeMap::from([
        ("ir.pairs", stats.pairs as f64),
        ("engine.waves", m.waves() as f64),
        ("engine.busy_ms", ms(m.busy_nanos())),
        ("engine.capacity_ms", ms(m.capacity_nanos())),
        ("engine.queue_wait_ms", ms(m.queue_wait_nanos())),
        ("engine.workers", m.worker_slots() as f64),
        (
            "engine.leaders.full",
            m.leader_elections(MemoTableKind::Full) as f64,
        ),
        (
            "engine.leaders.gcd",
            m.leader_elections(MemoTableKind::Gcd) as f64,
        ),
        ("core.gcd_ms", ms(gcd.sum)),
        ("core.gcd_solves", gcd.count as f64),
        ("core.gcd_cache_hits", m.gcd_cache_hits() as f64),
        ("core.refine_ms", ms(refine.sum)),
        ("core.refine_calls", refine.count as f64),
        ("core.refine_tests", m.refinement_cascade_tests() as f64),
        (
            "core.solver_cpu_ms",
            ms(gcd.sum) + ms(refine.sum) + cascade_ms * base_share,
        ),
        ("memo.full.queries", stats.memo_queries as f64),
        ("memo.full.hits", stats.memo_hits as f64),
        ("memo.gcd.queries", stats.gcd_memo_queries as f64),
        ("memo.gcd.hits", stats.gcd_memo_hits as f64),
        (
            "memo.entries",
            (memo.full.unique_entries() + memo.gcd.unique_entries()) as f64,
        ),
        ("memo.bytes", memo.bytes() as f64),
        (
            "memo.archive_faults",
            memo.memo_load_stats().archive_faults as f64,
        ),
        ("memo.spliced", m.incremental_spliced() as f64),
        ("memo.resolved", m.incremental_resolved() as f64),
    ]);
    for (k, name_ms, name_calls) in stages {
        s.insert(name_ms, ms(stage(k).sum));
        s.insert(name_calls, stage(k).count as f64);
    }
    s
}

/// The change of an [`engine_sample`] over one operation: running totals
/// are differenced, levels are kept.
#[must_use]
pub fn delta(
    before: &BTreeMap<&'static str, f64>,
    after: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    after
        .iter()
        .map(|(&k, &v)| {
            let base = if LEVELS.contains(&k) {
                0.0
            } else {
                before.get(k).copied().unwrap_or(0.0)
            };
            (k, v - base)
        })
        .collect()
}

/// One operation's per-layer sample: the engine counters plus the call
/// timings and the rendered size.
#[must_use]
pub fn op_sample(
    engine: BTreeMap<&'static str, f64>,
    calls: &Calls,
    extract_ms: f64,
    render_bytes: usize,
) -> Vec<(&'static str, f64)> {
    let mut s: Vec<(&'static str, f64)> = engine.into_iter().collect();
    s.extend([
        ("memo.archive_open_ms", calls.open),
        ("ir.parse_ms", calls.parse),
        ("ir.normalize_ms", calls.normalize),
        ("ir.extract_ms", extract_ms),
        ("engine.analyze_ms", calls.analyze),
        ("render.ms", calls.render),
        ("render.bytes", render_bytes as f64),
    ]);
    s
}

/// Sets the `ir`, `engine`, `core`, `memo` and `render` metrics. Times
/// come from `times` (every traced operation), counters from `counts`
/// (one traced operation per distinct input), both per operation.
/// `wall` is the mean traced operation wall the solver share is taken
/// of.
pub fn set_layer_metrics(out: &mut Outcome, times: &Accum, counts: &Accum, wall: f64) {
    let t = |k: &str| times.mean(k);
    let c = |k: &str| counts.mean(k);
    for (name, _) in crate::report::PER_LAYER {
        let prefix = name.split('.').next().unwrap_or("");
        if !matches!(prefix, "ir" | "engine" | "core" | "memo" | "render") {
            continue;
        }
        let is_time = name.ends_with("_ms") || name.ends_with(".ms") || name.contains("_ms.");
        let v = if is_time { t(name) } else { c(name) };
        out.set(name, v);
    }
    let workers = c("engine.workers").max(1.0);
    let in_waves = t("engine.capacity_ms") / workers;
    out.set(
        "engine.utilization",
        ratio(t("engine.busy_ms"), t("engine.capacity_ms")),
    );
    out.set("engine.in_waves_ms", in_waves);
    out.set("engine.outside_waves_ms", t("engine.analyze_ms") - in_waves);
    out.set(
        "engine.leader_ratio",
        ratio(
            c("engine.leaders.full") + c("engine.leaders.gcd"),
            c("memo.full.queries") + c("memo.gcd.queries"),
        ),
    );
    out.set(
        "memo.full.hit_ratio",
        ratio(c("memo.full.hits"), c("memo.full.queries")),
    );
    out.set(
        "memo.gcd.hit_ratio",
        ratio(c("memo.gcd.hits"), c("memo.gcd.queries")),
    );
    out.set(
        "memo.splice_ratio",
        ratio(c("memo.spliced"), c("memo.spliced") + c("memo.resolved")),
    );
    out.set(
        "core.wall_share_pct",
        100.0 * ratio(t("core.solver_cpu_ms") / workers, wall),
    );
}
