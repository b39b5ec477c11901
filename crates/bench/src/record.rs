//! `dda bench record` / `dda bench gate`: schema-versioned benchmark
//! snapshots and the CI regression gate.
//!
//! [`record`] re-runs the harness's standing measurements — per-stage
//! resolving latency over the calibrated patterns (the Table 6 view),
//! whole-corpus analyze wall time over the PERFECT suite, and v3 memo
//! archive load latency — collecting **raw nanosecond samples** and
//! reporting exact sorted percentiles rather than the registry's
//! log2-bucket upper bounds. Bucketed quantiles quantize to powers of
//! two, so a real 30% regression can hide inside one bucket; the gate
//! needs exact figures to mean anything.
//!
//! The snapshot serializes as `BENCH_<date>.json` with a `schema` tag
//! (see [`SCHEMA`]); [`gate`] parses two snapshots with a dependency-free
//! JSON reader and fails on any p99 regression beyond the tolerance
//! (default 25%) **that the median confirms**: a genuine slowdown moves
//! the whole distribution, so the gate requires both the p99 and the p50
//! to exceed the band before failing. Tail-only excursions — p99 up,
//! median unmoved — are the signature of scheduler preemption on shared
//! single-core CI runners and are reported as `tail-noise`, not failed.
//! Absolute numbers are machine-specific — the committed
//! `results/BENCH_baseline.json` is only comparable to runs on the same
//! container class, which is exactly the CI setting.

use std::time::{Instant, SystemTime};

use dda_core::fourier_motzkin::FmLimits;
use dda_core::gcd::{gcd_preprocess, GcdOutcome};
use dda_core::pipeline::run_pipeline;
use dda_core::problem::build_problem;
use dda_core::{DependenceAnalyzer, MemoArchive, PipelineConfig, TestKind};
use dda_engine::{Engine, EngineConfig};
use dda_ir::{extract_accesses, parse_program, reference_pairs, Program};
use dda_obs::{MetricsProbe, MetricsRegistry};
use dda_perfect::perfect_suite;

use crate::{scale_from_env, table1_config};

/// Schema tag carried by every snapshot; the gate refuses to compare
/// across schema versions.
pub const SCHEMA: &str = "dda-bench-v1";

/// Default gate tolerance: fail on a p99 regression beyond this many
/// percent over baseline.
pub const DEFAULT_TOLERANCE_PCT: f64 = 25.0;

/// Baselines below this are clamped up before the percentage check —
/// at sub-microsecond scale a 25% delta is timer noise, not regression.
const NOISE_FLOOR_NANOS: u64 = 1_000;

/// Exact latency figures from a raw sample set (sorted nearest-rank
/// percentiles, not bucket upper bounds).
#[derive(Debug, Clone, Copy)]
pub struct ExactSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples in nanoseconds.
    pub sum_nanos: u64,
    /// Exact 50th percentile (nearest rank).
    pub p50_nanos: u64,
    /// Exact 99th percentile (nearest rank).
    pub p99_nanos: u64,
}

impl ExactSummary {
    /// Summarizes a sample vector. Empty input yields all zeros.
    #[must_use]
    pub fn from_samples(mut samples: Vec<u64>) -> ExactSummary {
        samples.sort_unstable();
        ExactSummary {
            count: samples.len() as u64,
            sum_nanos: samples.iter().sum(),
            p50_nanos: percentile(&samples, 50.0),
            p99_nanos: percentile(&samples, 99.0),
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted sample set; 0 when
/// empty.
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One benchmark snapshot, as written to `BENCH_<date>.json`.
#[derive(Debug)]
pub struct BenchReport {
    /// ISO date (UTC) the snapshot was recorded.
    pub date: String,
    /// Whether this was a `--quick` run (fewer reps, scaled suite).
    pub quick: bool,
    /// Resolving-pattern pipeline latency per stage, in cascade order.
    pub stages: Vec<(&'static str, ExactSummary)>,
    /// Programs in the analyzed corpus.
    pub corpus_programs: u64,
    /// Reference pairs analyzed per corpus run.
    pub corpus_pairs: u64,
    /// Whole-corpus analyze wall time (one sample per full pass).
    pub corpus_wall: ExactSummary,
    /// Records in the memo archive used for the load measurement.
    pub memo_records: u64,
    /// v3 memo archive open latency (mmap + checksum verify).
    pub memo_load: ExactSummary,
}

/// Canonical lowercase stage token, matching `--tests` syntax and the
/// registry's stage labels.
fn stage_token(kind: TestKind) -> &'static str {
    match kind {
        TestKind::Svpc => "svpc",
        TestKind::Acyclic => "acyclic",
        TestKind::LoopResidue => "residue",
        TestKind::FourierMotzkin => "fm",
    }
}

/// Pipeline latency samples for `kind`'s calibrated pattern: each
/// sample is a full cascade run in which the earlier tests pass and
/// `kind` decides — the same patterns `stage_times` uses, but with raw
/// samples kept for exact percentiles.
fn resolving_samples(kind: TestKind, reps: usize) -> Vec<u64> {
    let src = match kind {
        TestKind::Svpc => "for i = 1 to 10 { a[i + 3] = a[i] + 1; }",
        TestKind::Acyclic => "for i = 1 to 10 { for j = i to 10 { a[j + 2] = a[j] + 1; } }",
        TestKind::LoopResidue => "for i = 1 to 10 { for j = i to i + 3 { a[j] = a[j + 1] + 1; } }",
        TestKind::FourierMotzkin => {
            "for i = 1 to 10 { for j = 1 to 10 { a[2 * i + j] = a[i + 2 * j + 1] + 1; } }"
        }
    };
    let program = parse_program(src).expect("pattern parses");
    let set = extract_accesses(&program);
    let pairs = reference_pairs(&set, false);
    let problem =
        build_problem(pairs[0].a, pairs[0].b, pairs[0].common, true).expect("pattern is affine");
    let GcdOutcome::Reduced(reduced) = gcd_preprocess(&problem).expect("no overflow") else {
        panic!("pattern must reach the cascade");
    };
    let config = PipelineConfig::full();
    let registry = MetricsRegistry::new();
    let mut probe = MetricsProbe::new(&registry);
    for _ in 0..(reps / 10).max(20) {
        std::hint::black_box(run_pipeline(
            &reduced.system,
            &config,
            FmLimits::default(),
            &mut probe,
        ));
    }
    let stage_nanos = || registry.stage_timings().nanos.iter().sum::<u64>();
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let before = stage_nanos();
        let out = std::hint::black_box(run_pipeline(
            &reduced.system,
            &config,
            FmLimits::default(),
            &mut probe,
        ));
        assert_eq!(out.used, kind, "calibration drift");
        samples.push(stage_nanos() - before);
    }
    samples
}

/// A memo-training corpus sized for measurable archive loads.
fn memo_corpus(patterns: usize) -> Vec<Program> {
    let mut programs = Vec::new();
    for k in 1..=patterns {
        let src = format!("for i = 1 to 50 {{ a[i] = a[i + {k}] + 1; }}");
        programs.push(parse_program(&src).expect("corpus parses"));
    }
    programs
}

fn elapsed_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Records one benchmark snapshot. `quick` shrinks every dimension
/// (reps, suite scale, memo corpus) for CI smoke use; absolute figures
/// drop but the schema and the gate semantics are identical.
#[must_use]
pub fn record(quick: bool) -> BenchReport {
    // Sample counts are sized so the p99s the gate compares are real
    // order statistics, not the maximum: on a small shared core a
    // single scheduler preemption inflates any max-of-N by 2-10x, and
    // a gate reading maxima flakes. With >=100 samples the nearest-rank
    // p99 sits below the largest samples and isolated spikes fall out.
    let stage_reps = if quick { 1_200 } else { 3_000 };
    let corpus_runs = if quick { 100 } else { 40 };
    let suite_scale = if quick { 0.05 } else { scale_from_env() };
    let memo_patterns = if quick { 120 } else { 400 };
    let memo_reps = if quick { 150 } else { 200 };

    // 1. Per-stage resolving latency (exact percentiles).
    let stages: Vec<(&'static str, ExactSummary)> = TestKind::ALL
        .iter()
        .map(|&kind| {
            (
                stage_token(kind),
                ExactSummary::from_samples(resolving_samples(kind, stage_reps)),
            )
        })
        .collect();

    // 2. Whole-corpus analyze wall: the PERFECT suite, fresh analyzer
    // per program (the paper's per-compilation setting), one sample per
    // full pass.
    let suite = perfect_suite(suite_scale);
    let mut pairs = 0u64;
    let mut wall = Vec::with_capacity(corpus_runs);
    // One untimed warmup pass, then timed passes: with a handful of
    // samples p99 is the max, and the gate must not compare cold-cache
    // first passes against warmed ones.
    for run in 0..=corpus_runs {
        let start = Instant::now();
        let mut run_pairs = 0u64;
        for prog in &suite {
            let mut analyzer = DependenceAnalyzer::with_config(table1_config());
            let report = std::hint::black_box(analyzer.analyze_program(&prog.program));
            run_pairs += report.stats.pairs;
        }
        if run > 0 {
            wall.push(elapsed_nanos(start));
        }
        pairs = run_pairs;
    }

    // 3. Memo archive load: train once, persist v3, time the open
    // (mmap + checksum verify; records fault in lazily afterwards).
    let programs = memo_corpus(memo_patterns);
    let mut trainer = Engine::with_config(EngineConfig::default());
    std::hint::black_box(trainer.analyze_programs(&programs));
    let memo_records = {
        let memo = trainer.memo();
        (memo.full.unique_entries() + memo.gcd.unique_entries()) as u64
    };
    let dir = std::env::temp_dir().join(format!("dda_bench_record_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let v3_path = dir.join("memo.dda3");
    trainer.save_memo_file_v3(&v3_path, 16).expect("save v3");
    // Warm the page cache with untimed opens first — the cold first
    // open is 10-20x the steady state and would own the p99 outright.
    for _ in 0..3 {
        std::hint::black_box(MemoArchive::open(&v3_path).expect("v3 opens"));
    }
    let mut loads = Vec::with_capacity(memo_reps);
    for _ in 0..memo_reps {
        let start = Instant::now();
        let archive = MemoArchive::open(&v3_path).expect("v3 opens");
        std::hint::black_box(&archive);
        loads.push(elapsed_nanos(start));
    }
    std::fs::remove_file(&v3_path).ok();
    std::fs::remove_dir(&dir).ok();

    BenchReport {
        date: utc_date(),
        quick,
        stages,
        corpus_programs: suite.len() as u64,
        corpus_pairs: pairs,
        corpus_wall: ExactSummary::from_samples(wall),
        memo_records,
        memo_load: ExactSummary::from_samples(loads),
    }
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days; no external time
/// crates in this tree).
#[must_use]
pub fn utc_date() -> String {
    let secs = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Days-since-epoch to (year, month, day), Howard Hinnant's public
/// domain `civil_from_days` algorithm.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

fn summary_json(s: ExactSummary) -> String {
    format!(
        "{{\"count\":{},\"sum_nanos\":{},\"p50_nanos\":{},\"p99_nanos\":{}}}",
        s.count, s.sum_nanos, s.p50_nanos, s.p99_nanos
    )
}

impl BenchReport {
    /// The snapshot as schema-versioned JSON (one pretty-printed object;
    /// key order is fixed so diffs of committed baselines stay small).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(out, "  \"date\": \"{}\",", self.date);
        let _ = writeln!(out, "  \"quick\": {},", self.quick);
        let _ = writeln!(out, "  \"stages\": [");
        for (i, (name, s)) in self.stages.iter().enumerate() {
            let comma = if i + 1 < self.stages.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\":\"{name}\",\"count\":{},\"sum_nanos\":{},\
                 \"p50_nanos\":{},\"p99_nanos\":{}}}{comma}",
                s.count, s.sum_nanos, s.p50_nanos, s.p99_nanos
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(
            out,
            "  \"corpus\": {{\"programs\":{},\"pairs\":{},\"wall\":{}}},",
            self.corpus_programs,
            self.corpus_pairs,
            summary_json(self.corpus_wall)
        );
        let _ = writeln!(
            out,
            "  \"memo_load\": {{\"records\":{},\"open\":{}}}",
            self.memo_records,
            summary_json(self.memo_load)
        );
        let _ = writeln!(out, "}}");
        out
    }
}

// --- minimal JSON reader (gate side) ---------------------------------

/// A parsed JSON value — just enough structure for the gate to walk a
/// snapshot. No external dependencies; the container is offline.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, kept as f64 (snapshot values fit exactly).
    Num(f64),
    /// A string (escape sequences decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value as u64 (truncating), if this is a number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// String value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a byte-offset-located reason on malformed input.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", b as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                expect(bytes, pos, b':')?;
                members.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            std::str::from_utf8(&bytes[start..*pos])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&b) = bytes.get(*pos) {
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = bytes.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or("bad \\u escape")?;
                        *pos += 4;
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape `\\{}`", other as char)),
                }
            }
            _ => {
                // Re-sync to char boundaries for multi-byte UTF-8.
                let start = *pos - 1;
                let mut end = *pos;
                while end < bytes.len() && bytes[end] & 0xC0 == 0x80 {
                    end += 1;
                }
                out.push_str(
                    std::str::from_utf8(&bytes[start..end]).map_err(|_| "bad UTF-8 in string")?,
                );
                *pos = end;
            }
        }
    }
    Err("unterminated string".into())
}

// --- the gate --------------------------------------------------------

/// The outcome of gating one snapshot against a baseline.
#[derive(Debug)]
pub struct GateReport {
    /// One human-readable line per compared metric.
    pub lines: Vec<String>,
    /// Metrics that regressed beyond tolerance (empty = pass).
    pub failures: Vec<String>,
}

impl GateReport {
    /// Whether the gate passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// One gated metric: exact p50 and p99 extracted from a snapshot.
#[derive(Debug, PartialEq)]
struct GatedMetric {
    name: String,
    p50: u64,
    p99: u64,
}

fn quantiles_of(obj: &Json, what: &str) -> Result<(u64, u64), String> {
    let p50 = obj
        .get("p50_nanos")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{what} without `p50_nanos`"))?;
    let p99 = obj
        .get("p99_nanos")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{what} without `p99_nanos`"))?;
    Ok((p50, p99))
}

/// Extracts the gated metrics from a parsed snapshot.
fn gated_metrics(doc: &Json) -> Result<Vec<GatedMetric>, String> {
    let mut metrics = Vec::new();
    let stages = match doc.get("stages") {
        Some(Json::Arr(items)) => items.as_slice(),
        _ => return Err("missing `stages` array".into()),
    };
    for stage in stages {
        let name = stage
            .get("name")
            .and_then(Json::as_str)
            .ok_or("stage without `name`")?;
        let (p50, p99) = quantiles_of(stage, "stage")?;
        metrics.push(GatedMetric {
            name: format!("stage:{name}"),
            p50,
            p99,
        });
    }
    let wall = doc
        .get("corpus")
        .and_then(|c| c.get("wall"))
        .ok_or("missing `corpus.wall`")?;
    let (p50, p99) = quantiles_of(wall, "corpus.wall")?;
    metrics.push(GatedMetric {
        name: "corpus:wall".into(),
        p50,
        p99,
    });
    let open = doc
        .get("memo_load")
        .and_then(|m| m.get("open"))
        .ok_or("missing `memo_load.open`")?;
    let (p50, p99) = quantiles_of(open, "memo_load.open")?;
    metrics.push(GatedMetric {
        name: "memo_load:open".into(),
        p50,
        p99,
    });
    Ok(metrics)
}

/// Whether `cur` exceeds the tolerance band over `base`, with
/// sub-microsecond baselines clamped to the noise floor first.
fn over_tolerance(cur: u64, base: u64, tolerance_pct: f64) -> bool {
    let floor = base.max(NOISE_FLOOR_NANOS);
    cur as f64 > floor as f64 * (1.0 + tolerance_pct / 100.0)
}

fn delta_pct(cur: u64, base: u64) -> f64 {
    if base == 0 {
        f64::INFINITY
    } else {
        100.0 * (cur as f64 - base as f64) / base as f64
    }
}

/// Gates `current` (JSON text) against `baseline` (JSON text): a metric
/// fails when its p99 regresses beyond `tolerance_pct` percent of the
/// baseline **and** the median confirms it — the p50 is over the same
/// band. A genuine slowdown shifts the whole distribution; a tail-only
/// excursion with an unmoved median is scheduler noise on shared CI
/// hardware, reported as `tail-noise` but not failed. Sub-microsecond
/// baselines are clamped to a noise floor before the percentage check.
/// Metrics present on only one side fail the gate (schema drift).
///
/// # Errors
///
/// Returns a reason when either document is malformed or carries a
/// different schema tag.
pub fn gate(current: &str, baseline: &str, tolerance_pct: f64) -> Result<GateReport, String> {
    let cur = parse_json(current).map_err(|e| format!("current: {e}"))?;
    let base = parse_json(baseline).map_err(|e| format!("baseline: {e}"))?;
    for (label, doc) in [("current", &cur), ("baseline", &base)] {
        match doc.get("schema").and_then(Json::as_str) {
            Some(s) if s == SCHEMA => {}
            Some(s) => return Err(format!("{label}: schema `{s}`, expected `{SCHEMA}`")),
            None => return Err(format!("{label}: missing `schema`")),
        }
    }
    let cur_metrics = gated_metrics(&cur).map_err(|e| format!("current: {e}"))?;
    let base_metrics = gated_metrics(&base).map_err(|e| format!("baseline: {e}"))?;

    let mut report = GateReport {
        lines: Vec::new(),
        failures: Vec::new(),
    };
    for m in &cur_metrics {
        let Some(b) = base_metrics.iter().find(|b| b.name == m.name) else {
            report.failures.push(format!("{}: not in baseline", m.name));
            continue;
        };
        let tail_over = over_tolerance(m.p99, b.p99, tolerance_pct);
        let median_over = over_tolerance(m.p50, b.p50, tolerance_pct);
        let regressed = tail_over && median_over;
        let verdict = if regressed {
            "FAIL"
        } else if tail_over {
            "tail-noise"
        } else {
            "ok"
        };
        report.lines.push(format!(
            "{:<16} p99 {:>12} ns vs {:>12} ns ({:+.1}%)  p50 {:>12} ns vs {:>12} ns ({:+.1}%) {}",
            m.name,
            m.p99,
            b.p99,
            delta_pct(m.p99, b.p99),
            m.p50,
            b.p50,
            delta_pct(m.p50, b.p50),
            verdict
        ));
        if regressed {
            report.failures.push(format!(
                "{}: p99 {} ns over baseline {} ns by {:.1}% and p50 {} ns over {} ns by {:.1}% \
                 (tolerance {tolerance_pct}%)",
                m.name,
                m.p99,
                b.p99,
                delta_pct(m.p99, b.p99),
                m.p50,
                b.p50,
                delta_pct(m.p50, b.p50),
            ));
        }
    }
    for b in &base_metrics {
        if !cur_metrics.iter().any(|m| m.name == b.name) {
            report
                .failures
                .push(format!("{}: missing from current", b.name));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn civil_from_days_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1));
        assert_eq!(civil_from_days(20_673), (2026, 8, 8));
    }

    #[test]
    fn json_parser_round_trips_a_snapshot() {
        let report = BenchReport {
            date: "2026-08-08".into(),
            quick: true,
            stages: vec![
                (
                    "svpc",
                    ExactSummary {
                        count: 10,
                        sum_nanos: 100,
                        p50_nanos: 9,
                        p99_nanos: 15,
                    },
                ),
                (
                    "fm",
                    ExactSummary {
                        count: 10,
                        sum_nanos: 400,
                        p50_nanos: 38,
                        p99_nanos: 60,
                    },
                ),
            ],
            corpus_programs: 13,
            corpus_pairs: 900,
            corpus_wall: ExactSummary {
                count: 3,
                sum_nanos: 3_000,
                p50_nanos: 1_000,
                p99_nanos: 1_200,
            },
            memo_records: 120,
            memo_load: ExactSummary {
                count: 10,
                sum_nanos: 5_000,
                p50_nanos: 480,
                p99_nanos: 700,
            },
        };
        let doc = parse_json(&report.to_json()).expect("emitted JSON parses");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(doc.get("quick"), Some(&Json::Bool(true)));
        let metrics = gated_metrics(&doc).unwrap();
        let expect = [
            ("stage:svpc", 9, 15),
            ("stage:fm", 38, 60),
            ("corpus:wall", 1_000, 1_200),
            ("memo_load:open", 480, 700),
        ];
        assert_eq!(metrics.len(), expect.len());
        for (m, (name, p50, p99)) in metrics.iter().zip(expect) {
            assert_eq!(m.name, name);
            assert_eq!(m.p50, p50);
            assert_eq!(m.p99, p99);
        }
    }

    #[test]
    fn json_parser_rejects_malformed_input() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("{\"a\":1} extra").is_err());
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,2").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    /// A synthetic snapshot where each metric's p50 is half its p99, so
    /// scaling a p99 models a whole-distribution shift (a genuine
    /// regression), not a tail-only spike.
    fn snapshot(p99s: [u64; 4], corpus: u64, memo: u64) -> String {
        let stage = |name: &str, p99: u64| {
            format!(
                "{{\"name\":\"{name}\",\"count\":1,\"sum_nanos\":1,\
                 \"p50_nanos\":{},\"p99_nanos\":{p99}}}",
                p99 / 2
            )
        };
        format!(
            "{{\"schema\":\"{SCHEMA}\",\"date\":\"2026-08-08\",\"quick\":true,\
             \"stages\":[{},{},{},{}],\
             \"corpus\":{{\"programs\":1,\"pairs\":1,\"wall\":{{\"count\":1,\"sum_nanos\":1,\
             \"p50_nanos\":{},\"p99_nanos\":{corpus}}}}},\
             \"memo_load\":{{\"records\":1,\"open\":{{\"count\":1,\"sum_nanos\":1,\
             \"p50_nanos\":{},\"p99_nanos\":{memo}}}}}}}",
            stage("svpc", p99s[0]),
            stage("acyclic", p99s[1]),
            stage("residue", p99s[2]),
            stage("fm", p99s[3]),
            corpus / 2,
            memo / 2,
        )
    }

    #[test]
    fn gate_passes_identical_snapshots() {
        let snap = snapshot([10_000, 20_000, 30_000, 40_000], 5_000_000, 600_000);
        let report = gate(&snap, &snap, DEFAULT_TOLERANCE_PCT).unwrap();
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.lines.len(), 6);
    }

    #[test]
    fn gate_fails_on_p99_regression_beyond_tolerance() {
        let base = snapshot([10_000, 20_000, 30_000, 40_000], 5_000_000, 600_000);
        let cur = snapshot([10_000, 20_000, 30_000, 40_000], 6_500_000, 600_000);
        let report = gate(&cur, &base, 25.0).unwrap();
        assert!(!report.passed());
        assert_eq!(report.failures.len(), 1);
        assert!(
            report.failures[0].contains("corpus:wall"),
            "{:?}",
            report.failures
        );
        // 30% over on a stage also trips it.
        let cur2 = snapshot([13_000, 20_000, 30_000, 40_000], 5_000_000, 600_000);
        let report2 = gate(&cur2, &base, 25.0).unwrap();
        assert!(report2.failures.iter().any(|f| f.contains("stage:svpc")));
    }

    #[test]
    fn gate_treats_tail_only_spikes_as_noise() {
        // Triple the memo-open p99 but leave its median untouched: the
        // signature of a preemption spike, not a regression. The gate
        // reports it as tail-noise and still passes.
        let base = snapshot([10_000, 20_000, 30_000, 40_000], 5_000_000, 600_000);
        let cur = base.replace("\"p99_nanos\":600000", "\"p99_nanos\":1800000");
        assert_ne!(base, cur, "replacement must hit the memo p99");
        let report = gate(&cur, &base, 25.0).unwrap();
        assert!(report.passed(), "{:?}", report.failures);
        assert!(
            report
                .lines
                .iter()
                .any(|l| l.contains("memo_load:open") && l.contains("tail-noise")),
            "{:?}",
            report.lines
        );
    }

    #[test]
    fn gate_tolerates_noise_on_tiny_baselines() {
        // 800 ns -> 1.2 us is +50%, but under the 1 us noise floor's
        // 25% band (1.25 us), so it must not trip the gate.
        let base = snapshot([800, 20_000, 30_000, 40_000], 5_000_000, 600_000);
        let cur = snapshot([1_200, 20_000, 30_000, 40_000], 5_000_000, 600_000);
        assert!(gate(&cur, &base, 25.0).unwrap().passed());
    }

    #[test]
    fn gate_rejects_schema_drift() {
        let good = snapshot([1, 1, 1, 1], 1, 1);
        let bad = good.replace(SCHEMA, "dda-bench-v0");
        assert!(gate(&good, &bad, 25.0).is_err());
        assert!(gate(&bad, &good, 25.0).is_err());
    }
}
