//! Metric names, quantiles, span recording and the result output.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// End-to-end metrics, measured with tracing off, in output order.
/// `BENCHMARK.json` lists the same names with their bounds.
pub const END_TO_END: [(&str, &str); 4] = [
    ("p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, in output order. Every workload
/// emits every name; a layer a workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("batch.p90_ms", "ms"),
    ("batch.raw_p50_ms", "ms"),
    ("calib.reference_ms", "ms"),
    ("ir.parse_ms", "ms"),
    ("ir.normalize_ms", "ms"),
    ("ir.extract_ms", "ms"),
    ("ir.pairs", "count"),
    ("engine.analyze_ms", "ms"),
    ("engine.waves", "count"),
    ("engine.busy_ms", "ms"),
    ("engine.capacity_ms", "ms"),
    ("engine.queue_wait_ms", "ms"),
    ("engine.utilization", "ratio"),
    ("engine.in_waves_ms", "ms"),
    ("engine.outside_waves_ms", "ms"),
    ("engine.leaders.full", "count"),
    ("engine.leaders.gcd", "count"),
    ("engine.leader_ratio", "ratio"),
    ("core.gcd_ms", "ms"),
    ("core.gcd_solves", "count"),
    ("core.gcd_cache_hits", "count"),
    ("core.cascade_ms.svpc", "ms"),
    ("core.cascade_ms.acyclic", "ms"),
    ("core.cascade_ms.residue", "ms"),
    ("core.cascade_ms.fm", "ms"),
    ("core.cascade_calls.svpc", "count"),
    ("core.cascade_calls.acyclic", "count"),
    ("core.cascade_calls.residue", "count"),
    ("core.cascade_calls.fm", "count"),
    ("core.refine_ms", "ms"),
    ("core.refine_calls", "count"),
    ("core.refine_tests", "count"),
    ("core.wall_share_pct", "%"),
    ("memo.full.hit_ratio", "ratio"),
    ("memo.gcd.hit_ratio", "ratio"),
    ("memo.entries", "count"),
    ("memo.bytes", "bytes"),
    ("memo.archive_open_ms", "ms"),
    ("memo.archive_faults", "count"),
    ("memo.splice_ratio", "ratio"),
    ("render.ms", "ms"),
    ("render.bytes", "bytes"),
    ("serve.server_ms_p50", "ms"),
    ("serve.outside_engine_ms_p50", "ms"),
    ("serve.outside_engine_ms", "ms"),
    ("serve.gen_late_ms", "ms"),
    ("serve.lat_ms_p50.r100", "ms"),
    ("serve.lat_ms_p50.r150", "ms"),
    ("serve.lat_ms_p99.r100", "ms"),
    ("serve.lat_ms_p99.r150", "ms"),
    ("serve.gen_late_ms_p99.r100", "ms"),
    ("serve.gen_late_ms_p99.r150", "ms"),
    ("serve.capacity_rps", "1/s"),
    ("serve.shed", "count"),
    ("budget.wall_ms", "ms"),
    ("budget.covered_pct", "%"),
    ("budget.unaccounted_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.ops", "count"),
];

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (NaN-free input; 0 for an empty slice).
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Arithmetic mean (0 for an empty slice).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Milliseconds between two instants.
#[must_use]
pub fn ms_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// `part / whole`, or 0 when `whole` is 0.
#[must_use]
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Sums of named per-operation samples, averaged on read.
#[derive(Debug, Default, Clone)]
pub struct Accum {
    sums: BTreeMap<&'static str, f64>,
    n: usize,
}

impl Accum {
    /// Folds in one operation's samples.
    pub fn add(&mut self, sample: &[(&'static str, f64)]) {
        for &(k, v) in sample {
            *self.sums.entry(k).or_default() += v;
        }
        self.n += 1;
    }

    /// Mean of `key` over the folded operations (0 if never sampled).
    #[must_use]
    pub fn mean(&self, key: &str) -> f64 {
        ratio(self.sums.get(key).copied().unwrap_or(0.0), self.n as f64)
    }
}

/// One recorded span: a timed call the benchmark made into the program.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    op: &'static str,
    op_id: u64,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. A disabled recorder never reads the clock,
/// so the untraced path runs the same code with no timing calls.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    opened: Vec<Instant>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

impl Spans {
    /// A recorder that records (`enabled`) or does nothing.
    #[must_use]
    pub fn new(enabled: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            opened: Vec::new(),
        }
    }

    /// Opens a span for operation `op`/`op_id` under `parent`.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: &'static str,
        op_id: u64,
    ) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let now = Instant::now();
        self.spans.push(Span {
            name,
            parent: parent.map(|p| p.0),
            op,
            op_id,
            start_ns: self.nanos(now),
            end_ns: 0,
        });
        self.opened.push(now);
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span and returns its duration in milliseconds (0 when
    /// disabled).
    pub fn close(&mut self, id: SpanId) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let now = Instant::now();
        self.spans[id.0].end_ns = self.nanos(now);
        ms_between(self.opened[id.0], now)
    }

    /// Records an already-measured interval as a span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        (op, op_id): (&'static str, u64),
        (start, end): (Instant, Instant),
    ) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        self.spans.push(Span {
            name,
            parent: parent.map(|p| p.0),
            op,
            op_id,
            start_ns: self.nanos(start),
            end_ns: self.nanos(end),
        });
        self.opened.push(start);
        SpanId(self.spans.len() - 1)
    }

    fn nanos(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Writes the spans as JSONL (`id`, `parent`, `name`, `op`,
    /// `start_ns`, `end_ns`), creating the parent directory.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"op\":\"{}-{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.op_id, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations measured (batches or requests).
    pub attempted: u64,
    /// Measured operations that failed, were refused, or answered wrong.
    pub failed: u64,
    /// Human-readable correctness failures.
    pub errors: Vec<String>,
    /// Named values; the output keeps only the mode's metric table.
    pub values: BTreeMap<&'static str, f64>,
    /// Extra `name value unit` lines printed but not in the JSON.
    pub extra: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a failed correctness check; every measured operation it
    /// covers counts as failed.
    pub fn fail(&mut self, message: String, ops: u64) {
        self.errors.push(message);
        self.failed = (self.failed + ops).min(self.attempted.max(1));
    }

    /// Whether the run was correct.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// Prints `workload metric value unit` lines and the final JSON
    /// object with the metrics of `table`.
    pub fn print(&self, workload: &str, table: &[(&'static str, &'static str)]) {
        let mut json = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            println!("{workload} {name} {v} {unit}");
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(json, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        for (name, v, unit) in &self.extra {
            println!("{workload} {name} {v} {unit}");
        }
        let error_rate = ratio(self.failed as f64, self.attempted as f64);
        println!("{workload} error_rate {error_rate} ratio");
        for e in &self.errors {
            eprintln!("{workload}: correctness: {e}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len);
    }
}
