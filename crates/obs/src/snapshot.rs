//! Metric snapshots and their Prometheus/JSON renderings.
//!
//! A [`MetricsSnapshot`] is a view over three sources, read when it is
//! rendered: the live [`MetricsRegistry`] (stage/GCD/refinement/graph/
//! engine telemetry), the authoritative [`AnalysisStats`] (pair
//! outcomes), and the [`SharedMemo`]'s own counters. Nothing is copied
//! out of them first, so the rendered pair and memo numbers are exactly
//! the deterministic ones the analyzer already reports, with telemetry
//! layered alongside.
//!
//! The Prometheus exposition is one list of metric families written by
//! one writer, so the `# HELP`/`# TYPE` lines, label sets, integer,
//! signed and float samples, and the summary expansion are each spelled
//! once.

use std::fmt::{self, Display, Write as _};

use crate::metrics::LatencySummary;
use crate::registry::{
    MemoTableKind, MetricsRegistry, GCD_VERDICT_LABELS, GRAPH_EDGE_LABELS, STAGE_VERDICT_LABELS,
};
use dda_core::stats::AnalysisStats;
use dda_core::{MemoCounters, SharedMemo, TestKind};

/// Analysis-service figures (`dda serve`): request traffic, admission
/// control, and deadline outcomes.
#[derive(Debug, Clone, Default)]
pub struct ServiceSection {
    /// Requests currently being processed.
    pub in_flight: i64,
    /// Maximum concurrent requests before shedding.
    pub max_in_flight: u64,
    /// Requests accepted and answered.
    pub requests: u64,
    /// Requests shed (429) by admission control.
    pub shed: u64,
    /// Requests whose deadline expired (answered with partial results).
    pub deadline_exceeded: u64,
    /// Request counts split by `(endpoint, outcome)`, where outcome is
    /// one of `ok|shed|deadline|error`. When non-empty,
    /// `dda_serve_requests_total` is rendered as these labeled series
    /// (zero-count cells omitted) instead of one unlabeled sample.
    pub requests_by: Vec<(&'static str, &'static str, u64)>,
}

/// A snapshot of a run's metrics, ready to render as Prometheus text
/// exposition or JSON.
///
/// Optional parts appear only when their source has something to say:
/// the graph families once a graph was built, the memo-load families
/// once a memo file was loaded, the engine families when the registry
/// has worker slots or recorded waves, and the service families when a
/// [`ServiceSection`] is given.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot<'a> {
    registry: &'a MetricsRegistry,
    stats: &'a AnalysisStats,
    memo: &'a SharedMemo,
    service: Option<ServiceSection>,
}

/// A sample value.
#[derive(Clone, Copy)]
enum Value {
    Int(u64),
    Signed(i64),
    Float(f64),
    /// Expands to `quantile` samples plus `_sum` and `_count`.
    Summary(LatencySummary),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v)
    }
}

impl From<LatencySummary> for Value {
    fn from(l: LatencySummary) -> Self {
        Value::Summary(l)
    }
}

/// Samples: each a label set rendered as `k="v",...` (empty for none)
/// and a value.
type Samples = Vec<(String, Value)>;

const COUNTER: &str = "counter";
const GAUGE: &str = "gauge";
const SUMMARY: &str = "summary";

/// One metric family: name, type, help text and samples.
struct Family(&'static str, &'static str, &'static str, Samples);

/// One unlabeled sample.
fn one(v: impl Into<Value>) -> Samples {
    vec![(String::new(), v.into())]
}

/// One sample per `(label value, value)` cell under the label `key`.
fn by<L: Display, V: Into<Value>>(key: &str, cells: impl IntoIterator<Item = (L, V)>) -> Samples {
    cells
        .into_iter()
        .map(|(l, v)| (format!("{key}=\"{l}\""), v.into()))
        .collect()
}

/// The one exposition writer.
fn write_family(out: &mut String, Family(name, kind, help, samples): &Family) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    for (labels, value) in samples {
        let set = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        let _ = match *value {
            Value::Int(v) => writeln!(out, "{name}{set} {v}"),
            Value::Signed(v) => writeln!(out, "{name}{set} {v}"),
            Value::Float(v) => writeln!(out, "{name}{set} {v}"),
            Value::Summary(l) => {
                // Quantile samples are omitted entirely for empty
                // histograms — the sentinel is "absent", which keeps
                // the exposition free of non-finite values (our own
                // `prom::parse_exposition` rejects them) and of
                // fabricated zeros.
                let sep = if labels.is_empty() { "" } else { "," };
                for (q, v) in [("0.5", l.p50), ("0.9", l.p90), ("0.99", l.p99)] {
                    if let Some(v) = v {
                        let _ = writeln!(out, "{name}{{{labels}{sep}quantile=\"{q}\"}} {v}");
                    }
                }
                let _ = writeln!(out, "{name}_sum{set} {}", l.sum);
                writeln!(out, "{name}_count{set} {}", l.count)
            }
        };
    }
}

/// Both memo tables: label, counters, per-shard op spread.
fn memo_tables(memo: &SharedMemo) -> [(&'static str, MemoCounters, Vec<u64>); 2] {
    [
        ("full", memo.full.counters(), memo.full.shard_ops()),
        ("gcd", memo.gcd.counters(), memo.gcd.shard_ops()),
    ]
}

impl<'a> MetricsSnapshot<'a> {
    /// A snapshot over a run's registry, pair statistics and memo, plus
    /// the service figures when the run is `dda serve`.
    #[must_use]
    pub fn new(
        registry: &'a MetricsRegistry,
        stats: &'a AnalysisStats,
        memo: &'a SharedMemo,
        service: Option<ServiceSection>,
    ) -> Self {
        MetricsSnapshot {
            registry,
            stats,
            memo,
            service,
        }
    }

    fn graph_built(&self) -> bool {
        self.registry.graph_build_latency().count > 0
    }

    fn has_engine(&self) -> bool {
        self.registry.worker_slots() > 0 || self.registry.waves() > 0
    }

    /// Every metric family, in exposition order.
    fn families(&self) -> Vec<Family> {
        let (reg, s) = (self.registry, self.stats);
        let tables = memo_tables(self.memo);
        let per_table =
            |f: fn(&MemoCounters) -> u64| by("table", tables.iter().map(|t| (t.0, f(&t.1))));
        let mut fs = vec![
            Family(
                "dda_stage_latency_nanos",
                SUMMARY,
                "Cascade stage latency in nanoseconds.",
                by(
                    "stage",
                    TestKind::ALL.map(|t| (t.token(), reg.stage_latency(t))),
                ),
            ),
            Family(
                "dda_stage_verdicts_total",
                COUNTER,
                "Cascade stage outcomes by verdict.",
                TestKind::ALL
                    .iter()
                    .flat_map(|&t| {
                        let cells = STAGE_VERDICT_LABELS.iter().zip(reg.stage_verdicts(t));
                        cells.map(move |(v, n)| {
                            let stage = t.token();
                            (format!("stage=\"{stage}\",verdict=\"{v}\""), Value::Int(n))
                        })
                    })
                    .collect(),
            ),
            Family(
                "dda_gcd_latency_nanos",
                SUMMARY,
                "Extended GCD solve latency in nanoseconds (non-cached).",
                one(reg.gcd_latency()),
            ),
            Family(
                "dda_gcd_verdicts_total",
                COUNTER,
                "Extended GCD outcomes by verdict.",
                by(
                    "verdict",
                    GCD_VERDICT_LABELS.into_iter().zip(reg.gcd_verdicts()),
                ),
            ),
            Family(
                "dda_gcd_cache_hits_total",
                COUNTER,
                "GCD results served from the no-bounds memo.",
                one(reg.gcd_cache_hits()),
            ),
            Family(
                "dda_refinement_latency_nanos",
                SUMMARY,
                "Direction-vector refinement latency in nanoseconds.",
                one(reg.refinement_latency()),
            ),
            Family(
                "dda_refinement_cascade_tests_total",
                COUNTER,
                "Cascade tests issued during direction-vector refinement.",
                one(reg.refinement_cascade_tests()),
            ),
        ];
        // Present only when a graph was actually built, so plain
        // analyze/batch expositions carry no graph families.
        if self.graph_built() {
            fs.extend([
                Family(
                    "dda_graph_edges_total",
                    COUNTER,
                    "Dependence-graph edges by kind.",
                    by("kind", GRAPH_EDGE_LABELS.into_iter().zip(reg.graph_edges())),
                ),
                Family(
                    "dda_graph_parallel_loops_total",
                    COUNTER,
                    "Loops judged parallel (no carried dependence).",
                    one(reg.graph_parallel_loops()),
                ),
                Family(
                    "dda_graph_sequential_loops_total",
                    COUNTER,
                    "Loops judged sequential (some carried dependence).",
                    one(reg.graph_sequential_loops()),
                ),
                Family(
                    "dda_graph_build_latency_nanos",
                    SUMMARY,
                    "Dependence-graph build latency in nanoseconds.",
                    one(reg.graph_build_latency()),
                ),
            ]);
        }
        fs.extend([
            Family(
                "dda_pairs_total",
                COUNTER,
                "Reference pairs analyzed.",
                one(s.pairs),
            ),
            Family(
                "dda_pairs_constant_total",
                COUNTER,
                "Pairs with constant subscripts.",
                one(s.constant),
            ),
            Family(
                "dda_pairs_assumed_total",
                COUNTER,
                "Pairs where dependence was assumed.",
                one(s.assumed),
            ),
            Family(
                "dda_pairs_gcd_independent_total",
                COUNTER,
                "Pairs proven independent by the GCD test alone.",
                one(s.gcd_independent),
            ),
            Family(
                "dda_pair_memo_queries_total",
                COUNTER,
                "Per-pair memo queries, as counted by AnalysisStats.",
                by(
                    "table",
                    [("full", s.memo_queries), ("gcd", s.gcd_memo_queries)],
                ),
            ),
            Family(
                "dda_pair_memo_hits_total",
                COUNTER,
                "Per-pair memo hits, as counted by AnalysisStats.",
                by("table", [("full", s.memo_hits), ("gcd", s.gcd_memo_hits)]),
            ),
            Family(
                "dda_memo_queries_total",
                COUNTER,
                "Memo table lookups (table traffic).",
                per_table(|c| c.queries),
            ),
            Family(
                "dda_memo_hits_total",
                COUNTER,
                "Memo table hits.",
                per_table(|c| c.hits),
            ),
            Family(
                "dda_memo_misses_total",
                COUNTER,
                "Memo table misses.",
                per_table(MemoCounters::misses),
            ),
            Family(
                "dda_memo_warm_loads_total",
                COUNTER,
                "Entries loaded from a persisted memo file.",
                per_table(|c| c.warm_loads),
            ),
            Family(
                "dda_memo_entries",
                GAUGE,
                "Distinct entries currently stored.",
                per_table(|c| c.entries),
            ),
            Family(
                "dda_memo_bytes",
                GAUGE,
                "Estimated bytes held by stored entries.",
                per_table(|c| c.bytes),
            ),
            Family(
                "dda_memo_capacity_bytes",
                GAUGE,
                "Configured byte capacity (0 = unbounded).",
                per_table(|c| c.capacity_bytes),
            ),
            Family(
                "dda_memo_evictions_total",
                COUNTER,
                "Entries evicted to stay under the byte capacity.",
                per_table(|c| c.evictions),
            ),
            Family(
                "dda_memo_shard_ops_total",
                COUNTER,
                "Operations (gets + inserts) per memo shard.",
                tables
                    .iter()
                    .flat_map(|(table, _, ops)| {
                        ops.iter().enumerate().map(move |(i, &n)| {
                            (format!("table=\"{table}\",shard=\"{i}\""), Value::Int(n))
                        })
                    })
                    .collect(),
            ),
            Family(
                "dda_incremental_spliced_total",
                COUNTER,
                "Pairs whose verdict was spliced from a warm memo entry.",
                one(reg.incremental_spliced()),
            ),
            Family(
                "dda_incremental_resolved_total",
                COUNTER,
                "Pairs re-solved this session (not spliced).",
                one(reg.incremental_resolved()),
            ),
        ]);
        let load = self.memo.memo_load_stats();
        if load.files > 0 {
            fs.extend([
                Family(
                    "dda_memo_load_files_total",
                    COUNTER,
                    "Memo archives loaded.",
                    one(load.files),
                ),
                Family(
                    "dda_memo_load_records_total",
                    COUNTER,
                    "Records made available by memo file loads.",
                    one(load.records),
                ),
                Family(
                    "dda_memo_load_bytes_total",
                    COUNTER,
                    "Bytes read while loading memo files.",
                    one(load.bytes),
                ),
                Family(
                    "dda_memo_load_nanos_total",
                    COUNTER,
                    "Nanoseconds spent loading memo files.",
                    one(load.nanos),
                ),
                Family(
                    "dda_memo_archive_faults_total",
                    COUNTER,
                    "Records lazily faulted out of an attached v3 archive.",
                    one(load.archive_faults),
                ),
            ]);
        }
        if let Some(sv) = &self.service {
            let requests = if sv.requests_by.is_empty() {
                one(sv.requests)
            } else {
                let cells = sv.requests_by.iter();
                cells
                    .map(|&(e, o, n)| (format!("endpoint=\"{e}\",outcome=\"{o}\""), Value::Int(n)))
                    .collect()
            };
            fs.extend([
                Family(
                    "dda_serve_in_flight_requests",
                    GAUGE,
                    "Requests currently being processed.",
                    one(Value::Signed(sv.in_flight)),
                ),
                Family(
                    "dda_serve_max_in_flight_requests",
                    GAUGE,
                    "Maximum concurrent requests before shedding.",
                    one(sv.max_in_flight),
                ),
                Family(
                    "dda_serve_requests_total",
                    COUNTER,
                    "Requests accepted and answered, by endpoint and outcome.",
                    requests,
                ),
                Family(
                    "dda_serve_shed_total",
                    COUNTER,
                    "Requests shed (429) by admission control.",
                    one(sv.shed),
                ),
                Family(
                    "dda_serve_deadline_exceeded_total",
                    COUNTER,
                    "Requests whose deadline expired before analysis finished.",
                    one(sv.deadline_exceeded),
                ),
            ]);
        }
        if self.has_engine() {
            fs.extend([
                Family(
                    "dda_engine_workers",
                    GAUGE,
                    "Worker slots the engine was configured with.",
                    one(reg.worker_slots() as u64),
                ),
                Family(
                    "dda_engine_waves_total",
                    COUNTER,
                    "Parallel waves executed.",
                    one(reg.waves()),
                ),
                Family(
                    "dda_engine_tasks_total",
                    COUNTER,
                    "Items processed across all waves.",
                    one(reg.tasks()),
                ),
                Family(
                    "dda_engine_busy_nanos_total",
                    COUNTER,
                    "Nanoseconds workers spent inside mapped closures.",
                    one(reg.busy_nanos()),
                ),
                Family(
                    "dda_engine_capacity_nanos_total",
                    COUNTER,
                    "Wall nanoseconds times participating workers.",
                    one(reg.capacity_nanos()),
                ),
                Family(
                    "dda_engine_queue_wait_nanos_total",
                    COUNTER,
                    "Nanoseconds workers waited before their first item.",
                    one(reg.queue_wait_nanos()),
                ),
                Family(
                    "dda_engine_utilization_ratio",
                    GAUGE,
                    "Busy time over pool capacity, 0 to 1.",
                    one(Value::Float(reg.utilization())),
                ),
                Family(
                    "dda_engine_leader_elections_total",
                    COUNTER,
                    "Distinct keys elected a solving leader, by memo table.",
                    by(
                        "table",
                        [
                            ("full", reg.leader_elections(MemoTableKind::Full)),
                            ("gcd", reg.leader_elections(MemoTableKind::Gcd)),
                        ],
                    ),
                ),
            ]);
            if reg.worker_slots() > 0 {
                fs.extend([
                    Family(
                        "dda_engine_worker_tasks_total",
                        COUNTER,
                        "Items processed per worker slot.",
                        by("worker", reg.worker_tasks().into_iter().enumerate()),
                    ),
                    Family(
                        "dda_engine_worker_busy_nanos_total",
                        COUNTER,
                        "Busy nanoseconds per worker slot.",
                        by("worker", reg.worker_busy_nanos().into_iter().enumerate()),
                    ),
                ]);
            }
        }
        fs
    }

    /// Renders the snapshot in Prometheus text exposition format
    /// (`# HELP`/`# TYPE` headers, summaries with
    /// `quantile="0.5|0.9|0.99"` samples plus `_sum`/`_count`).
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for family in &self.families() {
            write_family(&mut out, family);
        }
        out
    }

    /// Renders the snapshot as a single JSON object with deterministic
    /// key order.
    #[must_use]
    pub fn to_json(&self) -> String {
        let (reg, s) = (self.registry, self.stats);
        let stages = TestKind::ALL.map(|t| {
            Obj::default()
                .field("stage", Quoted(t.token()))
                .field("latency", latency_json(reg.stage_latency(t)))
                .field(
                    "verdicts",
                    counts_json(STAGE_VERDICT_LABELS, reg.stage_verdicts(t)),
                )
        });
        let mut obj = Obj::default()
            .field("stages", List(stages.into()))
            .field(
                "gcd",
                Obj::default()
                    .field("latency", latency_json(reg.gcd_latency()))
                    .field(
                        "verdicts",
                        counts_json(GCD_VERDICT_LABELS, reg.gcd_verdicts()),
                    )
                    .field("cache_hits", reg.gcd_cache_hits()),
            )
            .field(
                "refinement",
                Obj::default()
                    .field("latency", latency_json(reg.refinement_latency()))
                    .field("cascade_tests", reg.refinement_cascade_tests()),
            );
        if self.graph_built() {
            obj = obj.field(
                "graph",
                Obj::default()
                    .field("edges", counts_json(GRAPH_EDGE_LABELS, reg.graph_edges()))
                    .field("parallel_loops", reg.graph_parallel_loops())
                    .field("sequential_loops", reg.graph_sequential_loops())
                    .field("build_latency", latency_json(reg.graph_build_latency())),
            );
        }
        obj = obj
            .field(
                "pairs",
                Obj::default()
                    .field("pairs", s.pairs)
                    .field("constant", s.constant)
                    .field("assumed", s.assumed)
                    .field("gcd_independent", s.gcd_independent)
                    .field("memo_queries", s.memo_queries)
                    .field("memo_hits", s.memo_hits)
                    .field("gcd_memo_queries", s.gcd_memo_queries)
                    .field("gcd_memo_hits", s.gcd_memo_hits),
            )
            .field("memo", memo_tables_json(self.memo))
            .field(
                "incremental",
                Obj::default()
                    .field("spliced", reg.incremental_spliced())
                    .field("resolved", reg.incremental_resolved()),
            );
        if self.memo.memo_load_stats().files > 0 {
            obj = obj.field("memo_load", memo_load_json(self.memo));
        }
        if let Some(sv) = &self.service {
            let mut service = Obj::default()
                .field("in_flight", sv.in_flight)
                .field("max_in_flight", sv.max_in_flight)
                .field("requests", sv.requests)
                .field("shed", sv.shed)
                .field("deadline_exceeded", sv.deadline_exceeded);
            if !sv.requests_by.is_empty() {
                let cells = sv.requests_by.iter().map(|&(endpoint, outcome, count)| {
                    Obj::default()
                        .field("endpoint", Quoted(endpoint))
                        .field("outcome", Quoted(outcome))
                        .field("count", count)
                });
                service = service.field("requests_by", List(cells.collect()));
            }
            obj = obj.field("service", service);
        }
        if self.has_engine() {
            obj = obj.field(
                "engine",
                Obj::default()
                    .field("workers", reg.worker_slots())
                    .field("waves", reg.waves())
                    .field("tasks", reg.tasks())
                    .field("busy_nanos", reg.busy_nanos())
                    .field("capacity_nanos", reg.capacity_nanos())
                    .field("queue_wait_nanos", reg.queue_wait_nanos())
                    .field("utilization", reg.utilization())
                    .field(
                        "leader_elections",
                        Obj::default()
                            .field("full", reg.leader_elections(MemoTableKind::Full))
                            .field("gcd", reg.leader_elections(MemoTableKind::Gcd)),
                    )
                    .field("worker_tasks", List(reg.worker_tasks()))
                    .field("worker_busy_nanos", List(reg.worker_busy_nanos())),
            );
        }
        obj.to_string()
    }
}

/// Both memo tables' counters as a JSON array of objects (`full`, then
/// `gcd`), each with its per-shard op spread.
#[must_use]
pub fn memo_tables_json(memo: &SharedMemo) -> String {
    let tables = memo_tables(memo).map(|(table, c, shard_ops)| {
        Obj::default()
            .field("table", Quoted(table))
            .field("queries", c.queries)
            .field("hits", c.hits)
            .field("misses", c.misses())
            .field("warm_loads", c.warm_loads)
            .field("entries", c.entries)
            .field("bytes", c.bytes)
            .field("evictions", c.evictions)
            .field("capacity_bytes", c.capacity_bytes)
            .field("shard_ops", List(shard_ops))
    });
    List(tables.into()).to_string()
}

/// The memo's warm-start figures as a JSON object.
#[must_use]
pub fn memo_load_json(memo: &SharedMemo) -> String {
    let l = memo.memo_load_stats();
    Obj::default()
        .field("files", l.files)
        .field("records", l.records)
        .field("bytes", l.bytes)
        .field("nanos", l.nanos)
        .field("archive_faults", l.archive_faults)
        .to_string()
}

/// A JSON object written field by field; each value renders itself as
/// JSON through `Display`.
#[derive(Default)]
struct Obj(String);

impl Obj {
    fn field(mut self, key: &str, value: impl Display) -> Self {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        let _ = write!(self.0, "\"{key}\":{value}");
        self
    }
}

impl Display for Obj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            f.write_str("{}")
        } else {
            write!(f, "{}}}", self.0)
        }
    }
}

/// A JSON string (label tokens only: nothing to escape).
struct Quoted<'s>(&'s str);

impl Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{}\"", self.0)
    }
}

/// A JSON array of values that render themselves.
struct List<T>(Vec<T>);

impl<T: Display> Display for List<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str("]")
    }
}

/// `{"label":count,...}` over parallel label and count arrays.
fn counts_json<const N: usize>(labels: [&str; N], counts: [u64; N]) -> Obj {
    labels
        .into_iter()
        .zip(counts)
        .fold(Obj::default(), |o, (l, n)| o.field(l, n))
}

fn latency_json(l: LatencySummary) -> Obj {
    // Empty histograms have no percentiles (the documented sentinel);
    // JSON has no NaN, so they render as `null`.
    let q = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
    Obj::default()
        .field("count", l.count)
        .field("sum_nanos", l.sum)
        .field("p50", q(l.p50))
        .field("p90", q(l.p90))
        .field("p99", q(l.p99))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dda_core::gcd::EqOutcome;
    use dda_core::memo::MemoKey;
    use dda_core::pipeline::StageVerdict;

    /// A two-shard memo: eight GCD inserts each read back, one full miss.
    fn sample_memo() -> SharedMemo {
        let memo = SharedMemo::new(2);
        for n in 0..8 {
            let key = MemoKey::from_vec(vec![n]);
            let value = EqOutcome::Independent { refutation: None };
            memo.gcd.insert(key.clone(), std::sync::Arc::new(value));
            assert!(memo.gcd.get(&key).is_some());
        }
        assert!(memo.full.get(&MemoKey::from_vec(vec![99])).is_none());
        memo
    }

    fn sample_registry() -> MetricsRegistry {
        let reg = MetricsRegistry::with_workers(2);
        reg.record_stage(TestKind::Svpc, StageVerdict::Independent, 100);
        reg.record_gcd(dda_core::pipeline::GcdVerdict::Lattice, false, 50);
        reg.record_incremental(5, 11);
        reg
    }

    fn sample_service() -> ServiceSection {
        ServiceSection {
            in_flight: 1,
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
    fn prometheus_exposition_has_expected_shape() {
        let (reg, stats, memo) = (sample_registry(), AnalysisStats::default(), sample_memo());
        let snap = MetricsSnapshot::new(&reg, &stats, &memo, Some(sample_service()));
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE dda_stage_latency_nanos summary"));
        assert!(text.contains("dda_stage_latency_nanos{stage=\"svpc\",quantile=\"0.5\"}"));
        assert!(text.contains("dda_stage_latency_nanos_count{stage=\"svpc\"} 1"));
        assert!(text.contains("dda_stage_verdicts_total{stage=\"svpc\",verdict=\"independent\"} 1"));
        assert!(text.contains("dda_memo_hits_total{table=\"gcd\"} 8"));
        assert!(text.contains("dda_memo_misses_total{table=\"full\"} 1"));
        assert!(text.contains("# TYPE dda_memo_entries gauge"));
        assert!(text.contains("dda_memo_entries{table=\"gcd\"} 8"));
        assert!(text.contains("dda_serve_in_flight_requests 1"));
        assert!(text.contains("dda_serve_shed_total 2"));
        // The outcome split replaces the unlabeled requests sample.
        assert!(text.contains("dda_serve_requests_total{endpoint=\"/analyze\",outcome=\"ok\"} 9"));
        assert!(!text.contains("dda_serve_requests_total 12"));
        assert!(text.contains("dda_memo_shard_ops_total{table=\"full\",shard=\"1\"}"));
        assert!(text.contains("dda_incremental_spliced_total 5"));
        assert!(text.contains("dda_engine_workers 2"));
        assert!(text.contains("# TYPE dda_engine_utilization_ratio gauge"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(
                line.split_whitespace().count(),
                2,
                "bad sample line: {line}"
            );
        }
    }

    #[test]
    fn json_rendering_is_an_object_with_sections() {
        let (reg, stats, memo) = (sample_registry(), AnalysisStats::default(), sample_memo());
        let json = MetricsSnapshot::new(&reg, &stats, &memo, Some(sample_service())).to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"stages\":",
            "\"gcd\":",
            "\"refinement\":",
            "\"pairs\":",
            "\"memo\":[{\"table\":\"full\",",
            "\"engine\":",
            "\"incremental\":{\"spliced\":5,\"resolved\":11}",
            "\"service\":{\"in_flight\":1,\"max_in_flight\":8,\"requests\":12,\"shed\":2,\"deadline_exceeded\":1,\"requests_by\":[{\"endpoint\":\"/analyze\",\"outcome\":\"ok\",\"count\":9}",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn optional_families_follow_their_sources() {
        let (reg, stats, memo) = (
            MetricsRegistry::new(),
            AnalysisStats::default(),
            SharedMemo::new(1),
        );
        let snap = MetricsSnapshot::new(&reg, &stats, &memo, None);
        let (text, json) = (snap.to_prometheus(), snap.to_json());
        // No load, no graph, no pool, no service: no such families...
        for absent in ["dda_memo_load_", "dda_graph_", "dda_engine_", "dda_serve_"] {
            assert!(!text.contains(absent), "{absent} in {text}");
        }
        for absent in [
            "\"memo_load\":",
            "\"graph\":",
            "\"engine\":",
            "\"service\":",
        ] {
            assert!(!json.contains(absent), "{absent} in {json}");
        }
        // ...while incremental is always present, even when zero.
        assert!(text.contains("dda_incremental_spliced_total 0"));
        assert!(json.contains("\"incremental\":{\"spliced\":0,\"resolved\":0}"));

        reg.record_graph([3, 1, 2, 0], 4, 2, 1500);
        let with = MetricsSnapshot::new(&reg, &stats, &memo, None);
        let text = with.to_prometheus();
        assert!(text.contains("dda_graph_edges_total{kind=\"anti\"} 1"));
        assert!(text.contains("dda_graph_build_latency_nanos_count 1"));
        assert!(with.to_json().contains("\"graph\":{\"edges\":{\"flow\":3,\"anti\":1,\"output\":2,\"input\":0},\"parallel_loops\":4,\"sequential_loops\":2,\"build_latency\":"));
    }

    #[test]
    fn memo_json_helpers_read_the_memo() {
        let memo = sample_memo();
        let tables = memo_tables_json(&memo);
        assert!(tables.starts_with("[{\"table\":\"full\",\"queries\":1,\"hits\":0,\"misses\":1,"));
        assert!(tables.contains("{\"table\":\"gcd\",\"queries\":8,\"hits\":8,\"misses\":0,"));
        assert_eq!(
            memo_load_json(&memo),
            "{\"files\":0,\"records\":0,\"bytes\":0,\"nanos\":0,\"archive_faults\":0}"
        );

        // After a load, each field is the memo's own figure.
        let path = std::env::temp_dir().join(format!("dda-obs-load-{}.memo", std::process::id()));
        memo.save_memo_file_v3(&path, 1).expect("save archive");
        let loaded = SharedMemo::new(1);
        loaded.load_memo_file(&path).expect("load archive");
        let _ = std::fs::remove_file(&path);
        assert!(loaded.lookup_gcd(&MemoKey::from_vec(vec![3])).is_some());
        let l = loaded.memo_load_stats();
        assert_eq!((l.files, l.records, l.archive_faults), (1, 8, 1));
        assert!(l.bytes > 0 && l.nanos > 0);
        assert_eq!(
            memo_load_json(&loaded),
            format!(
                "{{\"files\":{},\"records\":{},\"bytes\":{},\"nanos\":{},\"archive_faults\":{}}}",
                l.files, l.records, l.bytes, l.nanos, l.archive_faults
            )
        );
    }
}
