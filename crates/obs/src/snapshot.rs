//! Point-in-time metric snapshots and their Prometheus/JSON renderings.
//!
//! A [`MetricsSnapshot`] is assembled from three sources: the live
//! [`MetricsRegistry`] (stage/GCD/refinement/engine telemetry), the
//! authoritative [`AnalysisStats`] (pair outcomes), and the memo
//! tables' own counters. Keeping pair and memo figures out of the
//! registry means the rendered numbers are exactly the deterministic
//! ones the analyzer already reports, with telemetry layered alongside.
//!
//! [`AnalysisStats`]: dda_core::stats::AnalysisStats

use crate::metrics::LatencySummary;
use crate::registry::{
    MemoTableKind, MetricsRegistry, GCD_VERDICT_LABELS, GRAPH_EDGE_LABELS, STAGE_VERDICT_LABELS,
};
use dda_core::stats::AnalysisStats;
use dda_core::{MemoCounters, TestKind};
use std::fmt::Write as _;

/// One cascade stage's latency and verdict figures.
#[derive(Debug, Clone)]
pub struct StageSection {
    /// Stage token (`svpc`, `acyclic`, `residue`, `fm`).
    pub stage: &'static str,
    /// Latency summary of the stage's invocations.
    pub latency: LatencySummary,
    /// Verdict counts, indexed like [`STAGE_VERDICT_LABELS`].
    pub verdicts: [u64; 4],
}

/// GCD-phase figures.
#[derive(Debug, Clone)]
pub struct GcdSection {
    /// Latency summary of non-cached solves.
    pub latency: LatencySummary,
    /// Verdict counts, indexed like [`GCD_VERDICT_LABELS`].
    pub verdicts: [u64; 3],
    /// Results served from the GCD memo.
    pub cache_hits: u64,
}

/// Direction-vector refinement figures.
#[derive(Debug, Clone)]
pub struct RefinementSection {
    /// Latency summary of whole refinements.
    pub latency: LatencySummary,
    /// Total cascade tests issued during refinement.
    pub cascade_tests: u64,
}

/// Dependence-graph figures, present when at least one graph was
/// built.
#[derive(Debug, Clone)]
pub struct GraphSection {
    /// Edge counts by kind, indexed like [`GRAPH_EDGE_LABELS`].
    pub edges: [u64; 4],
    /// Loops judged parallel.
    pub parallel_loops: u64,
    /// Loops judged sequential.
    pub sequential_loops: u64,
    /// Latency summary of graph builds (count = graphs built).
    pub build_latency: LatencySummary,
}

/// Pair outcome figures, copied from the authoritative
/// [`AnalysisStats`].
#[derive(Debug, Clone)]
pub struct PairsSection {
    /// Reference pairs analyzed.
    pub pairs: u64,
    /// Pairs with constant subscripts (compared directly).
    pub constant: u64,
    /// Pairs where dependence was assumed (no test applied).
    pub assumed: u64,
    /// Pairs proven independent by the GCD test alone.
    pub gcd_independent: u64,
    /// Full-result memo queries (per-pair accounting).
    pub memo_queries: u64,
    /// Full-result memo hits (per-pair accounting).
    pub memo_hits: u64,
    /// GCD memo queries (per-pair accounting).
    pub gcd_memo_queries: u64,
    /// GCD memo hits (per-pair accounting).
    pub gcd_memo_hits: u64,
}

/// One memo table's traffic, plus the per-shard op spread for sharded
/// tables (empty for the serial analyzer's tables).
#[derive(Debug, Clone)]
pub struct MemoSection {
    /// Table label (`full` or `gcd`).
    pub table: &'static str,
    /// The table's own counters.
    pub counters: MemoCounters,
    /// Per-shard operation counts; empty when the table is unsharded.
    pub shard_ops: Vec<u64>,
}

/// Incremental re-analysis accounting: how many pairs were answered by
/// splicing a warm memo verdict versus actually re-solved.
#[derive(Debug, Clone, Default)]
pub struct IncrementalSection {
    /// Pairs whose verdict was spliced from a warm memo entry.
    pub spliced: u64,
    /// Pairs that were re-solved this session.
    pub resolved: u64,
}

/// Persisted-memo load figures, present when at least one memo file was
/// loaded.
#[derive(Debug, Clone, Default)]
pub struct MemoLoadSection {
    /// Memo files loaded (v2 text or v3 binary).
    pub files: u64,
    /// Records made available by those loads.
    pub records: u64,
    /// Bytes read or mapped.
    pub bytes: u64,
    /// Nanoseconds spent loading.
    pub nanos: u64,
    /// Records lazily faulted out of an attached v3 archive.
    pub archive_faults: u64,
}

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

/// Engine worker-pool figures.
#[derive(Debug, Clone)]
pub struct EngineSection {
    /// Worker slots the engine was configured with.
    pub workers: u64,
    /// Parallel waves executed.
    pub waves: u64,
    /// Items processed across all waves.
    pub tasks: u64,
    /// Nanoseconds workers spent inside mapped closures.
    pub busy_nanos: u64,
    /// Wall nanoseconds × participating workers, summed over waves.
    pub capacity_nanos: u64,
    /// Nanoseconds workers waited before their first item.
    pub queue_wait_nanos: u64,
    /// Leader elections against the full-result table.
    pub leader_elections_full: u64,
    /// Leader elections against the GCD table.
    pub leader_elections_gcd: u64,
    /// Per-worker task counts.
    pub worker_tasks: Vec<u64>,
    /// Per-worker busy nanoseconds.
    pub worker_busy_nanos: Vec<u64>,
}

impl EngineSection {
    /// Fraction of pool capacity spent busy (`busy / capacity`), in
    /// `[0, 1]`; zero when no capacity was recorded.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.capacity_nanos == 0 {
            0.0
        } else {
            self.busy_nanos as f64 / self.capacity_nanos as f64
        }
    }
}

/// A complete snapshot, ready to render as Prometheus text exposition
/// or JSON.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Per-stage figures, in cascade order.
    pub stages: Vec<StageSection>,
    /// GCD-phase figures.
    pub gcd: GcdSection,
    /// Refinement figures.
    pub refinement: RefinementSection,
    /// Dependence-graph figures, when at least one graph was built.
    pub graph: Option<GraphSection>,
    /// Pair outcomes, when attached via [`with_pairs`].
    ///
    /// [`with_pairs`]: MetricsSnapshot::with_pairs
    pub pairs: Option<PairsSection>,
    /// Memo tables, when attached via [`with_memo_table`].
    ///
    /// [`with_memo_table`]: MetricsSnapshot::with_memo_table
    pub memo: Vec<MemoSection>,
    /// Incremental re-analysis accounting, read from the registry.
    pub incremental: IncrementalSection,
    /// Persisted-memo load figures, when attached via [`with_memo_load`]
    /// and at least one file was loaded.
    ///
    /// [`with_memo_load`]: MetricsSnapshot::with_memo_load
    pub memo_load: Option<MemoLoadSection>,
    /// Engine figures, when the registry carries worker slots.
    pub engine: Option<EngineSection>,
    /// Service figures, when attached via [`with_service`].
    ///
    /// [`with_service`]: MetricsSnapshot::with_service
    pub service: Option<ServiceSection>,
}

impl MetricsSnapshot {
    /// Reads the registry into a snapshot. Engine figures are included
    /// when the registry has worker slots or recorded waves; pair and
    /// memo sections start empty and are attached with the `with_*`
    /// builders.
    #[must_use]
    pub fn from_registry(reg: &MetricsRegistry) -> Self {
        let stages = TestKind::ALL
            .iter()
            .map(|&t| StageSection {
                stage: t.token(),
                latency: reg.stage_latency(t),
                verdicts: reg.stage_verdicts(t),
            })
            .collect();
        let engine = if reg.worker_slots() > 0 || reg.waves() > 0 {
            Some(EngineSection {
                workers: reg.worker_slots() as u64,
                waves: reg.waves(),
                tasks: reg.tasks(),
                busy_nanos: reg.busy_nanos(),
                capacity_nanos: reg.capacity_nanos(),
                queue_wait_nanos: reg.queue_wait_nanos(),
                leader_elections_full: reg.leader_elections(MemoTableKind::Full),
                leader_elections_gcd: reg.leader_elections(MemoTableKind::Gcd),
                worker_tasks: reg.worker_tasks(),
                worker_busy_nanos: reg.worker_busy_nanos(),
            })
        } else {
            None
        };
        // Present only when a graph was actually built, so plain
        // analyze/batch expositions are unchanged.
        let build_latency = reg.graph_build_latency();
        let graph = (build_latency.count > 0).then(|| GraphSection {
            edges: reg.graph_edges(),
            parallel_loops: reg.graph_parallel_loops(),
            sequential_loops: reg.graph_sequential_loops(),
            build_latency,
        });
        MetricsSnapshot {
            stages,
            gcd: GcdSection {
                latency: reg.gcd_latency(),
                verdicts: reg.gcd_verdicts(),
                cache_hits: reg.gcd_cache_hits(),
            },
            refinement: RefinementSection {
                latency: reg.refinement_latency(),
                cascade_tests: reg.refinement_cascade_tests(),
            },
            graph,
            pairs: None,
            memo: Vec::new(),
            incremental: IncrementalSection {
                spliced: reg.incremental_spliced(),
                resolved: reg.incremental_resolved(),
            },
            memo_load: None,
            engine,
            service: None,
        }
    }

    /// Attaches pair outcomes from the authoritative stats.
    #[must_use]
    pub fn with_pairs(mut self, stats: &AnalysisStats) -> Self {
        self.pairs = Some(PairsSection {
            pairs: stats.pairs,
            constant: stats.constant,
            assumed: stats.assumed,
            gcd_independent: stats.gcd_independent,
            memo_queries: stats.memo_queries,
            memo_hits: stats.memo_hits,
            gcd_memo_queries: stats.gcd_memo_queries,
            gcd_memo_hits: stats.gcd_memo_hits,
        });
        self
    }

    /// Attaches one memo table's traffic. `shard_ops` is empty for
    /// unsharded tables.
    #[must_use]
    pub fn with_memo_table(
        mut self,
        table: &'static str,
        counters: MemoCounters,
        shard_ops: Vec<u64>,
    ) -> Self {
        self.memo.push(MemoSection {
            table,
            counters,
            shard_ops,
        });
        self
    }

    /// Attaches persisted-memo load figures. The section is rendered
    /// only when at least one file was loaded, so cold expositions are
    /// unchanged; calling this unconditionally is fine.
    #[must_use]
    pub fn with_memo_load(mut self, stats: dda_core::MemoLoadStats) -> Self {
        self.memo_load = (stats.files > 0).then_some(MemoLoadSection {
            files: stats.files,
            records: stats.records,
            bytes: stats.bytes,
            nanos: stats.nanos,
            archive_faults: stats.archive_faults,
        });
        self
    }

    /// Attaches service (request-handling) figures.
    #[must_use]
    pub fn with_service(mut self, service: ServiceSection) -> Self {
        self.service = Some(service);
        self
    }

    /// Renders the snapshot in Prometheus text exposition format
    /// (`# HELP`/`# TYPE` headers, summaries with
    /// `quantile="0.5|0.9|0.99"` samples plus `_sum`/`_count`).
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();

        // --- cascade stages -------------------------------------------------
        header(
            &mut out,
            "dda_stage_latency_nanos",
            "summary",
            "Cascade stage latency in nanoseconds.",
        );
        for s in &self.stages {
            summary(
                &mut out,
                "dda_stage_latency_nanos",
                &[("stage", s.stage)],
                s.latency,
            );
        }
        header(
            &mut out,
            "dda_stage_verdicts_total",
            "counter",
            "Cascade stage outcomes by verdict.",
        );
        for s in &self.stages {
            for (v, &count) in s.verdicts.iter().enumerate() {
                sample(
                    &mut out,
                    "dda_stage_verdicts_total",
                    &[("stage", s.stage), ("verdict", STAGE_VERDICT_LABELS[v])],
                    count,
                );
            }
        }

        // --- GCD phase ------------------------------------------------------
        header(
            &mut out,
            "dda_gcd_latency_nanos",
            "summary",
            "Extended GCD solve latency in nanoseconds (non-cached).",
        );
        summary(&mut out, "dda_gcd_latency_nanos", &[], self.gcd.latency);
        header(
            &mut out,
            "dda_gcd_verdicts_total",
            "counter",
            "Extended GCD outcomes by verdict.",
        );
        for (v, &count) in self.gcd.verdicts.iter().enumerate() {
            sample(
                &mut out,
                "dda_gcd_verdicts_total",
                &[("verdict", GCD_VERDICT_LABELS[v])],
                count,
            );
        }
        header(
            &mut out,
            "dda_gcd_cache_hits_total",
            "counter",
            "GCD results served from the no-bounds memo.",
        );
        sample(
            &mut out,
            "dda_gcd_cache_hits_total",
            &[],
            self.gcd.cache_hits,
        );

        // --- refinement -----------------------------------------------------
        header(
            &mut out,
            "dda_refinement_latency_nanos",
            "summary",
            "Direction-vector refinement latency in nanoseconds.",
        );
        summary(
            &mut out,
            "dda_refinement_latency_nanos",
            &[],
            self.refinement.latency,
        );
        header(
            &mut out,
            "dda_refinement_cascade_tests_total",
            "counter",
            "Cascade tests issued during direction-vector refinement.",
        );
        sample(
            &mut out,
            "dda_refinement_cascade_tests_total",
            &[],
            self.refinement.cascade_tests,
        );

        // --- dependence graph -----------------------------------------------
        if let Some(g) = &self.graph {
            header(
                &mut out,
                "dda_graph_edges_total",
                "counter",
                "Dependence-graph edges by kind.",
            );
            for (k, &count) in g.edges.iter().enumerate() {
                sample(
                    &mut out,
                    "dda_graph_edges_total",
                    &[("kind", GRAPH_EDGE_LABELS[k])],
                    count,
                );
            }
            for (name, help, value) in [
                (
                    "dda_graph_parallel_loops_total",
                    "Loops judged parallel (no carried dependence).",
                    g.parallel_loops,
                ),
                (
                    "dda_graph_sequential_loops_total",
                    "Loops judged sequential (some carried dependence).",
                    g.sequential_loops,
                ),
            ] {
                header(&mut out, name, "counter", help);
                sample(&mut out, name, &[], value);
            }
            header(
                &mut out,
                "dda_graph_build_latency_nanos",
                "summary",
                "Dependence-graph build latency in nanoseconds.",
            );
            summary(
                &mut out,
                "dda_graph_build_latency_nanos",
                &[],
                g.build_latency,
            );
        }

        // --- pairs ----------------------------------------------------------
        if let Some(p) = &self.pairs {
            for (name, help, value) in [
                ("dda_pairs_total", "Reference pairs analyzed.", p.pairs),
                (
                    "dda_pairs_constant_total",
                    "Pairs with constant subscripts.",
                    p.constant,
                ),
                (
                    "dda_pairs_assumed_total",
                    "Pairs where dependence was assumed.",
                    p.assumed,
                ),
                (
                    "dda_pairs_gcd_independent_total",
                    "Pairs proven independent by the GCD test alone.",
                    p.gcd_independent,
                ),
            ] {
                header(&mut out, name, "counter", help);
                sample(&mut out, name, &[], value);
            }
            header(
                &mut out,
                "dda_pair_memo_queries_total",
                "counter",
                "Per-pair memo queries, as counted by AnalysisStats.",
            );
            sample(
                &mut out,
                "dda_pair_memo_queries_total",
                &[("table", "full")],
                p.memo_queries,
            );
            sample(
                &mut out,
                "dda_pair_memo_queries_total",
                &[("table", "gcd")],
                p.gcd_memo_queries,
            );
            header(
                &mut out,
                "dda_pair_memo_hits_total",
                "counter",
                "Per-pair memo hits, as counted by AnalysisStats.",
            );
            sample(
                &mut out,
                "dda_pair_memo_hits_total",
                &[("table", "full")],
                p.memo_hits,
            );
            sample(
                &mut out,
                "dda_pair_memo_hits_total",
                &[("table", "gcd")],
                p.gcd_memo_hits,
            );
        }

        // --- memo tables ----------------------------------------------------
        if !self.memo.is_empty() {
            header(
                &mut out,
                "dda_memo_queries_total",
                "counter",
                "Memo table lookups (table traffic).",
            );
            for m in &self.memo {
                sample(
                    &mut out,
                    "dda_memo_queries_total",
                    &[("table", m.table)],
                    m.counters.queries,
                );
            }
            header(
                &mut out,
                "dda_memo_hits_total",
                "counter",
                "Memo table hits.",
            );
            for m in &self.memo {
                sample(
                    &mut out,
                    "dda_memo_hits_total",
                    &[("table", m.table)],
                    m.counters.hits,
                );
            }
            header(
                &mut out,
                "dda_memo_misses_total",
                "counter",
                "Memo table misses.",
            );
            for m in &self.memo {
                sample(
                    &mut out,
                    "dda_memo_misses_total",
                    &[("table", m.table)],
                    m.counters.misses(),
                );
            }
            header(
                &mut out,
                "dda_memo_warm_loads_total",
                "counter",
                "Entries loaded from a persisted memo file.",
            );
            for m in &self.memo {
                sample(
                    &mut out,
                    "dda_memo_warm_loads_total",
                    &[("table", m.table)],
                    m.counters.warm_loads,
                );
            }
            header(
                &mut out,
                "dda_memo_entries",
                "gauge",
                "Distinct entries currently stored.",
            );
            for m in &self.memo {
                sample(
                    &mut out,
                    "dda_memo_entries",
                    &[("table", m.table)],
                    m.counters.entries,
                );
            }
            header(
                &mut out,
                "dda_memo_bytes",
                "gauge",
                "Estimated bytes held by stored entries.",
            );
            for m in &self.memo {
                sample(
                    &mut out,
                    "dda_memo_bytes",
                    &[("table", m.table)],
                    m.counters.bytes,
                );
            }
            header(
                &mut out,
                "dda_memo_capacity_bytes",
                "gauge",
                "Configured byte capacity (0 = unbounded).",
            );
            for m in &self.memo {
                sample(
                    &mut out,
                    "dda_memo_capacity_bytes",
                    &[("table", m.table)],
                    m.counters.capacity_bytes,
                );
            }
            header(
                &mut out,
                "dda_memo_evictions_total",
                "counter",
                "Entries evicted to stay under the byte capacity.",
            );
            for m in &self.memo {
                sample(
                    &mut out,
                    "dda_memo_evictions_total",
                    &[("table", m.table)],
                    m.counters.evictions,
                );
            }
            if self.memo.iter().any(|m| !m.shard_ops.is_empty()) {
                header(
                    &mut out,
                    "dda_memo_shard_ops_total",
                    "counter",
                    "Operations (gets + inserts) per memo shard.",
                );
                for m in &self.memo {
                    for (i, &ops) in m.shard_ops.iter().enumerate() {
                        let shard = i.to_string();
                        sample(
                            &mut out,
                            "dda_memo_shard_ops_total",
                            &[("table", m.table), ("shard", &shard)],
                            ops,
                        );
                    }
                }
            }
        }

        // --- incremental re-analysis ----------------------------------------
        for (name, help, value) in [
            (
                "dda_incremental_spliced_total",
                "Pairs whose verdict was spliced from a warm memo entry.",
                self.incremental.spliced,
            ),
            (
                "dda_incremental_resolved_total",
                "Pairs re-solved this session (not spliced).",
                self.incremental.resolved,
            ),
        ] {
            header(&mut out, name, "counter", help);
            sample(&mut out, name, &[], value);
        }

        // --- persisted-memo loads -------------------------------------------
        if let Some(l) = &self.memo_load {
            for (name, help, value) in [
                (
                    "dda_memo_load_files_total",
                    "Memo files loaded (v2 text or v3 binary).",
                    l.files,
                ),
                (
                    "dda_memo_load_records_total",
                    "Records made available by memo file loads.",
                    l.records,
                ),
                (
                    "dda_memo_load_bytes_total",
                    "Bytes read or mapped while loading memo files.",
                    l.bytes,
                ),
                (
                    "dda_memo_load_nanos_total",
                    "Nanoseconds spent loading memo files.",
                    l.nanos,
                ),
                (
                    "dda_memo_archive_faults_total",
                    "Records lazily faulted out of an attached v3 archive.",
                    l.archive_faults,
                ),
            ] {
                header(&mut out, name, "counter", help);
                sample(&mut out, name, &[], value);
            }
        }

        // --- service --------------------------------------------------------
        if let Some(sv) = &self.service {
            let _ = writeln!(
                out,
                "# HELP dda_serve_in_flight_requests Requests currently being processed."
            );
            let _ = writeln!(out, "# TYPE dda_serve_in_flight_requests gauge");
            let _ = writeln!(out, "dda_serve_in_flight_requests {}", sv.in_flight);
            header(
                &mut out,
                "dda_serve_max_in_flight_requests",
                "gauge",
                "Maximum concurrent requests before shedding.",
            );
            sample(
                &mut out,
                "dda_serve_max_in_flight_requests",
                &[],
                sv.max_in_flight,
            );
            header(
                &mut out,
                "dda_serve_requests_total",
                "counter",
                "Requests accepted and answered, by endpoint and outcome.",
            );
            if sv.requests_by.is_empty() {
                sample(&mut out, "dda_serve_requests_total", &[], sv.requests);
            } else {
                for &(endpoint, outcome, count) in &sv.requests_by {
                    sample(
                        &mut out,
                        "dda_serve_requests_total",
                        &[("endpoint", endpoint), ("outcome", outcome)],
                        count,
                    );
                }
            }
            for (name, help, value) in [
                (
                    "dda_serve_shed_total",
                    "Requests shed (429) by admission control.",
                    sv.shed,
                ),
                (
                    "dda_serve_deadline_exceeded_total",
                    "Requests whose deadline expired before analysis finished.",
                    sv.deadline_exceeded,
                ),
            ] {
                header(&mut out, name, "counter", help);
                sample(&mut out, name, &[], value);
            }
        }

        // --- engine ---------------------------------------------------------
        if let Some(e) = &self.engine {
            header(
                &mut out,
                "dda_engine_workers",
                "gauge",
                "Worker slots the engine was configured with.",
            );
            sample(&mut out, "dda_engine_workers", &[], e.workers);
            for (name, help, value) in [
                (
                    "dda_engine_waves_total",
                    "Parallel waves executed.",
                    e.waves,
                ),
                (
                    "dda_engine_tasks_total",
                    "Items processed across all waves.",
                    e.tasks,
                ),
                (
                    "dda_engine_busy_nanos_total",
                    "Nanoseconds workers spent inside mapped closures.",
                    e.busy_nanos,
                ),
                (
                    "dda_engine_capacity_nanos_total",
                    "Wall nanoseconds times participating workers.",
                    e.capacity_nanos,
                ),
                (
                    "dda_engine_queue_wait_nanos_total",
                    "Nanoseconds workers waited before their first item.",
                    e.queue_wait_nanos,
                ),
            ] {
                header(&mut out, name, "counter", help);
                sample(&mut out, name, &[], value);
            }
            let _ = writeln!(
                out,
                "# HELP dda_engine_utilization_ratio Busy time over pool capacity, 0 to 1."
            );
            let _ = writeln!(out, "# TYPE dda_engine_utilization_ratio gauge");
            let _ = writeln!(out, "dda_engine_utilization_ratio {}", e.utilization());
            header(
                &mut out,
                "dda_engine_leader_elections_total",
                "counter",
                "Distinct keys elected a solving leader, by memo table.",
            );
            sample(
                &mut out,
                "dda_engine_leader_elections_total",
                &[("table", "full")],
                e.leader_elections_full,
            );
            sample(
                &mut out,
                "dda_engine_leader_elections_total",
                &[("table", "gcd")],
                e.leader_elections_gcd,
            );
            if !e.worker_tasks.is_empty() {
                header(
                    &mut out,
                    "dda_engine_worker_tasks_total",
                    "counter",
                    "Items processed per worker slot.",
                );
                for (i, &t) in e.worker_tasks.iter().enumerate() {
                    let w = i.to_string();
                    sample(
                        &mut out,
                        "dda_engine_worker_tasks_total",
                        &[("worker", &w)],
                        t,
                    );
                }
                header(
                    &mut out,
                    "dda_engine_worker_busy_nanos_total",
                    "counter",
                    "Busy nanoseconds per worker slot.",
                );
                for (i, &b) in e.worker_busy_nanos.iter().enumerate() {
                    let w = i.to_string();
                    sample(
                        &mut out,
                        "dda_engine_worker_busy_nanos_total",
                        &[("worker", &w)],
                        b,
                    );
                }
            }
        }
        out
    }

    /// Renders the snapshot as a single JSON object with deterministic
    /// key order.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str("\"stages\":[");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":\"{}\",{},\"verdicts\":{{",
                s.stage,
                latency_json(s.latency)
            );
            for (v, &count) in s.verdicts.iter().enumerate() {
                if v > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", STAGE_VERDICT_LABELS[v], count);
            }
            out.push_str("}}");
        }
        out.push_str("],\"gcd\":{");
        let _ = write!(out, "{},\"verdicts\":{{", latency_json(self.gcd.latency));
        for (v, &count) in self.gcd.verdicts.iter().enumerate() {
            if v > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", GCD_VERDICT_LABELS[v], count);
        }
        let _ = write!(out, "}},\"cache_hits\":{}}}", self.gcd.cache_hits);
        let _ = write!(
            out,
            ",\"refinement\":{{{},\"cascade_tests\":{}}}",
            latency_json(self.refinement.latency),
            self.refinement.cascade_tests
        );
        if let Some(g) = &self.graph {
            let _ = write!(out, ",\"graph\":{{\"edges\":{{");
            for (k, &count) in g.edges.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", GRAPH_EDGE_LABELS[k], count);
            }
            let _ = write!(
                out,
                "}},\"parallel_loops\":{},\"sequential_loops\":{},{}}}",
                g.parallel_loops,
                g.sequential_loops,
                latency_json(g.build_latency).replacen("\"latency\"", "\"build_latency\"", 1)
            );
        }
        if let Some(p) = &self.pairs {
            let _ = write!(
                out,
                ",\"pairs\":{{\"pairs\":{},\"constant\":{},\"assumed\":{},\
                 \"gcd_independent\":{},\"memo_queries\":{},\"memo_hits\":{},\
                 \"gcd_memo_queries\":{},\"gcd_memo_hits\":{}}}",
                p.pairs,
                p.constant,
                p.assumed,
                p.gcd_independent,
                p.memo_queries,
                p.memo_hits,
                p.gcd_memo_queries,
                p.gcd_memo_hits
            );
        }
        if !self.memo.is_empty() {
            out.push_str(",\"memo\":[");
            for (i, m) in self.memo.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"table\":\"{}\",\"queries\":{},\"hits\":{},\"misses\":{},\
                     \"warm_loads\":{},\"entries\":{},\"bytes\":{},\"evictions\":{},\
                     \"capacity_bytes\":{},\"shard_ops\":[",
                    m.table,
                    m.counters.queries,
                    m.counters.hits,
                    m.counters.misses(),
                    m.counters.warm_loads,
                    m.counters.entries,
                    m.counters.bytes,
                    m.counters.evictions,
                    m.counters.capacity_bytes
                );
                for (j, &ops) in m.shard_ops.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{ops}");
                }
                out.push_str("]}");
            }
            out.push(']');
        }
        let _ = write!(
            out,
            ",\"incremental\":{{\"spliced\":{},\"resolved\":{}}}",
            self.incremental.spliced, self.incremental.resolved
        );
        if let Some(l) = &self.memo_load {
            let _ = write!(
                out,
                ",\"memo_load\":{{\"files\":{},\"records\":{},\"bytes\":{},\
                 \"nanos\":{},\"archive_faults\":{}}}",
                l.files, l.records, l.bytes, l.nanos, l.archive_faults
            );
        }
        if let Some(sv) = &self.service {
            let _ = write!(
                out,
                ",\"service\":{{\"in_flight\":{},\"max_in_flight\":{},\"requests\":{},\
                 \"shed\":{},\"deadline_exceeded\":{}",
                sv.in_flight, sv.max_in_flight, sv.requests, sv.shed, sv.deadline_exceeded
            );
            if !sv.requests_by.is_empty() {
                out.push_str(",\"requests_by\":[");
                for (i, &(endpoint, outcome, count)) in sv.requests_by.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{{\"endpoint\":\"{endpoint}\",\"outcome\":\"{outcome}\",\"count\":{count}}}"
                    );
                }
                out.push(']');
            }
            out.push('}');
        }
        if let Some(e) = &self.engine {
            let _ = write!(
                out,
                ",\"engine\":{{\"workers\":{},\"waves\":{},\"tasks\":{},\
                 \"busy_nanos\":{},\"capacity_nanos\":{},\"queue_wait_nanos\":{},\
                 \"utilization\":{},\"leader_elections\":{{\"full\":{},\"gcd\":{}}},\
                 \"worker_tasks\":[",
                e.workers,
                e.waves,
                e.tasks,
                e.busy_nanos,
                e.capacity_nanos,
                e.queue_wait_nanos,
                e.utilization(),
                e.leader_elections_full,
                e.leader_elections_gcd
            );
            for (i, &t) in e.worker_tasks.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{t}");
            }
            out.push_str("],\"worker_busy_nanos\":[");
            for (i, &b) in e.worker_busy_nanos.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}");
        }
        out.push('}');
        out
    }
}

fn latency_json(l: LatencySummary) -> String {
    // Empty histograms have no percentiles (the documented sentinel);
    // JSON has no NaN, so they render as `null`.
    let q = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
    format!(
        "\"latency\":{{\"count\":{},\"sum_nanos\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
        l.count,
        l.sum,
        q(l.p50),
        q(l.p90),
        q(l.p99)
    )
}

fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn labels_str(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{{{}}}", inner.join(","))
}

fn sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: u64) {
    let _ = writeln!(out, "{name}{} {value}", labels_str(labels));
}

fn summary(out: &mut String, name: &str, labels: &[(&str, &str)], l: LatencySummary) {
    // Quantile samples are omitted entirely for empty histograms —
    // the sentinel is "absent", which keeps the exposition free of
    // non-finite values (our own `prom::parse_exposition` rejects
    // them) and of fabricated zeros.
    for (q, v) in [("0.5", l.p50), ("0.9", l.p90), ("0.99", l.p99)] {
        if let Some(v) = v {
            let mut with_q: Vec<(&str, &str)> = labels.to_vec();
            with_q.push(("quantile", q));
            let _ = writeln!(out, "{name}{} {v}", labels_str(&with_q));
        }
    }
    let _ = writeln!(out, "{name}_sum{} {}", labels_str(labels), l.sum);
    let _ = writeln!(out, "{name}_count{} {}", labels_str(labels), l.count);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dda_core::pipeline::StageVerdict;

    fn sample_snapshot() -> MetricsSnapshot {
        let reg = MetricsRegistry::with_workers(2);
        reg.record_stage(TestKind::Svpc, StageVerdict::Independent, 100);
        reg.record_gcd(dda_core::pipeline::GcdVerdict::Lattice, false, 50);
        reg.record_incremental(5, 11);
        MetricsSnapshot::from_registry(&reg)
            .with_pairs(&AnalysisStats::default())
            .with_memo_load(dda_core::MemoLoadStats {
                files: 1,
                records: 16,
                bytes: 4096,
                nanos: 777,
                archive_faults: 3,
            })
            .with_memo_table(
                "full",
                MemoCounters {
                    queries: 10,
                    hits: 4,
                    warm_loads: 2,
                    entries: 6,
                    bytes: 2048,
                    evictions: 3,
                    capacity_bytes: 4096,
                },
                vec![7, 9],
            )
            .with_service(ServiceSection {
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
            })
    }

    #[test]
    fn prometheus_exposition_has_expected_shape() {
        let text = sample_snapshot().to_prometheus();
        assert!(text.contains("# TYPE dda_stage_latency_nanos summary"));
        assert!(text.contains("dda_stage_latency_nanos{stage=\"svpc\",quantile=\"0.5\"}"));
        assert!(text.contains("dda_stage_latency_nanos_count{stage=\"svpc\"} 1"));
        assert!(text.contains("dda_stage_verdicts_total{stage=\"svpc\",verdict=\"independent\"} 1"));
        assert!(text.contains("dda_memo_hits_total{table=\"full\"} 4"));
        assert!(text.contains("dda_memo_misses_total{table=\"full\"} 6"));
        assert!(text.contains("dda_memo_warm_loads_total{table=\"full\"} 2"));
        assert!(text.contains("# TYPE dda_memo_entries gauge"));
        assert!(text.contains("# TYPE dda_memo_bytes gauge"));
        assert!(text.contains("dda_memo_bytes{table=\"full\"} 2048"));
        assert!(text.contains("# TYPE dda_memo_capacity_bytes gauge"));
        assert!(text.contains("dda_memo_capacity_bytes{table=\"full\"} 4096"));
        assert!(text.contains("dda_memo_evictions_total{table=\"full\"} 3"));
        assert!(text.contains("# TYPE dda_serve_in_flight_requests gauge"));
        assert!(text.contains("dda_serve_in_flight_requests 1"));
        assert!(text.contains("dda_serve_shed_total 2"));
        assert!(text.contains("dda_serve_deadline_exceeded_total 1"));
        // The outcome split replaces the unlabeled requests sample.
        assert!(text.contains("dda_serve_requests_total{endpoint=\"/analyze\",outcome=\"ok\"} 9"));
        assert!(text.contains("dda_serve_requests_total{endpoint=\"(accept)\",outcome=\"shed\"} 2"));
        assert!(!text.contains("dda_serve_requests_total 12"));
        assert!(text.contains("dda_memo_shard_ops_total{table=\"full\",shard=\"1\"} 9"));
        assert!(text.contains("dda_incremental_spliced_total 5"));
        assert!(text.contains("dda_incremental_resolved_total 11"));
        assert!(text.contains("dda_memo_load_files_total 1"));
        assert!(text.contains("dda_memo_load_records_total 16"));
        assert!(text.contains("dda_memo_load_bytes_total 4096"));
        assert!(text.contains("dda_memo_load_nanos_total 777"));
        assert!(text.contains("dda_memo_archive_faults_total 3"));
        assert!(text.contains("dda_engine_workers 2"));
        assert!(text.contains("# TYPE dda_engine_utilization_ratio gauge"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            assert_eq!(
                line.split_whitespace().count(),
                2,
                "bad sample line: {line}"
            );
        }
    }

    #[test]
    fn json_rendering_is_an_object_with_sections() {
        let json = sample_snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"stages\":",
            "\"gcd\":",
            "\"refinement\":",
            "\"pairs\":",
            "\"memo\":",
            "\"engine\":",
            "\"shard_ops\":[7,9]",
            "\"bytes\":2048",
            "\"evictions\":3",
            "\"capacity_bytes\":4096",
            "\"incremental\":{\"spliced\":5,\"resolved\":11}",
            "\"memo_load\":{\"files\":1,\"records\":16,\"bytes\":4096,\"nanos\":777,\"archive_faults\":3}",
            "\"service\":{\"in_flight\":1,\"max_in_flight\":8,\"requests\":12,\"shed\":2,\"deadline_exceeded\":1,\"requests_by\":[{\"endpoint\":\"/analyze\",\"outcome\":\"ok\",\"count\":9}",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn memo_load_section_appears_only_after_a_load() {
        let reg = MetricsRegistry::new();
        let snap =
            MetricsSnapshot::from_registry(&reg).with_memo_load(dda_core::MemoLoadStats::default());
        assert!(snap.memo_load.is_none());
        assert!(!snap.to_prometheus().contains("dda_memo_load_"));
        assert!(!snap.to_json().contains("\"memo_load\":"));
        // The incremental section is always present, even when zero.
        assert!(snap
            .to_prometheus()
            .contains("dda_incremental_spliced_total 0"));
        assert!(snap
            .to_json()
            .contains("\"incremental\":{\"spliced\":0,\"resolved\":0}"));
    }

    #[test]
    fn graph_section_appears_only_after_a_build() {
        let reg = MetricsRegistry::new();
        let without = MetricsSnapshot::from_registry(&reg);
        assert!(without.graph.is_none());
        assert!(!without.to_prometheus().contains("dda_graph_"));
        assert!(!without.to_json().contains("\"graph\":"));

        reg.record_graph([3, 1, 2, 0], 4, 2, 1500);
        let with = MetricsSnapshot::from_registry(&reg);
        let text = with.to_prometheus();
        assert!(text.contains("# TYPE dda_graph_edges_total counter"));
        assert!(text.contains("dda_graph_edges_total{kind=\"flow\"} 3"));
        assert!(text.contains("dda_graph_edges_total{kind=\"anti\"} 1"));
        assert!(text.contains("dda_graph_edges_total{kind=\"output\"} 2"));
        assert!(text.contains("dda_graph_parallel_loops_total 4"));
        assert!(text.contains("dda_graph_sequential_loops_total 2"));
        assert!(text.contains("dda_graph_build_latency_nanos_count 1"));
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            assert_eq!(
                line.split_whitespace().count(),
                2,
                "bad sample line: {line}"
            );
        }
        let json = with.to_json();
        assert!(json.contains("\"graph\":{\"edges\":{\"flow\":3,\"anti\":1,\"output\":2,\"input\":0},\"parallel_loops\":4,\"sequential_loops\":2,\"build_latency\":"));
    }

    #[test]
    fn serial_snapshot_omits_engine_section() {
        let reg = MetricsRegistry::new();
        let snap = MetricsSnapshot::from_registry(&reg);
        assert!(snap.engine.is_none());
        let text = snap.to_prometheus();
        assert!(!text.contains("dda_engine_"));
        assert!(!snap.to_json().contains("\"engine\":"));
    }
}
