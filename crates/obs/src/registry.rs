//! The always-on metrics registry.
//!
//! One [`MetricsRegistry`] lives for the duration of an analysis run
//! (the engine owns one; the CLI builds one for serial runs). Every
//! field is an atomic [`Counter`] or [`Histogram`], so recording from
//! worker threads is lock-free and allocation-free, and the registry is
//! deliberately kept *outside* the bit-compared [`AnalysisStats`]: the
//! analyzer's semantics and statistics are byte-identical whether or
//! not anyone is looking at the metrics.
//!
//! [`AnalysisStats`]: dda_core::stats::AnalysisStats

use std::fmt;

use crate::metrics::{Counter, Histogram};
use dda_core::pipeline::{GcdVerdict, StageVerdict};
use dda_core::TestKind;

/// Label tokens for the four cascade stages, indexed by
/// [`TestKind::index`].
pub const STAGE_LABELS: [&str; 4] = ["svpc", "acyclic", "residue", "fm"];

/// Label tokens for stage verdicts, indexed by [`stage_verdict_index`].
pub const STAGE_VERDICT_LABELS: [&str; 4] = ["independent", "dependent", "unknown", "pass"];

/// Label tokens for GCD verdicts, indexed by [`gcd_verdict_index`].
pub const GCD_VERDICT_LABELS: [&str; 3] = ["independent", "lattice", "overflow"];

/// Label tokens for dependence-graph edge kinds, in
/// [`DependenceKind`](dda_core::DependenceKind) declaration order
/// (flow, anti, output, input).
pub const GRAPH_EDGE_LABELS: [&str; 4] = ["flow", "anti", "output", "input"];

/// Dense index for a [`StageVerdict`], matching [`STAGE_VERDICT_LABELS`].
pub fn stage_verdict_index(verdict: StageVerdict) -> usize {
    match verdict {
        StageVerdict::Independent => 0,
        StageVerdict::Dependent => 1,
        StageVerdict::Unknown => 2,
        StageVerdict::Pass => 3,
    }
}

/// Dense index for a [`GcdVerdict`], matching [`GCD_VERDICT_LABELS`].
pub fn gcd_verdict_index(verdict: GcdVerdict) -> usize {
    match verdict {
        GcdVerdict::Independent => 0,
        GcdVerdict::Lattice => 1,
        GcdVerdict::Overflow => 2,
    }
}

/// Which memo table a leader election ran for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoTableKind {
    /// The full-result memo table.
    Full,
    /// The GCD-phase memo table.
    Gcd,
}

/// Per-worker contribution to one parallel wave, as measured by the
/// engine's pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerWork {
    /// Items this worker processed.
    pub tasks: u64,
    /// Nanoseconds this worker spent inside the mapped closure.
    pub busy_nanos: u64,
    /// Nanoseconds between wave start and this worker picking up its
    /// first item.
    pub queue_wait_nanos: u64,
}

/// What one parallel wave looked like: wall time plus the per-worker
/// breakdown. Plain data, so the engine's pool can stay free of any
/// metrics dependency.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WaveReport {
    /// Wall-clock nanoseconds for the whole wave.
    pub wall_nanos: u64,
    /// One entry per worker thread that participated.
    pub workers: Vec<WorkerWork>,
}

/// Per-worker counter slot in the registry.
#[derive(Debug, Default)]
struct WorkerSlot {
    tasks: Counter,
    busy_nanos: Counter,
}

/// The lock-free registry of `dda_*` metrics.
///
/// Pipeline-facing recorders ([`record_stage`], [`record_gcd`],
/// [`record_refinement`]) are fed by [`MetricsProbe`]; engine-facing
/// recorders ([`record_wave`], [`record_leader_elections`]) are called
/// by the batch engine. Memo-table and pair-outcome figures are *not*
/// duplicated here — they are read from their authoritative sources
/// (the memo tables' own counters and `AnalysisStats`) when a
/// [`MetricsSnapshot`](crate::MetricsSnapshot) is taken.
///
/// [`record_stage`]: MetricsRegistry::record_stage
/// [`record_gcd`]: MetricsRegistry::record_gcd
/// [`record_refinement`]: MetricsRegistry::record_refinement
/// [`record_wave`]: MetricsRegistry::record_wave
/// [`record_leader_elections`]: MetricsRegistry::record_leader_elections
/// [`MetricsProbe`]: crate::MetricsProbe
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    stage_latency: [Histogram; 4],
    stage_verdicts: [[Counter; 4]; 4],
    gcd_latency: Histogram,
    gcd_verdicts: [Counter; 3],
    gcd_cache_hits: Counter,
    refinement_latency: Histogram,
    refinement_cascade_tests: Counter,
    waves: Counter,
    tasks: Counter,
    busy_nanos: Counter,
    capacity_nanos: Counter,
    queue_wait_nanos: Counter,
    leader_elections_full: Counter,
    leader_elections_gcd: Counter,
    incremental_spliced: Counter,
    incremental_resolved: Counter,
    graph_edges: [Counter; 4],
    graph_parallel_loops: Counter,
    graph_sequential_loops: Counter,
    graph_build_latency: Histogram,
    worker_slots: Vec<WorkerSlot>,
}

impl MetricsRegistry {
    /// Creates a registry with no per-worker slots (serial use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a registry with `workers` per-worker counter slots.
    pub fn with_workers(workers: usize) -> Self {
        MetricsRegistry {
            worker_slots: (0..workers).map(|_| WorkerSlot::default()).collect(),
            ..Self::default()
        }
    }

    /// Number of per-worker slots this registry was sized for.
    pub fn worker_slots(&self) -> usize {
        self.worker_slots.len()
    }

    /// Records one cascade-stage outcome with its latency.
    pub fn record_stage(&self, test: TestKind, verdict: StageVerdict, nanos: u64) {
        self.stage_latency[test.index()].record(nanos);
        self.stage_verdicts[test.index()][stage_verdict_index(verdict)].inc();
    }

    /// Records one GCD-phase outcome. `cached` marks results served
    /// from the GCD memo rather than solved.
    pub fn record_gcd(&self, verdict: GcdVerdict, cached: bool, nanos: u64) {
        if cached {
            self.gcd_cache_hits.inc();
        } else {
            self.gcd_latency.record(nanos);
        }
        self.gcd_verdicts[gcd_verdict_index(verdict)].inc();
    }

    /// Records one direction-vector refinement: how many cascade tests
    /// it issued and how long the whole refinement took.
    pub fn record_refinement(&self, cascade_tests: u64, nanos: u64) {
        self.refinement_latency.record(nanos);
        self.refinement_cascade_tests.add(cascade_tests);
    }

    /// Records leader elections (distinct keys solved once and shared)
    /// against one of the memo tables.
    pub fn record_leader_elections(&self, table: MemoTableKind, n: u64) {
        match table {
            MemoTableKind::Full => self.leader_elections_full.add(n),
            MemoTableKind::Gcd => self.leader_elections_gcd.add(n),
        }
    }

    /// Records one batch's incremental split: pairs spliced straight
    /// from a warm memo entry vs pairs actually re-solved. Together the
    /// two sum to the batch's pair count.
    pub fn record_incremental(&self, spliced: u64, resolved: u64) {
        self.incremental_spliced.add(spliced);
        self.incremental_resolved.add(resolved);
    }

    /// Folds one parallel wave into the engine aggregates and, where a
    /// slot exists, the per-worker breakdown.
    pub fn record_wave(&self, wave: &WaveReport) {
        self.waves.inc();
        self.capacity_nanos
            .add(wave.wall_nanos.saturating_mul(wave.workers.len() as u64));
        for (i, w) in wave.workers.iter().enumerate() {
            self.tasks.add(w.tasks);
            self.busy_nanos.add(w.busy_nanos);
            self.queue_wait_nanos.add(w.queue_wait_nanos);
            if let Some(slot) = self.worker_slots.get(i) {
                slot.tasks.add(w.tasks);
                slot.busy_nanos.add(w.busy_nanos);
            }
        }
    }

    /// Records one built dependence graph: edge counts by kind (indexed
    /// like [`GRAPH_EDGE_LABELS`]), per-loop verdict counts, and the
    /// build wall time.
    pub fn record_graph(
        &self,
        edges_by_kind: [u64; 4],
        parallel: u64,
        sequential: u64,
        nanos: u64,
    ) {
        for (c, n) in self.graph_edges.iter().zip(edges_by_kind) {
            c.add(n);
        }
        self.graph_parallel_loops.add(parallel);
        self.graph_sequential_loops.add(sequential);
        self.graph_build_latency.record(nanos);
    }

    /// Latency summary for one cascade stage.
    pub fn stage_latency(&self, test: TestKind) -> crate::LatencySummary {
        self.stage_latency[test.index()].summary()
    }

    /// Verdict counts for one cascade stage, indexed by
    /// [`stage_verdict_index`].
    pub fn stage_verdicts(&self, test: TestKind) -> [u64; 4] {
        std::array::from_fn(|v| self.stage_verdicts[test.index()][v].get())
    }

    /// Call counts and summed wall time of every cascade stage and of
    /// the GCD solves, read from the latency histograms.
    pub fn stage_timings(&self) -> StageTimings {
        StageTimings {
            calls: std::array::from_fn(|i| self.stage_latency[i].count()),
            nanos: std::array::from_fn(|i| self.stage_latency[i].sum()),
            gcd_calls: self.gcd_latency.count(),
            gcd_nanos: self.gcd_latency.sum(),
        }
    }

    /// Latency summary of non-cached GCD solves.
    pub fn gcd_latency(&self) -> crate::LatencySummary {
        self.gcd_latency.summary()
    }

    /// GCD verdict counts, indexed by [`gcd_verdict_index`].
    pub fn gcd_verdicts(&self) -> [u64; 3] {
        std::array::from_fn(|v| self.gcd_verdicts[v].get())
    }

    /// GCD results served from the memo instead of solved.
    pub fn gcd_cache_hits(&self) -> u64 {
        self.gcd_cache_hits.get()
    }

    /// Latency summary of direction-vector refinements.
    pub fn refinement_latency(&self) -> crate::LatencySummary {
        self.refinement_latency.summary()
    }

    /// Total cascade tests issued by refinements.
    pub fn refinement_cascade_tests(&self) -> u64 {
        self.refinement_cascade_tests.get()
    }

    /// Parallel waves recorded.
    pub fn waves(&self) -> u64 {
        self.waves.get()
    }

    /// Items processed across all waves and workers.
    pub fn tasks(&self) -> u64 {
        self.tasks.get()
    }

    /// Nanoseconds workers spent inside mapped closures.
    pub fn busy_nanos(&self) -> u64 {
        self.busy_nanos.get()
    }

    /// Nanoseconds of wall time multiplied by participating workers.
    pub fn capacity_nanos(&self) -> u64 {
        self.capacity_nanos.get()
    }

    /// Nanoseconds workers spent waiting for their first item.
    pub fn queue_wait_nanos(&self) -> u64 {
        self.queue_wait_nanos.get()
    }

    /// Leader elections against one memo table.
    pub fn leader_elections(&self, table: MemoTableKind) -> u64 {
        match table {
            MemoTableKind::Full => self.leader_elections_full.get(),
            MemoTableKind::Gcd => self.leader_elections_gcd.get(),
        }
    }

    /// Pairs spliced from warm memo entries across all batches.
    pub fn incremental_spliced(&self) -> u64 {
        self.incremental_spliced.get()
    }

    /// Pairs actually re-solved across all batches.
    pub fn incremental_resolved(&self) -> u64 {
        self.incremental_resolved.get()
    }

    /// Dependence-graph edge counts by kind, indexed like
    /// [`GRAPH_EDGE_LABELS`].
    pub fn graph_edges(&self) -> [u64; 4] {
        std::array::from_fn(|k| self.graph_edges[k].get())
    }

    /// Loops judged parallel across all built graphs.
    pub fn graph_parallel_loops(&self) -> u64 {
        self.graph_parallel_loops.get()
    }

    /// Loops judged sequential across all built graphs.
    pub fn graph_sequential_loops(&self) -> u64 {
        self.graph_sequential_loops.get()
    }

    /// Latency summary of graph builds (count = graphs built).
    pub fn graph_build_latency(&self) -> crate::LatencySummary {
        self.graph_build_latency.summary()
    }

    /// Per-worker task counts (one entry per slot).
    pub fn worker_tasks(&self) -> Vec<u64> {
        self.worker_slots.iter().map(|s| s.tasks.get()).collect()
    }

    /// Per-worker busy nanoseconds (one entry per slot).
    pub fn worker_busy_nanos(&self) -> Vec<u64> {
        self.worker_slots
            .iter()
            .map(|s| s.busy_nanos.get())
            .collect()
    }

    /// Resets every counter and histogram (worker slot count is kept).
    pub fn clear(&self) {
        for h in &self.stage_latency {
            h.reset();
        }
        for row in &self.stage_verdicts {
            for c in row {
                c.reset();
            }
        }
        self.gcd_latency.reset();
        for c in &self.gcd_verdicts {
            c.reset();
        }
        self.gcd_cache_hits.reset();
        self.refinement_latency.reset();
        self.refinement_cascade_tests.reset();
        self.waves.reset();
        self.tasks.reset();
        self.busy_nanos.reset();
        self.capacity_nanos.reset();
        self.queue_wait_nanos.reset();
        self.leader_elections_full.reset();
        self.leader_elections_gcd.reset();
        self.incremental_spliced.reset();
        self.incremental_resolved.reset();
        for c in &self.graph_edges {
            c.reset();
        }
        self.graph_parallel_loops.reset();
        self.graph_sequential_loops.reset();
        self.graph_build_latency.reset();
        for slot in &self.worker_slots {
            slot.tasks.reset();
            slot.busy_nanos.reset();
        }
    }
}

/// Per-stage call counts and wall time, as read from a registry by
/// [`MetricsRegistry::stage_timings`] — the `stage times:` line of
/// `dda analyze --stats` and `dda batch --stats`.
///
/// Kept apart from `AnalysisStats` on purpose: that is compared bit for
/// bit between the serial analyzer and the engine, and wall times vary
/// run to run. Stage calls count every stage that *runs*, not only the
/// one credited with the resolution; GCD calls count solves, not memo
/// hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTimings {
    /// Stage executions per test (indexed by [`TestKind::index`]).
    pub calls: [u64; 4],
    /// Summed wall time per test, in nanoseconds.
    pub nanos: [u64; 4],
    /// Extended-GCD solves.
    pub gcd_calls: u64,
    /// Summed extended-GCD solve time, in nanoseconds.
    pub gcd_nanos: u64,
}

impl fmt::Display for StageTimings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gcd: {} calls {:.1}ms",
            self.gcd_calls,
            self.gcd_nanos as f64 / 1e6
        )?;
        for (i, kind) in TestKind::ALL.iter().enumerate() {
            write!(
                f,
                " | {kind}: {} calls {:.1}ms",
                self.calls[i],
                self.nanos[i] as f64 / 1e6
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_recording_lands_in_the_right_cells() {
        let reg = MetricsRegistry::new();
        reg.record_stage(TestKind::Svpc, StageVerdict::Independent, 100);
        reg.record_stage(TestKind::Svpc, StageVerdict::Pass, 50);
        reg.record_stage(TestKind::FourierMotzkin, StageVerdict::Dependent, 900);
        assert_eq!(reg.stage_verdicts(TestKind::Svpc), [1, 0, 0, 1]);
        assert_eq!(reg.stage_verdicts(TestKind::FourierMotzkin), [0, 1, 0, 0]);
        assert_eq!(reg.stage_verdicts(TestKind::Acyclic), [0; 4]);
        assert_eq!(reg.stage_latency(TestKind::Svpc).count, 2);
        assert_eq!(reg.stage_latency(TestKind::Svpc).sum, 150);
    }

    #[test]
    fn cached_gcd_results_skip_the_latency_histogram() {
        let reg = MetricsRegistry::new();
        reg.record_gcd(GcdVerdict::Independent, false, 200);
        reg.record_gcd(GcdVerdict::Independent, true, 0);
        reg.record_gcd(GcdVerdict::Lattice, false, 300);
        assert_eq!(reg.gcd_verdicts(), [2, 1, 0]);
        assert_eq!(reg.gcd_cache_hits(), 1);
        assert_eq!(reg.gcd_latency().count, 2);
        assert_eq!(reg.gcd_latency().sum, 500);
    }

    #[test]
    fn wave_recording_aggregates_and_fills_slots() {
        let reg = MetricsRegistry::with_workers(2);
        reg.record_wave(&WaveReport {
            wall_nanos: 1000,
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
        assert_eq!(reg.waves(), 1);
        assert_eq!(reg.tasks(), 4);
        assert_eq!(reg.busy_nanos(), 1000);
        assert_eq!(reg.capacity_nanos(), 2000);
        assert_eq!(reg.queue_wait_nanos(), 30);
        assert_eq!(reg.worker_tasks(), vec![3, 1]);
        assert_eq!(reg.worker_busy_nanos(), vec![700, 300]);
    }

    #[test]
    fn clear_resets_but_keeps_worker_slots() {
        let reg = MetricsRegistry::with_workers(3);
        reg.record_stage(TestKind::Acyclic, StageVerdict::Unknown, 5);
        reg.record_leader_elections(MemoTableKind::Full, 7);
        reg.record_graph([1, 0, 0, 0], 1, 0, 10);
        reg.clear();
        assert_eq!(reg.stage_verdicts(TestKind::Acyclic), [0; 4]);
        assert_eq!(reg.leader_elections(MemoTableKind::Full), 0);
        assert_eq!(reg.worker_slots(), 3);
        assert_eq!(reg.graph_edges(), [0; 4]);
        assert_eq!(reg.graph_build_latency().count, 0);
    }

    #[test]
    fn incremental_counters_accumulate_and_clear() {
        let reg = MetricsRegistry::new();
        reg.record_incremental(5, 2);
        reg.record_incremental(0, 3);
        assert_eq!(reg.incremental_spliced(), 5);
        assert_eq!(reg.incremental_resolved(), 5);
        reg.clear();
        assert_eq!(reg.incremental_spliced(), 0);
        assert_eq!(reg.incremental_resolved(), 0);
    }

    #[test]
    fn graph_recording_accumulates_by_kind() {
        let reg = MetricsRegistry::new();
        reg.record_graph([2, 1, 0, 0], 3, 1, 500);
        reg.record_graph([1, 0, 1, 0], 0, 2, 700);
        assert_eq!(reg.graph_edges(), [3, 1, 1, 0]);
        assert_eq!(reg.graph_parallel_loops(), 3);
        assert_eq!(reg.graph_sequential_loops(), 3);
        assert_eq!(reg.graph_build_latency().count, 2);
        assert_eq!(reg.graph_build_latency().sum, 1200);
    }
}
