//! Parallel batch dependence-analysis engine.
//!
//! [`Engine`] analyzes a batch of programs by running the wave plan of
//! [`dda_core::driver`] — the same plan [`DependenceAnalyzer`] runs on
//! the calling thread — with every wave fanned across scoped worker
//! threads, sharing work through the sharded concurrent memo tables of
//! [`dda_core::SharedMemo`]. Its output is *bit-identical* to running a
//! serial [`DependenceAnalyzer`] over the same programs as one batch: the
//! same [`PairReport`]s, the same per-program [`AnalysisStats`],
//! regardless of worker count.
//!
//! Every per-pair piece is a pure function of [`dda_core::steps`],
//! leaders are elected and pairs assembled serially in enumeration
//! order, and each wave result lands in its item's slot, so worker and
//! shard counts change nothing but wall time. Around the plan this
//! crate adds the worker pool and its metering into a
//! [`MetricsRegistry`], wall-clock [`Deadline`]s, the independent
//! certificate check ([`check_batch`]), dependence-graph construction
//! ([`graph_batch`]) and the `--check` reproducer minimizer.
//!
//! # Example
//!
//! ```
//! use dda_engine::{Engine, EngineConfig};
//! use dda_ir::parse_program;
//!
//! let programs = vec![
//!     parse_program("for i = 1 to 10 { a[i] = a[i + 10] + 3; }")?,
//!     parse_program("for i = 1 to 10 { a[i + 1] = a[i] + 3; }")?,
//! ];
//! let mut engine = Engine::with_config(EngineConfig {
//!     workers: 4,
//!     ..EngineConfig::default()
//! });
//! let reports = engine.analyze_programs(&programs);
//! assert!(reports[0].pairs()[0].result.is_independent());
//! assert!(reports[1].pairs()[0].result.answer.is_dependent());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod pool;

use std::path::Path;
use std::time::{Duration, Instant};

use dda_check::{check_pair, CheckOutcome};
use dda_core::driver::{self, Executor};
use dda_core::stats::AnalysisStats;
use dda_core::{
    AnalyzerConfig, DependenceAnalyzer, DependenceKind, MemoMode, NullProbe, PairReport, Probe,
    ProgramReport, SharedMemo,
};
use dda_graph::{build_graph, ProgramGraph};
use dda_ir::{extract_accesses, reference_pairs, Program, RefPair};
use dda_obs::{MemoTableKind, MetricsProbe, MetricsRegistry, StageTimings, TraceContext};

use pool::par_map_metered;

/// The engine's [`Executor`]: waves run on up to `workers` threads, and
/// each one (and every solver's probe event) is recorded into the
/// metrics registry. Empty waves are skipped entirely so idle waves
/// don't inflate the counts.
#[derive(Debug, Clone, Copy)]
struct Pool<'a> {
    workers: usize,
    obs: MetricsProbe<'a>,
}

impl<'a> Pool<'a> {
    /// The pool `config` asks for, recording into `obs` and, with a
    /// request scope, into the scope too.
    fn new(
        config: &EngineConfig,
        obs: &'a MetricsRegistry,
        trace: Option<&'a TraceContext>,
    ) -> Self {
        Pool {
            workers: config.effective_workers(),
            obs: MetricsProbe::scoped(obs, trace),
        }
    }
}

impl<'a> Executor for Pool<'a> {
    type Sink = MetricsProbe<'a>;

    fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let (out, wave) = par_map_metered(self.workers, items, f);
        self.obs.record_wave(&wave);
        out
    }

    fn sink(&self) -> MetricsProbe<'a> {
        self.obs
    }
}

/// Batch-engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Shard count for the concurrent memo tables (contention knob only —
    /// never affects results).
    pub shards: usize,
    /// Memoization flavour. Overrides `analyzer.memo`, which would
    /// otherwise silently disagree with the shared tables.
    pub memo_mode: MemoMode,
    /// Per-pair analysis options (directions, pruning, symbolics, …).
    pub analyzer: AnalyzerConfig,
    /// Run the independent `dda-check` kernel over every report produced
    /// by [`Engine::analyze_programs`], panicking on any rejected
    /// certificate or resolution mismatch. Defaults to on under
    /// `debug_assertions`, turning every test of the engine into a
    /// translation-validation test; release callers opt in explicitly
    /// (e.g. the CLI's `--check`) via [`Engine::check_programs`], which
    /// reports failures instead of panicking.
    pub check: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: 0,
            shards: 16,
            memo_mode: MemoMode::Improved,
            analyzer: AnalyzerConfig::default(),
            check: cfg!(debug_assertions),
        }
    }
}

impl EngineConfig {
    /// The analyzer configuration the engine actually runs with:
    /// [`analyzer`](Self::analyzer) with its memo flavour replaced by
    /// [`memo_mode`](Self::memo_mode). A serial [`DependenceAnalyzer`]
    /// built from this is the engine's reference semantics.
    #[must_use]
    pub fn effective_analyzer_config(&self) -> AnalyzerConfig {
        AnalyzerConfig {
            memo: self.memo_mode,
            ..self.analyzer
        }
    }

    fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.workers
        }
    }
}

/// A wall-clock cancellation point for a batch. `Deadline::none()` never
/// expires; [`Deadline::after`] expires a fixed duration from now.
///
/// Expiry is checked before every *leader* solve, after every full
/// solve, and inside direction refinement and Fourier–Motzkin
/// branch-and-bound (see [`dda_core::driver`]), so
/// a timed-out batch returns promptly with partial results: pairs whose
/// computation was skipped or cut short come back as assumed
/// dependences with
/// [`Certificate::Conservative`](dda_core::Certificate) — sound, just
/// not exact — and [`BatchOutcome::deadline_exceeded`] reports that it
/// happened. Cached (warm) values are still used after expiry; only new
/// computation is cancelled.
#[derive(Debug, Clone, Copy, Default)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// A deadline that never expires.
    #[must_use]
    pub fn none() -> Deadline {
        Deadline(None)
    }

    /// Expires `limit` from now.
    #[must_use]
    pub fn after(limit: Duration) -> Deadline {
        Deadline(Some(Instant::now() + limit))
    }
}

/// Everything one [`analyze_batch`] call produced: per-program reports
/// plus the batch's aggregate accounting, so callers that share one
/// memo table across requests (the `dda serve` service) can accumulate
/// engine state without owning an [`Engine`].
#[derive(Debug)]
pub struct BatchOutcome {
    /// One report per program, in input order.
    pub reports: Vec<ProgramReport>,
    /// Statistics summed over the batch (program enumeration order).
    pub stats: AnalysisStats,
    /// Whether the deadline expired: some pairs carry conservative
    /// partial results instead of exact verdicts.
    pub deadline_exceeded: bool,
    /// Pairs whose verdicts were spliced straight from warm memo
    /// entries (including cold-tier archive faults) — the incremental
    /// fast path. `spliced + resolved == stats.pairs`.
    pub spliced: u64,
    /// Pairs actually re-solved this batch (including constant-resolved
    /// and deadline-cancelled conservative pairs).
    pub resolved: u64,
}

/// The parallel batch analyzer.
///
/// Like [`DependenceAnalyzer`], an engine owns its memo tables, so one
/// instance reused across batches models the paper's "store the hash
/// table across compilations" extension. Both keep them in a
/// [`SharedMemo`], so they save and load the same files.
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    memo: SharedMemo,
    stats: AnalysisStats,
    obs: MetricsRegistry,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::with_config(EngineConfig::default())
    }
}

impl Engine {
    /// Creates an engine with the default configuration.
    #[must_use]
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Creates an engine with an explicit configuration.
    #[must_use]
    pub fn with_config(config: EngineConfig) -> Engine {
        Engine {
            memo: SharedMemo::new(config.shards),
            stats: AnalysisStats::default(),
            obs: MetricsRegistry::with_workers(config.effective_workers()),
            config,
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Cumulative statistics since construction (or the last
    /// [`reset`](Self::reset)), summed in program enumeration order.
    #[must_use]
    pub fn stats(&self) -> &AnalysisStats {
        &self.stats
    }

    /// Per-stage call counts and wall time since construction (or the
    /// last [`reset`](Self::reset)), read from the
    /// [`metrics`](Self::metrics) registry. Call counts are
    /// deterministic — only *leader* solves are timed, and leader
    /// election is schedule-independent — while the nanosecond values
    /// naturally vary run to run.
    #[must_use]
    pub fn stage_timings(&self) -> StageTimings {
        self.obs.stage_timings()
    }

    /// The shared memo tables (e.g. for persistence).
    #[must_use]
    pub fn memo(&self) -> &SharedMemo {
        &self.memo
    }

    /// The always-on metrics registry: stage/GCD latencies, leader
    /// elections, worker-pool figures. Pure telemetry — nothing in it
    /// feeds back into results, and the deterministic outputs
    /// ([`stats`](Self::stats), reports) are identical whether or not
    /// anyone reads it.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.obs
    }

    /// Number of distinct entries in the full-result memo table.
    #[must_use]
    pub fn memo_entries(&self) -> usize {
        self.memo.full.unique_entries()
    }

    /// Number of distinct entries in the no-bounds (GCD) memo table.
    #[must_use]
    pub fn gcd_memo_entries(&self) -> usize {
        self.memo.gcd.unique_entries()
    }

    /// Clears memo tables, statistics, and metrics.
    pub fn reset(&mut self) {
        self.memo.clear();
        self.stats = AnalysisStats::default();
        self.obs.clear();
    }

    /// Warm-starts the memo tables from a v3 archive, attached as a
    /// lazily-faulted read tier.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; format errors surface as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn load_memo_file(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        self.memo.load_memo_file(path)
    }

    /// Writes the memo tables (including any attached archive tier) as a
    /// sharded `dda-memo v3` binary archive.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_memo_file_v3(
        &self,
        path: impl AsRef<Path>,
        shard_count: usize,
    ) -> std::io::Result<()> {
        self.memo.save_memo_file_v3(path, shard_count)
    }

    /// Analyzes one program (a batch of one).
    pub fn analyze_program(&mut self, program: &Program) -> ProgramReport {
        // One program in, one report out.
        self.analyze_programs(std::slice::from_ref(program))
            .pop()
            .unwrap_or_default()
    }

    /// Analyzes a batch of programs and returns one report per program,
    /// in input order — bit-identical to a serial [`DependenceAnalyzer`]
    /// (with [`EngineConfig::effective_analyzer_config`] and the same
    /// warm state) over the batch, for any worker or shard count.
    pub fn analyze_programs(&mut self, programs: &[Program]) -> Vec<ProgramReport> {
        self.analyze_programs_probed(programs, &mut NullProbe)
    }

    /// [`analyze_programs`](Self::analyze_programs), reporting every
    /// pair's steps to `probe` in enumeration order, and each program's
    /// start, at any worker count.
    pub fn analyze_programs_probed<P: Probe>(
        &mut self,
        programs: &[Program],
        probe: &mut P,
    ) -> Vec<ProgramReport> {
        self.run(programs, probe).reports
    }

    /// Runs a batch without a deadline, folding its statistics into the
    /// engine's.
    fn run<P: Probe>(&mut self, programs: &[Program], probe: &mut P) -> BatchOutcome {
        let pool = Pool::new(&self.config, &self.obs, None);
        let out = run_batch(
            &self.config,
            &self.memo,
            pool,
            programs,
            Deadline::none(),
            probe,
        );
        self.stats.add(&out.stats);
        out
    }
}

/// Analyzes a batch of programs against an externally owned memo table
/// and metrics registry — the long-running service entry point.
///
/// With [`Deadline::none()`] this is exactly [`Engine::analyze_programs`]:
/// bit-identical to a serial [`DependenceAnalyzer`] with the same warm
/// state, for any worker or shard count. The difference is ownership —
/// `memo` and `obs` outlive any engine, so a caller like `dda serve`
/// keeps one warm [`SharedMemo`] across requests while each request
/// brings its own config and deadline.
///
/// When `deadline` expires mid-batch, remaining computation is skipped:
/// every affected pair reports `Answer::Unknown`, resolved-by-assumed,
/// with a `Conservative` certificate (sound, not exact); nothing is
/// inserted into the memo tables for it and no memo counters are
/// bumped; [`BatchOutcome::deadline_exceeded`] is set. Warm table
/// entries still resolve after expiry — only fresh solves are
/// cancelled. When `config.check` is on, the auto-check is skipped for
/// deadline-exceeded batches (conservative partials re-analyze to
/// different, exact answers by design).
///
/// With a request scope in `trace`, every wave report, leader election,
/// stage timing, GCD verdict, refinement, and the batch's
/// spliced/resolved split are *teed* into the context's local registry
/// (in addition to `obs`) under its trace id, so a service can attribute
/// each recording to the request that caused it. Tracing is telemetry
/// only: one extra relaxed atomic add per event, still allocation-free
/// on the hot path, and the returned reports and stats are
/// bit-identical with or without a scope (proptested in `tests/obs.rs`).
pub fn analyze_batch(
    config: &EngineConfig,
    memo: &SharedMemo,
    obs: &MetricsRegistry,
    programs: &[Program],
    deadline: Deadline,
    trace: Option<&TraceContext>,
) -> BatchOutcome {
    let pool = Pool::new(config, obs, trace);
    run_batch(config, memo, pool, programs, deadline, &mut NullProbe)
}

/// [`analyze_batch`] on `pool`, with an assembly probe (see
/// [`Engine::analyze_programs_probed`]).
fn run_batch<P: Probe>(
    config: &EngineConfig,
    memo: &SharedMemo,
    pool: Pool<'_>,
    programs: &[Program],
    deadline: Deadline,
    probe: &mut P,
) -> BatchOutcome {
    let mut cfg = config.effective_analyzer_config();
    // The plan cancels solves past the deadline, and direction
    // refinement and Fourier–Motzkin branch-and-bound give up past it.
    cfg.fm_limits.deadline = deadline.0;

    // Flatten the batch into one job list; each program owns a
    // contiguous run, so enumeration order is (program, pair).
    let sets: Vec<_> = programs.iter().map(extract_accesses).collect();
    let mut jobs: Vec<RefPair<'_>> = Vec::new();
    let mut lens = Vec::with_capacity(programs.len());
    for set in &sets {
        let start = jobs.len();
        jobs.extend(reference_pairs(set, cfg.include_input_deps));
        lens.push(jobs.len() - start);
    }

    let run = driver::run(&cfg, memo, &pool, &jobs, &lens, probe);
    pool.obs
        .record_leader_elections(MemoTableKind::Gcd, run.gcd_leaders);
    pool.obs
        .record_leader_elections(MemoTableKind::Full, run.full_leaders);
    let mut stats = AnalysisStats::default();
    for report in &run.reports {
        stats.add(&report.stats);
    }
    // Every pair is either spliced or resolved.
    let resolved = stats.pairs - run.spliced;
    pool.obs.record_incremental(run.spliced, resolved);
    if config.check && !run.cancelled {
        let summary = check_reports(config, pool, programs, &run.reports);
        assert!(
            summary.failures.is_empty(),
            "certificate check failed: {:?}",
            summary.failures
        );
    }
    BatchOutcome {
        reports: run.reports,
        stats,
        deadline_exceeded: run.cancelled,
        spliced: run.spliced,
        resolved,
    }
}

/// One pair whose certificate failed independent verification — either
/// the kernel rejected it outright, or the pair's memo-free re-analysis
/// disagreed with the reported verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckFailure {
    /// Index of the program in the checked batch.
    pub program: usize,
    /// Index of the pair within that program's report.
    pub pair: usize,
    /// Name of the shared array (empty for enumeration mismatches).
    pub array: String,
    /// What went wrong.
    pub reason: String,
}

/// Aggregate result of checking a batch of reports.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckSummary {
    /// Pairs whose certificates the kernel verified (directly, or after
    /// resolving an unverified memo transfer by re-analysis).
    pub verified: usize,
    /// Pairs that remain without checkable evidence even after
    /// resolution (conservative claims of independence never occur, so
    /// these are re-analyses that again withheld a certificate).
    pub unverified: usize,
    /// Rejected certificates and resolution mismatches.
    pub failures: Vec<CheckFailure>,
}

impl CheckSummary {
    /// Whether every pair verified (no failures and nothing unverified).
    #[must_use]
    pub fn all_verified(&self) -> bool {
        self.failures.is_empty() && self.unverified == 0
    }
}

/// How one pair's check resolved.
enum Resolved {
    Verified,
    Unverified,
    Failed(String),
}

impl Engine {
    /// Runs the independent `dda-check` kernel over a batch's reports, in
    /// parallel on the worker pool.
    ///
    /// Every pair's certificate is verified against a fresh enumeration
    /// of the program's reference pairs. Reports whose evidence did not
    /// transfer through the memo table
    /// ([`CheckOutcome::Unverified`](dda_check::CheckOutcome)) are
    /// *resolved*: the pair is re-analyzed from scratch with memoization
    /// off, the fresh verdict must agree with the reported one, and the
    /// fresh certificate is checked in its place.
    #[must_use]
    pub fn check_programs(&self, programs: &[Program], reports: &[ProgramReport]) -> CheckSummary {
        check_batch(&self.config, &self.obs, programs, reports)
    }
}

/// Runs the independent `dda-check` kernel over a batch's reports
/// against an externally owned metrics registry — the free-function
/// counterpart of [`Engine::check_programs`] (which delegates here),
/// for callers like `dda serve` that have no engine.
#[must_use]
pub fn check_batch(
    config: &EngineConfig,
    obs: &MetricsRegistry,
    programs: &[Program],
    reports: &[ProgramReport],
) -> CheckSummary {
    check_reports(config, Pool::new(config, obs, None), programs, reports)
}

/// [`check_batch`] on a given pool, so a traced batch's auto-check
/// waves are teed into the request scope too.
fn check_reports(
    config: &EngineConfig,
    pool: Pool<'_>,
    programs: &[Program],
    reports: &[ProgramReport],
) -> CheckSummary {
    let cfg = config.effective_analyzer_config();
    let resolve_cfg = AnalyzerConfig {
        memo: MemoMode::Off,
        ..cfg
    };

    struct CheckJob<'a> {
        program: usize,
        index: usize,
        pair: RefPair<'a>,
        report: &'a PairReport,
    }

    let mut summary = CheckSummary::default();
    let sets: Vec<_> = programs.iter().map(extract_accesses).collect();
    let mut jobs: Vec<CheckJob<'_>> = Vec::new();
    for (pi, (set, rep)) in sets.iter().zip(reports).enumerate() {
        let pairs = reference_pairs(set, cfg.include_input_deps);
        if pairs.len() != rep.pairs().len() {
            summary.failures.push(CheckFailure {
                program: pi,
                pair: 0,
                array: String::new(),
                reason: format!(
                    "report covers {} pairs but the program enumerates {}",
                    rep.pairs().len(),
                    pairs.len()
                ),
            });
            continue;
        }
        for (qi, (pair, pr)) in pairs.iter().zip(rep.pairs()).enumerate() {
            jobs.push(CheckJob {
                program: pi,
                index: qi,
                pair: *pair,
                report: pr,
            });
        }
    }

    let outcomes = pool.map(&jobs, |_, j| match check_pair(j.pair, j.report) {
        CheckOutcome::Verified => Resolved::Verified,
        CheckOutcome::Rejected(e) => Resolved::Failed(e),
        CheckOutcome::Unverified => {
            let fresh = DependenceAnalyzer::with_config(resolve_cfg).analyze_pair(j.pair);
            if std::mem::discriminant(&fresh.result.answer)
                != std::mem::discriminant(&j.report.result.answer)
            {
                return Resolved::Failed(format!(
                    "memo-free re-analysis answered {:?} but the report says {:?}",
                    fresh.result.answer, j.report.result.answer
                ));
            }
            match check_pair(j.pair, &fresh) {
                CheckOutcome::Verified => Resolved::Verified,
                CheckOutcome::Unverified => Resolved::Unverified,
                CheckOutcome::Rejected(e) => {
                    Resolved::Failed(format!("fresh certificate rejected: {e}"))
                }
            }
        }
    });
    for (job, outcome) in jobs.iter().zip(outcomes) {
        match outcome {
            Resolved::Verified => summary.verified += 1,
            Resolved::Unverified => summary.unverified += 1,
            Resolved::Failed(reason) => summary.failures.push(CheckFailure {
                program: job.program,
                pair: job.index,
                array: job.report.array.to_string(),
                reason,
            }),
        }
    }
    summary
}

/// A graph-construction batch: one dependence graph per program, plus
/// the analysis outcome the graphs were lowered from.
#[derive(Debug)]
pub struct GraphOutcome {
    /// One dependence graph per program, in input order.
    pub graphs: Vec<ProgramGraph>,
    /// The underlying analysis outcome (reports, stats, deadline
    /// flag) — `graphs[i]` was built from
    /// `batch.reports[i]`.
    pub batch: BatchOutcome,
}

/// Dense index for a [`DependenceKind`], matching
/// [`dda_obs::GRAPH_EDGE_LABELS`].
fn edge_kind_index(kind: DependenceKind) -> usize {
    match kind {
        DependenceKind::Flow => 0,
        DependenceKind::Anti => 1,
        DependenceKind::Output => 2,
        DependenceKind::Input => 3,
    }
}

/// Analyzes a batch and lowers every report to its dependence graph —
/// the engine entry point behind `dda graph`, `dda parallel`, and the
/// service's `/parallel` endpoint.
///
/// Graph construction is a pure function of (program, report), so the
/// graphs inherit the analysis batch's determinism: bit-identical for
/// any worker or shard count and to a serial
/// [`build_graph`] loop over the same reports. Per-graph telemetry
/// (edge counts by kind, parallel/sequential loop verdicts, build
/// latency) is folded into `obs` and, with a request scope in `trace`,
/// teed into its local registry like [`analyze_batch`]'s.
#[must_use]
pub fn graph_batch(
    config: &EngineConfig,
    memo: &SharedMemo,
    obs: &MetricsRegistry,
    programs: &[Program],
    deadline: Deadline,
    trace: Option<&TraceContext>,
) -> GraphOutcome {
    let batch = analyze_batch(config, memo, obs, programs, deadline, trace);
    build_graphs(Pool::new(config, obs, trace), programs, batch)
}

/// Lowers every report of `batch` to its program's dependence graph on
/// `pool`, recording per-graph telemetry.
fn build_graphs(pool: Pool<'_>, programs: &[Program], batch: BatchOutcome) -> GraphOutcome {
    let items: Vec<(&Program, &ProgramReport)> = programs.iter().zip(&batch.reports).collect();
    let built = pool.map(&items, |_, (program, report)| {
        let start = Instant::now();
        let graph = build_graph(program, report);
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        (graph, nanos)
    });
    let mut graphs = Vec::with_capacity(built.len());
    for (graph, nanos) in built {
        let mut by_kind = [0u64; 4];
        for e in &graph.edges {
            by_kind[edge_kind_index(e.kind)] += 1;
        }
        let (mut parallel, mut sequential) = (0u64, 0u64);
        for id in 0..graph.loops.len() {
            if graph.is_parallel(id) {
                parallel += 1;
            } else {
                sequential += 1;
            }
        }
        pool.obs.record_graph(by_kind, parallel, sequential, nanos);
        graphs.push(graph);
    }
    GraphOutcome { graphs, batch }
}

impl Engine {
    /// Analyzes a batch and builds every program's dependence graph
    /// (see [`graph_batch`]); reports are folded into the engine's
    /// cumulative stats exactly as
    /// [`analyze_programs`](Self::analyze_programs) would.
    #[must_use]
    pub fn graph_programs(&mut self, programs: &[Program]) -> GraphOutcome {
        self.graph_programs_probed(programs, &mut NullProbe)
    }

    /// [`graph_programs`](Self::graph_programs), reporting the analysis
    /// to `probe` as [`analyze_programs_probed`](Self::analyze_programs_probed)
    /// does.
    #[must_use]
    pub fn graph_programs_probed<P: Probe>(
        &mut self,
        programs: &[Program],
        probe: &mut P,
    ) -> GraphOutcome {
        let batch = self.run(programs, probe);
        build_graphs(Pool::new(&self.config, &self.obs, None), programs, batch)
    }
}

/// Number of statements in a statement list, counting nested bodies.
fn stmt_count(stmts: &[dda_ir::Stmt]) -> usize {
    use dda_ir::Stmt;
    stmts
        .iter()
        .map(|s| match s {
            Stmt::For(f) => 1 + stmt_count(&f.body),
            Stmt::If(i) => 1 + stmt_count(&i.then_body) + stmt_count(&i.else_body),
            _ => 1,
        })
        .sum()
}

/// Removes the `idx`-th statement in pre-order (counting nested bodies).
/// Returns whether a removal happened; `idx` is decremented as statements
/// are passed over.
fn remove_stmt(stmts: &mut Vec<dda_ir::Stmt>, idx: &mut usize) -> bool {
    use dda_ir::Stmt;
    let mut i = 0;
    while i < stmts.len() {
        if *idx == 0 {
            stmts.remove(i);
            return true;
        }
        *idx -= 1;
        let removed = match &mut stmts[i] {
            Stmt::For(f) => remove_stmt(&mut f.body, idx),
            Stmt::If(s) => remove_stmt(&mut s.then_body, idx) || remove_stmt(&mut s.else_body, idx),
            _ => false,
        };
        if removed {
            return true;
        }
        i += 1;
    }
    false
}

/// Greedily shrinks a program while `still_fails` keeps returning `true`:
/// repeatedly deletes single statements (anywhere in the nest) whose
/// removal preserves the failure, until no single deletion does. Used by
/// `dda --check` to dump a minimal reproducer when a certificate is
/// rejected. If the input itself does not satisfy `still_fails`, it is
/// returned unchanged.
pub fn minimize_program<F: Fn(&Program) -> bool>(program: &Program, still_fails: F) -> Program {
    let mut current = program.clone();
    loop {
        let mut shrunk = false;
        for k in 0..stmt_count(&current.stmts) {
            let mut candidate = current.clone();
            let mut idx = k;
            if !remove_stmt(&mut candidate.stmts, &mut idx) {
                continue;
            }
            if still_fails(&candidate) {
                current = candidate;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            return current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dda_ir::parse_program;

    const SOURCES: &[&str] = &[
        "for i = 1 to 10 { a[i] = a[i + 10] + 3; }",
        "for i = 1 to 10 { a[i + 1] = a[i] + 3; }",
        "for i1 = 1 to 10 { for i2 = 1 to 10 { a[i1][i2] = a[i2 + 10][i1 + 9] + 1; } }",
        "for i = 1 to 10 { a[3] = a[4] + a[3]; }",
        "for i = 1 to 8 { for j = 1 to 8 { b[i][j] = b[i - 1][j + 1] + 1; } }",
        "for i = 1 to 10 { a[2 * i] = a[2 * i + 1] + 1; }",
        "for i = 1 to 10 { a[i + 1] = a[i] + 3; }",
    ];

    fn batch() -> Vec<Program> {
        SOURCES.iter().map(|s| parse_program(s).unwrap()).collect()
    }

    fn serial_reports(cfg: AnalyzerConfig, programs: &[Program]) -> Vec<ProgramReport> {
        let mut analyzer = DependenceAnalyzer::with_config(cfg);
        programs
            .iter()
            .map(|p| analyzer.analyze_program(p))
            .collect()
    }

    #[test]
    fn matches_serial_analyzer_for_every_memo_mode() {
        let programs = batch();
        for memo_mode in [MemoMode::Off, MemoMode::Simple, MemoMode::Improved] {
            for workers in [1, 3] {
                let config = EngineConfig {
                    workers,
                    shards: 4,
                    memo_mode,
                    ..EngineConfig::default()
                };
                let mut engine = Engine::with_config(config);
                let got = engine.analyze_programs(&programs);
                let want = serial_reports(config.effective_analyzer_config(), &programs);
                assert_eq!(got, want, "memo={memo_mode:?} workers={workers}");
            }
        }
    }

    #[test]
    fn graph_batch_matches_serial_build_and_records_metrics() {
        let programs = batch();
        let want: Vec<ProgramGraph> = {
            let config = EngineConfig::default();
            let reports = serial_reports(config.effective_analyzer_config(), &programs);
            programs
                .iter()
                .zip(&reports)
                .map(|(p, r)| build_graph(p, r))
                .collect()
        };
        for workers in [1, 3] {
            let config = EngineConfig {
                workers,
                shards: 4,
                ..EngineConfig::default()
            };
            let mut engine = Engine::with_config(config);
            let out = engine.graph_programs(&programs);
            assert_eq!(out.graphs, want, "workers={workers}");
            let edges: u64 = engine.metrics().graph_edges().iter().sum();
            let total: usize = want.iter().map(|g| g.edges.len()).sum();
            assert_eq!(edges, total as u64);
            assert_eq!(
                engine.metrics().graph_build_latency().count,
                programs.len() as u64
            );
            let loops: u64 =
                engine.metrics().graph_parallel_loops() + engine.metrics().graph_sequential_loops();
            let total_loops: usize = want.iter().map(|g| g.loops.len()).sum();
            assert_eq!(loops, total_loops as u64);
        }
    }

    #[test]
    fn cumulative_stats_match_serial() {
        let programs = batch();
        let config = EngineConfig {
            workers: 4,
            ..EngineConfig::default()
        };
        let mut engine = Engine::with_config(config);
        engine.analyze_programs(&programs);
        let mut analyzer = DependenceAnalyzer::with_config(config.effective_analyzer_config());
        for p in &programs {
            analyzer.analyze_program(p);
        }
        assert_eq!(engine.stats(), analyzer.stats());
        assert_eq!(engine.memo_entries(), analyzer.memo_entries());
        assert_eq!(engine.gcd_memo_entries(), analyzer.gcd_memo_entries());
    }

    #[test]
    fn warm_start_round_trips_with_serial_analyzer() {
        let programs = batch();
        let config = EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        };
        let dir = std::env::temp_dir().join("dda_engine_v3_test");
        std::fs::create_dir_all(&dir).unwrap();
        let v3 = dir.join("round_trip.dda-memo3");
        let mut cold = Engine::with_config(config);
        cold.analyze_programs(&programs);
        cold.save_memo_file_v3(&v3, 4).unwrap();

        // The reference: a warm serial analyzer replaying the batch.
        let mut analyzer = DependenceAnalyzer::with_config(config.effective_analyzer_config());
        analyzer.load_memo_file(&v3).unwrap();
        let want: Vec<ProgramReport> = programs
            .iter()
            .map(|p| analyzer.analyze_program(p))
            .collect();
        assert!(want.iter().any(|r| r.pairs().iter().any(|p| p.from_cache)));

        // A warm engine replays with hits everywhere the serial warm
        // analyzer hits, at any worker and shard count.
        for workers in [1, 3] {
            for shards in [1, 8] {
                let mut warm = Engine::with_config(EngineConfig {
                    workers,
                    shards,
                    ..config
                });
                warm.load_memo_file(&v3).unwrap();
                let got = warm.analyze_programs(&programs);
                assert_eq!(got, want, "workers={workers} shards={shards}");
            }
        }
        std::fs::remove_file(&v3).ok();
    }

    #[test]
    fn incremental_reanalysis_splices_unchanged_pairs_and_passes_check() {
        let programs = batch();
        let dir = std::env::temp_dir().join("dda_engine_v3_test");
        std::fs::create_dir_all(&dir).unwrap();
        let v3 = dir.join("incremental.dda-memo3");

        let config = EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        };
        let mut cold = Engine::with_config(config);
        cold.analyze_programs(&programs);
        cold.save_memo_file_v3(&v3, 2).unwrap();

        // Edit one program; the rest of the batch is unchanged and its
        // verdicts splice straight from the archive.
        let mut edited = programs.clone();
        edited[3] = parse_program("for i = 1 to 10 { a[5] = a[6] + a[5]; }").unwrap();

        let mut warm = Engine::with_config(config);
        warm.load_memo_file(&v3).unwrap();
        let reports = warm.analyze_programs(&edited);

        let spliced = warm.metrics().incremental_spliced();
        let resolved = warm.metrics().incremental_resolved();
        let pairs: u64 = reports.iter().map(|r| r.stats.pairs).sum();
        assert_eq!(spliced + resolved, pairs);
        assert!(spliced > 0, "unchanged pairs must splice from the memo");
        assert!(resolved > 0, "the edited program must re-solve");

        // Spliced verdicts carry certificates the independent kernel
        // accepts.
        let summary = warm.check_programs(&edited, &reports);
        assert!(summary.failures.is_empty(), "{:?}", summary.failures);

        // Incremental replay is bit-identical to analyzing the edited
        // batch cold-plus-warm-table (the serial analyzer's view).
        let mut analyzer = DependenceAnalyzer::with_config(config.effective_analyzer_config());
        analyzer.load_memo_file(&v3).unwrap();
        let want: Vec<ProgramReport> = edited.iter().map(|p| analyzer.analyze_program(p)).collect();
        assert_eq!(reports, want);
        std::fs::remove_file(&v3).ok();
    }

    #[test]
    fn shard_count_does_not_change_results() {
        let programs = batch();
        let mut reference: Option<Vec<ProgramReport>> = None;
        for shards in [1, 2, 64] {
            let mut engine = Engine::with_config(EngineConfig {
                workers: 3,
                shards,
                ..EngineConfig::default()
            });
            let got = engine.analyze_programs(&programs);
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(&got, want, "shards={shards}"),
            }
        }
    }

    #[test]
    fn stage_timing_call_counts_are_deterministic() {
        // Only leaders are timed, and leader election replays the serial
        // miss pattern — so stage-call counts must equal what a serial
        // analyzer's metrics probe sees, for any worker count.
        let programs = batch();
        let config = EngineConfig {
            workers: 3,
            ..EngineConfig::default()
        };
        let mut engine = Engine::with_config(config);
        engine.analyze_programs(&programs);

        let mut analyzer = DependenceAnalyzer::with_config(config.effective_analyzer_config());
        let serial = MetricsRegistry::new();
        let mut probe = MetricsProbe::new(&serial);
        for p in &programs {
            analyzer.analyze_program_probed(p, &mut probe);
        }
        assert_eq!(engine.stage_timings().calls, serial.stage_timings().calls);
        // Both time only the GCD solves that actually ran (the misses).
        let stats = engine.stats();
        let misses = stats.gcd_memo_queries - stats.gcd_memo_hits;
        assert_eq!(engine.stage_timings().gcd_calls, misses);
        assert_eq!(serial.stage_timings().gcd_calls, misses);

        engine.reset();
        assert_eq!(engine.stage_timings(), StageTimings::default());
    }

    #[test]
    fn check_programs_verifies_batches_and_catches_corruption() {
        use dda_core::Answer;
        let programs = batch();
        let config = EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        };
        let mut engine = Engine::with_config(config);
        let reports = engine.analyze_programs(&programs);
        // Cold run: everything carries a fresh certificate.
        let summary = engine.check_programs(&programs, &reports);
        assert!(summary.failures.is_empty(), "{:?}", summary.failures);
        assert!(summary.all_verified());

        // Warm run: memo hits come back Unverified and are resolved by
        // memo-free re-analysis — still zero failures, zero unverified.
        let warm = engine.analyze_programs(&programs);
        let summary = engine.check_programs(&programs, &warm);
        assert!(summary.failures.is_empty(), "{:?}", summary.failures);
        assert!(summary.all_verified());
        assert!(warm.iter().any(|r| r.pairs().iter().any(|p| p.from_cache)));

        // Corrupt a verdict: a dependent pair flipped to Independent must
        // be caught (its witness certificate proves the opposite).
        let mut pairs: Vec<PairReport> = warm[1].pairs().to_vec();
        assert!(!pairs[0].result.is_independent());
        pairs[0].result.answer = Answer::Independent;
        let forged = ProgramReport::from_parts(pairs, warm[1].stats);
        let summary = engine.check_programs(&programs[1..2], std::slice::from_ref(&forged));
        assert_eq!(summary.failures.len(), 1, "{summary:?}");
        assert_eq!(summary.failures[0].program, 0);
        assert_eq!(summary.failures[0].pair, 0);
    }

    #[test]
    fn check_programs_rejects_a_report_naming_another_array() {
        let programs = batch();
        let mut engine = Engine::with_config(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        });
        let reports = engine.analyze_programs(&programs);
        let mut pairs: Vec<PairReport> = reports[1].pairs().to_vec();
        pairs[0].array = "renamed".into();
        let forged = ProgramReport::from_parts(pairs, reports[1].stats);
        let summary = engine.check_programs(&programs[1..2], std::slice::from_ref(&forged));
        assert_eq!(summary.failures.len(), 1, "{summary:?}");
        assert_eq!(summary.failures[0].pair, 0);
        assert_eq!(summary.failures[0].array, "renamed");
    }

    #[test]
    fn minimizer_shrinks_to_the_failing_statement() {
        let src = "for i = 1 to 10 { \
                     b[i] = 0; \
                     for j = 1 to 10 { c[j] = 1; a[i][j] = a[i][j - 1] + 1; } \
                     d[i] = 2; \
                   }";
        let program = parse_program(src).unwrap();
        // "Failure" = the program still contains the coupled a[][] pair.
        let still_fails = |p: &Program| {
            let accesses = dda_ir::extract_accesses(p);
            dda_ir::reference_pairs(&accesses, false)
                .iter()
                .any(|pair| &**pair.array_name() == "a")
        };
        let min = minimize_program(&program, still_fails);
        assert!(still_fails(&min));
        // Everything except the enclosing loops and the one a[][]
        // statement is gone: for i { for j { a[i][j] = ...; } }.
        assert_eq!(stmt_count(&min.stmts), 3, "{min}");

        // A predicate the original never satisfies leaves it untouched.
        let untouched = minimize_program(&program, |_| false);
        assert_eq!(stmt_count(&untouched.stmts), stmt_count(&program.stmts));
    }

    #[test]
    fn analyze_batch_with_no_deadline_matches_the_engine_path() {
        let programs = batch();
        let config = EngineConfig {
            workers: 3,
            check: false,
            ..EngineConfig::default()
        };
        let memo = SharedMemo::new(config.shards);
        let obs = MetricsRegistry::with_workers(3);
        let out = analyze_batch(&config, &memo, &obs, &programs, Deadline::none(), None);
        assert!(!out.deadline_exceeded);
        let want = serial_reports(config.effective_analyzer_config(), &programs);
        assert_eq!(out.reports, want);
    }

    #[test]
    fn expired_deadline_yields_conservative_partial_results() {
        let programs = batch();
        for memo_mode in [MemoMode::Off, MemoMode::Improved] {
            let config = EngineConfig {
                workers: 2,
                memo_mode,
                check: false,
                ..EngineConfig::default()
            };
            let memo = SharedMemo::new(config.shards);
            let obs = MetricsRegistry::with_workers(2);
            let out = analyze_batch(
                &config,
                &memo,
                &obs,
                &programs,
                Deadline::after(Duration::ZERO),
                None,
            );
            assert!(out.deadline_exceeded, "memo={memo_mode:?}");
            assert_eq!(out.reports.len(), programs.len());
            // Cancelled leaders insert nothing into the shared tables.
            assert_eq!(memo.full.unique_entries(), 0);
            assert_eq!(memo.gcd.unique_entries(), 0);
            // Every pair either short-circuited as constant (those still
            // resolve exactly — classification ran before the deadline
            // check) or came back as a conservative assumed dependence.
            for r in &out.reports {
                assert_eq!(r.stats.assumed + r.stats.constant, r.stats.pairs);
            }
        }
    }

    #[test]
    fn warm_table_entries_still_resolve_past_the_deadline() {
        // Only fresh computation is cancelled: a fully warm table
        // answers the whole batch even with an already-expired deadline.
        let programs = batch();
        let config = EngineConfig {
            workers: 2,
            check: false,
            ..EngineConfig::default()
        };
        let memo = SharedMemo::new(config.shards);
        let obs = MetricsRegistry::with_workers(2);
        let cold = analyze_batch(&config, &memo, &obs, &programs, Deadline::none(), None);
        let warm = analyze_batch(
            &config,
            &memo,
            &obs,
            &programs,
            Deadline::after(Duration::ZERO),
            None,
        );
        assert!(!warm.deadline_exceeded, "no fresh solves were needed");
        for (c, w) in cold.reports.iter().zip(&warm.reports) {
            for (cp, wp) in c.pairs().iter().zip(w.pairs()) {
                assert_eq!(
                    std::mem::discriminant(&cp.result.answer),
                    std::mem::discriminant(&wp.result.answer)
                );
            }
        }
    }

    #[test]
    fn empty_batch_and_empty_program() {
        let mut engine = Engine::new();
        assert!(engine.analyze_programs(&[]).is_empty());
        let trivial = parse_program("for i = 1 to 10 { a[i] = 1; }").unwrap();
        let report = engine.analyze_program(&trivial);
        assert_eq!(report.stats.pairs, 0);
    }
}
