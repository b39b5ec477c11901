//! Parallel batch dependence-analysis engine.
//!
//! [`Engine`] analyzes a batch of programs by fanning their reference
//! pairs across scoped worker threads, sharing work through the sharded
//! concurrent memo tables of [`dda_core::SharedMemo`] — and still
//! produces output *bit-identical* to running a single serial
//! [`DependenceAnalyzer`] over the same programs in order: the same
//! [`PairReport`]s, the same per-program [`AnalysisStats`], regardless
//! of worker count.
//!
//! # How determinism survives parallelism
//!
//! Every per-pair piece (classification, key construction, the extended
//! GCD solve, the cascade) is a pure function in [`dda_core::steps`], so
//! results depend only on inputs, never on schedule. The engine runs in
//! waves:
//!
//! 1. **Classify** every pair in parallel (constant short-circuit or
//!    integer-problem construction).
//! 2. **Extended GCD**: compute no-bounds memo keys in parallel, then
//!    elect — serially, in global enumeration order — a *leader* per
//!    distinct key (the first pair that would reach the table in a
//!    serial run). Leaders solve in parallel; every other pair with the
//!    same key reuses the leader's result, exactly as a serial run would
//!    have found it in the table. With memoization off no pair has a
//!    key, and each solves for itself.
//! 3. **Full analysis**: the same election over full-result keys;
//!    leaders run the test cascade and direction refinement in parallel.
//! 4. **Assemble** serially, in enumeration order: every pair goes
//!    through the same per-pair step as the serial analyzer,
//!    [`dda_core::steps::resolve_pair`], whose memo source hands back
//!    what the waves computed. That one function decides every counter.
//!
//! Because a leader is always the *first* occurrence in enumeration
//! order, the hit/miss pattern — and therefore every statistics counter —
//! matches the serial analyzer's exactly. An unresolvable GCD solve
//! (overflow, `None`) is never inserted into the table, and since the
//! solve is deterministic per key, later pairs with that key are counted
//! as misses that recompute the identical `None` — again matching the
//! serial analyzer.
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

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dda_check::{check_pair, CheckOutcome};
use dda_core::gcd::{EqOutcome, Lattice};
use dda_core::memo::{CanonicalKey, MemoKey, NoBoundsKey};
use dda_core::problem::DependenceProblem;
use dda_core::stats::AnalysisStats;
use dda_core::steps::{self, Classified, MemoSource, MemoUse, ReduceEffects};
use dda_core::{
    AnalyzerConfig, CachedOutcome, DependenceAnalyzer, DependenceKind, MemoFormat, MemoMode,
    NullProbe, PairReport, Probe, ProgramReport, SharedMemo,
};
use dda_graph::{build_graph, ProgramGraph};
use dda_ir::{extract_accesses, reference_pairs, Program, RefPair};
use dda_obs::{MemoTableKind, MetricsProbe, MetricsRegistry, StageTimings, TraceContext};

use pool::par_map_metered;

/// [`par_map`] with the wave folded into the metrics registry. Empty
/// slices are skipped entirely so idle waves don't inflate the counts.
fn par_map_obs<T, R, F>(obs: MetricsProbe<'_>, workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let (out, wave) = par_map_metered(workers, items, f);
    obs.record_wave(&wave);
    out
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

/// A wall-clock cancellation point threaded through the engine's wave
/// loop. `Deadline::none()` never expires; [`Deadline::after`] expires a
/// fixed duration from now.
///
/// Expiry is checked between waves, before every *leader* solve, and
/// inside direction refinement and Fourier–Motzkin branch-and-bound, so
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

    /// At a specific instant.
    #[must_use]
    pub fn at(instant: Instant) -> Deadline {
        Deadline(Some(instant))
    }

    /// Whether the deadline has passed.
    #[must_use]
    pub fn expired(&self) -> bool {
        self.0.is_some_and(|t| Instant::now() >= t)
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

/// Where a memoizable job's value comes from, decided serially in
/// enumeration order (see [`elect_leaders`]).
enum Src<V> {
    /// The shared table already had it (warm start / earlier batch):
    /// read once per key, shared by every job with that key.
    Warm(Arc<V>),
    /// First occurrence of the key: this job computes.
    Leader,
    /// Reuse the result of the leader job at this index.
    Share(usize),
}

/// One job's extended-GCD answer as [`MemoSource::gcd`] hands it over:
/// `None` when the deadline cancelled the solve (and for jobs without a
/// problem, which never ask).
type GcdServed = Option<(Option<EqOutcome>, MemoUse)>;

/// One job's full-analysis answer from the full wave.
enum FullRes {
    /// Computed by this job (a solver, rare): its report and statistics
    /// effects.
    Computed(Box<(PairReport, ReduceEffects)>, MemoUse),
    /// Served from a memo entry (warm, or a leader's fresh insert),
    /// shared with every job of its key; rehydrated onto the job's
    /// template during assembly.
    Cached(Arc<CachedOutcome>, CanonicalKey, bool, MemoUse),
}

/// The engine's [`MemoSource`]: hands one job's wave results to the
/// shared per-pair step.
struct Replay {
    memo_mode: MemoMode,
    gcd: GcdServed,
    /// `None` when the deadline cancelled the job's cascade (and for jobs
    /// that never reach the full phase).
    full: Option<FullRes>,
}

impl MemoSource for Replay {
    fn gcd(&mut self, _: &DependenceProblem) -> GcdServed {
        self.gcd.take()
    }

    fn full<P: Probe>(
        &mut self,
        _: &DependenceProblem,
        _: &Lattice,
        template: PairReport,
        _: &mut P,
    ) -> Option<(PairReport, ReduceEffects, MemoUse)> {
        Some(match self.full.take()? {
            FullRes::Computed(computed, used) => {
                let (report, fx) = *computed;
                (report, fx, used)
            }
            FullRes::Cached(cached, ck, flipped, used) => {
                let report = steps::rehydrate_hit(self.memo_mode, &cached, &ck, flipped, template);
                (report, ReduceEffects::default(), used)
            }
        })
    }
}

/// For each job's (optional) memo key, decide — serially, in enumeration
/// order — whether the value comes from the warm memo (resident table or
/// cold archive tier, via `lookup`), from this job as the elected
/// leader, or from an earlier leader. The memo is consulted exactly once
/// per distinct key, so its own traffic counters track *table* load, not
/// per-pair accounting.
fn elect_leaders<V>(
    keys: &[Option<&MemoKey>],
    lookup: impl Fn(&MemoKey) -> Option<V>,
) -> Vec<Option<Src<V>>> {
    let mut seen: HashMap<&MemoKey, Src<V>> = HashMap::new();
    let mut plan = Vec::with_capacity(keys.len());
    for (i, key) in keys.iter().enumerate() {
        let Some(k) = key else {
            plan.push(None);
            continue;
        };
        if let Some(prior) = seen.get(k) {
            plan.push(Some(match prior {
                Src::Warm(v) => Src::Warm(Arc::clone(v)),
                Src::Share(j) => Src::Share(*j),
                Src::Leader => unreachable!("leaders are recorded as Share"),
            }));
        } else if let Some(v) = lookup(k) {
            let v = Arc::new(v);
            seen.insert(k, Src::Warm(Arc::clone(&v)));
            plan.push(Some(Src::Warm(v)));
        } else {
            seen.insert(k, Src::Share(i));
            plan.push(Some(Src::Leader));
        }
    }
    plan
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

    /// Warm-starts the memo tables from a file — a v3 binary archive
    /// (attached as a lazily-faulted read tier) or v1/v2 text — and
    /// reports which format was found.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; format errors surface as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn load_memo_file(&self, path: impl AsRef<Path>) -> std::io::Result<MemoFormat> {
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
        self.analyze_programs(std::slice::from_ref(program))
            .pop()
            .expect("one program in, one report out")
    }

    /// Analyzes a batch of programs and returns one report per program,
    /// in input order — bit-identical to looping a serial
    /// [`DependenceAnalyzer`] (with
    /// [`EngineConfig::effective_analyzer_config`] and the same warm
    /// state) over the batch, for any worker or shard count.
    pub fn analyze_programs(&mut self, programs: &[Program]) -> Vec<ProgramReport> {
        let out = analyze_batch(
            &self.config,
            &self.memo,
            &self.obs,
            programs,
            Deadline::none(),
            None,
        );
        self.stats.add(&out.stats);
        out.reports
    }
}

/// Analyzes a batch of programs against an externally owned memo table
/// and metrics registry — the long-running service entry point.
///
/// With [`Deadline::none()`] this is exactly [`Engine::analyze_programs`]
/// (which delegates here): bit-identical to a serial
/// [`DependenceAnalyzer`] with the same warm state, for any worker or
/// shard count. The difference is ownership — `memo` and `obs` outlive
/// any engine, so a caller like `dda serve` keeps one warm
/// [`SharedMemo`] across requests while each request brings its own
/// config and deadline.
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
    let obs = MetricsProbe::scoped(obs, trace);
    let mut cfg = config.effective_analyzer_config();
    // Direction refinement and Fourier–Motzkin branch-and-bound give up
    // past the deadline; the full wave discards what they computed then.
    cfg.fm_limits.deadline = deadline.0;
    let workers = config.effective_workers();

    // Flatten the batch into one global job list; each program owns a
    // contiguous range, so enumeration order is (program, pair).
    let sets: Vec<_> = programs.iter().map(extract_accesses).collect();
    let mut jobs: Vec<RefPair<'_>> = Vec::new();
    let mut ranges = Vec::with_capacity(programs.len());
    for set in &sets {
        let start = jobs.len();
        jobs.extend(reference_pairs(set, cfg.include_input_deps));
        ranges.push(start..jobs.len());
    }

    // Wave 1: classify every pair (pure).
    let classified = par_map_obs(obs, workers, &jobs, |_, j| {
        steps::classify_pair(*j, cfg.symbolic)
    });
    // Waves 2 and 3: extended GCD, then full analysis of the lattice jobs.
    let gcd = gcd_wave(obs, memo, &cfg, workers, &jobs, &classified, deadline);
    let full = full_wave(obs, memo, &cfg, workers, &jobs, &classified, &gcd, deadline);

    // Wave 4: serial in-order assembly through the shared per-pair step.
    let mut batch_stats = AnalysisStats::default();
    let mut deadline_exceeded = false;
    let mut batch_spliced = 0u64;
    let mut reports = Vec::with_capacity(programs.len());
    let mut answers = gcd.into_iter().zip(full);
    for range in ranges {
        let mut delta = AnalysisStats::default();
        let mut pair_reports = Vec::with_capacity(range.len());
        for i in range {
            let (gcd, full) = answers.next().expect("one answer per job");
            let mut source = Replay {
                memo_mode: cfg.memo,
                gcd,
                full,
            };
            let pair =
                steps::resolve_pair(&cfg, jobs[i], &classified[i], &mut source, &mut NullProbe);
            delta.add(&pair.stats);
            deadline_exceeded |= pair.cancelled;
            batch_spliced += u64::from(pair.spliced);
            pair_reports.push(pair.report);
        }
        batch_stats.add(&delta);
        reports.push(ProgramReport::from_parts(pair_reports, delta));
    }
    // Every pair is either spliced or resolved.
    let batch_resolved = batch_stats.pairs - batch_spliced;
    obs.record_incremental(batch_spliced, batch_resolved);
    if config.check && !deadline_exceeded {
        let summary = check_batch_obs(config, obs, programs, &reports);
        assert!(
            summary.failures.is_empty(),
            "certificate check failed: {:?}",
            summary.failures
        );
    }
    BatchOutcome {
        reports,
        stats: batch_stats,
        deadline_exceeded,
        spliced: batch_spliced,
        resolved: batch_resolved,
    }
}

/// The jobs that compute for themselves: elected leaders, plus every job
/// that reached the phase without a key (memoization off).
fn solvers<V>(plan: &[Option<Src<V>>], reached: impl Fn(usize) -> bool) -> Vec<usize> {
    plan.iter()
        .enumerate()
        .filter_map(|(i, src)| match src {
            Some(Src::Leader) => Some(i),
            Some(_) => None,
            None => reached(i).then_some(i),
        })
        .collect()
}

/// Number of elected leaders in a plan.
fn leader_count<V>(plan: &[Option<Src<V>>]) -> u64 {
    plan.iter()
        .filter(|s| matches!(s, Some(Src::Leader)))
        .count() as u64
}

/// The extended-GCD wave: parallel key construction, serial leader
/// election, parallel solves, parallel per-job expansion. A solver whose
/// turn comes after `deadline` skips its solve; it and every job sharing
/// its key are cancelled.
fn gcd_wave(
    obs: MetricsProbe<'_>,
    memo: &SharedMemo,
    cfg: &AnalyzerConfig,
    workers: usize,
    jobs: &[RefPair<'_>],
    classified: &[Classified],
    deadline: Deadline,
) -> Vec<GcdServed> {
    let keys: Vec<Option<NoBoundsKey>> = par_map_obs(obs, workers, jobs, |i, _| {
        classified[i].problem().and_then(|p| steps::gcd_key(cfg, p))
    });
    let key_refs: Vec<Option<&MemoKey>> = keys
        .iter()
        .map(|nk| nk.as_ref().map(|nk| &nk.key))
        .collect();
    let plan = elect_leaders(&key_refs, |k| memo.lookup_gcd(k));
    let solvers = solvers(&plan, |i| classified[i].problem().is_some());
    obs.record_leader_elections(MemoTableKind::Gcd, leader_count(&plan));
    let solved = par_map_obs(obs, workers, &solvers, |_, &i| {
        if deadline.expired() {
            return None;
        }
        let p = classified[i].problem().expect("solvers have a problem");
        let start = Instant::now();
        let out = steps::solve_gcd(p, keys[i].as_ref());
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        Some((out, nanos))
    });
    // Solvers absent from the map were cancelled by the deadline.
    let mut solved_by: HashMap<usize, Option<EqOutcome>> = HashMap::with_capacity(solvers.len());
    for (slot, &i) in solved.into_iter().zip(&solvers) {
        let Some((v, nanos)) = slot else {
            continue;
        };
        obs.record_gcd(steps::gcd_verdict(v.as_ref()), false, nanos);
        // Overflows are not cached, as in the serial analyzer.
        if let (Some(v), Some(nk)) = (&v, &keys[i]) {
            memo.gcd.insert(nk.key.clone(), v.clone());
        }
        solved_by.insert(i, v);
    }

    par_map_obs(obs, workers, jobs, |i, _| {
        let p = classified[i].problem()?;
        let (canonical, used) = match &plan[i] {
            None => (solved_by.get(&i)?.as_ref(), MemoUse::Unkeyed),
            Some(Src::Leader) => (solved_by.get(&i)?.as_ref(), MemoUse::Miss),
            Some(Src::Warm(v)) => (Some(&**v), MemoUse::Warm),
            // The leader's overflow was not inserted, so a serial run
            // would miss here and recompute the identical `None`;
            // anything cached is a hit.
            Some(Src::Share(j)) => {
                let v = solved_by.get(j)?.as_ref();
                let used = if v.is_some() {
                    MemoUse::Hit
                } else {
                    MemoUse::Miss
                };
                (v, used)
            }
        };
        // Telemetry: shared and warm jobs were served without solving
        // (solvers were recorded when they solved).
        if matches!(plan[i], Some(Src::Warm(_) | Src::Share(_))) {
            obs.record_gcd(steps::gcd_verdict(canonical), true, 0);
        }
        Some((steps::expand_gcd(p, keys[i].as_ref(), canonical), used))
    })
}

/// The full-analysis wave over lattice jobs, elected like the GCD wave.
/// Solvers whose turn comes after `deadline` skip the cascade; they and
/// every job sharing their key are cancelled.
#[allow(clippy::too_many_arguments)]
fn full_wave(
    obs: MetricsProbe<'_>,
    memo: &SharedMemo,
    cfg: &AnalyzerConfig,
    workers: usize,
    jobs: &[RefPair<'_>],
    classified: &[Classified],
    gcd: &[GcdServed],
    deadline: Deadline,
) -> Vec<Option<FullRes>> {
    let lattice = |i: usize| match &gcd[i] {
        Some((Some(EqOutcome::Lattice(l)), _)) => Some(l),
        _ => None,
    };
    let keys = par_map_obs(obs, workers, jobs, |i, _| {
        lattice(i)?;
        steps::full_key(cfg, classified[i].problem()?)
    });
    let key_refs: Vec<Option<&MemoKey>> = keys
        .iter()
        .map(|f| f.as_ref().map(|(ck, _)| &ck.key))
        .collect();
    let plan = elect_leaders(&key_refs, |k| memo.lookup_full(k));
    let solvers = solvers(&plan, |i| lattice(i).is_some());
    obs.record_leader_elections(MemoTableKind::Full, leader_count(&plan));
    let computed = par_map_obs(obs, workers, &solvers, |_, &i| {
        if deadline.expired() {
            return None;
        }
        let job = &jobs[i];
        let p = classified[i].problem().expect("solvers have a problem");
        let l = lattice(i).expect("solvers have a lattice");
        let template = steps::pair_template(*job);
        let mut fx = ReduceEffects::default();
        let mut probe = obs;
        let report = steps::analyze_reduced_probed(cfg, p, l, template, &mut fx, &mut probe);
        // A cascade that ran past the deadline may have been cut short:
        // the pair is cancelled like one whose solve never started.
        if deadline.expired() {
            return None;
        }
        let cached = keys[i]
            .as_ref()
            .map(|(ck, flipped)| steps::canonical_outcome(&report, ck, *flipped));
        Some((report, fx, cached))
    });

    // Solvers absent from the maps were cancelled by the deadline.
    let mut own: HashMap<usize, Box<(PairReport, ReduceEffects)>> =
        HashMap::with_capacity(solvers.len());
    let mut shared: HashMap<usize, Arc<CachedOutcome>> = HashMap::new();
    for (slot, &i) in computed.into_iter().zip(&solvers) {
        let Some((report, fx, cached)) = slot else {
            continue;
        };
        if let (Some(cached), Some((ck, _))) = (cached, &keys[i]) {
            memo.full.insert(ck.key.clone(), cached.clone());
            shared.insert(i, Arc::new(cached));
        }
        own.insert(i, Box::new((report, fx)));
    }

    plan.into_iter()
        .zip(keys)
        .enumerate()
        .map(|(i, (src, key))| {
            let used = match src {
                None => MemoUse::Unkeyed,
                Some(Src::Leader) => MemoUse::Miss,
                Some(Src::Warm(c)) => {
                    let (ck, flipped) = key.expect("planned jobs have a key");
                    return Some(FullRes::Cached(c, ck, flipped, MemoUse::Warm));
                }
                Some(Src::Share(j)) => {
                    let (ck, flipped) = key.expect("planned jobs have a key");
                    let c = Arc::clone(shared.get(&j)?);
                    return Some(FullRes::Cached(c, ck, flipped, MemoUse::Hit));
                }
            };
            Some(FullRes::Computed(own.remove(&i)?, used))
        })
        .collect()
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
    check_batch_obs(config, MetricsProbe::new(obs), programs, reports)
}

/// [`check_batch`] through a [`MetricsProbe`] sink, so a traced
/// batch's auto-check waves are teed into the request scope too.
fn check_batch_obs(
    config: &EngineConfig,
    obs: MetricsProbe<'_>,
    programs: &[Program],
    reports: &[ProgramReport],
) -> CheckSummary {
    let cfg = config.effective_analyzer_config();
    let resolve_cfg = AnalyzerConfig {
        memo: MemoMode::Off,
        ..cfg
    };
    let workers = config.effective_workers();

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

    let outcomes = par_map_obs(obs, workers, &jobs, |_, j| {
        if j.report.a_access != j.pair.a.id || j.report.b_access != j.pair.b.id {
            return Resolved::Failed("report pair does not match the enumeration".into());
        }
        match check_pair(j.pair, j.report) {
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
    let obs = MetricsProbe::scoped(obs, trace);
    let workers = config.effective_workers();
    let items: Vec<(&Program, &ProgramReport)> = programs.iter().zip(&batch.reports).collect();
    let built = par_map_obs(obs, workers, &items, |_, (program, report)| {
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
        for l in graph.loops.loops() {
            if graph.is_parallel(l.id) {
                parallel += 1;
            } else {
                sequential += 1;
            }
        }
        obs.record_graph(by_kind, parallel, sequential, nanos);
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
        let out = graph_batch(
            &self.config,
            &self.memo,
            &self.obs,
            programs,
            Deadline::none(),
            None,
        );
        self.stats.add(&out.batch.stats);
        out
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
                assert_eq!(warm.load_memo_file(&v3).unwrap(), MemoFormat::V3Binary);
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
