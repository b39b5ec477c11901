//! The analysis driver: the one wave plan every analysis runs.
//!
//! The paper makes one memoized pass per reference pair (§5). [`run`]
//! makes it over the pairs of a list of programs as a fixed sequence of
//! waves: classify every pair from its subscript rows, writing its
//! no-bounds (GCD) key and its full key into buffers shared by a chunk
//! of pairs; elect a leader per distinct GCD key; let the leaders solve,
//! and read every pair's outcome off its leader's; then the same over
//! the full-result table for the pairs whose GCD left a lattice, whose
//! leaders run the cascade and direction refinement. Assembly follows,
//! serially in enumeration order: every pair goes through the per-pair
//! step of [`steps`], which decides every counter.
//!
//! A pair's [`DependenceProblem`] is written from its rows into each
//! thread's reused buffers wherever it is needed: to classify and key
//! it, to solve it and to read its answer onto its rows. A key is probed
//! borrowed and copied into a [`MemoKey`] only when a leader inserts.
//!
//! An election runs serially in enumeration order and consults the memo
//! once per distinct key, before anything is inserted: a key the memo
//! holds is *warm*; otherwise the first pair with the key leads and the
//! later ones share its result (an overflowed GCD solve is not inserted,
//! so they count as misses). So every statistic is the one a pair-by-pair
//! pass over the same memo produces. Without memoization no pair has a
//! key: each solves for itself, as a leader would, and inserts nothing.
//! Both tables run through one routine, `keyed_wave`: every outcome is
//! one `Arc`, shared by the memo and by every pair that reads it, and
//! leaders insert serially in job order, so a byte-capped memo evicts
//! the same entries on any executor.
//!
//! An [`Executor`] may run a wave's items in any order and on any thread:
//! [`Inline`] runs them on the calling thread for
//! [`DependenceAnalyzer`](crate::DependenceAnalyzer), the batch engine on
//! its worker pool. With an active assembly probe, each full solver
//! records into an event buffer of its own, which assembly replays in
//! pair order; an untraced run allocates no buffers. Past
//! `fm_limits.deadline` no solve starts and a full solve that ran past it
//! is discarded: the pairs that needed them come back as conservative
//! assumed dependences, and nothing is inserted for them.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use dda_ir::RefPair;

use crate::analyzer::{AnalyzerConfig, MemoMode, ProgramReport};
use crate::gcd::{
    expand_lattice, refute_equalities, solve_system_restricted, witness_for_problem, EqOutcome,
    Lattice,
};
use crate::memo::{
    nobounds_columns, write_full_key, write_nobounds_key, MemoKey, MemoWeight, ShardedMemoTable,
    SharedMemo,
};
use crate::pipeline::{NullProbe, Probe, TraceEvent};
use crate::problem::DependenceProblem;
use crate::result::LevelVec;
use crate::stats::AnalysisStats;
use crate::steps::{
    self, Class, Computed, FullAnswer, GcdAnswer, GcdOutcome, MemoUse, ReduceEffects,
};

/// Runs the waves of the plan.
pub trait Executor {
    /// The probe solvers report to while they run, in whatever order
    /// they finish: order-free telemetry such as a metrics registry.
    type Sink: Probe + Copy + Send + Sync;

    /// Applies `f` to every item (with its index) and returns the
    /// results in item order.
    fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync;

    /// The solvers' probe.
    fn sink(&self) -> Self::Sink;
}

/// Runs every wave on the calling thread, in item order, and reports
/// nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Inline;

impl Executor for Inline {
    type Sink = NullProbe;

    fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        items.iter().zip(0..).map(|(item, i)| f(i, item)).collect()
    }

    fn sink(&self) -> NullProbe {
        NullProbe
    }
}

/// What one run of the plan produced.
#[derive(Debug)]
pub struct Run {
    /// One report per program, in order.
    pub reports: Vec<ProgramReport>,
    /// Leaders elected over the no-bounds (GCD) table.
    pub gcd_leaders: u64,
    /// Leaders elected over the full-result table.
    pub full_leaders: u64,
    /// Pairs whose verdict was spliced from a memo entry that predates
    /// the run; the others were resolved.
    pub spliced: u64,
    /// Whether a deadline cancelled a computation some pair needed.
    pub cancelled: bool,
}

/// Runs the plan on `exec` against `memo` over `jobs`, the pairs of
/// consecutive programs in enumeration order, `programs[i]` of them for
/// program `i`. Assembly reports every pair's steps to `probe`, and each
/// program's start ([`Probe::enter_program`]).
pub fn run<X: Executor, P: Probe>(
    config: &AnalyzerConfig,
    memo: &SharedMemo,
    exec: &X,
    jobs: &[RefPair<'_>],
    programs: &[usize],
    probe: &mut P,
) -> Run {
    let keyed = config.memo != MemoMode::Off;
    let improved = config.memo == MemoMode::Improved;
    // Classify every pair from its rows, writing both of its keys: the
    // full key of a pair whose GCD refutes it is never read, but writing
    // it here costs less than lowering the pair again later.
    let classified = exec.map(&chunks(jobs.len()), |_, r| {
        let mut classes = Vec::with_capacity(r.len());
        let mut gcd_keys = Keys::with_capacity(r.len());
        let mut full_keys = Keys::with_capacity(r.len());
        let mut spare = Vec::new();
        for pair in &jobs[r.clone()] {
            let mut has_keys = false;
            let class = steps::classify_rows(*pair, config.symbolic, |system| {
                if keyed {
                    let kept = nobounds_columns(system, improved);
                    gcd_keys.write(|out| write_nobounds_key(system, &kept, out));
                    full_keys.write(|out| {
                        write_full_key(system, improved, config.memo_symmetry, out, &mut spare)
                    });
                    has_keys = true;
                }
            });
            if !has_keys {
                gcd_keys.skip();
                full_keys.skip();
            }
            classes.push(class);
        }
        (classes, gcd_keys, full_keys)
    });
    let mut classes = Vec::with_capacity(jobs.len());
    let (mut gcd_keys, mut full_keys) = (Vec::new(), Vec::new());
    for (c, g, f) in classified {
        classes.extend(c);
        gcd_keys.push(g);
        full_keys.push(f);
    }
    let gcd_keys = Chunked(gcd_keys);
    let gcd = gcd_wave(config, memo, exec, jobs, &classes, &gcd_keys);
    drop(gcd_keys);
    let full_keys = Chunked(full_keys);
    let (full, full_leaders) = full_wave(config, memo, exec, jobs, &full_keys, &gcd, P::ACTIVE);
    drop(full_keys);
    let mut pending = jobs.iter().zip(&classes).zip(gcd.answers).zip(full);
    let mut run = Run {
        reports: Vec::with_capacity(programs.len()),
        gcd_leaders: gcd.leaders,
        full_leaders,
        spliced: 0,
        cancelled: false,
    };
    for (i, &len) in programs.iter().enumerate() {
        probe.enter_program(i);
        let mut stats = AnalysisStats::default();
        let mut reports = Vec::with_capacity(len);
        for (((pair, class), gcd), full) in pending.by_ref().take(len) {
            let r = steps::resolve_pair(
                config,
                *pair,
                *class,
                gcd,
                full,
                probe,
                &mut stats,
                &mut reports,
            );
            run.spliced += u64::from(r.spliced);
            run.cancelled |= r.cancelled;
        }
        run.reports.push(ProgramReport::from_parts(reports, stats));
    }
    run
}

/// Jobs per chunk of the classification wave: each chunk writes its
/// keys into buffers of its own, so a pair's keys cost no allocation.
const CHUNK: usize = 256;

/// The job ranges of the classification wave.
fn chunks(jobs: usize) -> Vec<Range<usize>> {
    (0..jobs)
        .step_by(CHUNK)
        .map(|start| start..(start + CHUNK).min(jobs))
        .collect()
}

/// The memo keys of one chunk of jobs, written back to back into one
/// buffer, each with what else its job needs from the key.
struct Keys<M> {
    data: Vec<i64>,
    /// Per job: its key's range in `data` and the extra, if it has one.
    spans: Vec<Option<(Range<usize>, M)>>,
}

impl<M> Keys<M> {
    fn with_capacity(jobs: usize) -> Keys<M> {
        Keys {
            data: Vec::new(),
            spans: Vec::with_capacity(jobs),
        }
    }

    /// Appends the next job's key, which `write` appends to the buffer,
    /// returning the key's extra.
    fn write(&mut self, write: impl FnOnce(&mut Vec<i64>) -> M) {
        let start = self.data.len();
        let extra = write(&mut self.data);
        self.spans.push(Some((start..self.data.len(), extra)));
    }

    /// The next job has no key.
    fn skip(&mut self) {
        self.spans.push(None);
    }
}

/// The keys of every job, by chunk.
struct Chunked<M>(Vec<Keys<M>>);

impl<M> Chunked<M> {
    /// Job `i`'s key and extra, if it has a key.
    fn get(&self, i: usize) -> Option<(&[i64], &M)> {
        let keys = &self.0[i / CHUNK];
        let (range, extra) = keys.spans.get(i % CHUNK)?.as_ref()?;
        Some((&keys.data[range.clone()], extra))
    }
}

/// Where a keyed job's value comes from.
enum Src<V> {
    /// The memo already had it: read once per key, shared by every job
    /// with that key.
    Warm(Arc<V>),
    /// First occurrence of the key: this job computes.
    Leader,
    /// Reuse the result of the leader job at this index.
    Share(usize),
}

/// What an election remembers of a key it has seen.
enum Seen<V> {
    Warm(Arc<V>),
    Leader(usize),
}

/// Elects serially over the jobs' keys (`None` for a job without one),
/// consulting the memo through `lookup` once per distinct key: each
/// keyed job's source, and the leader count.
fn elect<'k, V>(
    jobs: usize,
    key: impl Fn(usize) -> Option<&'k [i64]>,
    lookup: impl Fn(&[i64]) -> Option<Arc<V>>,
) -> (Vec<Option<Src<V>>>, u64) {
    let mut seen: HashMap<&[i64], Seen<V>> = HashMap::new();
    let mut leaders = 0;
    let srcs = (0..jobs)
        .map(|i| {
            let k = key(i)?;
            Some(match seen.get(k) {
                Some(Seen::Warm(v)) => Src::Warm(Arc::clone(v)),
                Some(Seen::Leader(j)) => Src::Share(*j),
                None => match lookup(k) {
                    Some(v) => {
                        seen.insert(k, Seen::Warm(Arc::clone(&v)));
                        Src::Warm(v)
                    }
                    None => {
                        seen.insert(k, Seen::Leader(i));
                        leaders += 1;
                        Src::Leader
                    }
                },
            })
        })
        .collect();
    (srcs, leaders)
}

/// How a keyed wave served one job.
struct Served<V, E> {
    /// The outcome the job reads, shared: a warm entry's, its leader's
    /// or its own solve's; `None` when that solve left nothing to share.
    value: Option<Arc<V>>,
    /// How the memo served it.
    used: MemoUse,
    /// What the job's own solve left beside the outcome (a leader or a
    /// keyless job); `None` for a job served from the memo.
    own: Option<E>,
}

/// One table's wave over `jobs` jobs, the ones `reaches` admits taking
/// part. Elects over their keys (`key(i)` is `None` for a keyless job),
/// consulting `table` through `lookup` once per distinct key; runs
/// `solve` on the executor for every leader and keyless job; inserts each
/// leader's outcome into `table` serially, in job order (under a byte cap
/// the insertion order decides evictions, so it must not depend on the
/// executor); and leaves one slot per job: `None` for a job outside the
/// wave, or whose solve, or whose leader's, was cancelled (`solve`
/// returned `None`). A solve whose outcome is `None` inserts nothing, so
/// a job sharing it counts as a miss. Returns the slots and the leader
/// count.
fn keyed_wave<'k, X, V, E>(
    exec: &X,
    table: &ShardedMemoTable<V>,
    lookup: impl Fn(&[i64]) -> Option<Arc<V>>,
    jobs: usize,
    reaches: impl Fn(usize) -> bool,
    key: impl Fn(usize) -> Option<&'k [i64]>,
    solve: impl Fn(usize) -> Option<(Option<V>, E)> + Sync,
) -> (Vec<Option<Served<V, E>>>, u64)
where
    X: Executor,
    V: MemoWeight + Send,
    E: Send,
{
    let key = |i: usize| key(i).filter(|_| reaches(i));
    let (srcs, leaders) = elect(jobs, key, lookup);
    let solvers: Vec<usize> = (0..jobs)
        .filter(|&i| reaches(i) && matches!(srcs[i], None | Some(Src::Leader)))
        .collect();
    let solved = exec.map(&solvers, |_, &job| solve(job));
    let mut slots: Vec<Option<Served<V, E>>> = (0..jobs).map(|_| None).collect();
    for (job, solved) in solvers.into_iter().zip(solved) {
        let Some((value, own)) = solved else {
            continue;
        };
        let value = value.map(Arc::new);
        let used = match key(job) {
            Some(k) => {
                if let Some(v) = &value {
                    table.insert(MemoKey::from_vec(k.to_vec()), Arc::clone(v));
                }
                MemoUse::Miss
            }
            None => MemoUse::Unkeyed,
        };
        slots[job] = Some(Served {
            value,
            used,
            own: Some(own),
        });
    }
    for (i, src) in srcs.into_iter().enumerate() {
        slots[i] = match src {
            Some(Src::Warm(v)) => Some(Served {
                value: Some(v),
                used: MemoUse::Warm,
                own: None,
            }),
            Some(Src::Share(j)) => slots[j].as_ref().map(|leader| Served {
                value: leader.value.clone(),
                used: if leader.value.is_some() {
                    MemoUse::Hit
                } else {
                    MemoUse::Miss
                },
                own: None,
            }),
            None | Some(Src::Leader) => continue,
        };
    }
    (slots, leaders)
}

/// Reports one extended-GCD verdict to an executor's sink.
fn record_gcd<S: Probe>(mut sink: S, outcome: Option<&EqOutcome>, cached: bool, nanos: u64) {
    if S::ACTIVE {
        let verdict = steps::gcd_verdict(outcome);
        sink.record(TraceEvent::Gcd {
            verdict,
            cached,
            nanos,
        });
    }
}

/// What the GCD wave leaves: every pair's answer (`None` for pairs
/// without a system, and for cancelled ones), and the canonical outcome
/// each answer came from.
struct GcdWave {
    answers: Vec<Option<GcdAnswer>>,
    /// Per job: its own solve's outcome, a leader's or a warm entry's,
    /// over its key's kept columns (every column, without a key).
    source: Vec<Option<Arc<EqOutcome>>>,
    leaders: u64,
}

/// The extended-GCD wave. A leader or a keyless job solves the canonical
/// system of its key, read off its rows; every pair's answer is read off
/// the canonical outcome, with a refutation witness reordered onto the
/// pair's rows.
fn gcd_wave<X: Executor>(
    cfg: &AnalyzerConfig,
    memo: &SharedMemo,
    exec: &X,
    jobs: &[RefPair<'_>],
    classes: &[Class],
    keys: &Chunked<()>,
) -> GcdWave {
    let improved = cfg.memo == MemoMode::Improved;
    let sink = exec.sink();
    let has_system = |i: usize| matches!(classes[i], Class::System { .. });
    let (slots, leaders) = keyed_wave(
        exec,
        &memo.gcd,
        |k| memo.lookup_gcd(k),
        jobs.len(),
        has_system,
        |i| Some(keys.get(i)?.0),
        |job| {
            if cfg.fm_limits.past_deadline() {
                return None;
            }
            // Solve the key's canonical system, read off the pair's rows
            // (every column, without a key).
            let (outcome, nanos) = steps::with_system(jobs[job], cfg.symbolic, |system| {
                let kept = nobounds_columns(system, improved);
                let start = Instant::now();
                let outcome = solve_system_restricted(system, &kept);
                (
                    outcome,
                    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                )
            })
            .unwrap_or((None, 0));
            record_gcd(sink, outcome.as_ref(), false, nanos);
            // Overflows are not cached: a later pair with the key
            // recomputes.
            Some((outcome, nanos))
        },
    );

    let answers = exec.map(&slots, |i, slot| {
        let Served { value, used, own } = slot.as_ref()?;
        let outcome = value.as_deref();
        if own.is_none() {
            record_gcd(sink, outcome, true, 0);
        }
        let outcome = match outcome {
            None => GcdOutcome::Overflow,
            Some(EqOutcome::Lattice(_)) => GcdOutcome::Lattice,
            Some(EqOutcome::Independent { refutation }) => {
                // The witness is in canonical row order: reorder it onto
                // the pair's rows, or refactorize when none transferred.
                let refutation = steps::with_system(jobs[i], cfg.symbolic, |system| {
                    let kept = nobounds_columns(system, improved);
                    refutation
                        .as_ref()
                        .and_then(|w| witness_for_problem(system, &kept, w))
                        .or_else(|| refute_equalities(system))
                });
                GcdOutcome::Independent(refutation.flatten())
            }
        };
        Some(GcdAnswer {
            outcome,
            used: *used,
            nanos: own.unwrap_or(0),
        })
    });
    GcdWave {
        answers,
        source: slots
            .into_iter()
            .map(|slot| slot.and_then(|s| s.value))
            .collect(),
        leaders,
    }
}

/// A full solver's probe in a traced run: every event goes to the
/// executor's sink as it happens and into the solver's own buffer, which
/// assembly replays in pair order.
struct Buffered<S> {
    sink: S,
    events: Vec<TraceEvent>,
}

impl<S: Probe> Probe for Buffered<S> {
    fn record(&mut self, event: TraceEvent) {
        if S::ACTIVE {
            self.sink.record(event.clone());
        }
        self.events.push(event);
    }
}

/// The lattice a full solver reduces `problem` through: the canonical
/// one expanded onto the problem's columns.
fn problem_lattice(
    gcd: &GcdWave,
    job: usize,
    problem: &DependenceProblem,
    improved: bool,
) -> Option<Lattice> {
    let EqOutcome::Lattice(lattice) = gcd.source[job].as_deref()? else {
        return None;
    };
    let kept = nobounds_columns(problem, improved);
    Some(expand_lattice(lattice, &kept, problem.num_vars()))
}

/// The full-analysis wave over the jobs whose GCD left a lattice: their
/// answers (`None` for jobs that never reach the wave, and for cancelled
/// ones), and the leader count. `keys` holds every pair's full key, as
/// classification wrote it from the pair's rows, with the levels it
/// keeps and whether it is the mirror's; a leader or a keyless job
/// solves its problem as written into its thread's buffers. Solvers
/// buffer their events when `traced`.
fn full_wave<X: Executor>(
    cfg: &AnalyzerConfig,
    memo: &SharedMemo,
    exec: &X,
    jobs: &[RefPair<'_>],
    keys: &Chunked<(LevelVec<usize>, bool)>,
    gcd: &GcdWave,
    traced: bool,
) -> (Vec<Option<FullAnswer>>, u64) {
    let improved = cfg.memo == MemoMode::Improved;
    let reaches = |i: usize| {
        matches!(
            gcd.answers[i],
            Some(GcdAnswer {
                outcome: GcdOutcome::Lattice,
                ..
            })
        )
    };
    let sink = exec.sink();
    let (slots, leaders) = keyed_wave(
        exec,
        &memo.full,
        |k| memo.lookup_full(k),
        jobs.len(),
        reaches,
        |i| Some(keys.get(i)?.0),
        |job| {
            if cfg.fm_limits.past_deadline() {
                return None;
            }
            let pair = jobs[job];
            let (report, fx, events) = steps::with_system(pair, cfg.symbolic, |problem| {
                let lattice = problem_lattice(gcd, job, problem, improved)?;
                let template = steps::pair_template(pair);
                let mut fx = ReduceEffects::default();
                let (report, events) = if traced {
                    let mut probe = Buffered {
                        sink,
                        events: Vec::new(),
                    };
                    let report = steps::analyze_reduced_probed(
                        cfg, problem, &lattice, template, &mut fx, &mut probe,
                    );
                    (report, probe.events)
                } else {
                    let mut probe = sink;
                    let report = steps::analyze_reduced_probed(
                        cfg, problem, &lattice, template, &mut fx, &mut probe,
                    );
                    (report, Vec::new())
                };
                Some((report, fx, events))
            })??;
            // A cascade that ran past the deadline may have been cut
            // short: the pair is cancelled like one whose solve never
            // started.
            if cfg.fm_limits.past_deadline() {
                return None;
            }
            let cached = keys.get(job).map(|(_, (levels, flipped))| {
                steps::outcome_in_key_space(&report, levels, *flipped)
            });
            let computed: Computed = (report, fx, events);
            Some((cached, Box::new(computed)))
        },
    );

    let answers = slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            let Served { value, used, own } = slot?;
            if let Some(computed) = own {
                return Some(FullAnswer::Computed(computed, used));
            }
            let (_, (levels, flipped)) = keys.get(i)?;
            Some(FullAnswer::Cached(value?, levels.clone(), *flipped, used))
        })
        .collect();
    (answers, leaders)
}
