//! The analysis driver: the one wave plan every analysis runs.
//!
//! The paper makes one memoized pass per reference pair (§5). [`run`]
//! makes it over the pairs of a list of programs as a fixed sequence of
//! waves: classify every pair; compute its no-bounds (GCD) key; elect a
//! leader per distinct key; let the leaders solve, and expand every
//! pair's outcome; then the same over the full-result table for the
//! pairs whose GCD left a lattice, whose leaders run the cascade and
//! direction refinement. Assembly follows, serially in enumeration
//! order: every pair goes through the per-pair step of [`steps`], which
//! decides every counter.
//!
//! An election runs serially in enumeration order and consults the memo
//! once per distinct key, before anything is inserted: a key the memo
//! holds is *warm*; otherwise the first pair with the key leads and the
//! later ones share its result (an overflowed GCD solve is not inserted,
//! so they count as misses). So every statistic is the one a pair-by-pair
//! pass over the same memo produces. Without memoization no pair has a
//! key, and each solves for itself.
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
use std::sync::Arc;
use std::time::Instant;

use dda_ir::RefPair;

use crate::analyzer::{AnalyzerConfig, ProgramReport};
use crate::gcd::EqOutcome;
use crate::memo::{MemoKey, SharedMemo};
use crate::pipeline::{NullProbe, Probe, TraceEvent};
use crate::stats::AnalysisStats;
use crate::steps::{self, Classified, FullAnswer, GcdAnswer, MemoUse, ReduceEffects};

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
    let classified = exec.map(jobs, |_, pair| steps::classify_pair(*pair, config.symbolic));
    let (gcd, gcd_leaders) = gcd_wave(config, memo, exec, &classified);
    let (full, full_leaders) = full_wave(config, memo, exec, jobs, &classified, &gcd, P::ACTIVE);
    // Problems stay allocated until every report is assembled: freeing
    // each one during assembly measured slower on PERFECT.
    let mut pending = jobs.iter().zip(&classified).zip(gcd).zip(full);
    let mut run = Run {
        reports: Vec::with_capacity(programs.len()),
        gcd_leaders,
        full_leaders,
        spliced: 0,
        cancelled: false,
    };
    for (i, &len) in programs.iter().enumerate() {
        probe.enter_program(i);
        let mut stats = AnalysisStats::default();
        let mut reports = Vec::with_capacity(len);
        for (((pair, classified), gcd), full) in pending.by_ref().take(len) {
            let r = steps::resolve_pair(config, *pair, classified, gcd, full, probe);
            stats.add(&r.stats);
            run.spliced += u64::from(r.spliced);
            run.cancelled |= r.cancelled;
            reports.push(r.report);
        }
        run.reports.push(ProgramReport::from_parts(reports, stats));
    }
    run
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

/// Each job's key (`None` for a job without one) and where its value
/// comes from.
struct Plan<K, V> {
    keys: Vec<Option<K>>,
    srcs: Vec<Option<Src<V>>>,
}

impl<K, V> Plan<K, V> {
    /// Job `i`'s key and source; `None` when it has no key.
    fn get(&self, i: usize) -> Option<(&K, &Src<V>)> {
        self.keys[i].as_ref().zip(self.srcs[i].as_ref())
    }
}

/// One memoized wave up to its solves: elects serially over `keys`
/// (consulting the memo through `lookup` once per distinct key), then
/// runs `solve` on the executor for every leader and every keyless job,
/// with what `input` gives for the job (a job it gives nothing for does
/// not reach the wave). Returns the plan, the leader count and the
/// solves in job order, without those `solve` cancelled (`None`).
fn memo_wave<X, K, V, D, S>(
    exec: &X,
    keys: Vec<Option<K>>,
    memo_key: fn(&K) -> &MemoKey,
    lookup: impl Fn(&MemoKey) -> Option<V>,
    input: impl Fn(usize) -> Option<D>,
    solve: impl Fn(&D, Option<&K>) -> Option<S> + Sync,
) -> (Plan<K, V>, u64, Vec<(usize, S)>)
where
    X: Executor,
    K: Sync,
    D: Sync,
    S: Send,
{
    let mut seen: HashMap<&MemoKey, Seen<V>> = HashMap::new();
    let mut leaders = 0;
    let srcs: Vec<Option<Src<V>>> = keys
        .iter()
        .enumerate()
        .map(|(i, key)| {
            let k = memo_key(key.as_ref()?);
            Some(match seen.get(k) {
                Some(Seen::Warm(v)) => Src::Warm(Arc::clone(v)),
                Some(Seen::Leader(j)) => Src::Share(*j),
                None => match lookup(k) {
                    Some(v) => {
                        let v = Arc::new(v);
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
    drop(seen);
    let plan = Plan { keys, srcs };
    let solvers: Vec<(usize, Option<&K>, D)> = (0..plan.keys.len())
        .filter_map(|job| {
            let key = match plan.get(job) {
                None => None,
                Some((key, Src::Leader)) => Some(key),
                Some(_) => return None,
            };
            Some((job, key, input(job)?))
        })
        .collect();
    let solved = exec.map(&solvers, |_, (_, key, input)| solve(input, *key));
    let solved = solvers
        .iter()
        .zip(solved)
        .filter_map(|((job, _, _), s)| Some((*job, s?)))
        .collect();
    (plan, leaders, solved)
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

/// The extended-GCD wave: every problem's answer (`None` for jobs
/// without a problem, and for cancelled ones), and the leader count.
fn gcd_wave<X: Executor>(
    cfg: &AnalyzerConfig,
    memo: &SharedMemo,
    exec: &X,
    classified: &[Classified],
) -> (Vec<Option<GcdAnswer>>, u64) {
    let keys = exec.map(classified, |_, c| steps::gcd_key(cfg, c.problem()?));
    let sink = exec.sink();
    let (plan, leaders, solved) = memo_wave(
        exec,
        keys,
        |nk| &nk.key,
        |k| memo.lookup_gcd(k),
        |i| classified[i].problem(),
        |problem, key| {
            if cfg.fm_limits.past_deadline() {
                return None;
            }
            let start = Instant::now();
            let outcome = steps::solve_gcd(problem, key);
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            record_gcd(sink, outcome.as_ref(), false, nanos);
            Some((outcome, nanos))
        },
    );
    let mut solved_by = HashMap::with_capacity(solved.len());
    for (job, (outcome, nanos)) in solved {
        // Overflows are not cached: a later pair with the key recomputes.
        if let (Some(v), Some((nk, _))) = (&outcome, plan.get(job)) {
            memo.gcd.insert(nk.key.clone(), v.clone());
        }
        solved_by.insert(job, (outcome, nanos));
    }

    let answers = exec.map(classified, |i, c| {
        let problem = c.problem()?;
        let planned = plan.get(i);
        let (canonical, used, nanos) = match planned.map(|(_, src)| src) {
            None | Some(Src::Leader) => {
                let (v, nanos) = solved_by.get(&i)?;
                let used = planned.map_or(MemoUse::Unkeyed, |_| MemoUse::Miss);
                (v.as_ref(), used, *nanos)
            }
            Some(Src::Warm(v)) => {
                record_gcd(sink, Some(v), true, 0);
                (Some(&**v), MemoUse::Warm, 0)
            }
            // The leader's overflow was not inserted, so a pair-by-pair
            // pass would miss here and recompute the same `None`;
            // anything cached is a hit.
            Some(Src::Share(j)) => {
                let v = solved_by.get(j)?.0.as_ref();
                record_gcd(sink, v, true, 0);
                (v, v.map_or(MemoUse::Miss, |_| MemoUse::Hit), 0)
            }
        };
        let key = planned.map(|(key, _)| key);
        Some(GcdAnswer {
            outcome: steps::expand_gcd(problem, key, canonical),
            used,
            nanos,
        })
    });
    (answers, leaders)
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

/// The full-analysis wave over the jobs whose GCD left a lattice: their
/// answers (`None` for jobs that never reach the wave, and for cancelled
/// ones), and the leader count. Solvers buffer their events when
/// `traced`.
fn full_wave<X: Executor>(
    cfg: &AnalyzerConfig,
    memo: &SharedMemo,
    exec: &X,
    jobs: &[RefPair<'_>],
    classified: &[Classified],
    gcd: &[Option<GcdAnswer>],
    traced: bool,
) -> (Vec<Option<FullAnswer>>, u64) {
    let input = |i: usize| match (&classified[i], &gcd[i]) {
        (
            Classified::Problem(problem),
            Some(GcdAnswer {
                outcome: Some(EqOutcome::Lattice(lattice)),
                ..
            }),
        ) => Some((jobs[i], &**problem, lattice)),
        _ => None,
    };
    let keys = exec.map(classified, |i, _| {
        let (_, problem, _) = input(i)?;
        steps::full_key(cfg, problem)
    });
    let sink = exec.sink();
    let (plan, leaders, solved) = memo_wave(
        exec,
        keys,
        |(ck, _)| &ck.key,
        |k| memo.lookup_full(k),
        input,
        |&(pair, problem, lattice), key| {
            if cfg.fm_limits.past_deadline() {
                return None;
            }
            let template = steps::pair_template(pair);
            let mut fx = ReduceEffects::default();
            let (report, events) = if traced {
                let mut probe = Buffered {
                    sink,
                    events: Vec::new(),
                };
                let report = steps::analyze_reduced_probed(
                    cfg, problem, lattice, template, &mut fx, &mut probe,
                );
                (report, probe.events)
            } else {
                let mut probe = sink;
                let report = steps::analyze_reduced_probed(
                    cfg, problem, lattice, template, &mut fx, &mut probe,
                );
                (report, Vec::new())
            };
            // A cascade that ran past the deadline may have been cut
            // short: the pair is cancelled like one whose solve never
            // started.
            if cfg.fm_limits.past_deadline() {
                return None;
            }
            let cached = key.map(|(ck, flipped)| steps::canonical_outcome(&report, ck, *flipped));
            Some(((report, fx, events), cached))
        },
    );
    let mut own = HashMap::with_capacity(solved.len());
    let mut shared = HashMap::new();
    for (job, (computed, cached)) in solved {
        if let (Some(cached), Some(((ck, _), _))) = (cached, plan.get(job)) {
            memo.full.insert(ck.key.clone(), cached.clone());
            shared.insert(job, Arc::new(cached));
        }
        own.insert(job, Box::new(computed));
    }

    let answers = plan
        .keys
        .into_iter()
        .zip(plan.srcs)
        .enumerate()
        .map(|(i, (key, src))| {
            let Some(((key, flipped), src)) = key.zip(src) else {
                return Some(FullAnswer::Computed(own.remove(&i)?, MemoUse::Unkeyed));
            };
            let (outcome, used) = match src {
                Src::Leader => return Some(FullAnswer::Computed(own.remove(&i)?, MemoUse::Miss)),
                Src::Share(j) => (Arc::clone(shared.get(&j)?), MemoUse::Hit),
                Src::Warm(outcome) => (outcome, MemoUse::Warm),
            };
            Some(FullAnswer::Cached(outcome, key, flipped, used))
        })
        .collect();
    (answers, leaders)
}
