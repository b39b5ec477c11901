//! The per-pair analysis step and the pure pieces it is built from.
//!
//! `resolve_pair` is the paper's single pass over one reference pair:
//! classify, consult the memo, run the extended GCD, cascade the exact
//! tests, refine directions, count. It is the one place the per-pair
//! counting rules live. Its one caller is the assembly of the wave plan
//! in [`driver`](crate::driver), which hands it what the waves already
//! computed for the pair: the memo's answers, or a leader's solve.
//!
//! The other functions are the pure pieces the waves are built from.
//! Every one is deterministic: same inputs, same output, no hidden
//! state. That property is what makes leader election sound — any
//! thread may compute a key's result and every other pair with that key
//! can reuse it verbatim.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use dda_ir::RefPair;

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use crate::analyzer::{AnalyzerConfig, CachedOutcome, MemoMode, PairReport};
use crate::cascade::CascadeOutcome;
use crate::certificate::Certificate;
use crate::direction::{analyze_directions, DirectionAnalysis, DirectionConfig};
use crate::gcd::{reduce_with_lattice, EqOutcome, Lattice};
use crate::pipeline::{run_pipeline_collect, ClassifiedKind, GcdVerdict, Probe, TraceEvent};
use crate::problem::{constant_compare, DependenceProblem};
use crate::result::{
    Answer, DependenceResult, Direction, DirectionVector, DistanceVector, LevelVec, ResolvedBy,
    TestKind,
};
use crate::stats::{AnalysisStats, TestCounts};
use crate::symmetry;

/// How a pair classifies before any dependence testing, read from its
/// rows: the size of its system instead of the system itself, which the
/// wave plan writes from the rows again wherever it needs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    /// All subscripts constant.
    Constant {
        /// Whether the constant subscripts coincide (dependent).
        dependent: bool,
    },
    /// The integer system could not be built (non-affine subscript, a
    /// symbolic term with symbolic support off, or a row overflowing
    /// `i64`): dependence is assumed.
    Unbuildable,
    /// A well-formed system of `vars` variables, `equations` equalities
    /// and `bounds` bound rows.
    System {
        vars: u32,
        equations: u32,
        bounds: u32,
    },
}

thread_local! {
    /// Each thread's reused system buffers.
    static SCRATCH: RefCell<DependenceProblem> = RefCell::new(DependenceProblem::default());
}

/// Runs `f` on `pair`'s system, written into this thread's reused
/// buffers; `None` when the system cannot be built. `f` must not call
/// back into this function.
pub(crate) fn with_system<R>(
    pair: RefPair<'_>,
    symbolic: bool,
    f: impl FnOnce(&DependenceProblem) -> R,
) -> Option<R> {
    SCRATCH.with(|scratch| {
        let mut system = scratch.borrow_mut();
        system.lower(pair, symbolic).ok()?;
        Some(f(&system))
    })
}

/// Classifies one pair from its rows, handing a buildable pair's system
/// to `keyed` (which writes its memo key).
pub(crate) fn classify_rows(
    pair: RefPair<'_>,
    symbolic: bool,
    keyed: impl FnOnce(&DependenceProblem),
) -> Class {
    if let Some(dependent) = constant_compare(pair) {
        return Class::Constant { dependent };
    }
    let class = with_system(pair, symbolic, |system| {
        keyed(system);
        let count = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
        Class::System {
            vars: count(system.num_vars()),
            equations: count(system.num_equations()),
            bounds: count(system.num_bounds()),
        }
    });
    class.unwrap_or(Class::Unbuildable)
}

/// The blank report every step fills in: identity fields set, verdict
/// still "assumed dependent".
#[must_use]
pub fn pair_template(pair: RefPair<'_>) -> PairReport {
    let common = pair.common;
    PairReport {
        array: Arc::clone(pair.array_name()),
        a_access: pair.a.id,
        b_access: pair.b.id,
        common_loop_ids: pair.set.loops_of(pair.a)[..common]
            .iter()
            .copied()
            .collect(),
        result: DependenceResult {
            answer: Answer::Unknown,
            resolved_by: ResolvedBy::Assumed,
        },
        witness: None,
        direction_vectors: Vec::new(),
        distance: DistanceVector::unknown(common),
        from_cache: false,
        certificate: Certificate::Conservative,
    }
}

/// Finishes a constant-subscript pair.
#[must_use]
pub fn constant_report(
    mut template: PairReport,
    dependent: bool,
    compute_directions: bool,
) -> PairReport {
    let common = template.distance.0.len();
    template.result = DependenceResult {
        answer: if dependent {
            Answer::Dependent(None)
        } else {
            Answer::Independent
        },
        resolved_by: ResolvedBy::Constant,
    };
    if dependent && compute_directions {
        template.direction_vectors = vec![DirectionVector::any(common)];
    }
    template.certificate = if dependent {
        Certificate::ConstantsEqual
    } else {
        Certificate::ConstantsDiffer
    };
    template
}

/// Finishes an unbuildable pair (assumed dependent under any vector).
#[must_use]
pub fn assumed_report(mut template: PairReport, compute_directions: bool) -> PairReport {
    let common = template.distance.0.len();
    if compute_directions {
        template.direction_vectors = vec![DirectionVector::any(common)];
    }
    template
}

/// Finishes a pair the extended GCD test proved independent.
/// `refutation` is the divisibility witness from
/// [`refute_equalities`](crate::gcd::refute_equalities); `None` degrades
/// the certificate to [`Certificate::Unverified`] without touching the
/// verdict.
#[must_use]
pub fn gcd_independent_report(
    mut template: PairReport,
    refutation: Option<(Vec<i64>, i64)>,
) -> PairReport {
    template.result = DependenceResult {
        answer: Answer::Independent,
        resolved_by: ResolvedBy::Gcd,
    };
    template.certificate = match refutation {
        Some((numer, denom)) => Certificate::GcdRefutation { numer, denom },
        None => Certificate::Unverified,
    };
    template
}

/// The telemetry verdict of one extended-GCD outcome (`None` is an
/// overflowed solve).
#[must_use]
pub fn gcd_verdict(outcome: Option<&EqOutcome>) -> GcdVerdict {
    match outcome {
        None => GcdVerdict::Overflow,
        Some(EqOutcome::Independent { .. }) => GcdVerdict::Independent,
        Some(EqOutcome::Lattice(_)) => GcdVerdict::Lattice,
    }
}

/// A direction as the stored (`flipped`: mirrored) orientation has it.
fn orient(d: Direction, flipped: bool) -> Direction {
    if flipped {
        symmetry::flip_direction(d)
    } else {
        d
    }
}

/// A distance as the stored (`flipped`: mirrored) orientation has it.
fn orient_distance(d: Option<i64>, flipped: bool) -> Option<i64> {
    if flipped {
        symmetry::flip_offset(d)
    } else {
        d
    }
}

/// Restricts full-length vectors to the kept levels, oriented and
/// deduplicated.
fn restrict_vectors(
    vectors: &[DirectionVector],
    kept_levels: &[usize],
    flipped: bool,
) -> Vec<DirectionVector> {
    let mut out: Vec<DirectionVector> = Vec::new();
    for v in vectors {
        let restricted = DirectionVector(
            kept_levels
                .iter()
                .map(|&k| orient(v.0[k], flipped))
                .collect(),
        );
        if !out.contains(&restricted) {
            out.push(restricted);
        }
    }
    out
}

/// Expands canonical vectors back to `common` levels, oriented, filling
/// dropped (unused) levels with `*`.
fn expand_vectors(
    vectors: &[DirectionVector],
    kept_levels: &[usize],
    common: usize,
    flipped: bool,
) -> Vec<DirectionVector> {
    vectors
        .iter()
        .map(|v| {
            let mut full = DirectionVector::any(common);
            for (ci, &k) in kept_levels.iter().enumerate() {
                full.0[k] = orient(v.0[ci], flipped);
            }
            full
        })
        .collect()
}

fn restrict_distance(d: &DistanceVector, kept_levels: &[usize], flipped: bool) -> DistanceVector {
    DistanceVector(
        kept_levels
            .iter()
            .map(|&k| orient_distance(d.0[k], flipped))
            .collect(),
    )
}

fn expand_distance(
    d: &DistanceVector,
    kept_levels: &[usize],
    common: usize,
    flipped: bool,
) -> DistanceVector {
    let mut full = DistanceVector::unknown(common);
    for (ci, &k) in kept_levels.iter().enumerate() {
        full.0[k] = orient_distance(d.0[ci], flipped);
    }
    full
}

/// Rehydrates a full-memo hit into a concrete report for this pair,
/// whose key kept `kept_levels` and is the mirror's when `flipped` (see
/// [`write_full_key`](crate::memo::write_full_key)). The cached outcome
/// is borrowed: a hit copies out only what the report keeps.
#[must_use]
pub fn rehydrate(
    memo: MemoMode,
    cached: &CachedOutcome,
    kept_levels: &[usize],
    flipped: bool,
    mut template: PairReport,
) -> PairReport {
    let common = template.distance.0.len();
    template.result = cached.result.clone();
    // Witnesses only transfer when the problems are literally identical;
    // under the improved scheme (or a mirror hit) they may not be.
    template.witness = if memo == MemoMode::Improved || flipped {
        None
    } else {
        cached.witness.clone()
    };
    template.direction_vectors =
        expand_vectors(&cached.direction_vectors, kept_levels, common, flipped);
    template.distance = expand_distance(&cached.distance, kept_levels, common, flipped);
    template.from_cache = true;
    // Certificates speak about one concrete problem. Only a Simple-mode,
    // unflipped hit is guaranteed to be the same problem (same equations,
    // same bound multiset), so only then does the evidence transfer; an
    // Improved or mirrored hit keeps the verdict but degrades checkable
    // evidence to Unverified.
    template.certificate = if memo == MemoMode::Simple && !flipped {
        cached.certificate.clone()
    } else if cached.certificate == Certificate::Conservative {
        Certificate::Conservative
    } else {
        Certificate::Unverified
    };
    template
}

/// What to insert into the full-result table for a freshly computed
/// report under a key that kept `kept_levels`: restricted to canonical
/// space, mirrored when the key was (`flipped`).
#[must_use]
pub fn outcome_in_key_space(
    report: &PairReport,
    kept_levels: &[usize],
    flipped: bool,
) -> CachedOutcome {
    CachedOutcome {
        result: report.result.clone(),
        witness: if flipped {
            None
        } else {
            report.witness.clone()
        },
        direction_vectors: restrict_vectors(&report.direction_vectors, kept_levels, flipped),
        distance: restrict_distance(&report.distance, kept_levels, flipped),
        certificate: if flipped {
            // The stored verdict describes the mirror problem; this
            // pair's evidence does not.
            Certificate::Unverified
        } else {
            report.certificate.clone()
        },
    }
}

/// Statistics side-effects of [`analyze_reduced_probed`], captured
/// explicitly so callers can attribute them wherever the pair lives (the
/// wave plan applies them to the leader pair's program during in-order
/// assembly).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReduceEffects {
    /// The lattice substitution overflowed: dependence assumed.
    pub assumed: bool,
    /// The base (`*`-vector) cascade resolution, when one ran.
    pub base_test: Option<(TestKind, bool)>,
    /// Cascade invocations made while refining direction vectors.
    pub direction_tests: TestCounts,
}

impl ReduceEffects {
    /// Folds these effects into an accumulator.
    pub fn apply_to(&self, stats: &mut AnalysisStats) {
        if self.assumed {
            stats.assumed += 1;
        }
        if let Some((kind, independent)) = self.base_test {
            stats.base_tests.record(kind, independent);
        }
        stats.direction_tests.add(&self.direction_tests);
    }
}

/// The compute path of a memo miss: reduce through the GCD lattice, run
/// the cascade, refine direction vectors. Pure; side-effects land in
/// `fx`. The probe ([`NullProbe`](crate::pipeline::NullProbe) for none)
/// observes the lattice reduction, every pipeline stage of the base
/// query, the witness, and the direction refinement; it never changes
/// the report.
#[must_use]
pub fn analyze_reduced_probed<P: Probe>(
    config: &AnalyzerConfig,
    problem: &DependenceProblem,
    lattice: &Lattice,
    mut report: PairReport,
    fx: &mut ReduceEffects,
    probe: &mut P,
) -> PairReport {
    let Some(reduced) = reduce_with_lattice(problem, lattice) else {
        fx.assumed = true;
        if P::ACTIVE {
            probe.record(TraceEvent::ReduceOverflow);
        }
        return report;
    };
    if P::ACTIVE {
        probe.record(TraceEvent::Reduced {
            free_vars: reduced.num_t(),
            system: reduced.system.clone(),
        });
    }

    // Base (star-vector) cascade.
    let (base, base_refutation): (CascadeOutcome, _) =
        run_pipeline_collect(&reduced.system, &config.pipeline, config.fm_limits, probe);
    fx.base_test = Some((base.used, base.answer.is_independent()));
    report.result = DependenceResult {
        answer: match &base.answer {
            Answer::Dependent(_) => Answer::Dependent(None),
            other => other.clone(),
        },
        resolved_by: ResolvedBy::Test(base.used),
    };
    if let Answer::Dependent(Some(t)) = &base.answer {
        report.witness = reduced.x_at(t);
        debug_assert!(
            report
                .witness
                .as_ref()
                .is_none_or(|w| problem.is_witness(w)),
            "cascade witness must satisfy the original problem"
        );
        if let Some(w) = &report.witness {
            report.certificate = Certificate::Witness { x: w.clone() };
        }
        if P::ACTIVE {
            if let Some(w) = &report.witness {
                probe.record(TraceEvent::Witness { x: w.clone() });
            }
        }
    }
    if base.answer.is_independent() {
        report.certificate = match base_refutation {
            Some(refutation) => Certificate::Refuted {
                particular: lattice.particular.clone(),
                basis: lattice.basis.clone(),
                refutation,
            },
            None => Certificate::Unverified,
        };
        return report;
    }

    // Direction vectors.
    if config.compute_directions {
        if P::ACTIVE {
            probe.record(TraceEvent::RefinementStarted);
        }
        let start = if P::ACTIVE {
            Some(Instant::now())
        } else {
            None
        };
        let mut counts = TestCounts::default();
        let DirectionAnalysis {
            vectors,
            distance,
            exact,
            tree,
        } = analyze_directions(
            problem,
            &reduced,
            DirectionConfig {
                prune_unused: config.prune_unused,
                prune_distance: config.prune_distance,
                separable: config.separable_directions,
                fm_limits: config.fm_limits,
                pipeline: config.pipeline,
            },
            &mut counts,
            probe,
        );
        fx.direction_tests.add(&counts);
        if P::ACTIVE {
            let nanos = start.map_or(0, |s| {
                u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX)
            });
            probe.record(TraceEvent::Directions {
                vectors: vectors.clone(),
                distance: distance.clone(),
                tests: counts.total(),
                exact,
                nanos,
            });
        }
        report.distance = distance;
        if vectors.is_empty() && exact {
            // The paper's implicit branch and bound: every direction
            // proved independent even though the `*` query could not.
            report.result.answer = Answer::Independent;
            report.certificate = match tree {
                Some(tree) => Certificate::DirectionsExhausted {
                    particular: lattice.particular.clone(),
                    basis: lattice.basis.clone(),
                    tree,
                },
                None => Certificate::Unverified,
            };
        } else {
            report.direction_vectors = vectors;
        }
    }
    report
}

/// Tallies a finished pair into the outcome counters.
pub fn note_outcome(stats: &mut AnalysisStats, report: &PairReport) {
    if report.result.is_independent() {
        stats.independent_pairs += 1;
    } else {
        stats.dependent_pairs += 1;
    }
    stats.direction_vectors_found += report.direction_vectors.len() as u64;
}

/// How a memo lookup served one pair — all the per-pair counting rules
/// need to know about the memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemoUse {
    /// No memo key (memoization off): the pair solved for itself.
    Unkeyed,
    /// The memo was consulted and missed; the value was computed fresh.
    Miss,
    /// The memo answered with an entry written during this run.
    Hit,
    /// The memo answered with an entry that predates this run (a warm
    /// start or an earlier run): the verdict is spliced, not re-solved.
    Warm,
}

impl MemoUse {
    fn is_hit(self) -> bool {
        matches!(self, MemoUse::Hit | MemoUse::Warm)
    }

    /// Counts one lookup into a table's query and hit counters.
    fn count(self, queries: &mut u64, hits: &mut u64) {
        if self != MemoUse::Unkeyed {
            *queries += 1;
        }
        if self.is_hit() {
            *hits += 1;
        }
    }
}

/// What the extended GCD said about one pair's equalities.
#[derive(Debug)]
pub(crate) enum GcdOutcome {
    /// The solve overflowed: dependence is assumed.
    Overflow,
    /// No integer solution, with the divisibility witness over the
    /// pair's own rows (see [`gcd_independent_report`]).
    Independent(Option<(Vec<i64>, i64)>),
    /// The solutions form a lattice: the pair goes on to the full wave.
    Lattice,
}

/// One pair's extended-GCD answer, as the GCD wave hands it to
/// [`resolve_pair`].
#[derive(Debug)]
pub(crate) struct GcdAnswer {
    /// The outcome, over the pair's own rows.
    pub(crate) outcome: GcdOutcome,
    /// How the memo served it.
    pub(crate) used: MemoUse,
    /// Wall time of the solve this pair ran; 0 when it ran none.
    pub(crate) nanos: u64,
}

/// What a full-wave solver computed for its own pair: the fresh
/// [`analyze_reduced_probed`] report, its statistics effects, and the
/// probe events of the solve for [`resolve_pair`] to replay in pair
/// order (empty unless the run is traced).
pub(crate) type Computed = (PairReport, ReduceEffects, Vec<TraceEvent>);

/// One pair's full-analysis answer, as the full wave hands it to
/// [`resolve_pair`].
#[derive(Debug)]
pub(crate) enum FullAnswer {
    /// Computed by this pair: an elected leader, or a pair without a key.
    Computed(Box<Computed>, MemoUse),
    /// Served from a memo entry (a warm one, or a leader's fresh insert)
    /// under the pair's key, which kept these levels, mirrored or not,
    /// and rehydrated onto the pair's template.
    Cached(Arc<CachedOutcome>, LevelVec<usize>, bool, MemoUse),
}

/// How [`resolve_pair`] resolved one pair.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Resolution {
    /// The verdict came straight from a warm memo entry (the incremental
    /// fast path); otherwise the pair was resolved in this run.
    pub(crate) spliced: bool,
    /// A deadline cancelled a computation the pair needed: the report is
    /// the bare conservative template.
    pub(crate) cancelled: bool,
}

/// Analyzes one classified pair from the waves' answers, reporting every
/// step to `probe`: every statistics counter of the pair is decided
/// here, and added to `stats`, and its report is pushed onto `reports`.
/// `gcd` and `full` are `None` where the pair never reached the wave, or
/// where a deadline cancelled the computation it needed.
///
/// A cancelled pair comes back as the conservative template, counted as
/// assumed, with none of the memo accounting a completed visit would do.
#[allow(clippy::too_many_arguments)]
pub(crate) fn resolve_pair<P: Probe>(
    config: &AnalyzerConfig,
    pair: RefPair<'_>,
    class: Class,
    gcd: Option<GcdAnswer>,
    full: Option<FullAnswer>,
    probe: &mut P,
    stats: &mut AnalysisStats,
    reports: &mut Vec<PairReport>,
) -> Resolution {
    let common = pair.common;
    let template = pair_template(pair);
    if P::ACTIVE {
        probe.record(TraceEvent::PairStarted {
            array: Arc::clone(&template.array),
            a_access: template.a_access,
            b_access: template.b_access,
            common,
        });
    }
    stats.pairs += 1;
    let mut classified_as = |kind| {
        if P::ACTIVE {
            probe.record(TraceEvent::Classified { kind });
        }
    };
    let (report, spliced, cancelled) = match class {
        // Constant subscripts: no dependence testing at all.
        Class::Constant { dependent } => {
            stats.constant += 1;
            classified_as(ClassifiedKind::Constant { dependent });
            let report = constant_report(template, dependent, config.compute_directions);
            (report, false, false)
        }
        Class::Unbuildable => {
            stats.assumed += 1;
            classified_as(ClassifiedKind::Unbuildable);
            let report = assumed_report(template, config.compute_directions);
            (report, false, false)
        }
        Class::System {
            vars,
            equations,
            bounds,
        } => {
            classified_as(ClassifiedKind::Problem {
                vars: vars as usize,
                equations: equations as usize,
                bounds: bounds as usize,
            });
            let before = *stats;
            match resolve_problem(config, template, gcd, full, probe, stats) {
                Some((report, spliced)) => (report, spliced, false),
                None => {
                    *stats = before;
                    stats.assumed += 1;
                    (pair_template(pair), false, true)
                }
            }
        }
    };
    note_outcome(stats, &report);
    if P::ACTIVE {
        probe.record(TraceEvent::PairFinished {
            result: report.result.clone(),
            from_cache: report.from_cache,
        });
    }
    reports.push(report);
    Resolution { spliced, cancelled }
}

/// The memoized part of [`resolve_pair`]: the extended GCD through the
/// no-bounds memo — consulted for every non-constant pair, bounds or
/// not, exactly like the paper's Table 2 "without bounds" column — then
/// the full-result memo or a fresh cascade. Returns the report and
/// whether it was spliced, or `None` when cancelled.
fn resolve_problem<P: Probe>(
    config: &AnalyzerConfig,
    template: PairReport,
    gcd: Option<GcdAnswer>,
    full: Option<FullAnswer>,
    probe: &mut P,
    stats: &mut AnalysisStats,
) -> Option<(PairReport, bool)> {
    let GcdAnswer {
        outcome,
        used,
        nanos,
    } = gcd?;
    used.count(&mut stats.gcd_memo_queries, &mut stats.gcd_memo_hits);
    if P::ACTIVE {
        let verdict = match outcome {
            GcdOutcome::Overflow => GcdVerdict::Overflow,
            GcdOutcome::Independent(_) => GcdVerdict::Independent,
            GcdOutcome::Lattice => GcdVerdict::Lattice,
        };
        probe.record(TraceEvent::Gcd {
            verdict,
            cached: used.is_hit(),
            nanos,
        });
    }
    match outcome {
        GcdOutcome::Overflow => {
            stats.assumed += 1;
            return Some((template, false)); // overflow: assume dependent
        }
        GcdOutcome::Independent(refutation) => {
            stats.gcd_independent += 1;
            let report = gcd_independent_report(template, refutation);
            return Some((report, used == MemoUse::Warm));
        }
        GcdOutcome::Lattice => {}
    }

    let (report, fx, full_use) = match full? {
        FullAnswer::Computed(computed, used) => {
            let (report, fx, events) = *computed;
            for event in events {
                probe.record(event);
            }
            (report, fx, used)
        }
        FullAnswer::Cached(outcome, kept_levels, flipped, used) => {
            let report = rehydrate(config.memo, &outcome, &kept_levels, flipped, template);
            (report, ReduceEffects::default(), used)
        }
    };
    full_use.count(&mut stats.memo_queries, &mut stats.memo_hits);
    if P::ACTIVE && full_use.is_hit() {
        probe.record(TraceEvent::CacheHit);
    }
    fx.apply_to(stats);
    Some((report, full_use == MemoUse::Warm))
}
