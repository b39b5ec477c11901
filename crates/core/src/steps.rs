//! The per-pair analysis step shared by every driver.
//!
//! [`resolve_pair`] is the paper's single pass over one reference pair:
//! classify, consult the memo, run the extended GCD, cascade the exact
//! tests, refine directions, count. It is the one place the per-pair
//! counting rules live. Both drivers call it and differ only in their
//! [`MemoSource`]: the serial
//! [`DependenceAnalyzer`](crate::analyzer::DependenceAnalyzer) looks up,
//! solves and inserts on the spot, while the batch engine (`dda-engine`)
//! hands back what its parallel leader waves already computed.
//!
//! The other functions are the pure pieces the step and the engine's
//! waves are built from. Every one is deterministic: same inputs, same
//! output, no hidden state. That property is what makes the engine's
//! leader-election parallelism sound — any thread may compute a key's
//! result and every other pair with that key can reuse it verbatim.

use dda_ir::RefPair;

use std::sync::Arc;
use std::time::Instant;

use crate::analyzer::{AnalyzerConfig, CachedOutcome, MemoMode, PairReport};
use crate::cascade::CascadeOutcome;
use crate::certificate::Certificate;
use crate::direction::{analyze_directions, DirectionAnalysis, DirectionConfig};
use crate::gcd::{
    expand_lattice, reduce_with_lattice, refute_equalities, solve_equalities,
    solve_equalities_restricted, witness_for_problem, EqOutcome, Lattice,
};
use crate::memo::{bounds_key, mirror_bounds_key, nobounds_key, CanonicalKey, NoBoundsKey};
use crate::pipeline::{
    run_pipeline_collect, ClassifiedKind, GcdVerdict, NullProbe, Probe, TraceEvent,
};
use crate::problem::{build_problem, constant_compare, DependenceProblem};
use crate::result::{
    Answer, DependenceResult, Direction, DirectionVector, DistanceVector, ResolvedBy, TestKind,
};
use crate::stats::{AnalysisStats, TestCounts};
use crate::symmetry;

/// How a pair classifies before any dependence testing.
#[derive(Debug, Clone)]
pub enum Classified {
    /// All subscripts constant: the verdict is a comparison.
    Constant {
        /// Whether the constant subscripts coincide (dependent).
        dependent: bool,
    },
    /// The integer system could not be built (non-affine subscript, or a
    /// symbolic term with symbolic support off): dependence is assumed.
    Unbuildable,
    /// A well-formed integer dependence problem, ready for testing.
    Problem(Box<DependenceProblem>),
}

impl Classified {
    /// The problem, when one was built.
    #[must_use]
    pub fn problem(&self) -> Option<&DependenceProblem> {
        match self {
            Classified::Problem(p) => Some(p),
            _ => None,
        }
    }
}

/// Classifies one pair: constant short-circuit, then system construction.
#[must_use]
pub fn classify_pair(pair: RefPair<'_>, symbolic: bool) -> Classified {
    if let Some(dependent) = constant_compare(pair.a, pair.b) {
        return Classified::Constant { dependent };
    }
    match build_problem(pair.symbols, pair.a, pair.b, pair.common, symbolic) {
        Ok(p) => Classified::Problem(Box::new(p)),
        Err(_) => Classified::Unbuildable,
    }
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
        common_loop_ids: pair.a.loops.iter().take(common).map(|l| l.id).collect(),
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
/// [`refute_equalities`]; `None` degrades
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

/// The no-bounds (GCD) memo key for a problem, or `None` when
/// memoization is off.
#[must_use]
pub fn gcd_key(config: &AnalyzerConfig, problem: &DependenceProblem) -> Option<NoBoundsKey> {
    (config.memo != MemoMode::Off).then(|| nobounds_key(problem, config.memo == MemoMode::Improved))
}

/// Runs the extended GCD test. With a memo key it solves the canonical
/// system over the key's kept variables (the form the memo stores);
/// without one it solves the problem as built.
#[must_use]
pub fn solve_gcd(problem: &DependenceProblem, key: Option<&NoBoundsKey>) -> Option<EqOutcome> {
    match key {
        Some(nk) => solve_equalities_restricted(&problem.eq_coeffs, &problem.eq_rhs, &nk.kept_vars),
        None => solve_equalities(problem),
    }
}

/// Maps a [`solve_gcd`] outcome for `key` back onto `problem`: lattices
/// expand to every problem variable, and refutation witnesses (kept in
/// canonical row order) are reordered onto the problem's rows — an arity
/// mismatch degrades to `None`, and the caller refactorizes. Keyless
/// outcomes are already in problem space. The outcome is borrowed, so a
/// memoized one is read in place, never cloned first.
#[must_use]
pub fn expand_gcd(
    problem: &DependenceProblem,
    key: Option<&NoBoundsKey>,
    outcome: Option<&EqOutcome>,
) -> Option<EqOutcome> {
    let Some(nk) = key else {
        return outcome.cloned();
    };
    outcome.map(|eq| match eq {
        EqOutcome::Independent { refutation } => EqOutcome::Independent {
            refutation: refutation
                .as_ref()
                .and_then(|w| witness_for_problem(problem, &nk.kept_vars, w)),
        },
        EqOutcome::Lattice(l) => {
            EqOutcome::Lattice(expand_lattice(l, &nk.kept_vars, problem.num_vars()))
        }
    })
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

/// The full-result memo key for a problem, or `None` when memoization is
/// off. With symmetric canonicalization enabled, a pair and its mirror
/// share the lexicographically smaller key; the returned flag records
/// whether *this* problem is the mirror of what the table stores. The
/// mirror's key is written straight from the column permutation (see
/// [`symmetry::mirror_columns`]); a pair and its mirror keep the same
/// levels.
#[must_use]
pub fn full_key(
    config: &AnalyzerConfig,
    problem: &DependenceProblem,
) -> Option<(CanonicalKey, bool)> {
    if config.memo == MemoMode::Off {
        return None;
    }
    let improved = config.memo == MemoMode::Improved;
    let own = bounds_key(problem, improved);
    if config.memo_symmetry {
        // A mirror that overflows to build just skips canonicalization.
        let mirror = symmetry::mirror_columns(problem)
            .and_then(|columns| mirror_bounds_key(problem, &columns, improved));
        if let Some(mirror) = mirror.filter(|m| *m < own.key) {
            let ck = CanonicalKey {
                key: mirror,
                kept_levels: own.kept_levels,
            };
            return Some((ck, true));
        }
    }
    Some((own, false))
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

/// Rehydrates a full-memo hit into a concrete report for this pair. The
/// cached outcome is borrowed: a hit copies out only what the report
/// keeps.
#[must_use]
pub fn rehydrate_hit(
    memo: MemoMode,
    cached: &CachedOutcome,
    ck: &CanonicalKey,
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
        expand_vectors(&cached.direction_vectors, &ck.kept_levels, common, flipped);
    template.distance = expand_distance(&cached.distance, &ck.kept_levels, common, flipped);
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
/// report: restricted to canonical space, mirrored when the key was.
#[must_use]
pub fn canonical_outcome(report: &PairReport, ck: &CanonicalKey, flipped: bool) -> CachedOutcome {
    CachedOutcome {
        result: report.result.clone(),
        witness: if flipped {
            None
        } else {
            report.witness.clone()
        },
        direction_vectors: restrict_vectors(&report.direction_vectors, &ck.kept_levels, flipped),
        distance: restrict_distance(&report.distance, &ck.kept_levels, flipped),
        certificate: if flipped {
            // The stored verdict describes the mirror problem; this
            // pair's evidence does not.
            Certificate::Unverified
        } else {
            report.certificate.clone()
        },
    }
}

/// Statistics side-effects of [`analyze_reduced`], captured explicitly so
/// callers can attribute them wherever the pair lives (the serial
/// analyzer applies them immediately; the engine applies them to the
/// leader pair's program during in-order assembly).
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
/// `fx`.
#[must_use]
pub fn analyze_reduced(
    config: &AnalyzerConfig,
    problem: &DependenceProblem,
    lattice: &Lattice,
    report: PairReport,
    fx: &mut ReduceEffects,
) -> PairReport {
    analyze_reduced_probed(config, problem, lattice, report, fx, &mut NullProbe)
}

/// [`analyze_reduced`] with an explicit [`Probe`]. The probe observes the
/// lattice reduction, every pipeline stage of the base query, the
/// witness, and the direction refinement; it never changes the report.
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

/// How a [`MemoSource`] served one lookup — all the per-pair counting
/// rules need to know about the memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoUse {
    /// No memo key (memoization off): the pair solved for itself.
    Unkeyed,
    /// The memo was consulted and missed; the value was computed fresh.
    Miss,
    /// The memo answered with an entry written during this run.
    Hit,
    /// The memo answered with an entry that predates this run (a warm
    /// start or an earlier batch): the verdict is spliced, not re-solved.
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

/// Where [`resolve_pair`] gets a pair's memoized values from. Each method
/// answers `None` when a deadline cancelled the computation it needed.
pub trait MemoSource {
    /// The pair's extended-GCD outcome, expanded to every problem
    /// variable (see [`expand_gcd`]; an inner `None` is an overflow).
    fn gcd(&mut self, problem: &DependenceProblem) -> Option<(Option<EqOutcome>, MemoUse)>;

    /// The full analysis of a pair whose equalities have `lattice`: a
    /// memo hit rehydrated onto `template` (with no statistics effects),
    /// or a fresh [`analyze_reduced_probed`] report and its effects.
    fn full<P: Probe>(
        &mut self,
        problem: &DependenceProblem,
        lattice: &Lattice,
        template: PairReport,
        probe: &mut P,
    ) -> Option<(PairReport, ReduceEffects, MemoUse)>;
}

/// What [`resolve_pair`] produced for one pair.
#[derive(Debug)]
pub struct Resolution {
    /// The pair's report.
    pub report: PairReport,
    /// The pair's statistics delta.
    pub stats: AnalysisStats,
    /// The verdict came straight from a warm memo entry (the incremental
    /// fast path); otherwise the pair was resolved in this run.
    pub spliced: bool,
    /// A deadline cancelled a computation the pair needed: the report is
    /// the bare conservative template.
    pub cancelled: bool,
}

/// Analyzes one classified pair, reporting every step to `probe`: the
/// memo and solver work comes from `source`, and every statistics
/// counter of the pair is decided here.
///
/// A cancelled pair comes back as the conservative template, counted as
/// assumed, with none of the memo accounting a completed visit would do.
pub fn resolve_pair<S: MemoSource, P: Probe>(
    config: &AnalyzerConfig,
    pair: RefPair<'_>,
    classified: &Classified,
    source: &mut S,
    probe: &mut P,
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
    let mut stats = AnalysisStats {
        pairs: 1,
        ..AnalysisStats::default()
    };
    let mut classified_as = |kind| {
        if P::ACTIVE {
            probe.record(TraceEvent::Classified { kind });
        }
    };
    let (report, spliced, cancelled) = match classified {
        // Constant subscripts: no dependence testing at all.
        Classified::Constant { dependent } => {
            stats.constant += 1;
            classified_as(ClassifiedKind::Constant {
                dependent: *dependent,
            });
            let report = constant_report(template, *dependent, config.compute_directions);
            (report, false, false)
        }
        Classified::Unbuildable => {
            stats.assumed += 1;
            classified_as(ClassifiedKind::Unbuildable);
            let report = assumed_report(template, config.compute_directions);
            (report, false, false)
        }
        Classified::Problem(problem) => {
            classified_as(ClassifiedKind::Problem {
                vars: problem.num_vars(),
                equations: problem.eq_coeffs.len(),
                bounds: problem.bounds.len(),
            });
            match resolve_problem(problem, template, source, probe, &mut stats) {
                Some((report, spliced)) => (report, spliced, false),
                None => {
                    stats = AnalysisStats {
                        pairs: 1,
                        assumed: 1,
                        ..AnalysisStats::default()
                    };
                    (pair_template(pair), false, true)
                }
            }
        }
    };
    note_outcome(&mut stats, &report);
    if P::ACTIVE {
        probe.record(TraceEvent::PairFinished {
            result: report.result.clone(),
            from_cache: report.from_cache,
        });
    }
    Resolution {
        report,
        stats,
        spliced,
        cancelled,
    }
}

/// The memoized part of [`resolve_pair`]: the extended GCD through the
/// no-bounds memo — consulted for every non-constant pair, bounds or
/// not, exactly like the paper's Table 2 "without bounds" column — then
/// the full-result memo or a fresh cascade. Returns the report and
/// whether it was spliced, or `None` when cancelled.
fn resolve_problem<S: MemoSource, P: Probe>(
    problem: &DependenceProblem,
    template: PairReport,
    source: &mut S,
    probe: &mut P,
    stats: &mut AnalysisStats,
) -> Option<(PairReport, bool)> {
    let gcd_start = P::ACTIVE.then(Instant::now);
    let (eq_outcome, gcd_use) = source.gcd(problem)?;
    gcd_use.count(&mut stats.gcd_memo_queries, &mut stats.gcd_memo_hits);
    if P::ACTIVE {
        let nanos = gcd_start.map_or(0, |s| {
            u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX)
        });
        probe.record(TraceEvent::Gcd {
            verdict: gcd_verdict(eq_outcome.as_ref()),
            cached: gcd_use.is_hit(),
            nanos,
        });
    }
    let lattice = match eq_outcome {
        None => {
            stats.assumed += 1;
            return Some((template, false)); // overflow: assume dependent
        }
        Some(EqOutcome::Independent { refutation }) => {
            stats.gcd_independent += 1;
            // The witness rode along with the (possibly cached) outcome;
            // refactorize only when none transferred.
            let refutation = refutation.or_else(|| refute_equalities(problem));
            let report = gcd_independent_report(template, refutation);
            return Some((report, gcd_use == MemoUse::Warm));
        }
        Some(EqOutcome::Lattice(l)) => l,
    };

    let (report, fx, full_use) = source.full(problem, &lattice, template, probe)?;
    full_use.count(&mut stats.memo_queries, &mut stats.memo_hits);
    if P::ACTIVE && full_use.is_hit() {
        probe.record(TraceEvent::CacheHit);
    }
    fx.apply_to(stats);
    Some((report, full_use == MemoUse::Warm))
}
