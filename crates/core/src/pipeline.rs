//! The instrumented solve pipeline: a configurable cascade with probes.
//!
//! The paper's cascade (SVPC → Acyclic → Loop Residue → Fourier–Motzkin)
//! used to be a hardcoded call sequence. This module generalizes it into a
//! *pipeline*: the test list is runtime-configurable ([`PipelineConfig`]),
//! and every stage reports to a [`Probe`] — a compile-time hook that is
//! erased entirely on the hot path ([`NullProbe`]) or records typed
//! [`TraceEvent`]s for diagnostics ([`RecordingProbe`]); `dda-obs`
//! adds the probe that feeds its metrics registry.
//!
//! The pipeline threads a running state — scalar [`VarBounds`], residual
//! multi-variable constraints, and the Acyclic elimination
//! [`Trace`] — through the configured tests in
//! order, so a later test always runs on the system as *simplified* by the
//! earlier ones, exactly as the paper prescribes. With the full default
//! configuration the pipeline is answer-for-answer identical to the
//! original cascade (property-tested in `tests/prop_tests.rs`).

use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;
use std::time::Instant;

use crate::acyclic::{acyclic_into, AcyclicOutcome, Trace};
use crate::cascade::CascadeOutcome;
use crate::certificate::{FmTree, RefProof, SystemRefutation, Trail};
use crate::fourier_motzkin::{fourier_motzkin_cert, FmLimits, FmOutcome};
use crate::loop_residue::{loop_residue_into, LoopResidueOutcome};
use crate::result::{Answer, DependenceResult, DirectionVector, DistanceVector, TestKind};
use crate::svpc::{svpc_into, SvpcStep};
use crate::system::{Constraint, System, VarBounds};

/// A request-scoped trace identifier, carried by probes so that every
/// event a pipeline emits can be attributed to the request (service
/// call, batch, CLI invocation) that caused it.
///
/// The id is an opaque 64-bit value rendered as 16 lowercase hex
/// digits. The pipeline itself never reads it — like everything else a
/// probe carries, it cannot feed back into analysis results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Parses the canonical hex form (1–16 hex digits, as produced by
    /// `Display`). Returns `None` for anything else.
    #[must_use]
    pub fn from_hex(s: &str) -> Option<TraceId> {
        let s = s.trim();
        if s.is_empty() || s.len() > 16 || !s.chars().all(|c| c.is_ascii_hexdigit()) {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(TraceId)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A hook that observes the pipeline without influencing it.
///
/// Probes receive [`TraceEvent`]s from every instrumented layer (GCD
/// phase, cascade stages, direction refinement, memo decisions). Events
/// never feed back into control flow, so a probed run returns bit-identical
/// answers to an unprobed one.
pub trait Probe {
    /// Whether this probe consumes events. When `false` (the
    /// [`NullProbe`]), call sites skip event construction and timing
    /// entirely — the monomorphized hot path carries zero overhead.
    const ACTIVE: bool = true;

    /// Receives one event.
    fn record(&mut self, event: TraceEvent);

    /// The request trace this probe attributes its events to, when the
    /// probe was built for one (see [`TraceId`]). The pipeline never
    /// calls this — it exists so downstream renderers (span JSONL, the
    /// flight recorder) can stamp their output without a side channel.
    fn trace(&self) -> Option<TraceId> {
        None
    }
}

/// The zero-cost probe: ignores everything, `ACTIVE = false`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {
    const ACTIVE: bool = false;
    fn record(&mut self, _event: TraceEvent) {}
}

/// Captures every event in order, for rendering or serialization.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordingProbe {
    /// The recorded events, in emission order.
    pub events: Vec<TraceEvent>,
}

impl Probe for RecordingProbe {
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// How a pair classified before any dependence testing (mirror of
/// [`crate::steps::Classified`], without the payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassifiedKind {
    /// All subscripts constant; `dependent` is the comparison verdict.
    Constant {
        /// Whether the constant subscripts coincide.
        dependent: bool,
    },
    /// No affine system could be built: dependence assumed.
    Unbuildable,
    /// A well-formed dependence problem.
    Problem {
        /// Number of `x`-space variables.
        vars: usize,
        /// Number of subscript equality rows.
        equations: usize,
        /// Number of bound constraints.
        bounds: usize,
    },
}

/// Verdict of the extended GCD phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcdVerdict {
    /// The equality system has no integer solution: independent.
    Independent,
    /// Solutions form a lattice; the cascade runs on the reduced system.
    Lattice,
    /// Arithmetic overflow while solving: dependence assumed.
    Overflow,
}

/// What one pipeline stage concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageVerdict {
    /// The stage proved independence (exact).
    Independent,
    /// The stage proved dependence (exact).
    Dependent,
    /// The stage gave up and no later test remains: dependence assumed.
    Unknown,
    /// The stage could not decide; the pipeline moves to the next test.
    Pass,
}

impl fmt::Display for StageVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StageVerdict::Independent => "independent",
            StageVerdict::Dependent => "dependent",
            StageVerdict::Unknown => "unknown",
            StageVerdict::Pass => "pass",
        };
        f.write_str(s)
    }
}

/// One typed event emitted by an instrumented layer.
///
/// Wall times (`nanos`) are measured only when the receiving probe is
/// `ACTIVE`, and never influence answers.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A pair's analysis began.
    PairStarted {
        /// Array both references touch.
        array: String,
        /// Id of the first access.
        a_access: usize,
        /// Id of the second access.
        b_access: usize,
        /// Number of common loops.
        common: usize,
    },
    /// The pair classified (before any testing).
    Classified {
        /// The classification.
        kind: ClassifiedKind,
    },
    /// The full-result memo table answered; no tests ran.
    CacheHit,
    /// The extended GCD phase finished.
    Gcd {
        /// Its verdict.
        verdict: GcdVerdict,
        /// Whether the no-bounds memo table supplied the lattice.
        cached: bool,
        /// Wall time, when timed.
        nanos: u64,
    },
    /// The problem was reduced through the GCD lattice into `t`-space.
    Reduced {
        /// Number of free (`t`) variables.
        free_vars: usize,
        /// The reduced inequality system handed to the cascade.
        system: System,
    },
    /// The lattice substitution overflowed: dependence assumed.
    ReduceOverflow,
    /// A cascade stage is about to run; records the system shape it sees.
    StageEntered {
        /// The test.
        test: TestKind,
        /// Number of `t`-space variables.
        vars: usize,
        /// Residual multi-variable constraints at entry.
        constraints: usize,
        /// Finite scalar bounds (lower + upper) at entry.
        bounded: usize,
    },
    /// A cascade stage finished.
    Stage {
        /// The test.
        test: TestKind,
        /// What it concluded.
        verdict: StageVerdict,
        /// Wall time, when timed.
        nanos: u64,
    },
    /// A dependence witness in `x`-space (original problem variables).
    Witness {
        /// The witness assignment.
        x: Vec<i64>,
    },
    /// Direction-vector refinement began; subsequent [`TraceEvent::Stage`]
    /// events belong to refinement cascades, not the base query.
    RefinementStarted,
    /// Direction-vector refinement finished.
    Directions {
        /// Surviving direction vectors.
        vectors: Vec<DirectionVector>,
        /// Constant per-level distances.
        distance: DistanceVector,
        /// Cascade invocations made during refinement.
        tests: u64,
        /// Whether every vector rests on exact answers.
        exact: bool,
        /// Wall time, when timed.
        nanos: u64,
    },
    /// The pair's analysis finished.
    PairFinished {
        /// The final verdict.
        result: DependenceResult,
        /// Whether it came from the full-result memo table.
        from_cache: bool,
    },
}

/// Which tests the pipeline runs, in order.
///
/// At most four tests, no duplicates. The default is the paper's full
/// measured-cost order; ablations disable or reorder tests:
///
/// ```
/// use dda_core::pipeline::PipelineConfig;
/// use dda_core::result::TestKind;
///
/// let full = PipelineConfig::default();
/// assert_eq!(full.to_string(), "svpc,acyclic,residue,fm");
/// let fm_only = PipelineConfig::from_tests(&[TestKind::FourierMotzkin]).unwrap();
/// assert_eq!(fm_only.to_string(), "fm");
/// assert_eq!("svpc,fm".parse::<PipelineConfig>().unwrap().len(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipelineConfig {
    tests: [Option<TestKind>; 4],
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig::full()
    }
}

impl PipelineConfig {
    /// All four tests in the paper's cascade order.
    #[must_use]
    pub fn full() -> PipelineConfig {
        PipelineConfig {
            tests: [
                Some(TestKind::Svpc),
                Some(TestKind::Acyclic),
                Some(TestKind::LoopResidue),
                Some(TestKind::FourierMotzkin),
            ],
        }
    }

    /// A pipeline running exactly `order`, in that order.
    ///
    /// Returns `None` when `order` is empty, longer than four, or contains
    /// a duplicate.
    #[must_use]
    pub fn from_tests(order: &[TestKind]) -> Option<PipelineConfig> {
        if order.is_empty() || order.len() > 4 {
            return None;
        }
        let mut tests = [None; 4];
        for (i, &t) in order.iter().enumerate() {
            if order[..i].contains(&t) {
                return None;
            }
            tests[i] = Some(t);
        }
        Some(PipelineConfig { tests })
    }

    /// This pipeline with `kind` removed (later tests shift up).
    #[must_use]
    pub fn without(self, kind: TestKind) -> PipelineConfig {
        let order: Vec<TestKind> = self.tests().filter(|&t| t != kind).collect();
        let mut tests = [None; 4];
        for (i, &t) in order.iter().enumerate() {
            tests[i] = Some(t);
        }
        PipelineConfig { tests }
    }

    /// The configured tests, in order.
    pub fn tests(&self) -> impl Iterator<Item = TestKind> + '_ {
        self.tests.iter().flatten().copied()
    }

    /// Number of configured tests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tests.iter().flatten().count()
    }

    /// Whether no test is configured (only reachable via
    /// [`PipelineConfig::without`]; the pipeline then answers `Unknown`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `kind` is configured.
    #[must_use]
    pub fn enabled(&self, kind: TestKind) -> bool {
        self.tests().any(|t| t == kind)
    }

    /// Whether every test is enabled (in any order). Exactness of
    /// "assumed" answers is only guaranteed in this case.
    #[must_use]
    pub fn includes_all(&self) -> bool {
        TestKind::ALL.iter().all(|&t| self.enabled(t))
    }
}

/// Canonical token for a test in `--tests` lists.
fn test_token(kind: TestKind) -> &'static str {
    match kind {
        TestKind::Svpc => "svpc",
        TestKind::Acyclic => "acyclic",
        TestKind::LoopResidue => "residue",
        TestKind::FourierMotzkin => "fm",
    }
}

impl fmt::Display for PipelineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, t) in self.tests().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            f.write_str(test_token(t))?;
        }
        Ok(())
    }
}

impl FromStr for PipelineConfig {
    type Err = String;

    /// Parses a comma-separated test list, e.g. `svpc,acyclic,residue,fm`.
    ///
    /// Accepted aliases: `residue`/`loop-residue`/`loopresidue` and
    /// `fm`/`fourier-motzkin`/`fouriermotzkin`.
    fn from_str(s: &str) -> Result<PipelineConfig, String> {
        let mut order = Vec::new();
        for token in s.split(',') {
            let token = token.trim().to_ascii_lowercase();
            let kind = match token.as_str() {
                "svpc" => TestKind::Svpc,
                "acyclic" => TestKind::Acyclic,
                "residue" | "loop-residue" | "loopresidue" => TestKind::LoopResidue,
                "fm" | "fourier-motzkin" | "fouriermotzkin" => TestKind::FourierMotzkin,
                "" => return Err("empty test name in list".to_string()),
                other => return Err(format!("unknown test '{other}'")),
            };
            if order.contains(&kind) {
                return Err(format!("duplicate test '{token}'"));
            }
            order.push(kind);
        }
        PipelineConfig::from_tests(&order).ok_or_else(|| "empty test list".to_string())
    }
}

/// What one stage did with the running state.
enum StepOutcome {
    /// Exact verdict; the pipeline stops.
    Decided(Answer),
    /// State simplified; move on.
    Continue,
    /// The test did not apply or gave up; move on (or assume dependence
    /// if it was the last test).
    Undecided,
}

/// Runs the configured tests over `system`, reporting to `probe`.
///
/// With [`PipelineConfig::full`] this is the paper's cascade (SVPC →
/// Acyclic → Loop Residue → Fourier–Motzkin, see [`crate::cascade`]).
/// An empty configuration answers `Unknown`.
///
/// # Examples
///
/// ```
/// use dda_core::fourier_motzkin::FmLimits;
/// use dda_core::pipeline::{run_pipeline, NullProbe, PipelineConfig};
/// use dda_core::result::TestKind;
/// use dda_core::system::{Constraint, System};
///
/// let mut s = System::new(1);
/// s.push(Constraint::new(vec![-1], -1)); // t ≥ 1
/// s.push(Constraint::new(vec![1], 0));   // t ≤ 0
/// let out = run_pipeline(&s, &PipelineConfig::full(), FmLimits::default(), &mut NullProbe);
/// assert!(out.answer.is_independent());
/// assert_eq!(out.used, TestKind::Svpc);
/// ```
#[must_use]
pub fn run_pipeline<P: Probe>(
    system: &System,
    config: &PipelineConfig,
    limits: FmLimits,
    probe: &mut P,
) -> CascadeOutcome {
    // COLLECT = false: the answer-only path skips certificate
    // materialization entirely (the provenance trail still records, but
    // no `Rule`s are ever built).
    run_pipeline_impl::<P, false>(system, config, limits, probe).0
}

/// [`run_pipeline`], additionally returning a refutation certificate when
/// the answer is `Independent` and every derivation the deciding stage
/// made could be accounted for (`None` otherwise — the answer itself is
/// never affected).
///
/// The refutation's premises are rows of `system` by value; see
/// [`crate::certificate`] for the proof grammar.
#[must_use]
pub fn run_pipeline_collect<P: Probe>(
    system: &System,
    config: &PipelineConfig,
    limits: FmLimits,
    probe: &mut P,
) -> (CascadeOutcome, Option<SystemRefutation>) {
    run_pipeline_impl::<P, true>(system, config, limits, probe)
}

/// The shared pipeline body. `COLLECT` gates certificate construction at
/// compile time: the residual starts as a borrow of the system's rows
/// (first materialized by whichever stage shrinks it) and the trail logs
/// provenance inline, so with `COLLECT = false` a pair that resolves in
/// the early stages completes without a single heap allocation beyond
/// its witness.
fn run_pipeline_impl<P: Probe, const COLLECT: bool>(
    system: &System,
    config: &PipelineConfig,
    limits: FmLimits,
    probe: &mut P,
) -> (CascadeOutcome, Option<SystemRefutation>) {
    let n = system.num_vars;
    let mut bounds = VarBounds::unbounded(n);
    let mut residual: Cow<'_, [Constraint]> = Cow::Borrowed(&system.constraints);
    let mut trace = Trace::default();
    let mut trail = Trail::for_rows(n, &system.constraints);
    let mut fm_tree: Option<FmTree> = None;
    let mut used = TestKind::Svpc;

    let order = config.tests;
    let count = config.len();
    for (pos, test) in order.iter().flatten().copied().enumerate() {
        let last = pos + 1 == count;
        used = test;
        if P::ACTIVE {
            let bounded = bounds.lb.iter().chain(bounds.ub.iter()).flatten().count();
            probe.record(TraceEvent::StageEntered {
                test,
                vars: n,
                constraints: residual.len(),
                bounded,
            });
        }
        let start = if P::ACTIVE {
            Some(Instant::now())
        } else {
            None
        };

        let step = match test {
            TestKind::Svpc => match svpc_into(&mut bounds, &residual, &mut trail) {
                SvpcStep::Infeasible => StepOutcome::Decided(Answer::Independent),
                SvpcStep::Done => {
                    let mut sample: Vec<i64> = (0..n).map(|v| bounds.pick(v)).collect();
                    StepOutcome::Decided(match trace.complete(&mut sample) {
                        Some(()) => Answer::Dependent(Some(sample)),
                        None => Answer::Dependent(None),
                    })
                }
                SvpcStep::Residual(rest) => {
                    residual = Cow::Owned(rest);
                    StepOutcome::Continue
                }
            },
            TestKind::Acyclic => match acyclic_into(&bounds, &residual, &mut trail) {
                AcyclicOutcome::Infeasible => StepOutcome::Decided(Answer::Independent),
                AcyclicOutcome::Complete { mut sample } => {
                    StepOutcome::Decided(match trace.complete(&mut sample) {
                        Some(()) => Answer::Dependent(Some(sample)),
                        None => Answer::Dependent(None),
                    })
                }
                AcyclicOutcome::Stuck {
                    bounds: b,
                    residual: r,
                    trace: t,
                } => {
                    bounds = b;
                    residual = Cow::Owned(r);
                    trace.extend(t);
                    StepOutcome::Continue
                }
            },
            TestKind::LoopResidue => match loop_residue_into(&bounds, &residual, &mut trail) {
                LoopResidueOutcome::Infeasible => StepOutcome::Decided(Answer::Independent),
                LoopResidueOutcome::Feasible(mut sample) => {
                    StepOutcome::Decided(match trace.complete(&mut sample) {
                        Some(()) => Answer::Dependent(Some(sample)),
                        None => Answer::Dependent(None),
                    })
                }
                LoopResidueOutcome::NotApplicable => StepOutcome::Undecided,
            },
            TestKind::FourierMotzkin => run_fm_stage(
                n,
                &bounds,
                &residual,
                &trace,
                limits,
                &mut trail,
                &mut fm_tree,
            ),
        };

        if P::ACTIVE {
            let nanos = start.map_or(0, |s| {
                u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX)
            });
            let verdict = match &step {
                StepOutcome::Decided(a) if a.is_independent() => StageVerdict::Independent,
                StepOutcome::Decided(_) => StageVerdict::Dependent,
                StepOutcome::Undecided if last => StageVerdict::Unknown,
                StepOutcome::Continue | StepOutcome::Undecided => StageVerdict::Pass,
            };
            probe.record(TraceEvent::Stage {
                test,
                verdict,
                nanos,
            });
        }

        if let StepOutcome::Decided(answer) = step {
            let refutation = if COLLECT && answer.is_independent() {
                match fm_tree {
                    // FM refuted: its tree rides on the arena built so far.
                    Some(tree) if trail.ok => Some(SystemRefutation {
                        arena: trail.materialize(&system.constraints),
                        proof: RefProof::Fm { tree },
                    }),
                    Some(_) => None,
                    // An earlier stage refuted: the arena itself sealed.
                    None => trail.into_arena_refutation(&system.constraints),
                }
            } else {
                None
            };
            return (CascadeOutcome { answer, used }, refutation);
        }
    }

    (
        CascadeOutcome {
            answer: Answer::Unknown,
            used,
        },
        None,
    )
}

/// The Fourier–Motzkin stage: bounds re-expanded to constraints, then the
/// bounded elimination.
///
/// The FM input rows must all be accountable for its refutation tree to
/// check out: residual rows carry their trail steps, and each re-expanded
/// bound row must have a recorded bound step (else the trail is poisoned —
/// the answer stands, the certificate is withheld). On `Infeasible`,
/// `fm_tree` receives the elimination/branch tree.
#[allow(clippy::too_many_arguments)]
fn run_fm_stage(
    n: usize,
    bounds: &VarBounds,
    residual: &[Constraint],
    trace: &Trace,
    limits: FmLimits,
    trail: &mut Trail,
    fm_tree: &mut Option<FmTree>,
) -> StepOutcome {
    let bound_rows = bounds.lb.iter().chain(bounds.ub.iter()).flatten().count();
    let mut constraints = Vec::with_capacity(residual.len() + bound_rows);
    constraints.extend_from_slice(residual);
    for v in 0..n {
        if let Some(u) = bounds.ub[v] {
            let mut row = dda_linalg::CoeffVec::from_elem(0, n);
            row[v] = 1;
            constraints.push(Constraint::new(row, u));
            if trail.ub_step[v].is_none() {
                trail.ok = false;
            }
        }
        if let Some(l) = bounds.lb[v] {
            let mut row = dda_linalg::CoeffVec::from_elem(0, n);
            row[v] = -1;
            let Some(neg) = l.checked_neg() else {
                return StepOutcome::Undecided;
            };
            constraints.push(Constraint::new(row, neg));
            if trail.lb_step[v].is_none() {
                trail.ok = false;
            }
        }
    }
    let (out, tree) = fourier_motzkin_cert(n, &constraints, limits);
    match out {
        FmOutcome::Infeasible => {
            *fm_tree = tree;
            StepOutcome::Decided(Answer::Independent)
        }
        FmOutcome::Sample(mut sample) => StepOutcome::Decided(match trace.complete(&mut sample) {
            Some(()) => Answer::Dependent(Some(sample)),
            None => Answer::Dependent(None),
        }),
        FmOutcome::Unknown => StepOutcome::Undecided,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(rows: &[(&[i64], i64)]) -> System {
        let n = rows.first().map_or(0, |(c, _)| c.len());
        let mut s = System::new(n);
        for (coeffs, rhs) in rows {
            s.push(Constraint::new(coeffs.to_vec(), *rhs));
        }
        s
    }

    #[test]
    fn config_parsing_round_trips() {
        for text in [
            "svpc",
            "fm",
            "svpc,fm",
            "acyclic,residue",
            "svpc,acyclic,residue,fm",
        ] {
            let cfg: PipelineConfig = text.parse().unwrap();
            assert_eq!(cfg.to_string(), text);
        }
        assert_eq!(
            "fourier-motzkin".parse::<PipelineConfig>().unwrap(),
            PipelineConfig::from_tests(&[TestKind::FourierMotzkin]).unwrap()
        );
        assert!("".parse::<PipelineConfig>().is_err());
        assert!("svpc,svpc".parse::<PipelineConfig>().is_err());
        assert!("banzai".parse::<PipelineConfig>().is_err());
    }

    #[test]
    fn without_removes_and_shifts() {
        let cfg = PipelineConfig::full().without(TestKind::Acyclic);
        let order: Vec<TestKind> = cfg.tests().collect();
        assert_eq!(
            order,
            vec![
                TestKind::Svpc,
                TestKind::LoopResidue,
                TestKind::FourierMotzkin
            ]
        );
        assert!(!cfg.includes_all());
        assert!(PipelineConfig::full().includes_all());
    }

    #[test]
    fn empty_pipeline_answers_unknown() {
        let empty = PipelineConfig::full()
            .without(TestKind::Svpc)
            .without(TestKind::Acyclic)
            .without(TestKind::LoopResidue)
            .without(TestKind::FourierMotzkin);
        assert!(empty.is_empty());
        let s = sys(&[(&[1], 0)]);
        let out = run_pipeline(&s, &empty, FmLimits::default(), &mut NullProbe);
        assert_eq!(out.answer, Answer::Unknown);
    }

    #[test]
    fn fm_only_pipeline_decides() {
        let fm_only = PipelineConfig::from_tests(&[TestKind::FourierMotzkin]).unwrap();
        let s = sys(&[(&[-1, 0], -1), (&[1, 0], 10), (&[0, 1], 10), (&[0, -1], -1)]);
        let out = run_pipeline(&s, &fm_only, FmLimits::default(), &mut NullProbe);
        assert_eq!(out.used, TestKind::FourierMotzkin);
        assert!(matches!(out.answer, Answer::Dependent(Some(_))));
    }

    #[test]
    fn recording_probe_sees_stage_events() {
        let mut probe = RecordingProbe::default();
        let s = sys(&[(&[-1], -1), (&[1], 10)]);
        let out = run_pipeline(&s, &PipelineConfig::full(), FmLimits::default(), &mut probe);
        assert_eq!(out.used, TestKind::Svpc);
        assert!(matches!(
            probe.events.as_slice(),
            [
                TraceEvent::StageEntered {
                    test: TestKind::Svpc,
                    ..
                },
                TraceEvent::Stage {
                    test: TestKind::Svpc,
                    verdict: StageVerdict::Dependent,
                    ..
                }
            ]
        ));
    }

    #[test]
    fn every_stage_that_runs_reports_one_stage_event() {
        let mut probe = RecordingProbe::default();
        let s = sys(&[(&[2, -1], 0), (&[-2, 1], -1)]);
        let out = run_pipeline(&s, &PipelineConfig::full(), FmLimits::default(), &mut probe);
        assert_eq!(out.used, TestKind::FourierMotzkin);
        let stages: Vec<TestKind> = probe
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Stage { test, .. } => Some(*test),
                _ => None,
            })
            .collect();
        assert_eq!(stages, TestKind::ALL);
    }

    #[test]
    fn reordered_full_config_still_decides_exactly() {
        // FM first: same verdicts as the default order on decided systems.
        let reordered = PipelineConfig::from_tests(&[
            TestKind::FourierMotzkin,
            TestKind::Svpc,
            TestKind::Acyclic,
            TestKind::LoopResidue,
        ])
        .unwrap();
        let cases: Vec<System> = vec![
            sys(&[(&[-1, 0], -1), (&[1, 0], 10), (&[0, 1], 10), (&[0, -1], -1)]),
            sys(&[(&[2, -1], 0), (&[-2, 1], -1)]),
            sys(&[(&[1, -1], -1), (&[-1, 1], -1)]),
        ];
        for s in &cases {
            let a = run_pipeline(
                s,
                &PipelineConfig::full(),
                FmLimits::default(),
                &mut NullProbe,
            );
            let b = run_pipeline(s, &reordered, FmLimits::default(), &mut NullProbe);
            assert_eq!(
                a.answer.is_independent(),
                b.answer.is_independent(),
                "verdict class must not depend on order for\n{s}"
            );
        }
    }
}
