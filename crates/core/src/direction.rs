//! Direction and distance vectors (Section 6).
//!
//! Direction vectors summarize, per common loop, the relation between the
//! iteration `i` executing the first reference and the iteration `i′`
//! executing the second when they touch the same location. This module
//! implements the standard Burke–Cytron hierarchy — test `(*, …, *)`, and
//! on dependence expand one `*` at a time into `<`, `=`, `>` — plus the
//! paper's two pruning optimizations:
//!
//! - **unused variables**: a loop index appearing in no subscript and no
//!   other loop's bound contributes a free `*` without any testing;
//! - **distance pruning**: when the GCD solution fixes `i′ − i` to a
//!   constant, the direction at that level is known and the other two
//!   need not be tried.
//!
//! Distance vectors fall out of the same computation: `i′ − i` expressed
//! over the free variables is a constant exactly when the basis rows
//! cancel.

use crate::certificate::DirTree;
use crate::fourier_motzkin::FmLimits;
use crate::gcd::Reduced;
use crate::pipeline::{run_pipeline_collect, PipelineConfig, Probe};
use crate::problem::DependenceProblem;
use crate::result::{Answer, Direction, DirectionVector, DistanceVector};
use crate::stats::TestCounts;
use crate::system::{Constraint, System};

/// Refinement cascade calls one pair may spend walking the direction
/// hierarchy. Past it, the unrefined rest of the hierarchy is reported
/// as `*`, which covers every direction, so the answer stays sound. A
/// coupled nest that pruning cannot shrink needs up to 3^L calls for L
/// levels. No pair of the paper's tables, the tests, the examples or
/// the end-to-end benchmark needs more than 120 (Table 4, with pruning
/// off), so the budget changes none of their answers.
pub const REFINE_BUDGET: u32 = 256;

/// Pruning switches (both on by default; Table 4 turns both off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectionConfig {
    /// Skip levels whose indices are unused (free `*`).
    pub prune_unused: bool,
    /// Skip levels whose distance is a known constant.
    pub prune_distance: bool,
    /// Burke–Cytron's "nice cases" optimization, suggested in Section 6:
    /// when the refinable levels live in disjoint connected components of
    /// the constraint system, test each level's three directions
    /// independently (3·L tests) and take the cross product, instead of
    /// walking the 3^L hierarchy. Exact whenever it applies; levels that
    /// share components fall back to hierarchical refinement.
    pub separable: bool,
    /// Fourier–Motzkin limits for the refinement cascades.
    pub fm_limits: FmLimits,
    /// Which tests the refinement cascades run, in order.
    pub pipeline: PipelineConfig,
}

impl Default for DirectionConfig {
    fn default() -> DirectionConfig {
        DirectionConfig {
            prune_unused: true,
            prune_distance: true,
            separable: false,
            fm_limits: FmLimits::default(),
            pipeline: PipelineConfig::full(),
        }
    }
}

/// The outcome of direction-vector refinement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectionAnalysis {
    /// Every direction vector under which the references are dependent
    /// (empty means the refinement proved independence — the paper's
    /// "implicit branch and bound").
    pub vectors: Vec<DirectionVector>,
    /// Constant per-level distances `i′ − i` where known.
    pub distance: DistanceVector,
    /// Whether every reported vector rests on exact test answers.
    pub exact: bool,
    /// When refinement proved independence (`vectors` is empty), the
    /// direction-split tree whose leaves refute every region — `None` if
    /// any branch's refutation could not be assembled.
    pub tree: Option<DirTree>,
}

/// How one level will be handled during refinement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LevelPlan {
    /// Test `<`, `=`, `>` hierarchically.
    Refine,
    /// Emit a fixed direction without testing.
    Fixed(Direction),
}

/// `i′ − i` at `level`, as an affine function of `t`: `(coeffs, constant)`.
fn distance_expr(
    problem: &DependenceProblem,
    reduced: &Reduced,
    level: usize,
) -> Option<(Vec<i64>, i64)> {
    let (ia, ib) = problem.layout().common_columns(level);
    let (ca, ka) = reduced.x_as_t(ia);
    let (cb, kb) = reduced.x_as_t(ib);
    let coeffs: Option<Vec<i64>> = cb.iter().zip(&ca).map(|(b, a)| b.checked_sub(*a)).collect();
    Some((coeffs?, kb.checked_sub(ka)?))
}

/// Whether common level `level` is *unused*: its index variables appear in
/// no subscript equation and in no bound constraint that also involves
/// another variable.
fn level_unused(problem: &DependenceProblem, level: usize) -> bool {
    let (ia, ib) = problem.layout().common_columns(level);
    for (row, _) in problem.equations() {
        if row[ia] != 0 || row[ib] != 0 {
            return false;
        }
    }
    for (row, _) in problem.bounds() {
        let involves = row[ia] != 0 || row[ib] != 0;
        if involves && row.iter().filter(|&&c| c != 0).count() > 1 {
            return false; // coupled to another variable's bound
        }
    }
    true
}

/// Builds the `t`-space constraints asserting direction `dir` at a level
/// whose distance expression is `(coeffs, constant)`.
///
/// With `D(t) = i′ − i`: `<` means `D ≥ 1`, `=` means `D = 0`, `>` means
/// `D ≤ −1`.
fn direction_constraints(coeffs: &[i64], constant: i64, dir: Direction) -> Option<Vec<Constraint>> {
    let neg: Option<Vec<i64>> = coeffs.iter().map(|c| c.checked_neg()).collect();
    let neg = neg?;
    match dir {
        Direction::Lt => {
            // −D_coeffs · t ≤ D_const − 1
            Some(vec![Constraint::new(neg, constant.checked_sub(1)?)])
        }
        Direction::Eq => Some(vec![
            Constraint::new(coeffs.to_vec(), constant.checked_neg()?),
            Constraint::new(neg, constant),
        ]),
        Direction::Gt => Some(vec![Constraint::new(
            coeffs.to_vec(),
            constant.checked_neg()?.checked_sub(1)?,
        )]),
        Direction::Any => Some(vec![]),
    }
}

/// Runs hierarchical direction-vector refinement for a pair whose base
/// (`*`-vector) query did not prove independence. Every additional
/// cascade invocation is recorded in `counts` and reported to `probe`.
#[must_use]
pub fn analyze_directions<P: Probe>(
    problem: &DependenceProblem,
    reduced: &Reduced,
    config: DirectionConfig,
    counts: &mut TestCounts,
    probe: &mut P,
) -> DirectionAnalysis {
    let levels = problem.layout().common;
    let mut distance = DistanceVector::unknown(levels);
    let mut plans = Vec::with_capacity(levels);
    let mut exprs = Vec::with_capacity(levels);

    for k in 0..levels {
        let expr = distance_expr(problem, reduced, k);
        match &expr {
            Some((coeffs, c)) if coeffs.iter().all(|&v| v == 0) => {
                distance.0[k] = Some(*c);
                let dir = match c.cmp(&0) {
                    std::cmp::Ordering::Greater => Direction::Lt,
                    std::cmp::Ordering::Equal => Direction::Eq,
                    std::cmp::Ordering::Less => Direction::Gt,
                };
                if config.prune_distance {
                    plans.push(LevelPlan::Fixed(dir));
                } else {
                    plans.push(LevelPlan::Refine);
                }
            }
            _ => {
                if config.prune_unused && level_unused(problem, k) {
                    plans.push(LevelPlan::Fixed(Direction::Any));
                } else {
                    plans.push(LevelPlan::Refine);
                }
            }
        }
        exprs.push(expr);
    }

    if config.separable {
        if let Some(analysis) = try_separable(
            &reduced.system,
            &plans,
            &exprs,
            &distance,
            config,
            counts,
            probe,
        ) {
            return analysis;
        }
    }

    // `exact` tracks the refinement only: even when the base (`*`) query
    // answered Unknown, the refined tests cover every direction
    // combination, so an all-independent refinement proves independence —
    // the paper's "implicit branch and bound" (Section 6, four cases).
    let mut state = Refiner {
        base_system: &reduced.system,
        plans: &plans,
        exprs: &exprs,
        config,
        counts,
        probe,
        vectors: Vec::new(),
        exact: true,
        current: vec![Direction::Any; levels],
        calls: 0,
    };
    let tree = state.refine(0, Vec::new());

    DirectionAnalysis {
        vectors: state.vectors,
        distance,
        exact: state.exact,
        tree,
    }
}

/// Union-find over `t`-variables, with variables that co-occur in a
/// constraint merged into one component.
fn components(system: &System) -> Vec<usize> {
    let n = system.num_vars;
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    for c in &system.constraints {
        let mut first = None;
        for (v, &a) in c.coeffs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            match first {
                None => first = Some(v),
                Some(f) => {
                    let (rf, rv) = (find(&mut parent, f), find(&mut parent, v));
                    parent[rf] = rv;
                }
            }
        }
    }
    (0..n).map(|v| find(&mut parent, v)).collect()
}

/// Attempts the dimension-by-dimension computation. Returns `None` when
/// the refinable levels are coupled (shared components) and the caller
/// must fall back to hierarchical refinement.
#[allow(clippy::too_many_arguments)]
fn try_separable<P: Probe>(
    system: &System,
    plans: &[LevelPlan],
    exprs: &[Option<(Vec<i64>, i64)>],
    distance: &DistanceVector,
    config: DirectionConfig,
    counts: &mut TestCounts,
    probe: &mut P,
) -> Option<DirectionAnalysis> {
    let comp = components(system);
    let refine_levels: Vec<usize> = plans
        .iter()
        .enumerate()
        .filter(|(_, p)| matches!(p, LevelPlan::Refine))
        .map(|(k, _)| k)
        .collect();

    // Component footprint of each refinable level; overlap disqualifies.
    let mut seen = std::collections::BTreeSet::new();
    let mut footprints = Vec::with_capacity(refine_levels.len());
    for &k in &refine_levels {
        let (coeffs, _) = exprs[k].as_ref()?;
        let mut fp = std::collections::BTreeSet::new();
        for (v, &a) in coeffs.iter().enumerate() {
            if a != 0 {
                fp.insert(comp[v]);
            }
        }
        for c in &fp {
            if !seen.insert(*c) {
                return None; // two levels share a component
            }
        }
        footprints.push(fp);
    }

    // Per-level feasible direction sets (3 tests per level).
    let mut per_level: Vec<Vec<Direction>> = Vec::with_capacity(refine_levels.len());
    let mut exact = true;
    for &k in &refine_levels {
        let (coeffs, c0) = exprs[k].as_ref().expect("checked above");
        let mut feasible = Vec::new();
        let mut branches: Vec<Option<DirTree>> = Vec::with_capacity(3);
        for dir in Direction::REFINED {
            let Some(new_cs) = direction_constraints(coeffs, *c0, dir) else {
                exact = false;
                feasible.push(dir); // conservative: keep untestable dirs
                branches.push(None);
                continue;
            };
            let mut sys = system.clone();
            for cst in new_cs {
                sys.push(cst);
            }
            let (out, refutation) =
                run_pipeline_collect(&sys, &config.pipeline, config.fm_limits, probe);
            counts.record(out.used, out.answer.is_independent());
            match out.answer {
                Answer::Independent => branches.push(refutation.map(DirTree::Refuted)),
                Answer::Dependent(_) => {
                    feasible.push(dir);
                    branches.push(None);
                }
                Answer::Unknown => {
                    exact = false;
                    feasible.push(dir);
                    branches.push(None);
                }
            }
        }
        if feasible.is_empty() {
            // All three directions at this level refuted: one split node
            // certifies independence of the whole system.
            let tree = match (branches.pop(), branches.pop(), branches.pop()) {
                (Some(Some(gt)), Some(Some(eq)), Some(Some(lt))) => Some(DirTree::Split {
                    level: k,
                    lt: Box::new(lt),
                    eq: Box::new(eq),
                    gt: Box::new(gt),
                }),
                _ => None,
            };
            return Some(DirectionAnalysis {
                vectors: Vec::new(),
                distance: distance.clone(),
                exact,
                tree,
            });
        }
        per_level.push(feasible);
    }

    // Cross product, with fixed levels interleaved.
    let mut vectors = vec![DirectionVector::any(plans.len())];
    for (k, plan) in plans.iter().enumerate() {
        let choices: Vec<Direction> = match plan {
            LevelPlan::Fixed(d) => vec![*d],
            LevelPlan::Refine => {
                let idx = refine_levels.iter().position(|&r| r == k).expect("refine");
                per_level[idx].clone()
            }
        };
        let mut next = Vec::with_capacity(vectors.len() * choices.len());
        for v in &vectors {
            for &d in &choices {
                let mut nv = v.clone();
                nv.0[k] = d;
                next.push(nv);
            }
        }
        vectors = next;
    }

    Some(DirectionAnalysis {
        vectors,
        distance: distance.clone(),
        exact,
        tree: None,
    })
}

struct Refiner<'a, P: Probe> {
    base_system: &'a System,
    plans: &'a [LevelPlan],
    exprs: &'a [Option<(Vec<i64>, i64)>],
    config: DirectionConfig,
    counts: &'a mut TestCounts,
    probe: &'a mut P,
    vectors: Vec<DirectionVector>,
    exact: bool,
    current: Vec<Direction>,
    /// Cascade calls so far, bounded by [`REFINE_BUDGET`].
    calls: u32,
}

impl<P: Probe> Refiner<'_, P> {
    /// Whether refinement must stop: the budget is spent, or a deadline
    /// is set and has passed.
    fn exhausted(&self) -> bool {
        self.calls >= REFINE_BUDGET || self.config.fm_limits.past_deadline()
    }

    /// Reports the subtree below `level` unrefined: `*` at every level
    /// left to test, the fixed directions kept.
    fn give_up_below(&mut self, level: usize) {
        self.exact = false;
        for (k, plan) in self.plans.iter().enumerate().skip(level) {
            self.current[k] = match plan {
                LevelPlan::Fixed(dir) => *dir,
                LevelPlan::Refine => Direction::Any,
            };
        }
        self.vectors
            .push(DirectionVector(self.current.as_slice().into()));
    }

    /// Refines from `level` down. Returns the refutation tree for this
    /// subtree when every direction branch below it was proven infeasible
    /// with checkable evidence — impossible once any vector is emitted —
    /// and `None` otherwise. Deeper splits may refute a branch whose own
    /// cascade answered `Dependent`/`Unknown`: the trichotomy at the
    /// deeper level still covers that branch's region.
    fn refine(&mut self, level: usize, extra: Vec<Constraint>) -> Option<DirTree> {
        if level == self.plans.len() {
            self.vectors
                .push(DirectionVector(self.current.as_slice().into()));
            return None;
        }
        match self.plans[level] {
            LevelPlan::Fixed(dir) => {
                self.current[level] = dir;
                self.refine(level + 1, extra)
            }
            LevelPlan::Refine => {
                if self.exhausted() {
                    self.give_up_below(level);
                    return None;
                }
                let mut branches: Vec<Option<DirTree>> = Vec::with_capacity(3);
                for dir in Direction::REFINED {
                    if self.exhausted() {
                        // Directions already tested at this level keep
                        // their answers; the rest stay unrefined.
                        self.current[level] = dir;
                        self.give_up_below(level + 1);
                        branches.push(None);
                        continue;
                    }
                    let Some((coeffs, c)) = &self.exprs[level] else {
                        // No distance expression (overflow): keep `*` and
                        // accept inexactness.
                        self.exact = false;
                        self.current[level] = Direction::Any;
                        self.refine(level + 1, extra.clone());
                        return None;
                    };
                    let Some(new_cs) = direction_constraints(coeffs, *c, dir) else {
                        self.exact = false;
                        branches.push(None);
                        continue;
                    };
                    let mut extended = extra.clone();
                    extended.extend(new_cs);
                    let mut sys = self.base_system.clone();
                    for cst in &extended {
                        sys.push(cst.clone());
                    }
                    let (out, refutation) = run_pipeline_collect(
                        &sys,
                        &self.config.pipeline,
                        self.config.fm_limits,
                        self.probe,
                    );
                    self.calls += 1;
                    self.counts.record(out.used, out.answer.is_independent());
                    match out.answer {
                        Answer::Independent => {
                            branches.push(refutation.map(DirTree::Refuted));
                        }
                        Answer::Dependent(_) => {
                            self.current[level] = dir;
                            branches.push(self.refine(level + 1, extended));
                        }
                        Answer::Unknown => {
                            self.exact = false;
                            self.current[level] = dir;
                            branches.push(self.refine(level + 1, extended));
                        }
                    }
                }
                match (branches.pop(), branches.pop(), branches.pop()) {
                    (Some(Some(gt)), Some(Some(eq)), Some(Some(lt))) => Some(DirTree::Split {
                        level,
                        lt: Box::new(lt),
                        eq: Box::new(eq),
                        gt: Box::new(gt),
                    }),
                    _ => None,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gcd::{gcd_preprocess, GcdOutcome};
    use crate::pipeline::{run_pipeline, NullProbe};
    use crate::problem::build_problem;
    use dda_ir::{extract_accesses, parse_program, reference_pairs};

    fn directions(src: &str, config: DirectionConfig) -> (DirectionAnalysis, TestCounts) {
        let p = parse_program(src).unwrap();
        let set = extract_accesses(&p);
        let pairs = reference_pairs(&set, false);
        assert_eq!(pairs.len(), 1);
        let problem = build_problem(pairs[0], true).unwrap();
        let GcdOutcome::Reduced(reduced) = gcd_preprocess(&problem).unwrap() else {
            panic!("GCD-independent: no directions to analyze");
        };
        let base = run_pipeline(
            &reduced.system,
            &PipelineConfig::full(),
            FmLimits::default(),
            &mut NullProbe,
        );
        assert!(!base.answer.is_independent(), "base must be dependent");
        let mut counts = TestCounts::default();
        let out = analyze_directions(&problem, &reduced, config, &mut counts, &mut NullProbe);
        (out, counts)
    }

    fn vecs(a: &DirectionAnalysis) -> Vec<String> {
        let mut v: Vec<String> = a.vectors.iter().map(ToString::to_string).collect();
        v.sort();
        v
    }

    #[test]
    fn forward_flow_dependence() {
        // a[i+1] = a[i]: i + 1 = i′ ⇒ distance 1, direction (<).
        let (out, counts) = directions(
            "for i = 1 to 10 { a[i + 1] = a[i] + 7; }",
            DirectionConfig::default(),
        );
        assert_eq!(vecs(&out), vec!["(<)"]);
        assert_eq!(out.distance.0[..], [Some(1)]);
        // Distance pruning: no tests at all.
        assert_eq!(counts.total(), 0);
        assert!(out.exact);
    }

    /// A coupled strided nest: each lower bound doubles the enclosing
    /// variable, so no level prunes.
    fn strided_nest(levels: usize) -> String {
        let mut src = String::new();
        for k in 0..levels {
            let lower = if k == 0 {
                "1".to_owned()
            } else {
                format!("v{0} + v{0}", k - 1)
            };
            src.push_str(&format!("for v{k} = {lower} to 9 step 2 {{ "));
        }
        let sum: Vec<String> = (0..levels).map(|k| format!("v{k}")).collect();
        let sum = sum.join(" + ");
        src.push_str(&format!("a[{sum}] = a[{sum}] + 1; "));
        src.push_str(&"} ".repeat(levels));
        src
    }

    #[test]
    fn refinement_stops_at_its_budget_with_star_vectors() {
        let mut p = parse_program(&strided_nest(12)).unwrap();
        dda_ir::passes::normalize(&mut p);
        let set = extract_accesses(&p);
        let pairs = reference_pairs(&set, false);
        let problem = build_problem(pairs[0], true).unwrap();
        let GcdOutcome::Reduced(reduced) = gcd_preprocess(&problem).unwrap() else {
            panic!("the nest is dependent");
        };
        let mut counts = TestCounts::default();
        let out = analyze_directions(
            &problem,
            &reduced,
            DirectionConfig::default(),
            &mut counts,
            &mut NullProbe,
        );
        assert_eq!(counts.total(), u64::from(REFINE_BUDGET));
        assert!(!out.exact, "an unrefined subtree is not exact");
        // The last vector is the unrefined rest: `*` below its level.
        let last = out.vectors.last().expect("dependent").to_string();
        assert!(last.ends_with(", *)"), "{last}");
        // Vectors are distinct prefixes of the hierarchy, so their count
        // is bounded by the cascades run plus one `*` subtree per level.
        assert!(out.vectors.len() <= REFINE_BUDGET as usize + 3 * 12);
    }

    #[test]
    fn same_iteration_dependence() {
        let (out, _) = directions(
            "for i = 1 to 10 { a[i] = a[i] + 7; }",
            DirectionConfig::default(),
        );
        assert_eq!(vecs(&out), vec!["(=)"]);
        assert_eq!(out.distance.0[..], [Some(0)]);
    }

    #[test]
    fn paper_section6_two_vector_example() {
        // for i, j: a[i][j] = a[2i][j]: the write at iteration i meets the
        // read at iteration i′ = i/2, so the raw relation is i ≥ i′. The
        // paper reports the same dependences normalized source→sink as
        // (<, =) and (=, *); we keep the raw (first-ref, second-ref)
        // orientation: (=, =) and (>, =).
        let cfg = DirectionConfig {
            prune_distance: false,
            prune_unused: false,
            ..DirectionConfig::default()
        };
        let (out, counts) = directions(
            "for i = 0 to 10 { for j = 0 to 10 { a[i][j] = a[2 * i][j] + 7; } }",
            cfg,
        );
        assert_eq!(vecs(&out), vec!["(=, =)", "(>, =)"]);
        assert!(counts.total() > 0);
    }

    #[test]
    fn distance_pruning_cuts_tests() {
        let no_prune = DirectionConfig {
            prune_distance: false,
            prune_unused: false,
            ..DirectionConfig::default()
        };
        let src = "for i = 1 to 10 { a[i + 3] = a[i] + 7; }";
        let (out1, c1) = directions(src, no_prune);
        let (out2, c2) = directions(src, DirectionConfig::default());
        assert_eq!(vecs(&out1), vecs(&out2));
        assert_eq!(vecs(&out2), vec!["(<)"]);
        assert!(c1.total() > c2.total());
        assert_eq!(c2.total(), 0);
    }

    #[test]
    fn unused_variable_pruning() {
        // The paper's Section 6 example shape: the outer index i appears
        // in no subscript and no bound, so its direction is `*` for free.
        let src = "for i = 1 to 10 { for j = 1 to 10 { a[j + 5] = a[j] + 3; } }";
        let pruned = DirectionConfig::default();
        let (out, counts) = directions(src, pruned);
        assert_eq!(vecs(&out), vec!["(*, <)"]);
        assert_eq!(counts.total(), 0); // unused i + distance-pruned j
        let unpruned = DirectionConfig {
            prune_unused: false,
            prune_distance: false,
            ..DirectionConfig::default()
        };
        let (out2, counts2) = directions(src, unpruned);
        // Without pruning, i expands into all three directions.
        assert_eq!(vecs(&out2), vec!["(<, <)", "(=, <)", "(>, <)"]);
        assert!(counts2.total() >= 6);
    }

    #[test]
    fn coupled_two_dimensional() {
        // a[i][j] = a[j][i]: dependence requires i = j′, j = i′.
        let (out, _) = directions(
            "for i = 1 to 4 { for j = 1 to 4 { a[i][j] = a[j][i] + 1; } }",
            DirectionConfig::default(),
        );
        // Vectors: (<, >) when i < j, (=, =) on the diagonal, (>, <).
        assert_eq!(vecs(&out), vec!["(<, >)", "(=, =)", "(>, <)"]);
        assert!(out.exact);
    }

    /// Separable mode must produce exactly the hierarchical vectors on
    /// separable systems, with fewer tests, and fall back cleanly on
    /// coupled ones.
    #[test]
    fn separable_equals_hierarchical() {
        let separable_srcs = [
            // i and j never interact: 3 + 3 tests instead of 3 + 3·k.
            "for i = 1 to 8 { for j = 1 to 8 { a[2 * i][2 * j] = a[i][j] + 1; } }",
            "for i = 1 to 8 { for j = 1 to 8 { a[i][j] = a[2 * i][j + 1] + 1; } }",
        ];
        for src in separable_srcs {
            let cfg_h = DirectionConfig {
                prune_distance: false,
                prune_unused: false,
                ..DirectionConfig::default()
            };
            let cfg_s = DirectionConfig {
                separable: true,
                ..cfg_h
            };
            let (out_h, counts_h) = directions(src, cfg_h);
            let (out_s, counts_s) = directions(src, cfg_s);
            assert_eq!(vecs(&out_h), vecs(&out_s), "{src}");
            assert_eq!(out_h.distance, out_s.distance);
            assert!(out_s.exact);
            assert!(
                counts_s.total() <= counts_h.total(),
                "{src}: separable {} vs hierarchical {}",
                counts_s.total(),
                counts_h.total()
            );
        }
        // Coupled case: the transpose — falls back, still identical.
        let src = "for i = 1 to 4 { for j = 1 to 4 { a[i][j] = a[j][i] + 1; } }";
        let cfg_s = DirectionConfig {
            separable: true,
            ..DirectionConfig::default()
        };
        let (out_h, _) = directions(src, DirectionConfig::default());
        let (out_s, _) = directions(src, cfg_s);
        assert_eq!(vecs(&out_h), vecs(&out_s));
    }

    #[test]
    fn implicit_branch_and_bound_upgrade() {
        // The Section 6 mechanism: even if the base (`*`) query could not
        // decide, refinement covers every direction combination, so an
        // all-independent, all-exact refinement proves independence. Feed
        // a problem that is genuinely infeasible and check the refinement
        // comes back empty and exact — the analyzer upgrades exactly when
        // it does.
        let p = parse_program("for i = 1 to 10 { a[i] = a[i + 20] + 1; }").unwrap();
        let set = extract_accesses(&p);
        let pairs = reference_pairs(&set, false);
        let problem = build_problem(pairs[0], true).unwrap();
        let GcdOutcome::Reduced(reduced) = gcd_preprocess(&problem).unwrap() else {
            panic!("reaches the cascade");
        };
        // (Pretend the base query returned Unknown; refinement does not
        // consult it.)
        let mut counts = TestCounts::default();
        let cfg = DirectionConfig {
            prune_distance: false, // force actual testing
            prune_unused: false,
            ..DirectionConfig::default()
        };
        let out = analyze_directions(&problem, &reduced, cfg, &mut counts, &mut NullProbe);
        assert!(out.vectors.is_empty());
        assert!(out.exact);
        assert!(counts.total() >= 1, "directions were actually tested");
    }

    #[test]
    fn refinement_can_prove_independence_of_every_vector() {
        // a[2i] vs a[2i + 2] with distance 1 in t: direction (<) only.
        let (out, _) = directions(
            "for i = 1 to 10 { a[2 * i + 2] = a[2 * i] + 1; }",
            DirectionConfig::default(),
        );
        assert_eq!(vecs(&out), vec!["(<)"]);
        assert_eq!(out.distance.0[..], [Some(1)]);
    }
}
