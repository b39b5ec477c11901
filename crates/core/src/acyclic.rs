//! The Acyclic test (Section 3.3).
//!
//! When a variable appears in multi-variable constraints with only one
//! sign, it is constrained in only one direction: pinning it to its scalar
//! bound on the blocked side (or discarding the constraints entirely when
//! it has no bound there) preserves satisfiability exactly. Repeating this
//! elimination corresponds to peeling leaves off the paper's signed
//! constraint graph; it decides the system completely exactly when that
//! graph is acyclic.
//!
//! Even when a cycle remains, every variable outside the cycle is
//! eliminated, shrinking the system handed to the Loop Residue and
//! Fourier–Motzkin tests — the paper calls this out explicitly.
//!
//! The implementation uses the substitution formulation the paper
//! recommends ("simply search for variables which are only constrained in
//! one direction and then set them"), and keeps an elimination [`Trace`]
//! so an exact witness can be reconstructed afterwards.

#![warn(clippy::arithmetic_side_effects)]

use dda_linalg::num;

use crate::certificate::{Rule, Trail};
use crate::svpc::first_empty_var;
use crate::system::{Constraint, VarBounds};

/// One elimination step, remembered for witness reconstruction.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    /// Variable pinned to a concrete value (its scalar bound on the
    /// blocked side).
    Fixed { var: usize, value: i64 },
    /// Variable only upper-bounded by multi-variable constraints and with
    /// no scalar lower bound: the constraints were discarded; the witness
    /// takes the minimum of their implied upper bounds (and the scalar
    /// upper bound, if any).
    DeferredLow {
        var: usize,
        constraints: Vec<Constraint>,
        ub: Option<i64>,
    },
    /// Mirror image of [`Event::DeferredLow`].
    DeferredHigh {
        var: usize,
        constraints: Vec<Constraint>,
        lb: Option<i64>,
    },
}

/// The elimination history of an Acyclic run.
///
/// After a later test produces values for the variables the Acyclic test
/// left active, [`Trace::complete`] overwrites the eliminated variables
/// with values that provably satisfy every discarded constraint.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    events: Vec<Event>,
}

impl Trace {
    /// Appends the events of `later`, a trace recorded *after* this one
    /// on the already-simplified system. [`Trace::complete`] walks events
    /// in reverse, so the later eliminations are (correctly) undone first.
    pub fn extend(&mut self, later: Trace) {
        self.events.extend(later.events);
    }

    /// Whether the trace records no eliminations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Overwrites the eliminated variables of `sample` (in reverse
    /// elimination order) with witness values.
    ///
    /// Returns `None` on arithmetic overflow.
    #[must_use]
    // i128-widened arithmetic over i64 inputs with a handful of terms:
    // the accumulator cannot reach the i128 boundary.
    #[allow(clippy::arithmetic_side_effects)]
    pub fn complete(&self, sample: &mut [i64]) -> Option<()> {
        for e in self.events.iter().rev() {
            match e {
                Event::Fixed { var, value } => sample[*var] = *value,
                Event::DeferredLow {
                    var,
                    constraints,
                    ub,
                } => {
                    let mut best = ub.map(i128::from);
                    for c in constraints {
                        let a = c.coeffs[*var];
                        debug_assert!(a > 0);
                        let mut rest = i128::from(c.rhs);
                        for (j, &aj) in c.coeffs.iter().enumerate() {
                            if j != *var && aj != 0 {
                                rest -= i128::from(aj) * i128::from(sample[j]);
                            }
                        }
                        let bound = rest.div_euclid(i128::from(a));
                        best = Some(best.map_or(bound, |b| b.min(bound)));
                    }
                    sample[*var] = i64::try_from(best?).ok()?;
                }
                Event::DeferredHigh {
                    var,
                    constraints,
                    lb,
                } => {
                    let mut best = lb.map(i128::from);
                    for c in constraints {
                        let a = c.coeffs[*var];
                        debug_assert!(a < 0);
                        let mut rest = i128::from(c.rhs);
                        for (j, &aj) in c.coeffs.iter().enumerate() {
                            if j != *var && aj != 0 {
                                rest -= i128::from(aj) * i128::from(sample[j]);
                            }
                        }
                        // a·t ≤ rest with a < 0  ⇒  t ≥ ⌈rest/a⌉.
                        let bound = -rest.div_euclid(i128::from(-a));
                        best = Some(best.map_or(bound, |b| b.max(bound)));
                    }
                    sample[*var] = i64::try_from(best?).ok()?;
                }
            }
        }
        Some(())
    }
}

/// Outcome of the Acyclic test.
// Boxing the `Stuck` payload would put a heap allocation back on the hot
// path that the inline-storage refactor removed; the enum lives briefly on
// the stack inside the cascade, so the size skew is harmless.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcyclicOutcome {
    /// A contradiction surfaced during elimination: independent (exact).
    Infeasible,
    /// Every variable was eliminated or free: dependent (exact), with a
    /// full witness.
    Complete {
        /// A satisfying assignment of all variables.
        sample: Vec<i64>,
    },
    /// A cycle remains. `bounds`/`residual` describe the simplified
    /// system over the still-active variables; `trace` reconstructs the
    /// eliminated ones once the active ones are known.
    Stuck {
        /// Tightened scalar bounds.
        bounds: VarBounds,
        /// Remaining multi-variable constraints.
        residual: Vec<Constraint>,
        /// Elimination history.
        trace: Trace,
    },
}

/// Signs with which a variable occurs in the residual constraints.
fn occurrence_signs(residual: &[Constraint], v: usize) -> (bool, bool) {
    let mut pos = false;
    let mut neg = false;
    for c in residual {
        match c.coeffs[v].cmp(&0) {
            std::cmp::Ordering::Greater => pos = true,
            std::cmp::Ordering::Less => neg = true,
            std::cmp::Ordering::Equal => {}
        }
    }
    (pos, neg)
}

/// Folds trivial and single-variable constraints of `residual` into
/// `bounds`; returns `false` on contradiction.
///
/// `trail.row_step` mirrors `residual` (including `swap_remove`s), and
/// each contradiction seals the trail: a violated trivial row directly,
/// an empty scalar range via the sum of its two bound rows.
// The only unchecked op is a usize scan index bounded by `residual.len()`.
#[allow(clippy::arithmetic_side_effects)]
fn absorb_simple(
    bounds: &mut VarBounds,
    residual: &mut Vec<Constraint>,
    trail: &mut Trail,
) -> bool {
    let mut i = 0;
    while i < residual.len() {
        let c = &mut residual[i];
        let g = num::gcd_slice(&c.coeffs);
        c.normalize();
        if g > 1 {
            trail.row_step[i] = trail.push(Rule::Div {
                of: trail.row_step[i],
                d: g,
            });
        }
        if c.is_trivial() {
            if !c.trivially_satisfied() {
                trail.seal = Some(trail.row_step[i]);
                return false;
            }
            residual.swap_remove(i);
            trail.row_step.swap_remove(i);
            continue;
        }
        if let Some(v) = c.single_var() {
            // Normalized single-variable rows have coefficient ±1, so the
            // row itself is the bound row `v ≤ q` / `−v ≤ −q`.
            let a = c.coeffs[v];
            let step = trail.row_step[i];
            let absorbed = if a > 0 {
                num::checked_div_floor(c.rhs, a).map(|q| {
                    let old = bounds.ub[v];
                    bounds.tighten_ub(v, q);
                    if bounds.ub[v] != old {
                        trail.ub_step[v] = Some(step);
                    }
                })
            } else {
                num::checked_div_ceil(c.rhs, a).map(|q| {
                    let old = bounds.lb[v];
                    bounds.tighten_lb(v, q);
                    if bounds.lb[v] != old {
                        trail.lb_step[v] = Some(step);
                    }
                })
            };
            // On quotient overflow the constraint stays in the residual;
            // elimination or a later test handles it exactly.
            if absorbed.is_some() {
                residual.swap_remove(i);
                trail.row_step.swap_remove(i);
                continue;
            }
        }
        i += 1;
    }
    if let Some(v) = first_empty_var(bounds) {
        match (trail.ub_step[v], trail.lb_step[v]) {
            // `v ≤ u` plus `−v ≤ −l` sums to `0 ≤ u − l < 0`.
            (Some(ub), Some(lb)) => {
                trail.seal = Some(trail.push(Rule::Comb {
                    a: ub,
                    ca: 1,
                    b: lb,
                    cb: 1,
                }));
            }
            _ => trail.ok = false,
        }
        return false;
    }
    true
}

/// Runs the Acyclic test.
///
/// `bounds` and `residual` come from the SVPC pass ([`crate::svpc::svpc`]).
///
/// # Examples
///
/// The paper's Section 3.3 example: `t1 + t2 − t3 ≤ 0`, `−t1 − t2 + t3 ≤ 0`
/// (an equality in disguise would cycle, so take the acyclic variant):
/// `t2` is only lower-bounded scalar-wise and only upper-bounds others, so
/// elimination succeeds.
///
/// ```
/// use dda_core::system::{Constraint, VarBounds};
/// use dda_core::acyclic::{acyclic, AcyclicOutcome};
///
/// // t1 - t2 ≤ 0 and t2 - t3 ≤ -1, with 1 ≤ t1 ≤ 10, 0 ≤ t3 ≤ 4.
/// let mut bounds = VarBounds::unbounded(3);
/// bounds.tighten_lb(0, 1);
/// bounds.tighten_ub(0, 10);
/// bounds.tighten_lb(2, 0);
/// bounds.tighten_ub(2, 4);
/// let residual = vec![
///     Constraint::new(vec![1, -1, 0], 0),
///     Constraint::new(vec![0, 1, -1], -1),
/// ];
/// let AcyclicOutcome::Complete { sample } = acyclic(&bounds, &residual) else {
///     panic!("expected complete");
/// };
/// assert!(sample[0] <= sample[1] && sample[1] <= sample[2] - 1);
/// ```
#[must_use]
pub fn acyclic(bounds: &VarBounds, residual: &[Constraint]) -> AcyclicOutcome {
    let mut trail = Trail::for_rows(bounds.len(), residual);
    acyclic_into(bounds, residual, &mut trail)
}

/// The trail-threaded form of [`acyclic`]: `trail.row_step` must mirror
/// `residual` on entry (and the bound steps any bounds already absorbed);
/// on `Infeasible` the trail is sealed when accountable.
pub(crate) fn acyclic_into(
    bounds: &VarBounds,
    residual: &[Constraint],
    trail: &mut Trail,
) -> AcyclicOutcome {
    let n = bounds.len();
    let mut bounds = bounds.clone();
    let mut residual = residual.to_vec();
    let mut trace = Trace::default();
    let mut eliminated = vec![false; n];

    loop {
        if !absorb_simple(&mut bounds, &mut residual, trail) {
            return AcyclicOutcome::Infeasible;
        }
        if residual.is_empty() {
            // All multi-variable constraints resolved: assign remaining
            // variables inside their (consistent) scalar ranges and let
            // the trace rebuild the eliminated ones.
            let mut sample: Vec<i64> = (0..n)
                .map(|v| if eliminated[v] { 0 } else { bounds.pick(v) })
                .collect();
            match trace.complete(&mut sample) {
                Some(()) => return AcyclicOutcome::Complete { sample },
                None => {
                    return AcyclicOutcome::Stuck {
                        bounds,
                        residual,
                        trace,
                    }
                }
            }
        }

        // Find a variable constrained in only one direction.
        let mut progressed = false;
        #[allow(clippy::needless_range_loop)] // v indexes bounds and eliminated
        for v in 0..n {
            if eliminated[v] {
                continue;
            }
            let (pos, neg) = occurrence_signs(&residual, v);
            if pos == neg {
                continue; // absent (false, false) or cyclic (true, true)
            }
            eliminated[v] = true;
            progressed = true;
            if pos {
                // Only upper-bounded by the residual: push v down.
                match bounds.lb[v] {
                    Some(l) => {
                        let affected: Vec<(usize, i64)> = residual
                            .iter()
                            .enumerate()
                            .filter(|(_, c)| c.coeffs[v] != 0)
                            .map(|(i, c)| (i, c.coeffs[v]))
                            .collect();
                        if !substitute(&mut residual, v, l) {
                            trail.ok = false;
                            return AcyclicOutcome::Stuck {
                                bounds,
                                residual,
                                trace,
                            };
                        }
                        // Each substituted row is row + a·(−v ≤ −l): the v
                        // term cancels and the rhs becomes c − a·l.
                        for (i, a) in affected {
                            match trail.lb_step[v] {
                                Some(lb) => {
                                    trail.row_step[i] = trail.push(Rule::Comb {
                                        a: trail.row_step[i],
                                        ca: 1,
                                        b: lb,
                                        cb: a,
                                    });
                                }
                                None => trail.ok = false,
                            }
                        }
                        trace.events.push(Event::Fixed { var: v, value: l });
                    }
                    None => {
                        let (with_v, rest): (Vec<Constraint>, Vec<Constraint>) =
                            residual.iter().cloned().partition(|c| c.coeffs[v] != 0);
                        // Dropping rows only weakens the system; drop the
                        // corresponding steps with them.
                        trail.row_step = residual
                            .iter()
                            .zip(&trail.row_step)
                            .filter(|(c, _)| c.coeffs[v] == 0)
                            .map(|(_, &s)| s)
                            .collect();
                        residual = rest;
                        trace.events.push(Event::DeferredLow {
                            var: v,
                            constraints: with_v,
                            ub: bounds.ub[v],
                        });
                    }
                }
            } else {
                // Only lower-bounded by the residual: push v up.
                match bounds.ub[v] {
                    Some(u) => {
                        let affected: Vec<(usize, i64)> = residual
                            .iter()
                            .enumerate()
                            .filter(|(_, c)| c.coeffs[v] != 0)
                            .map(|(i, c)| (i, c.coeffs[v]))
                            .collect();
                        if !substitute(&mut residual, v, u) {
                            trail.ok = false;
                            return AcyclicOutcome::Stuck {
                                bounds,
                                residual,
                                trace,
                            };
                        }
                        // Here a < 0: row + (−a)·(v ≤ u) cancels the v term
                        // and the rhs becomes c − a·u.
                        for (i, a) in affected {
                            match (trail.ub_step[v], a.checked_neg()) {
                                (Some(ub), Some(na)) => {
                                    trail.row_step[i] = trail.push(Rule::Comb {
                                        a: trail.row_step[i],
                                        ca: 1,
                                        b: ub,
                                        cb: na,
                                    });
                                }
                                _ => trail.ok = false,
                            }
                        }
                        trace.events.push(Event::Fixed { var: v, value: u });
                    }
                    None => {
                        let (with_v, rest): (Vec<Constraint>, Vec<Constraint>) =
                            residual.iter().cloned().partition(|c| c.coeffs[v] != 0);
                        trail.row_step = residual
                            .iter()
                            .zip(&trail.row_step)
                            .filter(|(c, _)| c.coeffs[v] == 0)
                            .map(|(_, &s)| s)
                            .collect();
                        residual = rest;
                        trace.events.push(Event::DeferredHigh {
                            var: v,
                            constraints: with_v,
                            lb: bounds.lb[v],
                        });
                    }
                }
            }
            break;
        }
        if !progressed {
            return AcyclicOutcome::Stuck {
                bounds,
                residual,
                trace,
            };
        }
    }
}

/// Substitutes `t_v = value` into every constraint; returns `false` on
/// overflow (caller falls back to "stuck").
fn substitute(residual: &mut [Constraint], v: usize, value: i64) -> bool {
    for c in residual.iter_mut() {
        let a = c.coeffs[v];
        if a == 0 {
            continue;
        }
        let Some(delta) = a.checked_mul(value) else {
            return false;
        };
        let Some(rhs) = c.rhs.checked_sub(delta) else {
            return false;
        };
        c.rhs = rhs;
        c.coeffs[v] = 0;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svpc::{svpc, SvpcOutcome};
    use crate::system::System;

    fn run(rows: &[(&[i64], i64)]) -> AcyclicOutcome {
        let n = rows.first().map_or(0, |(c, _)| c.len());
        let mut s = System::new(n);
        for (coeffs, rhs) in rows {
            s.push(Constraint::new(coeffs.to_vec(), *rhs));
        }
        match svpc(&s) {
            SvpcOutcome::Infeasible => AcyclicOutcome::Infeasible,
            SvpcOutcome::Complete { sample } => AcyclicOutcome::Complete { sample },
            SvpcOutcome::Partial { bounds, residual } => acyclic(&bounds, &residual),
        }
    }

    fn assert_sample_satisfies(rows: &[(&[i64], i64)], outcome: &AcyclicOutcome) {
        let AcyclicOutcome::Complete { sample } = outcome else {
            panic!("expected complete, got {outcome:?}");
        };
        let n = rows.first().map_or(0, |(c, _)| c.len());
        let mut s = System::new(n);
        for (coeffs, rhs) in rows {
            s.push(Constraint::new(coeffs.to_vec(), *rhs));
        }
        assert!(
            s.is_satisfied_by(sample).unwrap(),
            "witness {sample:?} violates system"
        );
    }

    #[test]
    fn paper_section_3_3_example() {
        // The paper's worked example eliminates t2 at its lower bound 1,
        // then t1 at its lower bound, leaving 0 ≤ t3 ≤ 4: dependent.
        // System (a rendering of the example's shape):
        //   t1 + t2 - t3 ≤ 0, 1 ≤ t1 ≤ 10, 1 ≤ t2, 0 ≤ t3 ≤ 4? — the text
        // elides exact constants, so we check behaviour, not literals.
        let rows: &[(&[i64], i64)] = &[
            (&[1, 1, -1], 0),
            (&[-1, 0, 0], -1),
            (&[1, 0, 0], 10),
            (&[0, -1, 0], -1),
            (&[0, 0, 1], 4),
            (&[0, 0, -1], 0),
        ];
        let out = run(rows);
        assert_sample_satisfies(rows, &out);
    }

    #[test]
    fn infeasible_after_substitution() {
        // t1 + t2 ≤ 0 with t1 ≥ 5, t2 ≥ 5: setting both to their lower
        // bounds exposes 10 ≤ 0.
        let rows: &[(&[i64], i64)] = &[(&[1, 1], 0), (&[-1, 0], -5), (&[0, -1], -5)];
        assert_eq!(run(rows), AcyclicOutcome::Infeasible);
    }

    #[test]
    fn deferred_low_variable_without_lower_bound() {
        // t0 only upper-bounded (t0 ≤ t1) and no scalar lb: discard, then
        // t1 free in [1, 3].
        let rows: &[(&[i64], i64)] = &[(&[1, -1], 0), (&[0, -1], -1), (&[0, 1], 3)];
        let out = run(rows);
        assert_sample_satisfies(rows, &out);
    }

    #[test]
    fn deferred_high_variable_without_upper_bound() {
        // t0 ≥ t1 + 2 with t1 ∈ [0, 5]: t0 deferred high.
        let rows: &[(&[i64], i64)] = &[(&[-1, 1], -2), (&[0, -1], 0), (&[0, 1], 5)];
        let out = run(rows);
        assert_sample_satisfies(rows, &out);
    }

    #[test]
    fn equality_cycle_gets_stuck() {
        // t0 = t1 written as two inequalities: both vars occur with both
        // signs — exactly the cycle the paper says needs GCD preprocessing
        // or the Loop Residue test.
        let rows: &[(&[i64], i64)] = &[(&[1, -1], 0), (&[-1, 1], 0)];
        let out = run(rows);
        assert!(matches!(out, AcyclicOutcome::Stuck { .. }), "{out:?}");
    }

    #[test]
    fn stuck_still_simplifies_outside_cycle() {
        // A cycle between t0, t1 plus a chained t2 that can be eliminated:
        // t2 ≤ t0 (one direction only).
        let rows: &[(&[i64], i64)] = &[(&[1, -1, 0], 0), (&[-1, 1, 0], 0), (&[-1, 0, 1], 0)];
        let AcyclicOutcome::Stuck {
            residual, trace, ..
        } = run(rows)
        else {
            panic!("expected stuck");
        };
        assert_eq!(residual.len(), 2, "cycle constraints remain");
        assert!(matches!(
            trace.events[..],
            [Event::Fixed { var: 2, .. }
                | Event::DeferredLow { var: 2, .. }
                | Event::DeferredHigh { var: 2, .. }]
        ));
    }

    #[test]
    fn chain_of_three_resolves() {
        // t0 ≤ t1 ≤ t2 with 1 ≤ t0, t2 ≤ 10.
        let rows: &[(&[i64], i64)] = &[
            (&[1, -1, 0], 0),
            (&[0, 1, -1], 0),
            (&[-1, 0, 0], -1),
            (&[0, 0, 1], 10),
        ];
        let out = run(rows);
        assert_sample_satisfies(rows, &out);
    }

    #[test]
    fn chain_of_three_infeasible() {
        // 11 ≤ t0 ≤ t1 ≤ t2 ≤ 10.
        let rows: &[(&[i64], i64)] = &[
            (&[1, -1, 0], 0),
            (&[0, 1, -1], 0),
            (&[-1, 0, 0], -11),
            (&[0, 0, 1], 10),
        ];
        assert_eq!(run(rows), AcyclicOutcome::Infeasible);
    }

    #[test]
    fn scaled_coefficients() {
        // 2t0 + 3t1 ≤ 12, t0 ≥ 1, t1 ≥ 2: fix t0=1, t1=2: 8 ≤ 12 ok.
        let rows: &[(&[i64], i64)] = &[(&[2, 3], 12), (&[-1, 0], -1), (&[0, -1], -2)];
        let out = run(rows);
        assert_sample_satisfies(rows, &out);
        // Tighten: t1 ≥ 4 makes 2+12 > 12: infeasible.
        let rows2: &[(&[i64], i64)] = &[(&[2, 3], 12), (&[-1, 0], -1), (&[0, -1], -4)];
        assert_eq!(run(rows2), AcyclicOutcome::Infeasible);
    }

    #[test]
    fn trace_completion_respects_discarded_constraints() {
        // t0 ≤ t1 and t0 ≤ -t1 + 3 (t0 positive in both), no lb on t0.
        // t1 bounded [2, 2]. After deferring t0 and fixing t1 = 2, the
        // witness must satisfy t0 ≤ 2 and t0 ≤ 1 → t0 = 1.
        let rows: &[(&[i64], i64)] = &[(&[1, -1], 0), (&[1, 1], 3), (&[0, -1], -2), (&[0, 1], 2)];
        let out = run(rows);
        let AcyclicOutcome::Complete { sample } = &out else {
            panic!("expected complete: {out:?}");
        };
        assert_eq!(sample[1], 2);
        assert_eq!(sample[0], 1);
    }
}
