//! Human-readable explanations of a pair's analysis — the paper's worked
//! examples, generated for arbitrary input.
//!
//! Compiler engineers debugging a surprising serialization need to see
//! *why*: which equality system was built, what the extended GCD did to
//! it, which test of the cascade decided, and what the direction
//! refinement concluded. [`explain_pair_with`] runs the *same* probed
//! pipeline the analyzer runs — honoring the caller's
//! [`AnalyzerConfig`] (Fourier–Motzkin limits, test order) — records the
//! [`TraceEvent`] stream, and renders it. Nothing here mutates analyzer
//! state or memo tables.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt::Write as _;

use dda_ir::RefPair;

use crate::analyzer::AnalyzerConfig;
use crate::gcd::{solve_equalities, EqOutcome};
use crate::pipeline::{RecordingProbe, StageVerdict, TraceEvent};
use crate::problem::{build_problem, constant_compare, XVar};
use crate::steps::{self, ReduceEffects};

/// Formats one linear row over the problem's variables.
fn linear(vars: &[XVar], coeffs: &[i64]) -> String {
    let mut s = String::new();
    for (name, &c) in vars.iter().zip(coeffs) {
        if c == 0 {
            continue;
        }
        let _ = if s.is_empty() {
            match c {
                1 => write!(s, "{name}"),
                -1 => write!(s, "-{name}"),
                _ => write!(s, "{c}*{name}"),
            }
        } else if c > 0 {
            if c == 1 {
                write!(s, " + {name}")
            } else {
                write!(s, " + {c}*{name}")
            }
        } else if c == -1 {
            write!(s, " - {name}")
        } else {
            write!(s, " - {}*{name}", -c)
        };
    }
    if s.is_empty() {
        s.push('0');
    }
    s
}

/// Produces a step-by-step narration of the analysis of one pair, with
/// the default configuration (plus the given symbolic-support flag).
///
/// # Examples
///
/// ```
/// use dda_core::explain::explain_pair;
/// use dda_ir::{extract_accesses, parse_program, reference_pairs};
///
/// let p = parse_program("for i = 1 to 10 { a[i] = a[i + 10]; }")?;
/// let set = extract_accesses(&p);
/// let pairs = reference_pairs(&set, false);
/// let text = explain_pair(pairs[0], true);
/// assert!(text.contains("extended GCD"));
/// assert!(text.contains("INDEPENDENT"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn explain_pair(pair: RefPair<'_>, symbolic: bool) -> String {
    let config = AnalyzerConfig {
        symbolic,
        ..AnalyzerConfig::default()
    };
    explain_pair_with(&config, pair)
}

/// Produces a step-by-step narration of the analysis of one pair under an
/// explicit configuration.
///
/// The narration and the analyzer agree by construction: both run
/// [`steps::analyze_reduced_probed`] with the same configuration, so an
/// analyzer that gives up at its Fourier–Motzkin limits is *explained* as
/// giving up — it does not silently re-run with different limits.
#[must_use]
pub fn explain_pair_with(config: &AnalyzerConfig, pair: RefPair<'_>) -> String {
    let RefPair { a, b, common, set } = pair;
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(
        w,
        "pair: {}  vs  {}  ({common} common loop(s))",
        a.display(set),
        b.display(set)
    );

    if let Some(dependent) = constant_compare(pair) {
        let _ = writeln!(
            w,
            "constant subscripts: compared directly -> {}",
            if dependent {
                "DEPENDENT (same element every time)"
            } else {
                "INDEPENDENT (different elements)"
            }
        );
        return out;
    }
    let problem = match build_problem(pair, config.symbolic) {
        Ok(p) => p,
        Err(e) => {
            let _ = writeln!(w, "cannot build an affine system ({e}): ASSUMED dependent");
            return out;
        }
    };

    let vars = problem.vars(set);
    let _ = writeln!(
        w,
        "variables: {}",
        vars.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(w, "subscript equations:");
    for (row, rhs) in problem.equations() {
        let _ = writeln!(w, "    {} = {rhs}", linear(&vars, row));
    }
    let _ = writeln!(w, "loop-bound constraints:");
    for (row, rhs) in problem.bounds() {
        let _ = writeln!(w, "    {} <= {rhs}", linear(&vars, row));
    }

    let lattice = match solve_equalities(&problem) {
        None => {
            let _ = writeln!(w, "extended GCD: arithmetic overflow -> ASSUMED dependent");
            return out;
        }
        Some(EqOutcome::Independent { .. }) => {
            let _ = writeln!(
                w,
                "extended GCD: the equality system has no integer solution \
                 -> INDEPENDENT (bounds not needed)"
            );
            return out;
        }
        Some(EqOutcome::Lattice(l)) => l,
    };

    // Run the analyzer's own compute path with a recording probe, then
    // narrate the event stream.
    let mut probe = RecordingProbe::default();
    let mut fx = ReduceEffects::default();
    let template = steps::pair_template(pair);
    let _report =
        steps::analyze_reduced_probed(config, &problem, &lattice, template, &mut fx, &mut probe);

    let mut in_refinement = false;
    let mut base_decided = false;
    let mut saw_reduced = false;
    for event in &probe.events {
        match event {
            TraceEvent::ReduceOverflow => {
                let _ = writeln!(w, "extended GCD: arithmetic overflow -> ASSUMED dependent");
                return out;
            }
            TraceEvent::Reduced { free_vars, system } => {
                saw_reduced = true;
                let _ = writeln!(
                    w,
                    "extended GCD: solutions form a lattice over {free_vars} free variable(s); \
                     bounds become:"
                );
                for c in &system.constraints {
                    let _ = writeln!(w, "    {c}");
                }
            }
            TraceEvent::Stage { test, verdict, .. } if !in_refinement => match verdict {
                StageVerdict::Independent => {
                    base_decided = true;
                    let _ = writeln!(w, "cascade: {test} proves INDEPENDENT");
                }
                StageVerdict::Dependent => {
                    base_decided = true;
                    let _ = writeln!(w, "cascade: {test} proves DEPENDENT");
                }
                StageVerdict::Unknown => {
                    base_decided = true;
                    let _ = writeln!(
                        w,
                        "cascade: {test} hit its effort limits -> ASSUMED dependent"
                    );
                }
                StageVerdict::Pass => {}
            },
            TraceEvent::Witness { x } => {
                let pairs: Vec<String> = vars
                    .iter()
                    .zip(x)
                    .map(|(v, val)| format!("{v} = {val}"))
                    .collect();
                let _ = writeln!(w, "    witness: {}", pairs.join(", "));
            }
            TraceEvent::RefinementStarted => {
                if !base_decided {
                    // Every configured test passed without deciding (or
                    // none was configured): the base query is assumed.
                    let _ = writeln!(w, "cascade: no test decided -> ASSUMED dependent");
                    base_decided = true;
                }
                in_refinement = true;
            }
            TraceEvent::Directions {
                vectors,
                distance,
                tests,
                ..
            } => {
                let _ = writeln!(w, "distance vector: {distance}");
                if vectors.is_empty() {
                    let _ = writeln!(
                        w,
                        "direction refinement: every direction independent -> INDEPENDENT \
                         (implicit branch and bound)"
                    );
                } else {
                    let vecs: Vec<String> = vectors.iter().map(ToString::to_string).collect();
                    let _ = writeln!(
                        w,
                        "direction vectors: {}   ({tests} refinement test(s))",
                        vecs.join(" ")
                    );
                }
            }
            _ => {}
        }
    }
    if saw_reduced && !base_decided {
        let _ = writeln!(w, "cascade: no test decided -> ASSUMED dependent");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::DependenceAnalyzer;
    use crate::fourier_motzkin::FmLimits;
    use crate::result::Answer;
    use dda_ir::{extract_accesses, parse_program, reference_pairs};

    fn explain(src: &str) -> String {
        let p = parse_program(src).unwrap();
        let set = extract_accesses(&p);
        let pairs = reference_pairs(&set, false);
        explain_pair(pairs[0], true)
    }

    #[test]
    fn narrates_gcd_independence() {
        let text = explain("for i = 1 to 10 { a[2 * i] = a[2 * i + 1]; }");
        assert!(text.contains("no integer solution"), "{text}");
        assert!(text.contains("INDEPENDENT"), "{text}");
    }

    #[test]
    fn narrates_cascade_and_directions() {
        let text = explain("for i = 1 to 10 { a[i + 1] = a[i]; }");
        assert!(text.contains("SVPC proves DEPENDENT"), "{text}");
        assert!(text.contains("witness:"), "{text}");
        assert!(text.contains("direction vectors: (<)"), "{text}");
        assert!(text.contains("distance vector: (1)"), "{text}");
    }

    #[test]
    fn narrates_constant_pairs() {
        let text = explain("for i = 1 to 10 { a[3] = a[4]; }");
        assert!(text.contains("compared directly"), "{text}");
    }

    #[test]
    fn narrates_nonaffine() {
        let text = explain("for i = 1 to 10 { a[i * i] = a[i]; }");
        assert!(text.contains("ASSUMED dependent"), "{text}");
    }

    #[test]
    fn shows_equations_with_variable_names() {
        let text =
            explain("for i1 = 1 to 10 { for i2 = 1 to 10 { a[i1][i2] = a[i2 + 10][i1 + 9]; } }");
        assert!(text.contains("i0 - i1' = 10"), "{text}");
        assert!(text.contains("i1 - i0' = 9"), "{text}");
    }

    /// The regression the refactor fixes: `explain` used to re-run the
    /// cascade with *default* FM limits, so a pair the analyzer assumed
    /// (limits hit) was narrated as exactly decided. Now both run the
    /// same configured pipeline and must agree.
    #[test]
    fn explain_agrees_with_analyzer_at_fm_limits() {
        // Needs FM: coupled unequal-magnitude coefficients survive the
        // cheap tests; a depth-0 branch limit then forces FM to give up.
        let src = "for i = 1 to 6 { for j = 1 to 6 {
            a[2 * i + j] = a[i + 2 * j + 1] + 1;
        } }";
        let program = parse_program(src).unwrap();
        let set = extract_accesses(&program);
        let pairs = reference_pairs(&set, false);
        let tight = AnalyzerConfig {
            fm_limits: FmLimits {
                max_constraints: 1,
                max_branch_depth: 0,
                deadline: None,
            },
            ..AnalyzerConfig::default()
        };

        let mut analyzer = DependenceAnalyzer::with_config(tight);
        let report = analyzer.analyze_pair(pairs[0]);
        assert_eq!(report.result.answer, Answer::Unknown, "{:?}", report.result);

        let text = explain_pair_with(&tight, pairs[0]);
        assert!(text.contains("hit its effort limits"), "{text}");

        // With default limits both decide exactly — and say so.
        let default_text = explain_pair(pairs[0], true);
        assert!(
            !default_text.contains("hit its effort limits"),
            "{default_text}"
        );
    }
}
