//! Differential suite: certified verdicts vs. the inexact baselines.
//!
//! The Section 7 baselines (simple GCD, Banerjee, Wolfe's direction
//! extension) are *conservative*: they may fail to prove independence,
//! but an independence they do prove — and a direction they do rule out —
//! is claimed sound. The exact analyzer makes the mirrored claim with
//! evidence attached. Run both over the corpus and the synthetic PERFECT
//! suite and the two soundness claims must never collide:
//!
//! - a pair the baselines prove independent must not carry a
//!   kernel-verified dependence witness;
//! - an exact (kernel-verified) direction vector must survive Wolfe's
//!   pruning.
//!
//! Any collision is auto-minimized with the engine's greedy statement
//! shrinker and dumped to a `.loop` reproducer before failing, so the bug
//! is a one-file repro away.

use dda::baselines::{analyze_with_baselines, BaselineReport};
use dda::check::{check_program, CheckOutcome};
use dda::core::{Certificate, DependenceAnalyzer, Direction};
use dda::engine::minimize_program;
use dda::ir::{parse_program, passes, Program};

/// Whether the exact vector (no `*` components) is covered by some
/// baseline vector (whose `*` matches anything).
fn covered(exact: &[Direction], baseline: &[Vec<Direction>]) -> bool {
    baseline.iter().any(|b| {
        b.len() == exact.len()
            && b.iter()
                .zip(exact)
                .all(|(bd, ed)| *bd == Direction::Any || bd == ed)
    })
}

/// Runs analyzer + kernel + baselines over one program and reports the
/// first soundness collision, if any.
fn first_conflict(program: &Program) -> Option<String> {
    let report = DependenceAnalyzer::new().analyze_program(program);
    let outcomes = check_program(program, false, &report).ok()?;
    let baseline: BaselineReport = analyze_with_baselines(program, true);
    if baseline.pairs.len() != report.pairs().len() {
        return Some(format!(
            "pair universes diverge: baselines saw {}, analyzer saw {}",
            baseline.pairs.len(),
            report.pairs().len()
        ));
    }
    for ((pair, outcome), base) in report.pairs().iter().zip(&outcomes).zip(&baseline.pairs) {
        let certified_dependent = matches!(outcome, CheckOutcome::Verified)
            && matches!(
                pair.certificate,
                Certificate::Witness { .. } | Certificate::ConstantsEqual
            );
        if base.independent && certified_dependent {
            return Some(format!(
                "{} #{} vs #{}: baseline proves independence but the kernel \
                 verified a dependence witness ({:?})",
                pair.array, pair.a_access, pair.b_access, pair.certificate
            ));
        }
        if !base.independent && certified_dependent && !base.direction_vectors.is_empty() {
            for v in &pair.direction_vectors {
                if v.0.contains(&Direction::Any) {
                    continue; // only fully exact vectors are claims
                }
                let base_vecs: Vec<Vec<Direction>> = base
                    .direction_vectors
                    .iter()
                    .map(|b| b.0.to_vec())
                    .collect();
                if !covered(&v.0, &base_vecs) {
                    return Some(format!(
                        "{} #{} vs #{}: exact direction vector {v} was pruned \
                         by Wolfe's baseline ({:?})",
                        pair.array, pair.a_access, pair.b_access, base.direction_vectors
                    ));
                }
            }
        }
    }
    None
}

/// On a collision: shrink the program to the smallest statement set that
/// still collides, dump it next to the test artifacts, and panic with the
/// repro path.
fn assert_no_conflict(name: &str, program: &Program) {
    let Some(conflict) = first_conflict(program) else {
        return;
    };
    let minimized = minimize_program(program, |p| first_conflict(p).is_some());
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join(format!("differential-repro-{name}.loop"));
    std::fs::write(&path, format!("{minimized}")).unwrap();
    panic!(
        "{name}: {conflict}\nminimized reproducer written to {}",
        path.display()
    );
}

fn parsed(src: &str) -> Program {
    let mut p = parse_program(src).expect("corpus programs parse");
    passes::normalize(&mut p);
    p
}

#[test]
fn corpus_certified_verdicts_agree_with_baselines() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "loop") {
            continue;
        }
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).unwrap();
        assert_no_conflict(&name, &parsed(&src));
        seen += 1;
    }
    assert!(seen >= 5, "corpus unexpectedly small: {seen} programs");
}

#[test]
fn perfect_suite_certified_verdicts_agree_with_baselines() {
    for prog in dda::perfect::perfect_suite(0.05) {
        let mut program = prog.program.clone();
        passes::normalize(&mut program);
        assert_no_conflict(prog.name(), &program);
    }
}

#[test]
fn examples_certified_verdicts_agree_with_baselines() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/loops");
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "loop") {
            continue;
        }
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).unwrap();
        assert_no_conflict(&name, &parsed(&src));
    }
}
