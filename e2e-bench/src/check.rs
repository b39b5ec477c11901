//! Correctness checks, run outside the timed region: verdict digests,
//! certificate checks and the paper's Table 1 counts.

use dda_check::{check_program, CheckOutcome};
use dda_core::{AnalyzerConfig, MemoMode, ProgramReport};
use dda_engine::{Engine, EngineConfig};
use dda_ir::Program;
use dda_perfect::SPECS;

/// FNV-1a over the verdict part of rendered JSONL: every pair's array,
/// accesses, answer, resolving test, directions and distance. The
/// `"cached"` flags and the per-program `"stats"` object are left out,
/// since they differ between a cold and a warm run of the same input.
#[must_use]
pub fn verdict_digest(jsonl: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for line in jsonl.lines() {
        let pairs = line.find(",\"stats\":").map_or(line, |end| &line[..end]);
        for piece in pairs.split(",\"cached\":") {
            let rest = piece
                .strip_prefix("true")
                .or_else(|| piece.strip_prefix("false"))
                .unwrap_or(piece);
            eat(rest.as_bytes());
        }
        eat(b"\n");
    }
    h
}

/// Runs the independent certificate kernel over every report; returns
/// one message per rejected pair (unverified evidence is not an error).
#[must_use]
pub fn certificates(
    labels: &[String],
    programs: &[Program],
    reports: &[ProgramReport],
) -> Vec<String> {
    let mut errors = Vec::new();
    for ((label, program), report) in labels.iter().zip(programs).zip(reports) {
        match check_program(program, false, report) {
            Err(e) => errors.push(format!("{label}: {e}")),
            Ok(outcomes) => {
                for (i, o) in outcomes.iter().enumerate() {
                    if let CheckOutcome::Rejected(why) = o {
                        errors.push(format!("{label}: pair {i}: certificate rejected: {why}"));
                    }
                }
            }
        }
    }
    errors
}

/// The single-worker engine the digests are compared against.
#[must_use]
pub fn reference_config() -> EngineConfig {
    EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    }
}

/// Checks the PERFECT corpus against the paper's Table 1 (memoization
/// and direction vectors off, as the table was measured): constant and
/// GCD counts exactly, each test column between the paper's count and
/// that count plus the program's symbolic allowance. `scale` is the
/// suite scale the programs were generated at; counts are compared to
/// the scaled spec. Returns one message per mismatch.
#[must_use]
pub fn table1(labels: &[String], programs: &[Program], scale: f64) -> Vec<String> {
    let mut engine = Engine::with_config(EngineConfig {
        workers: 1,
        analyzer: AnalyzerConfig {
            compute_directions: false,
            ..AnalyzerConfig::default()
        },
        memo_mode: MemoMode::Off,
        ..EngineConfig::default()
    });
    let reports = engine.analyze_programs(programs);
    let scaled = |count: u32| -> u64 {
        if count == 0 {
            0
        } else {
            ((f64::from(count) * scale).round() as u64).max(1)
        }
    };
    let mut errors = Vec::new();
    for ((label, report), spec) in labels.iter().zip(&reports).zip(&SPECS) {
        let s = &report.stats;
        let allowance = scaled(spec.symbolic);
        let mut check = |column: &str, got: u64, want: u64, slack: u64| {
            if got < want || got > want + slack {
                errors.push(format!(
                    "{label}: Table 1 {column} is {got}, expected {want}{}",
                    if slack > 0 {
                        format!("..={}", want + slack)
                    } else {
                        String::new()
                    }
                ));
            }
        };
        check("constant", s.constant, scaled(spec.constant), 0);
        check("gcd", s.gcd_independent, scaled(spec.gcd), 0);
        let columns = [
            ("svpc", spec.svpc),
            ("acyclic", spec.acyclic),
            ("residue", spec.loop_residue),
            ("fm", spec.fourier_motzkin),
        ];
        for (i, (column, want)) in columns.into_iter().enumerate() {
            check(column, s.base_tests.calls[i], scaled(want), allowance);
        }
        check("assumed", s.assumed, 0, 0);
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_cache_flags_and_stats() {
        let cold = "{\"file\":\"x\",\"pairs\":[{\"a\":0,\"cached\":false,\"d\":1}],\"stats\":{\"memo_hits\":0}}\n";
        let warm = "{\"file\":\"x\",\"pairs\":[{\"a\":0,\"cached\":true,\"d\":1}],\"stats\":{\"memo_hits\":4}}\n";
        let other = "{\"file\":\"x\",\"pairs\":[{\"a\":0,\"cached\":true,\"d\":2}],\"stats\":{\"memo_hits\":4}}\n";
        assert_eq!(verdict_digest(cold), verdict_digest(warm));
        assert_ne!(verdict_digest(cold), verdict_digest(other));
    }
}
