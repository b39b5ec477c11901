//! Machine-speed calibration for CPU-bound timings.
//!
//! The benchmark shares its cores with other tenants, and those tenants
//! slow both cores by 30–50% in bursts lasting seconds to minutes. A
//! burst shows in CPU time as much as in wall time, so it is contention
//! (caches, memory bandwidth, clock), not descheduling, and no statistic
//! over one run's samples removes it. Every CPU-bound operation is
//! therefore preceded by a fixed reference computation that uses the
//! same kinds of work as the analyzer's front end: allocation,
//! formatting, sorting and hashing. The operation's wall time is scaled
//! by how much slower than [`REFERENCE_MS`] that computation ran just
//! before it. On this 2-core machine, per-operation correlation between
//! the two was 0.82. Over 10–15 s windows, the spread of the median
//! fell from 13–15% (raw) to 2–3% (scaled).
//!
//! The reference computation is the benchmark's own code, so a change
//! to the program cannot change it. A change that keeps threads busy
//! between operations would slow it, and flatter the scaled time; the
//! raw time is reported beside it to catch that.

use std::collections::HashMap;
use std::time::Instant;

use crate::report::ms_between;

/// Nominal time of [`reference_ms`]'s computation, in ms: the value it
/// takes when the machine runs at the speed the scaled timings are
/// expressed in (about this machine's quiet-period speed).
pub const REFERENCE_MS: f64 = 20.0;

/// Runs the fixed reference computation and returns its wall time in ms.
#[must_use]
pub fn reference_ms() -> f64 {
    let start = Instant::now();
    let mut total = 0u64;
    for round in 0..4u64 {
        let mut words: Vec<String> = (0..20_000u64)
            .map(|i| format!("a{}[i + {}]", (i * 7919 + round) % 5003, i % 97))
            .collect();
        words.sort();
        let mut counts: HashMap<&str, u64> = HashMap::new();
        for (i, w) in words.iter().enumerate() {
            *counts.entry(w.as_str()).or_default() += i as u64;
        }
        total = total
            .wrapping_add(counts.len() as u64)
            .wrapping_add(counts.values().sum::<u64>());
    }
    std::hint::black_box(total);
    ms_between(start, Instant::now())
}

/// `raw` (any time unit) scaled to the reference speed, given the
/// reference computation's time `reference` measured just before.
#[must_use]
pub fn scaled(raw: f64, reference: f64) -> f64 {
    if reference > 0.0 {
        raw * REFERENCE_MS / reference
    } else {
        raw
    }
}
