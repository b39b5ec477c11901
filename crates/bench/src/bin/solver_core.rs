//! Solver-core micro-benchmark: the numbers behind the tiered-numeric /
//! inline-storage refactor (`results/solver_core.txt`).
//!
//! Three views, each chosen to isolate what the refactor touches:
//!
//! 1. **Resolving-path latency** per cascade stage, on the same calibrated
//!    patterns as `stage_times` — but timed wall-clock per `run_pipeline`
//!    call with a [`NullProbe`] (the zero-cost configuration) and reported
//!    as *exact* quantiles from sorted samples, not log2 buckets, so a
//!    1.5× move is visible instead of rounding to a bucket edge.
//! 2. **Allocations per resolving call**, counted by a global allocator:
//!    the inline small-system storage story in one number.
//! 3. **Raw Fourier–Motzkin** on fixed adversarial systems (feasible,
//!    branch-and-bound refuted, integer gap): elimination + certificate
//!    cost without the pipeline around it.
//!
//! Single-core container caveat: absolute numbers are indicative only;
//! before/after deltas on the same machine are the point.

use std::alloc::{GlobalAlloc, Layout, System as SysAlloc};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dda_bench::calibrated_system;
use dda_core::fourier_motzkin::{fourier_motzkin_with, FmLimits, FmOutcome};
use dda_core::pipeline::{run_pipeline, NullProbe};
use dda_core::system::Constraint;
use dda_core::{PipelineConfig, TestKind};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        SysAlloc.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SysAlloc.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const WARMUP: usize = 200;
const SAMPLES: usize = 5_000;

struct Quantiles {
    mean: f64,
    p50: f64,
    p99: f64,
}

fn quantiles(mut nanos: Vec<u64>) -> Quantiles {
    nanos.sort_unstable();
    let sum: u64 = nanos.iter().sum();
    let pick = |q: f64| nanos[((nanos.len() - 1) as f64 * q) as usize] as f64;
    Quantiles {
        mean: sum as f64 / nanos.len() as f64,
        p50: pick(0.50),
        p99: pick(0.99),
    }
}

fn resolving_row(kind: TestKind) -> (Quantiles, u64) {
    let system = calibrated_system(kind);
    let config = PipelineConfig::full();
    let limits = FmLimits::default();
    for _ in 0..WARMUP {
        let out = std::hint::black_box(run_pipeline(&system, &config, limits, &mut NullProbe));
        assert_eq!(out.used, kind, "calibration drift");
    }
    // Allocations per call, averaged over a window with no timing noise.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..1_000u32 {
        std::hint::black_box(run_pipeline(&system, &config, limits, &mut NullProbe));
    }
    let allocs = (ALLOCATIONS.load(Ordering::Relaxed) - before).div_ceil(1_000);
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let start = Instant::now();
        std::hint::black_box(run_pipeline(&system, &config, limits, &mut NullProbe));
        samples.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    (quantiles(samples), allocs)
}

/// Fixed raw-FM systems: certificate-heavy refutations and a feasible
/// back-substitution, without the pipeline's cheap tests in front.
fn fm_fixtures() -> Vec<(&'static str, usize, Vec<Constraint>, bool)> {
    let c = |coeffs: &[i64], rhs: i64| Constraint::new(coeffs.to_vec(), rhs);
    vec![
        (
            "fm feasible 3-var",
            3,
            vec![
                c(&[1, 1, 1], 10),
                c(&[-1, -1, -1], -10),
                c(&[-1, 0, 0], 0),
                c(&[0, -1, 0], 0),
                c(&[0, 0, -1], 0),
                c(&[1, 0, 0], 4),
                c(&[0, 1, 0], 4),
                c(&[0, 0, 1], 4),
            ],
            true,
        ),
        (
            "fm branch-refuted",
            2,
            vec![
                c(&[3, 5], 7),
                c(&[-3, -5], -7),
                c(&[-1, 0], 0),
                c(&[0, -1], 0),
                c(&[1, 0], 10),
                c(&[0, 1], 10),
            ],
            false,
        ),
        ("fm integer gap", 1, vec![c(&[2], 1), c(&[-2], -1)], false),
    ]
}

fn fm_row(name: &str, n: usize, cs: &[Constraint], feasible: bool) -> (Quantiles, u64) {
    let limits = FmLimits::default();
    for _ in 0..WARMUP {
        let out = std::hint::black_box(fourier_motzkin_with(n, cs, limits));
        match out {
            FmOutcome::Sample(_) => assert!(feasible, "{name}: unexpected sample"),
            FmOutcome::Infeasible => assert!(!feasible, "{name}: unexpected refutation"),
            FmOutcome::Unknown => panic!("{name}: fixture must decide"),
        }
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..1_000u32 {
        std::hint::black_box(fourier_motzkin_with(n, cs, limits));
    }
    let allocs = (ALLOCATIONS.load(Ordering::Relaxed) - before).div_ceil(1_000);
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let start = Instant::now();
        std::hint::black_box(fourier_motzkin_with(n, cs, limits));
        samples.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    (quantiles(samples), allocs)
}

fn print_row(label: &str, q: &Quantiles, allocs: u64) {
    println!(
        "{:<22} {:>11.3} {:>10.3} {:>10.3} {:>12}",
        label,
        q.mean / 1e3,
        q.p50 / 1e3,
        q.p99 / 1e3,
        allocs
    );
}

fn main() {
    println!("Solver-core micro-benchmark (exact quantiles, sorted samples)\n");
    println!("Pipeline latency per resolving test (calibrated patterns, NullProbe):");
    println!(
        "{:<22} {:>11} {:>10} {:>10} {:>12}",
        "Resolved by", "mean (us)", "p50 (us)", "p99 (us)", "allocs/call"
    );
    for kind in TestKind::ALL {
        let (q, allocs) = resolving_row(kind);
        print_row(&kind.to_string(), &q, allocs);
    }

    println!("\nRaw Fourier-Motzkin (elimination + certificate, no pipeline):");
    println!(
        "{:<22} {:>11} {:>10} {:>10} {:>12}",
        "System", "mean (us)", "p50 (us)", "p99 (us)", "allocs/call"
    );
    for (name, n, cs, feasible) in fm_fixtures() {
        let (q, allocs) = fm_row(name, n, &cs, feasible);
        print_row(name, &q, allocs);
    }
}
