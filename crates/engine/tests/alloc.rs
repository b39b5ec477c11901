//! Allocation pins for the per-pair path outside the solver, measured
//! with a counting global allocator.
//!
//! Most pairs never reach a solver: they have constant subscripts, or
//! their key hits the memo. The paper memoizes because a table hit costs
//! far less than a solve, so these pairs must cost little more than
//! their enumeration:
//!
//! - a batch over the synthetic PERFECT suite makes a small constant
//!   number of allocations per pair;
//! - a constant-subscript pair allocates at most the one outer vector of
//!   a dependent pair's `*` direction vector;
//! - rendering a report as a JSONL line writes into one output string,
//!   whatever the report's pair count.
//!
//! The counter is process-global, so the tests take turns through
//! [`MEASURING`], set-up included: a sibling test allocating
//! concurrently would race the measurement window. Every measurement
//! keeps the fewest allocations over several runs, since a harness
//! thread can add a few stray counts to any single window.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dda_engine::{Engine, EngineConfig};
use dda_ir::{extract_accesses, parse_program, passes, reference_pairs, Program};
use dda_serve::render::batch_json_line;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        SystemAlloc.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Held by each test for its whole run.
static MEASURING: Mutex<()> = Mutex::new(());

/// Runs measured so a stray count in one window does not fail a pin.
const RUNS: usize = 5;

/// The fewest allocations `measured` made over [`RUNS`] runs, each on a
/// fresh value from `setup` (built outside the measurement window).
fn min_allocations<S>(mut setup: impl FnMut() -> S, mut measured: impl FnMut(S)) -> u64 {
    let mut min_delta = u64::MAX;
    for _ in 0..RUNS {
        let state = setup();
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        measured(state);
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        min_delta = min_delta.min(after - before);
    }
    min_delta
}

/// One worker and no certificate check: the measured work is the
/// engine's own, on the calling thread.
fn serial_engine() -> Engine {
    Engine::with_config(EngineConfig {
        workers: 1,
        check: false,
        ..EngineConfig::default()
    })
}

fn perfect(scale: f64) -> Vec<Program> {
    dda_perfect::perfect_suite(scale)
        .into_iter()
        .map(|sp| {
            let mut p = sp.program;
            passes::normalize(&mut p);
            p
        })
        .collect()
}

fn pair_count(programs: &[Program]) -> u64 {
    programs
        .iter()
        .map(|p| reference_pairs(&extract_accesses(p), false).len() as u64)
        .sum()
}

/// Allocations per pair a PERFECT batch may make, everything from access
/// extraction to the assembled reports included. Subscripts live in one
/// row table per program, and a pair's system and keys are written from
/// the rows into reused buffers, so what is left is mostly each report's
/// own vectors and the leaders' solves. It was 16 while every
/// non-constant pair built its problem (10.5 measured at scale 0.1).
const ALLOCATIONS_PER_PAIR: f64 = 5.0;

#[test]
fn a_perfect_batch_allocates_a_small_constant_per_pair() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let programs = perfect(0.1);
    let pairs = pair_count(&programs);
    assert!(pairs > 1000, "only {pairs} pairs");
    let allocations = min_allocations(serial_engine, |mut engine| {
        std::hint::black_box(engine.analyze_programs(&programs));
    });
    let per_pair = allocations as f64 / pairs as f64;
    assert!(
        per_pair <= ALLOCATIONS_PER_PAIR,
        "{allocations} allocations for {pairs} pairs: {per_pair:.1} per pair, \
         more than {ALLOCATIONS_PER_PAIR}"
    );
}

/// Allocations `batch_json_line` may make for one report: the output
/// string, plus room for one regrowth past its size estimate.
const RENDER_ALLOCATIONS: u64 = 4;

#[test]
fn rendering_a_report_allocates_only_its_line() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let programs = perfect(0.1);
    let reports = serial_engine().analyze_programs(&programs);
    let mut rendered_pairs = 0;
    for (i, report) in reports.iter().enumerate() {
        let file = format!("perfect/{i}.loop");
        let allocations = min_allocations(
            || (),
            |()| {
                std::hint::black_box(batch_json_line(&file, report));
            },
        );
        assert!(
            allocations <= RENDER_ALLOCATIONS,
            "program {i}: rendering {} pairs made {allocations} allocations, \
             more than {RENDER_ALLOCATIONS}",
            report.pairs().len()
        );
        rendered_pairs += report.pairs().len();
    }
    assert!(
        rendered_pairs > 1000,
        "only {rendered_pairs} pairs rendered"
    );
}

#[test]
fn constant_pairs_allocate_at_most_their_star_vector() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    // Constant subscripts under one to three common loops, dependent
    // (`a[1]` against `a[1]`) and independent (`a[1]` against `a[2]`).
    let mut src = String::new();
    for n in 0..40 {
        src.push_str(&format!(
            "for i = 1 to 10 {{ for j = 1 to 10 {{ for k = 1 to 10 {{ \
             a{n}[1][{n}] = a{n}[2][{n}] + a{n}[1][{n}]; }} \
             b{n}[3] = b{n}[3] + b{n}[4]; }} c{n}[5] = c{n}[6]; }}\n"
        ));
    }
    let mut program = parse_program(&src).unwrap();
    passes::normalize(&mut program);
    let programs = vec![program];
    let pairs = pair_count(&programs);
    assert!(pairs >= 200, "only {pairs} pairs");

    let engine_allocations = min_allocations(serial_engine, |mut engine| {
        let reports = engine.analyze_programs(&programs);
        assert_eq!(reports[0].stats.constant, pairs, "every pair is constant");
        std::hint::black_box(reports);
    });
    let enumeration_allocations = min_allocations(
        || (),
        |()| {
            let set = extract_accesses(&programs[0]);
            std::hint::black_box(reference_pairs(&set, false));
        },
    );
    let beyond = engine_allocations.saturating_sub(enumeration_allocations);
    assert!(
        beyond <= pairs,
        "{pairs} constant pairs made {beyond} allocations beyond the \
         {enumeration_allocations} of their enumeration"
    );
}
