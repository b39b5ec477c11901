//! Allocation pins, taken with a counting global allocator.
//!
//! The dominant dependence queries resolve in the SVPC stage (the
//! paper's measurement, reproduced by the batch engine's stats). After
//! the tiered-numeric/inline-storage refactor, an answer-only pipeline
//! run over an SVPC-decided system must not touch the heap at all:
//! constraint rows clone into inline [`CoeffVec`] storage, scalar
//! bounds and the derivation trail live in inline `SmallVec`s, and the
//! non-collecting path never materializes a certificate arena.
//!
//! A memo read shares the stored outcome instead of copying it: a
//! resident hit allocates nothing, and an archive fault allocates only
//! what decoding its record does, plus the `Arc` the table keeps and the
//! key it is filed under.
//!
//! The counter is process-global, so the tests take turns: a sibling
//! test allocating concurrently would race the measurement window.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use dda_core::certificate::{Certificate, DirTree, RefProof, Rule, SystemRefutation};
use dda_core::fourier_motzkin::FmLimits;
use dda_core::memo::MemoKey;
use dda_core::pipeline::run_pipeline;
use dda_core::system::{Constraint, System};
use dda_core::{
    Answer, CachedOutcome, DependenceResult, Direction, DirectionVector, DistanceVector,
    MemoArchive, NullProbe, PipelineConfig, ResolvedBy, SharedMemo, TestKind,
};
use dda_linalg::Matrix;

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

/// Held while a test measures.
static MEASURING: Mutex<()> = Mutex::new(());

fn measuring() -> MutexGuard<'static, ()> {
    MEASURING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The fewest allocations `f` made over eight calls: a harness thread can
/// add a few stray counts to any single window, but not to every one.
fn min_allocations(mut f: impl FnMut()) -> u64 {
    (0..8)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            f();
            ALLOCATIONS.load(Ordering::SeqCst) - before
        })
        .min()
        .unwrap_or(u64::MAX)
}

#[test]
fn svpc_fast_path_never_allocates() {
    let _turn = measuring();
    // The paper's Section 3.2 worked example: four single-variable
    // ranges collapsing to 11 ≤ t1 ≤ 10 — independent, decided by SVPC.
    let mut s = System::new(2);
    s.push(Constraint::new(vec![-1, 0], -1));
    s.push(Constraint::new(vec![1, 0], 10));
    s.push(Constraint::new(vec![0, -1], -1));
    s.push(Constraint::new(vec![0, 1], 10));
    s.push(Constraint::new(vec![0, 1], 1));
    s.push(Constraint::new(vec![-1, 0], -11));

    let config = PipelineConfig::full();
    let limits = FmLimits::default();

    // Warm up once (first-call laziness, if any), then measure.
    let out = run_pipeline(&s, &config, limits, &mut NullProbe);
    assert_eq!(out.answer, Answer::Independent);
    assert_eq!(out.used, TestKind::Svpc);

    // A genuine per-call allocation shows up ≥1000 times in every window.
    let min_delta = min_allocations(|| {
        for _ in 0..1_000 {
            let out = run_pipeline(&s, &config, limits, &mut NullProbe);
            std::hint::black_box(&out);
        }
    });
    assert_eq!(
        min_delta, 0,
        "SVPC fast path allocated {min_delta} time(s) in every 1000-run window"
    );
}

/// A refuted region: one premise row that seals by itself.
fn refuted() -> Box<DirTree> {
    Box::new(DirTree::Refuted(SystemRefutation {
        arena: vec![Rule::Premise {
            coeffs: vec![0, 0],
            rhs: -1,
        }],
        proof: RefProof::Arena { seal: 0 },
    }))
}

/// A full-table outcome with every part that owns heap memory: a
/// witness, direction vectors, distances and a certificate tree.
fn rich_outcome() -> CachedOutcome {
    CachedOutcome {
        result: DependenceResult {
            answer: Answer::Dependent(None),
            resolved_by: ResolvedBy::Test(TestKind::FourierMotzkin),
        },
        witness: Some(vec![3, 1, 4, 1]),
        direction_vectors: vec![
            DirectionVector([Direction::Lt, Direction::Eq].into()),
            DirectionVector([Direction::Eq, Direction::Any].into()),
        ],
        distance: DistanceVector([Some(1), None].into()),
        certificate: Certificate::DirectionsExhausted {
            particular: vec![0, 1, 0, 1],
            basis: Matrix::identity(4),
            tree: DirTree::Split {
                level: 0,
                lt: refuted(),
                eq: Box::new(DirTree::Split {
                    level: 1,
                    lt: refuted(),
                    eq: refuted(),
                    gt: refuted(),
                }),
                gt: refuted(),
            },
        },
    }
}

#[test]
fn memo_reads_share_the_stored_outcome() {
    let _turn = measuring();
    let key = MemoKey::from_vec(vec![4, 2, 1, 0, 1, -1, 10]);
    let memo = SharedMemo::new(1);
    memo.full.insert(key.clone(), Arc::new(rich_outcome()));

    // A resident hit hands out the stored `Arc`.
    assert_eq!(memo.lookup_full(&key).as_deref(), Some(&rich_outcome()));
    let hit = min_allocations(|| {
        for _ in 0..1_000 {
            std::hint::black_box(memo.lookup_full(&key));
        }
    });
    assert_eq!(hit, 0, "a resident hit allocated in every window");

    // An archive fault decodes its record once and files that copy.
    let path = std::env::temp_dir().join(format!("dda-alloc-{}.memo", std::process::id()));
    memo.save_memo_file_v3(&path, 1).expect("save archive");
    let archive = MemoArchive::open(&path).expect("open archive");
    let warm = SharedMemo::new(1);
    warm.load_memo_file(&path).expect("attach archive");
    let _ = std::fs::remove_file(&path);
    let decoded = archive.get_full(&key).expect("archived");
    assert_eq!(warm.lookup_full(&key).as_deref(), Some(&decoded));
    let decode = min_allocations(|| {
        std::hint::black_box(archive.get_full(&key));
    });
    // Emptying the resident table keeps its capacity, so each lookup
    // below faults the record into a table that has room for it.
    let fault = min_allocations(|| {
        warm.clear();
        std::hint::black_box(warm.lookup_full(&key));
    });
    assert_eq!(warm.memo_load_stats().archive_faults, 9);
    assert!(
        fault <= decode + 2,
        "an archive fault allocated {fault} times; decoding the record takes {decode}"
    );
}
