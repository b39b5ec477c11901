//! Zero-allocation steady state for normalization, pinned with a
//! counting global allocator.
//!
//! Every normalization pass rewrites in place and reports whether it
//! changed anything, and a pass with nothing to do allocates nothing:
//! no per-round copy of the program, no substitution without
//! definitions, no name collection without a strided loop, no kill
//! sets. So `passes::normalize` over an already-normalized program
//! without scalar assignments — the synthetic PERFECT programs — must
//! not touch the heap at all.
//!
//! One test only — the counter is process-global, and a sibling test
//! allocating concurrently would race the measurement window.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

use dda_ir::{passes, Program, Stmt};

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

fn has_scalar_assignment(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::ScalarAssign(_) => true,
        Stmt::For(l) => has_scalar_assignment(&l.body),
        Stmt::If(i) => has_scalar_assignment(&i.then_body) || has_scalar_assignment(&i.else_body),
        Stmt::ArrayAssign(_) | Stmt::Read(_) => false,
    })
}

#[test]
fn normalizing_a_normalized_program_never_allocates() {
    let mut programs: Vec<(&str, Program)> = dda_perfect::perfect_suite(0.1)
        .into_iter()
        .filter(|sp| !has_scalar_assignment(&sp.program.stmts))
        .map(|sp| (sp.name(), sp.program))
        .collect();
    assert!(
        programs.len() >= 10,
        "only {} programs qualify",
        programs.len()
    );
    for (_, p) in &mut programs {
        passes::normalize(p);
    }

    // The counter is process-global, so a harness thread can add a few
    // stray counts to any single window. Measure several windows and
    // take the minimum: background noise misses some window, while a
    // genuine allocation in the passes shows up in every one.
    for (name, p) in &mut programs {
        let mut min_delta = u64::MAX;
        for _ in 0..8 {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            passes::normalize(p);
            let after = ALLOCATIONS.load(Ordering::SeqCst);
            min_delta = min_delta.min(after - before);
        }
        assert_eq!(
            min_delta, 0,
            "normalizing {name} again allocated {min_delta} time(s) in every window"
        );
    }
}
