//! Allocation pin for the v3 memo archive's load path.
//!
//! Opening a v3 archive must not allocate per record: the file reads
//! into one buffer, the directory parses into O(shards) vectors, and
//! records stay encoded until a lookup faults them in. This test builds
//! two archives with the same shard count whose record counts differ by
//! ~50× and pins that `MemoArchive::open` performs the same number of
//! heap allocations for both (modulo a tiny constant slack).
//!
//! One test only — the counter is process-global, and a sibling test
//! allocating concurrently would race the measurement window.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use dda_core::{DependenceAnalyzer, MemoArchive};
use dda_ir::parse_program;

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

/// Trains a memo on `n` distinct programs and persists it as a v3
/// archive with a fixed shard count; returns the path and record count.
fn build_archive(name: &str, n: usize) -> (PathBuf, u64) {
    let dir = std::env::temp_dir().join("dda_alloc_v3_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);

    let mut analyzer = DependenceAnalyzer::new();
    for k in 0..n {
        let src = format!("for i = 1 to 10 {{ a[i] = a[i + {}] + 1; }}", k + 1);
        let program = parse_program(&src).unwrap();
        analyzer.analyze_program(&program);
    }
    analyzer.memo().save_memo_file_v3(&path, 8).unwrap();
    let records = (analyzer.gcd_memo_entries() + analyzer.memo_entries()) as u64;
    (path, records)
}

/// Minimum allocation count over several `open` calls — background
/// threads can dirty any single window, but never every one.
fn min_open_allocs(path: &PathBuf) -> u64 {
    let mut min_delta = u64::MAX;
    for _ in 0..8 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let archive = MemoArchive::open(path).unwrap();
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        std::hint::black_box(&archive);
        drop(archive);
        min_delta = min_delta.min(after - before);
    }
    min_delta
}

#[test]
fn archive_open_allocations_do_not_scale_with_record_count() {
    let (small_path, small_records) = build_archive("small.dda-memo3", 3);
    let (large_path, large_records) = build_archive("large.dda-memo3", 160);
    assert!(
        large_records >= 50 * small_records / 2,
        "corpus should differ by an order of magnitude: {small_records} vs {large_records}"
    );

    let small = min_open_allocs(&small_path);
    let large = min_open_allocs(&large_path);

    // Same shard count ⇒ same directory shape. A per-record allocation
    // would add hundreds of counts to every large-archive window; allow
    // a constant ±2 for the (size-dependent but single) read buffer and
    // allocator rounding.
    assert!(
        large <= small + 2,
        "archive open allocated per record: {small} allocs for {small_records} records, \
         {large} allocs for {large_records} records"
    );

    std::fs::remove_file(&small_path).ok();
    std::fs::remove_file(&large_path).ok();
}
