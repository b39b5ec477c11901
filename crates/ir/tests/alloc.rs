//! Allocation pins for the front end, measured with a counting global
//! allocator.
//!
//! - Every normalization pass rewrites in place and reports whether it
//!   changed anything, and a pass with nothing to do allocates nothing:
//!   no per-round copy of the program, no substitution without
//!   definitions, no name collection without a strided loop, no kill
//!   sets. So `passes::normalize` over an already-normalized program
//!   without scalar assignments — the synthetic PERFECT programs — must
//!   not touch the heap at all.
//! - Parsing allocates nothing per expression node: every expression
//!   goes into the program's arena, each node after its operands. What
//!   is left is one statement list per loop or branch body, one name per
//!   distinct identifier, and the amortized growth of the token, node and
//!   statement arrays.
//! - Access extraction allocates a fixed number of blocks per program,
//!   however many loops and accesses the program has and however many
//!   affine terms their subscripts and bounds have: every subscript and
//!   bound is a row of one per-program table, names are symbols, every
//!   loop is an entry of one loop table, and every access's enclosing
//!   loops are a run of one path table.
//!
//! The counter is process-global, so the tests take turns through
//! [`MEASURING`], set-up included: a sibling test allocating
//! concurrently would race the measurement window.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dda_ir::{extract_accesses, parse_program, passes, Program, Stmt};

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

/// The fewest allocations `f` made over several runs. A harness thread
/// can add a few stray counts to any single window; an allocation made
/// by `f` itself shows up in every one.
fn min_allocations(mut f: impl FnMut()) -> u64 {
    let mut min_delta = u64::MAX;
    for _ in 0..8 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        f();
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        min_delta = min_delta.min(after - before);
    }
    min_delta
}

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
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
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

    for (name, p) in &mut programs {
        let allocations = min_allocations(|| {
            passes::normalize(p);
        });
        assert_eq!(
            allocations, 0,
            "normalizing {name} again allocated {allocations} time(s) in every window"
        );
    }
}

/// Allocations per statement that parsing may make: one statement list
/// per loop or branch body, one name per distinct identifier (the
/// synthetic PERFECT suite gives each nest an array of its own), plus
/// amortized growth. A boxed expression tree made 2.9: a box per
/// operand and a vector per subscript list.
const PARSE_ALLOCATIONS_PER_STMT: f64 = 1.25;

#[test]
fn parsing_allocates_nothing_per_expression_node() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let suite = dda_perfect::perfect_suite(0.1);
    let (mut allocations, mut stmts) = (0, 0);
    let mut each = String::new();
    for sp in &suite {
        let n = min_allocations(|| {
            std::hint::black_box(parse_program(&sp.source).expect("parses"));
        });
        each.push_str(&format!(" {} {n}/{};", sp.name(), sp.program.num_stmts()));
        allocations += n;
        stmts += sp.program.num_stmts();
    }
    // Over the suite: the smallest programs (17 statements) would
    // measure mostly the fixed cost of a table and three arrays.
    let per_stmt = allocations as f64 / stmts as f64;
    assert!(
        per_stmt <= PARSE_ALLOCATIONS_PER_STMT,
        "{allocations} allocations for {stmts} statements ({per_stmt:.2} each), more than \
         {PARSE_ALLOCATIONS_PER_STMT}; per program:{each}"
    );
}

/// Allocations extraction may make per program, beside the growth of its
/// five growing arrays (accesses, loops, loop paths, rows and the row
/// values): the open-loop stack, the per-symbol facts, the two symbolic
/// lists and their name ranks.
const ALLOCATIONS_PER_PROGRAM: u64 = 5;

#[test]
fn extraction_allocates_a_constant_per_program() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let mut programs: Vec<(&str, Program)> = dda_perfect::perfect_suite(0.1)
        .into_iter()
        .map(|sp| (sp.name(), sp.program))
        .collect();
    for (_, p) in &mut programs {
        passes::normalize(p);
    }
    // Growing a vector to `n` elements doubles it: log2 of `n`.
    let growth = |n: usize| u64::from(usize::BITS - n.leading_zeros());
    for (name, p) in &programs {
        let set = extract_accesses(p);
        let accesses = set.accesses.len();
        let rows = set.rows.len();
        let terms: usize = set
            .accesses
            .iter()
            .flat_map(|a| set.rows.subscripts(a))
            .flatten()
            .map(|r| r.levels().iter().filter(|&&c| c != 0).count() + r.symbolic_terms().count())
            .sum();
        assert!(accesses > 0 && terms > 0, "{name}");
        let loops = set.loops.len();
        // Each loop's path is copied at most once, by its first access.
        let path_ids: usize = set.loops.iter().map(|l| l.depth + 1).sum();
        let allocations = min_allocations(|| {
            std::hint::black_box(extract_accesses(p));
        });
        // The row values number at most a few per row.
        let bound = ALLOCATIONS_PER_PROGRAM
            + growth(accesses)
            + growth(loops)
            + growth(path_ids)
            + growth(rows)
            + growth(8 * rows);
        assert!(
            allocations <= bound,
            "{name}: {allocations} allocations for {loops} loops, {accesses} accesses and \
             {rows} rows ({terms} affine terms), more than {bound}"
        );
    }
}
