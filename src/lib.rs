//! # dda — Efficient and Exact Data Dependence Analysis
//!
//! Facade crate re-exporting the full reproduction of Maydan, Hennessy and
//! Lam, *Efficient and Exact Data Dependence Analysis* (PLDI 1991).
//!
//! - [`linalg`]: exact integer/rational linear algebra (extended GCD,
//!   unimodular/echelon factorization, Diophantine solving).
//! - [`ir`]: loop-nest IR, the Fortran-like DSL parser, and the
//!   normalization prepasses (constant propagation, forward substitution,
//!   induction variables).
//! - [`core`]: the cascaded exact tests (SVPC, Acyclic, Loop Residue,
//!   Fourier–Motzkin), memoization, direction/distance vectors, symbolic
//!   terms, and the whole-program analyzer.
//! - [`check`]: the independent proof-checking kernel that re-verifies
//!   every verdict's certificate by substitution and exact arithmetic,
//!   sharing no solver code with `core`.
//! - [`graph`]: the dependence-graph static analysis — a program
//!   dependence graph built from certificate-carrying pair reports,
//!   with per-loop parallelism verdicts and interchange legality.
//! - [`engine`]: the parallel batch analysis engine — scoped worker
//!   threads over a sharded concurrent memo table, with deterministic
//!   serial-identical output.
//! - [`obs`]: always-on observability — lock-free metrics registry,
//!   latency histograms with quantile summaries, hierarchical span
//!   recording, and Prometheus/JSON snapshot rendering.
//! - [`serve`]: the long-running analysis service — an HTTP front end
//!   over the engine with one warm shared memo table (bounded-capacity
//!   eviction), per-request deadlines, and admission control.
//! - [`baselines`]: the inexact comparators from Section 7 (simple GCD,
//!   Banerjee inequalities, Wolfe's direction-vector extension).
//! - [`perfect`]: the synthetic PERFECT Club workload suite used by the
//!   benchmark harness.
//! - [`bench`](mod@bench): the benchmark harness library — paper-table regeneration
//!   helpers plus `bench::record`, the schema-versioned snapshot writer
//!   and p99 regression gate behind `dda bench record` / `dda bench
//!   gate`.
//!
//! # Quickstart
//!
//! ```
//! use dda::ir::parse_program;
//! use dda::core::DependenceAnalyzer;
//!
//! let program = parse_program(
//!     "for i = 1 to 10 { a[i] = a[i + 10] + 3; }",
//! )?;
//! let mut analyzer = DependenceAnalyzer::new();
//! let report = analyzer.analyze_program(&program);
//! assert!(report.pairs().iter().all(|p| p.result.is_independent()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use dda_baselines as baselines;
pub use dda_bench as bench;
pub use dda_check as check;
pub use dda_core as core;
pub use dda_engine as engine;
pub use dda_graph as graph;
pub use dda_ir as ir;
pub use dda_linalg as linalg;
pub use dda_obs as obs;
pub use dda_perfect as perfect;
pub use dda_serve as serve;
