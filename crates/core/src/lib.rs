//! Efficient and exact data dependence analysis.
//!
//! A faithful reproduction of Maydan, Hennessy and Lam, *Efficient and
//! Exact Data Dependence Analysis* (PLDI 1991): a cascade of special-case
//! exact tests that, in practice, decides every dependence question a
//! parallelizing compiler asks — cheaply.
//!
//! # Architecture
//!
//! 1. [`problem`] builds the integer system for a pair of array references
//!    (one variable per loop-index instance plus shared symbolics; one
//!    equality per dimension; two inequalities per loop bound).
//! 2. [`gcd`] runs Banerjee's extended GCD test as preprocessing: either
//!    proves independence outright or re-expresses the bounds over the
//!    free variables of the equality system's solution lattice.
//! 3. [`pipeline`] runs the exact tests in cost order — [`svpc`] (single
//!    variable per constraint), [`acyclic`], [`loop_residue`] — falling
//!    back to [`fourier_motzkin`] with integral sampling and branch &
//!    bound. The test list is runtime-configurable
//!    ([`pipeline::PipelineConfig`]) and every stage reports to a
//!    [`pipeline::Probe`]; [`cascade`] keeps the classic entry points as
//!    thin wrappers.
//! 4. [`direction`] layers Burke–Cytron hierarchical direction-vector
//!    refinement on top, with the paper's two prunings (unused variables,
//!    known distances), and computes distance vectors from the GCD
//!    solution.
//! 5. [`memo`] memoizes whole queries with the paper's hash function, in
//!    both the "simple" and the "improved" (unused-variable-eliminating)
//!    flavours.
//! 6. [`analyzer`] drives everything over a whole program and collects
//!    the statistics behind the paper's Tables 1–5 and 7.
//!
//! # Quickstart
//!
//! ```
//! use dda_ir::parse_program;
//! use dda_core::DependenceAnalyzer;
//!
//! // The paper's opening example: these references never overlap.
//! let program = parse_program("for i = 1 to 10 { a[i] = a[i + 10] + 3; }")?;
//! let mut analyzer = DependenceAnalyzer::new();
//! let report = analyzer.analyze_program(&program);
//! assert!(report.pairs()[0].result.is_independent());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod acyclic;
pub mod analyzer;
pub mod cascade;
pub mod certificate;
pub mod direction;
pub mod explain;
pub mod fourier_motzkin;
pub mod gcd;
pub mod graph;
pub mod json;
pub mod loop_residue;
pub mod memo;
pub mod persist;
pub mod persist_v3;
pub mod pipeline;
pub mod problem;
pub mod result;
pub mod stats;
pub mod steps;
pub mod svpc;
pub mod symmetry;
pub mod system;
pub mod transform;

pub use analyzer::{
    AnalyzerConfig, CachedOutcome, DependenceAnalyzer, MemoMode, PairReport, ProgramReport,
};
pub use certificate::Certificate;
pub use memo::{MemoCounters, MemoLoadStats, MemoWeight, ShardedMemoTable, SharedMemo};
pub use persist::MemoFormat;
pub use persist_v3::{MemoArchive, PersistV3Error, ShardInfo, ShardSection};
pub use pipeline::{run_pipeline, NullProbe, PipelineConfig, Probe, RecordingProbe, TraceEvent};
pub use result::{
    Answer, DependenceKind, DependenceResult, Direction, DirectionVector, DistanceVector,
    ResolvedBy, TestKind,
};
