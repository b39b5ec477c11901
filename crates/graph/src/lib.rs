//! `dda-graph`: the program dependence graph over certificate-carrying
//! dependence verdicts, and the loop-legality oracle built on it.
//!
//! The per-pair verdicts of `dda-core` answer "can these two references
//! touch the same cell across iterations?" — this crate lifts them to
//! the program-level questions a parallelizing compiler asks:
//!
//! - **Graph** ([`build_graph`], [`ProgramGraph`]): nodes are statement
//!   accesses, edges are oriented flow/anti/output (and optionally
//!   input) dependences carrying the direction vector, the oriented
//!   distance vector, the carrying loop level, and — crucially — the
//!   index of the [`PairReport`](dda_core::PairReport) they were
//!   lowered from, so every edge traces back to a certificate the
//!   `dda-check` kernel can re-verify.
//! - **Race detection / parallelism** ([`ProgramGraph::loop_verdict`],
//!   [`ProgramGraph::is_parallel`]): a loop is parallel iff no edge is
//!   carried at its level — no cross-iteration race. Sequential
//!   verdicts are *explained*: [`LoopVerdict::Sequential`] lists the
//!   exact blocking edges (hence pairs, hence certificates).
//! - **Interchange legality** ([`ProgramGraph::interchange_legal`]):
//!   the classic direction-vector permutation test — swapping two
//!   adjacent loop levels is legal iff no dependence vector becomes
//!   lexicographically negative under the swap.
//! - **Renderers** ([`render`]): Graphviz DOT, graph JSONL, per-loop
//!   verdict JSONL, and annotated source. The CLI (`dda graph`,
//!   `dda parallel`) and the `dda-serve` `/parallel` endpoint all call
//!   these, which is what makes their outputs byte-identical.
//!
//! # Examples
//!
//! ```
//! use dda_core::DependenceAnalyzer;
//! use dda_graph::{build_graph, LoopVerdict};
//! use dda_ir::parse_program;
//!
//! let p = parse_program(
//!     "for i = 1 to 100 { for j = 1 to 100 { a[i][j + 1] = a[i][j]; } }",
//! )?;
//! let report = DependenceAnalyzer::new().analyze_program(&p);
//! let graph = build_graph(&p, &report);
//! // The (=, <) flow dependence is carried by j, not i:
//! assert!(graph.is_parallel(0));
//! assert!(matches!(graph.loop_verdict(1), LoopVerdict::Sequential { .. }));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::arithmetic_side_effects)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod model;
pub mod render;

pub use model::{
    build_graph, DependenceEdge, GraphNode, InterchangeVerdict, LoopVerdict, PairSummary,
    ProgramGraph,
};
