//! `dda-serve` — a long-running dependence-analysis service.
//!
//! The batch engine ([`dda_engine`]) is fast but cold: every `dda
//! batch` invocation rebuilds its memo tables from scratch (or reloads
//! them from disk). This crate keeps the tables *warm* instead: a
//! persistent server owns one [`dda_core::SharedMemo`] shared across
//! all requests, so the subexpression-level memoization the paper's
//! §5 measures compounds across submissions, not just within one.
//!
//! The service speaks a deliberately minimal HTTP/1.1 (module
//! [`http`]) over `std::net` — no external dependencies:
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /analyze` | body = one `.loop` program; JSONL report back |
//! | `POST /batch` | body = a batch manifest; one JSONL line per entry |
//! | `GET /metrics` | Prometheus exposition ([`dda_obs`] snapshot) |
//! | `GET /healthz` | liveness |
//! | `/shutdown` | graceful drain + atomic memo persist |
//!
//! Three service-grade behaviours distinguish this from "the CLI in a
//! loop":
//!
//! - **Bounded memory.** The memo tables carry a byte cap
//!   ([`ServeConfig::memo_max_bytes`]) enforced by second-chance
//!   eviction in `dda-core`; eviction never changes verdicts, only
//!   forces recomputation.
//! - **Deadlines.** Each request runs under a [`dda_engine::Deadline`]
//!   (server default or `?deadline_ms=` override). A timed-out request
//!   still answers 200 — with sound conservative partials and an
//!   `X-DDA-Deadline-Exceeded` header — never a hang.
//! - **Admission control.** A bounded accept queue feeds a fixed
//!   worker pool; overflow is shed with 429 and counted, so overload
//!   degrades by refusing work instead of queueing unboundedly.
//!
//! The JSONL bodies are rendered by [`render`] — the same serializer
//! the CLI uses — so a cold server answering sequential requests is
//! byte-identical to `dda batch` over the same inputs.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// The service reads untrusted requests: no panicking shortcut outside
// tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod http;
pub mod manifest;
pub mod render;
mod server;

pub use server::{ServeConfig, Server, ServerHandle};
