//! The repo benchmark's harness; `main.rs` is its command line. See
//! `benchmark/README.md`.

pub mod client;
pub mod compare;
pub mod metrics;
pub mod oracle;
pub mod scenario;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod window;
