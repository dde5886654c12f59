//! # mdm-wrappers
//!
//! The wrapper framework of MDM plus simulated, *versioned* REST data
//! sources.
//!
//! In the paper, a wrapper is "the mechanism enabling access to the sources
//! (e.g., an API request or a database query)" with a signature
//! `w(a1, …, an)` exposing a flat 1NF relation (§2.2). The definition of the
//! wrapper body (a MongoDB query, a Spark job, …) is out of MDM's scope —
//! but a reproduction needs runnable sources, so this crate simulates them:
//!
//! * [`rest`] — an in-process REST-API stand-in: named endpoints serving
//!   JSON/XML/CSV payloads, with multiple *releases* (schema versions) per
//!   endpoint, replacing the external APIs (Facebook Graph API, football
//!   data providers) the paper ingests;
//! * [`wrapper`] — [`Wrapper`]: signature + payload bindings; streams the
//!   payload, record by record and flattened to 1NF, into term columns it
//!   exposes as a [`RelationProvider`](mdm_relational::RelationProvider);
//! * [`registry`] — a catalog of wrappers for the federated executor;
//! * [`football`] — the motivational use case: Players (JSON), Teams (XML),
//!   Leagues (JSON), Countries (CSV) APIs, including the breaking v2 release
//!   of the Players API used in the "governance of evolution" demo scenario;
//! * [`evolution`] — a deterministic schema-evolution generator (rename /
//!   remove / add / nest / type-change) for robustness experiments;
//! * [`workload`] — parameterised synthetic ecosystems (N sources × M
//!   versions × R rows) for the scaling benches.

pub mod config;
pub mod diff;
pub mod evolution;
pub mod fault;
pub mod football;
pub mod registry;
pub mod rest;
pub mod workload;
pub mod wrapper;

pub use fault::{FaultPlan, InjectedFault};
pub use registry::WrapperCatalog;
pub use rest::{Format, Release, RestSource};
pub use wrapper::{Signature, Wrapper, WrapperError};
