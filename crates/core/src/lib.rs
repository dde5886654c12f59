//! # mdm-core
//!
//! The primary contribution of *MDM: Governing Evolution in Big Data
//! Ecosystems* (Nadal, Abelló, Romero, Vansummeren, Vassiliadis — EDBT 2018):
//! a metadata management system that integrates continuously-evolving data
//! sources behind a vocabulary-based integration-oriented ontology, with
//! **LAV mappings** and a **dedicated query-rewriting algorithm** that
//! resolves ontology-mediated queries into unions of conjunctive queries
//! over wrappers — transparently spanning multiple schema versions.
//!
//! ## Layers
//!
//! * [`ontology`] — the BDI ontology: a **global graph** (concepts,
//!   features, user-defined relations, `sc:identifier` subtyping) and a
//!   **source graph** (data sources, wrappers, attributes), both RDF.
//! * [`release`] — the evolution lifecycle: registering sources and wrapper
//!   releases, schema extraction, attribute reuse across versions (§2.2).
//! * [`mapping`] — LAV mappings as RDF *named graphs* (one per wrapper) plus
//!   `owl:sameAs` attribute→feature links, with validation (§2.3).
//! * [`walk`] — OMQs posed as *walks*: connected subgraphs of the global
//!   graph (§2.4).
//! * [`expansion`] / [`intra`] / [`inter`] — the three rewriting phases:
//!   query expansion, intra-concept generation, inter-concept generation.
//! * [`rewrite`] — the pipeline gluing the phases into a relational-algebra
//!   plan over wrappers (the expression of Figure 8).
//! * [`sparql_gen`] — the walk → SPARQL translation the MDM UI displays.
//! * [`gav`] — a GAV (global-as-view) baseline rewriter, used to measure the
//!   robustness gap under schema evolution that motivates the paper.
//! * [`query`] — end-to-end OMQ execution over a wrapper catalog.
//! * [`render`] — deterministic textual renderings of the paper's figures
//!   (global graph, source graph, mappings, query artifacts).
//! * [`repo`] — snapshot/restore of the whole metadata state.
//! * [`journal`] / [`durable`] — steward mutations as replayable journal
//!   ops, bound to the `mdm-store` WAL for crash recovery.
//! * [`mdm`] — the [`mdm::Mdm`] facade: the steward and analyst APIs.
//!
//! ## Example: the four interactions of the paper
//!
//! ```
//! use mdm_core::{Mdm, Walk};
//! use mdm_core::mapping::MappingBuilder;
//! use mdm_rdf::Iri;
//! use mdm_wrappers::{Wrapper, Signature, Release, Format};
//!
//! let mut mdm = Mdm::new();
//!
//! // (a) the data steward defines the global graph …
//! let player = Iri::new("http://example.org/Player");
//! let name = Iri::new("http://example.org/playerName");
//! let id = Iri::new("http://example.org/playerId");
//! mdm.define_concept(&player)?;
//! mdm.define_identifier(&player, &id)?;
//! mdm.define_feature(&player, &name)?;
//!
//! // (b) … registers a source and a wrapper over one of its releases …
//! mdm.add_source("PlayersAPI")?;
//! let release = Release {
//!     version: 1,
//!     format: Format::Json,
//!     body: r#"[{"id": 6176, "name": "Lionel Messi"}]"#.into(),
//!     notes: "initial release".into(),
//! };
//! mdm.register_wrapper(Wrapper::over_release(
//!     Signature::new("w1", ["id", "pName"]).expect("valid signature"),
//!     "PlayersAPI",
//!     release,
//!     [("id", "id"), ("pName", "name")],
//! ).expect("valid bindings"))?;
//!
//! // (c) … and draws the LAV mapping (the Figure 7 contour).
//! mdm.define_mapping(
//!     MappingBuilder::for_wrapper("w1")
//!         .cover_concept(&player)
//!         .cover_feature(&id)
//!         .cover_feature(&name)
//!         .same_as("id", &id)
//!         .same_as("pName", &name),
//! )?;
//!
//! // (d) the analyst poses an OMQ as a walk; MDM rewrites and federates.
//! let answer = mdm.query(&Walk::new().feature(&player, &name))?;
//! assert!(answer.rewriting.sparql.contains("SELECT"));
//! assert!(answer.render().contains("Lionel Messi"));
//! # Ok::<(), mdm_core::MdmError>(())
//! ```

pub mod assist;
pub mod cache;
pub mod changes;
pub mod dashboard;
pub mod durable;
pub mod error;
pub mod expansion;
pub mod footprint;
pub mod gav;
pub mod inter;
pub mod intra;
pub mod journal;
pub mod mapping;
pub mod mdm;
pub mod ontology;
pub mod query;
pub mod release;
pub mod render;
pub mod repo;
pub mod rewrite;
pub mod sparql_gen;
pub mod synthetic;
#[cfg(test)]
pub(crate) mod testkit;
pub mod usecase;
pub mod walk;
pub mod walk_dsl;

pub use cache::{CacheStats, Found, PlanCache};
pub use changes::{ChangeLog, ChangeRecord};
pub use durable::{MetaStore, RecoveryReport};
pub use error::MdmError;
pub use footprint::Footprint;
pub use journal::{JournalSink, MutationOp};
pub use mdm::{Applied, Mdm};
pub use mdm_store::FsyncPolicy;
pub use ontology::BdiOntology;
pub use query::{Completeness, DegradedAnswer, DroppedBranch, QueryAnswer};
pub use rewrite::{rewrite_walk, RewriteArtifacts, RewriteOptions, Rewriting};
pub use walk::Walk;
