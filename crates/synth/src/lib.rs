//! # cosmo-synth
//!
//! The synthetic e-commerce world model that substitutes for Amazon's
//! proprietary data (catalogue, behaviour logs, annotation ground truth).
//!
//! Why a *world model* rather than random data: every pipeline stage in the
//! paper is validated against human judgment — filters drop bad
//! generations, critics score plausibility/typicality, the student model is
//! graded on how typical its knowledge is. To reproduce those measurements
//! offline, the synthetic products carry **ground-truth intent profiles**
//! ([`world::ProductType::profile`]); the [`oracle::Oracle`] answers the
//! paper's five annotation questions from those profiles, and every
//! downstream experiment is scored against the same truth.
//!
//! Components:
//! * [`domain`] — hand-written lexicons for the 18 Amazon categories of Table 3;
//! * [`world`]  — seeded generation of product types, intents, complements,
//!   Zipf-popular products and broad/specific queries;
//! * [`behavior`] — search-buy / co-buy log generation with calibrated noise
//!   (§3.1, §3.2.1) plus the query-specificity service;
//! * [`oracle`] — ground-truth relevance/informativeness/plausibility/
//!   typicality judgments (§3.3.2, Appendix B);
//! * [`corpus`](crate::corpus()) — the e-commerce pre-training corpus for the LM and
//!   embedding filters (§3.3.1).

#![forbid(unsafe_code)]

pub mod behavior;
pub mod corpus;
pub mod domain;
pub mod oracle;
pub mod scale;
pub mod util;
pub mod world;

pub use behavior::{BehaviorConfig, BehaviorLog, CoBuy, SearchBuy, SpecificityService};
pub use corpus::corpus;
pub use domain::{DomainId, DomainSpec, SPECS};
pub use oracle::{Judgment, Oracle, TYPICAL_WEIGHT};
pub use scale::{generate_shard, ScaleConfig, ShardEdge, ShardNode, ShardOutput};
pub use world::{
    Intent, IntentId, Product, ProductId, ProductType, ProductTypeId, Query, QueryId, QueryKind,
    World, WorldConfig,
};
