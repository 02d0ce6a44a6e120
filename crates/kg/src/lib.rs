//! # cosmo-kg
//!
//! The COSMO knowledge graph: schema (15 relations of Table 2, node and
//! behaviour kinds), a mutable store for the offline pipeline, one frozen
//! CSR format for the read side, per-category statistics
//! (Tables 1 & 3), and the intent hierarchy of Figure 8 that powers
//! search navigation: strict-subset links between the graph's own
//! intention nodes, with no copy of their text or products.
//!
//! The pipeline in `cosmo-core` writes refined knowledge into a
//! [`KnowledgeGraph`], the only mutable store. Freezing it yields a
//! [`KgSnapshotView`] that `cosmo-serving` reads at request time and
//! `cosmo-nav` walks via the [`IntentHierarchy`]'s links for multi-turn
//! navigation — both through the [`GraphView`] trait, which the mutable
//! store also implements (and answers bitwise-identically). The store
//! keeps its nodes in a [`StreamInterner`], the node table the snapshot
//! encoder writes, so a graph has one id assignment whichever way it is
//! frozen; the frozen file is the only persisted graph format.
//!
//! The frozen graph has one binary format ([`snapshot`]): 64-byte-aligned
//! sections that [`KgSnapshotView`] serves in place, out of memory-mapped
//! file bytes or the owned buffer [`KnowledgeGraph::freeze`] fills. It has
//! one encoder, [`SnapshotStreamWriter`], which writes paper-scale graphs
//! to disk through bounded spill runs and also backs `freeze`.
//!
//! `unsafe` is confined to the [`zerocopy`] cast seam (enforced by the
//! workspace audit); the rest of the crate is `unsafe`-free.

pub mod algo;
pub mod hierarchy;
pub mod schema;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod stream_writer;
pub mod view;
pub(crate) mod zerocopy;

pub use algo::{
    connected_components, degree_histogram, giant_component_size, pagerank, top_intents_global,
};
pub use hierarchy::IntentHierarchy;
pub use schema::{BehaviorKind, NodeKind, Relation, TailType};
pub use snapshot::{KgSnapshotView, SnapshotError, Verify, FORMAT_VERSION_V2};
pub use stats::{summarize, CategoryRow, KgStats, KgSummary, CATEGORIES};
pub use store::{Edge, EdgeId, KnowledgeGraph, NodeId};
pub use stream_writer::{SnapshotStreamWriter, StreamInterner, StreamOptions, StreamStats};
pub use view::GraphView;
