//! # cosmo-serving
//!
//! The online deployment of Figure 5: a sharded feature store that turns
//! COSMO-LM responses into structured features (intent key-value pairs,
//! semantic subcategory representations, strong-intent detection), a
//! two-layer asynchronous cache store, a persistent batch-worker pool,
//! daily model refresh with cache promotion, a feedback loop, and a
//! deterministic multi-day Zipf traffic simulator used by the Figure 5
//! repro experiment.
//!
//! ## Hot-path architecture
//!
//! The cache's mutable state — the daily L2 layer, its hit counters, and
//! the pending-miss queue — is **sharded N ways by query hash**
//! ([`ServingConfig::shards`]), so concurrent request threads and the
//! batch writer only contend when they touch the same shard. Misses land
//! in a **bounded, deduplicated** pending queue: a membership set makes N
//! identical misses cost one slot, and an explicit [`AdmissionPolicy`]
//! (drop-oldest or reject-new) decides what happens when the queue is
//! full, with both outcomes surfaced in [`CacheMetrics`] and
//! [`protocol::OpsStats`]. Request latencies go into a fixed-bucket
//! log-scaled histogram ([`LatencyRecorder`]): O(1) lock-free record,
//! O(buckets) percentile.
//!
//! Batch processing runs on a **persistent worker pool** spawned once at
//! build time and fed over a channel — no per-cycle thread spawning. A
//! panicking worker chunk degrades the cycle ([`ServingError::BatchWorker`]:
//! the chunk is re-queued and counted) instead of killing the caller.
//!
//! ## Construction
//!
//! Systems are assembled with a validated builder:
//!
//! ```text
//! let system = ServingSystem::builder()
//!     .view(kg.freeze())
//!     .lm(lm)
//!     .preload(["camping", "hiking gear"])
//!     .config(ServingConfig {
//!         shards: 16,
//!         admission: AdmissionPolicy::RejectNew,
//!         ..ServingConfig::default()
//!     })
//!     .build()?;
//! ```
//!
//! ## Wire protocol
//!
//! The [`protocol`] module defines the typed request/response surface
//! ([`ServeRequest`], [`ServeResponse`], [`OpsStats`], …) with a
//! canonical std-only JSON encoding shared by the in-process path
//! ([`ServingSystem::serve`] / [`ServingSystem::handle`]) and the
//! `cosmo-http` network front end — both answer byte-identically for the
//! same cache state.
//!
//! Design constraint carried over from the paper: the request path is
//! cache-only and never blocks on model inference — a miss enqueues the
//! query for the next batch cycle, which is what lets the deployment meet
//! "Amazon's restricted search latency requirements" (§3.5.3).
//!
//! ## Hot snapshot swap
//!
//! Graph-derived state (the [`cosmo_kg::KgSnapshotView`], cache, feature
//! store, and the [`cosmo_nav::NavigationEngine`] with the links of its
//! Figure 8 intent hierarchy, which reads node text and products from the
//! same view) is bundled into an immutable [`SnapshotGeneration`] behind
//! an RCU-style [`SnapshotHandle`]. One function builds a generation, for
//! the build-time snapshot and for every swap alike:
//! `ServingSystem::swap_snapshot` builds the whole next generation,
//! navigation engine included, off to the side and publishes it with one
//! pointer store, so the daily refresh can replace the graph under live
//! traffic with zero dropped requests, and no request ever waits on a
//! hierarchy build — see the [`swap`] module.

#![forbid(unsafe_code)]

pub mod cache;
pub mod error;
pub mod features;
pub mod histogram;
pub mod protocol;
pub mod sim;
pub mod swap;
pub mod system;
pub mod views;

pub use cache::{AdmissionPolicy, CacheLayer, CacheLookup, CacheMetrics, CacheStore};
pub use error::ServingError;
pub use features::{compute_features, FeatureStore, StructuredFeatures};
pub use histogram::{bucket_index, LatencyRecorder};
pub use protocol::{
    ErrorBody, IntentItem, NavigateItem, NavigateRequest, NavigateResponse, OpsStats,
    ProtocolError, ReloadRequest, ReloadResponse, ServeRequest, ServeResponse, ServeStatus,
    SnapshotVersion, OPS_VERSION, PROTOCOL_VERSION,
};
pub use sim::{query_universe, simulate, DayReport, TrafficConfig};
pub use swap::{SnapshotGeneration, SnapshotHandle};
pub use system::{Served, ServingConfig, ServingSystem, ServingSystemBuilder};
pub use views::recommendation_view;
