//! The deployed serving system (Figure 5, §3.5.2).
//!
//! Operational flow implemented here:
//!
//! * **Request handling** — "initial query checks against the Asynchronous
//!   Cache Store quickly retrieve responses for frequent queries or forward
//!   others for batch processing"; the request path is cache-only and
//!   never blocks on model inference;
//! * **Batch processing and cache update** — pending queries are drained
//!   from the bounded queue and dispatched to the shared persistent
//!   worker pool ([`cosmo_exec::WorkerPool`], spawned once at build time
//!   and fed over a bounded channel — no per-cycle thread spawning),
//!   formatted into structured features by the Feature Store, and
//!   installed into the daily cache layer. A panicking worker chunk
//!   degrades the cycle (re-queued + surfaced in metrics) instead of
//!   killing the caller;
//! * **Daily refresh** — the model ingests new behaviour logs (simulated
//!   as a refresh counter) and the cache promotes hot entries;
//! * **Feedback loop** — served interactions are recorded and can be fed
//!   back as new behaviour data.
//!
//! Systems are built with [`ServingSystem::builder`]:
//!
//! ```text
//! let system = ServingSystem::builder()
//!     .view(kg.freeze())
//!     .lm(lm)
//!     .preload(hot_queries)
//!     .config(ServingConfig { workers: 8, shards: 16, ..ServingConfig::default() })
//!     .build()?;
//! ```

use crate::cache::{AdmissionPolicy, CacheLookup, CacheStore};
use crate::error::ServingError;
use crate::features::{compute_features_batch, FeatureStore, StructuredFeatures};
pub use crate::histogram::LatencyRecorder;
use crate::protocol::{OpsStats, ServeRequest, ServeResponse, ServeStatus, OPS_VERSION};
use crate::swap::{SnapshotGeneration, SnapshotHandle};
use cosmo_exec::{ChunkResult, WorkerPool};
use cosmo_kg::KgSnapshotView;
use cosmo_lm::CosmoLm;
use cosmo_nav::NavigationEngine;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Serving configuration: worker pool, batching, cache sizing, and
/// pending-queue admission, validated at build time.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Worker threads in the persistent batch pool.
    pub workers: usize,
    /// Max queries per batch cycle.
    pub batch_size: usize,
    /// L1 capacity (yearly-frequent layer).
    pub l1_capacity: usize,
    /// Total L2 capacity (daily layer, split across shards).
    pub l2_capacity: usize,
    /// Shard count for L2 / pending / hit-count / feature-store state.
    pub shards: usize,
    /// Total bound on queued pending queries (split across shards).
    pub pending_bound: usize,
    /// What to do with a miss when its pending queue shard is full.
    pub admission: AdmissionPolicy,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            workers: 4,
            batch_size: 256,
            l1_capacity: 4096,
            l2_capacity: 16384,
            shards: 8,
            pending_bound: 4096,
            admission: AdmissionPolicy::DropOldest,
        }
    }
}

impl ServingConfig {
    /// Reject configurations that cannot serve: zero workers, zero batch
    /// size, zero capacities, zero shards, or a zero queue bound.
    pub fn validate(&self) -> Result<(), ServingError> {
        for (value, what) in [
            (self.workers, "workers"),
            (self.batch_size, "batch_size"),
            (self.l1_capacity, "l1_capacity"),
            (self.l2_capacity, "l2_capacity"),
            (self.shards, "shards"),
            (self.pending_bound, "pending_bound"),
        ] {
            if value == 0 {
                return Err(ServingError::InvalidConfig(format!("{what} must be > 0")));
            }
        }
        Ok(())
    }
}

/// A typed request answered in-process: the wire-identical
/// [`ServeResponse`] plus the in-process extras (the full feature object
/// and the measured latency) that deliberately stay off the wire.
#[derive(Debug, Clone)]
pub struct Served {
    /// The response, exactly as the HTTP front end would serialise it.
    pub response: ServeResponse,
    /// The full cached features on a hit (in-process callers get the
    /// whole object, not just the rendered intents).
    pub features: Option<Arc<StructuredFeatures>>,
    /// Request-path latency in microseconds (measured, not part of the
    /// response body — that is what keeps the body deterministic).
    pub latency_us: u64,
}

/// Test hook: a query with this text makes a worker panic mid-chunk.
#[cfg(test)]
pub(crate) const PANIC_QUERY: &str = "__cosmo_injected_worker_panic__";

/// Builder for [`ServingSystem`]: named, validated configuration — the
/// only way to construct a system.
#[derive(Default)]
pub struct ServingSystemBuilder {
    view: Option<KgSnapshotView>,
    lm: Option<Arc<CosmoLm>>,
    preload: Vec<String>,
    cfg: ServingConfig,
}

impl ServingSystemBuilder {
    /// The frozen knowledge graph backing feature computation (required)
    /// — a file written offline and opened with [`KgSnapshotView::open`],
    /// mirroring the paper's offline-materialise → online-serve boundary,
    /// or an in-memory `KnowledgeGraph::freeze()`.
    pub fn view(mut self, view: KgSnapshotView) -> Self {
        self.view = Some(view);
        self
    }

    /// COSMO-LM student model for cold queries (required).
    pub fn lm(mut self, lm: Arc<CosmoLm>) -> Self {
        self.lm = Some(lm);
        self
    }

    /// Queries to pre-compute into the L1 yearly-frequent layer.
    pub fn preload<I, S>(mut self, queries: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.preload = queries.into_iter().map(Into::into).collect();
        self
    }

    /// Replace the whole configuration at once.
    pub fn config(mut self, cfg: ServingConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Validate the configuration, build the first generation (preloaded
    /// features and navigation engine), spawn the worker pool, and
    /// assemble the system.
    pub fn build(self) -> Result<ServingSystem, ServingError> {
        self.cfg.validate()?;
        let view = self.view.ok_or(ServingError::MissingKnowledgeGraph)?;
        let lm = self.lm.ok_or(ServingError::MissingModel)?;
        let generation =
            ServingSystem::build_generation(1, Arc::new(view), &self.preload, &self.cfg, &lm);
        let pool = WorkerPool::new(self.cfg.workers);
        Ok(ServingSystem {
            handle: SnapshotHandle::new(generation),
            latency: LatencyRecorder::default(),
            preload: self.preload,
            cfg: self.cfg,
            lm,
            pool,
            swap_lock: Mutex::new(()),
            batch_failed_chunks: AtomicU64::new(0),
            model_version: AtomicU64::new(1),
            feedback: Mutex::new(Vec::new()),
        })
    }
}

/// The full serving system.
///
/// All graph-derived state (view + cache + feature store + navigation
/// engine) lives in the current [`SnapshotGeneration`] behind the RCU
/// [`SnapshotHandle`]; access it through [`ServingSystem::current`].
/// Latency, model version and the worker pool are generation-independent
/// and stay here.
pub struct ServingSystem {
    /// Request-path latency histogram (survives snapshot swaps).
    pub latency: LatencyRecorder,
    handle: SnapshotHandle,
    preload: Vec<String>,
    cfg: ServingConfig,
    lm: Arc<CosmoLm>,
    pool: WorkerPool,
    /// Serialises swaps so generation numbers are strictly increasing.
    swap_lock: Mutex<()>,
    batch_failed_chunks: AtomicU64,
    model_version: AtomicU64,
    feedback: Mutex<Vec<(String, String)>>,
}

impl ServingSystem {
    /// Start building a serving system.
    pub fn builder() -> ServingSystemBuilder {
        ServingSystemBuilder::default()
    }

    /// The active configuration.
    pub fn config(&self) -> &ServingConfig {
        &self.cfg
    }

    /// The currently published snapshot generation (view + cache +
    /// feature store + navigation engine). Take it once per logical operation so a
    /// concurrent swap cannot tear your reads across generations.
    pub fn current(&self) -> Arc<SnapshotGeneration> {
        self.handle.load()
    }

    /// The current generation number (1 at build, +1 per swap).
    pub fn generation(&self) -> u64 {
        self.current().generation
    }

    /// The graph view the current generation answers from.
    pub fn kg_view(&self) -> Arc<KgSnapshotView> {
        Arc::clone(&self.current().view)
    }

    /// Atomically replace the serving snapshot under live traffic.
    ///
    /// The entire next generation — view, preload-warmed cache, feature
    /// store, navigation engine — is built off to the side and then
    /// published with one pointer store; requests in flight finish on the
    /// generation they started on. Returns the new generation number.
    pub fn swap_snapshot(&self, view: KgSnapshotView) -> u64 {
        let _serialised = self
            .swap_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let next = self.handle.load().generation + 1;
        let generation =
            Self::build_generation(next, Arc::new(view), &self.preload, &self.cfg, &self.lm);
        self.handle.publish(generation);
        next
    }

    /// Assemble one generation: preload features computed against *its*
    /// view, a fresh cache warmed with them, a fresh feature store, and
    /// the navigation engine (the Figure 8 intent hierarchy) over the view.
    fn build_generation(
        generation: u64,
        view: Arc<KgSnapshotView>,
        preload: &[String],
        cfg: &ServingConfig,
        lm: &Arc<CosmoLm>,
    ) -> SnapshotGeneration {
        let preload_refs: Vec<&str> = preload.iter().map(String::as_str).collect();
        let features = FeatureStore::with_shards(cfg.shards);
        let preloaded = compute_features_batch(&preload_refs, &*view, lm)
            .into_iter()
            .map(|f| features.put(f))
            .collect();
        let cache = CacheStore::new(preloaded, cfg);
        let nav = NavigationEngine::new(Arc::clone(&view));
        SnapshotGeneration {
            generation,
            view,
            cache,
            features,
            nav,
        }
    }

    /// Typed request path: cache-only, never blocks on model inference.
    ///
    /// This is the single entry point both surfaces share — the HTTP
    /// front end serialises [`Served::response`] verbatim, so network
    /// and in-process callers get byte-identical answers for the same
    /// cache state.
    pub fn serve(&self, req: &ServeRequest) -> Served {
        let start = Instant::now();
        let generation = self.current();
        let lookup = generation.cache.lookup(&req.query);
        let latency_us = start.elapsed().as_micros() as u64;
        self.latency.record(latency_us);
        let model_version = self.model_version();
        let snapshot_generation = generation.generation;
        match lookup {
            CacheLookup::Hit(f, layer) => Served {
                response: ServeResponse::for_hit(
                    req,
                    &f,
                    layer,
                    model_version,
                    snapshot_generation,
                ),
                features: Some(f),
                latency_us,
            },
            CacheLookup::MissEnqueued => Served {
                response: ServeResponse::for_miss(
                    req,
                    ServeStatus::Enqueued,
                    model_version,
                    snapshot_generation,
                ),
                features: None,
                latency_us,
            },
            CacheLookup::MissRejected => Served {
                response: ServeResponse::for_miss(
                    req,
                    ServeStatus::Rejected,
                    model_version,
                    snapshot_generation,
                ),
                features: None,
                latency_us,
            },
        }
    }

    /// [`ServingSystem::serve`] reduced to the wire response.
    pub fn handle(&self, req: &ServeRequest) -> ServeResponse {
        self.serve(req).response
    }

    /// One batch cycle: drain pending queries, compute features on the
    /// persistent worker pool, install into L2 and the feature store.
    ///
    /// Returns the number of queries processed. A panicking worker chunk
    /// does not kill the caller: its queries are re-queued for the next
    /// cycle, the failure is counted in the snapshot, the surviving
    /// chunks are still installed, and `Err(ServingError::BatchWorker)`
    /// reports the degradation.
    pub fn run_batch_cycle(&self) -> Result<usize, ServingError> {
        // The whole cycle runs against one generation: drained queries are
        // installed into the same cache they were drained from. If a swap
        // lands mid-cycle the installs go to the retiring generation and
        // die with it — the new generation starts from its own preload.
        let generation = self.current();
        let queries = generation.cache.drain_pending(self.cfg.batch_size);
        if queries.is_empty() {
            return Ok(0);
        }
        let chunk = queries.len().div_ceil(self.cfg.workers.max(1)).max(1);
        // Each worker scores its whole chunk through the student's batched
        // candidate path: one generation matmul for the chunk's cold
        // queries and one embedding matmul for the chunk, bitwise
        // identical to the per-query formulation.
        let outcomes = self.pool.try_map_slices(&queries, chunk, |_, qs| {
            #[cfg(test)]
            assert!(
                !qs.iter().any(|q| q == PANIC_QUERY),
                "injected worker panic"
            );
            let refs: Vec<&str> = qs.iter().map(String::as_str).collect();
            compute_features_batch(&refs, &*generation.view, &self.lm)
        });
        let mut installed = 0usize;
        let mut failed_chunks = 0usize;
        let mut requeued = 0usize;
        for outcome in outcomes {
            match outcome {
                ChunkResult::Computed { results, .. } => {
                    let mut arcs = Vec::with_capacity(results.len());
                    for f in results {
                        arcs.push(generation.features.put(f));
                    }
                    installed += arcs.len();
                    generation.cache.install(arcs);
                }
                ChunkResult::Panicked { start, len } => {
                    failed_chunks += 1;
                    if let Some(chunk) = queries.get(start..start + len) {
                        requeued += generation.cache.requeue(chunk);
                    }
                    self.batch_failed_chunks.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if failed_chunks > 0 {
            Err(ServingError::BatchWorker {
                failed_chunks,
                requeued,
            })
        } else {
            Ok(installed)
        }
    }

    /// Daily refresh: bump the model version (simulating the SageMaker
    /// re-deployment with fresh behaviour logs) and rotate the cache.
    /// Returns the number of promoted L1 entries.
    pub fn daily_refresh(&self) -> usize {
        self.model_version.fetch_add(1, Ordering::Relaxed);
        self.current().cache.daily_refresh()
    }

    /// Current model version (increments per daily refresh).
    pub fn model_version(&self) -> u64 {
        self.model_version.load(Ordering::Relaxed)
    }

    /// The versioned operational stats schema: everything the ops
    /// dashboard charts, identical between in-process callers and
    /// `GET /ops/stats` on the HTTP front end.
    pub fn ops(&self) -> OpsStats {
        let generation = self.current();
        let (l1_size, l2_size) = generation.cache.sizes();
        OpsStats {
            ops_version: OPS_VERSION,
            model_version: self.model_version(),
            l1_size,
            l2_size,
            l2_shard_sizes: generation.cache.l2_shard_sizes(),
            pending: generation.cache.pending_len(),
            pending_shard_depths: generation.cache.pending_shard_sizes(),
            queue_high_water: generation.cache.metrics.pending_high_water(),
            dropped: generation.cache.metrics.dropped.load(Ordering::Relaxed),
            rejected: generation.cache.metrics.rejected.load(Ordering::Relaxed),
            batch_failed_chunks: self.batch_failed_chunks.load(Ordering::Relaxed),
            l1_hits: generation.cache.metrics.l1_hits.load(Ordering::Relaxed),
            l2_hits: generation.cache.metrics.l2_hits.load(Ordering::Relaxed),
            misses: generation.cache.metrics.misses.load(Ordering::Relaxed),
            hit_rate: generation.cache.metrics.hit_rate(),
            p50_us: self.latency.percentile(0.5),
            p99_us: self.latency.percentile(0.99),
            latency_count: self.latency.len() as u64,
            latency_buckets: self.latency.nonzero_buckets(),
            features: generation.features.len(),
            snapshot_generation: generation.generation,
        }
    }

    /// Feedback loop: record a served interaction (query, purchased
    /// product) for the next model refresh.
    pub fn record_feedback(&self, query: &str, product: &str) {
        self.feedback
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((query.to_string(), product.to_string()));
    }

    /// Drain accumulated feedback (consumed by the next offline run).
    pub fn drain_feedback(&self) -> Vec<(String, String)> {
        std::mem::take(&mut self.feedback.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheLayer;
    use crate::features::compute_features;
    use cosmo_kg::{BehaviorKind, Edge, KnowledgeGraph, NodeKind, Relation};
    use cosmo_lm::StudentConfig;

    fn parts() -> (KgSnapshotView, Arc<CosmoLm>) {
        let lm = Arc::new(CosmoLm::new(
            StudentConfig::default(),
            vec![
                ("sleeping outdoors".into(), Some(Relation::UsedForFunc)),
                ("keeping warm".into(), Some(Relation::CapableOf)),
            ],
        ));
        (KnowledgeGraph::new().freeze(), lm)
    }

    fn system(preload: &[&str]) -> ServingSystem {
        let (kg, lm) = parts();
        ServingSystem::builder()
            .view(kg)
            .lm(lm)
            .preload(preload.iter().copied())
            .config(ServingConfig {
                workers: 2,
                ..ServingConfig::default()
            })
            .build()
            .unwrap()
    }

    fn serve(sys: &ServingSystem, query: &str) -> Served {
        sys.serve(&ServeRequest::new(query))
    }

    #[test]
    fn preloaded_queries_hit_l1() {
        let sys = system(&["camping"]);
        let r = serve(&sys, "camping");
        assert_eq!(r.response.layer, Some(CacheLayer::L1));
        // L1 and the feature store share one copy of the preloaded features
        let stored = sys.current().features.get("camping").unwrap();
        assert!(Arc::ptr_eq(&r.features.unwrap(), &stored));
    }

    /// The build-time generation and every swapped one carry a navigation
    /// engine over their own view, built before they were published.
    #[test]
    fn each_generation_carries_a_navigation_engine_over_its_view() {
        let sys = system(&[]);
        let built = sys.current();
        assert!(Arc::ptr_eq(built.nav.kg(), &built.view));
        let mut kg = KnowledgeGraph::new();
        for intent in ["camping", "winter camping"] {
            kg.intern_node(NodeKind::Intention, intent);
        }
        assert_eq!(sys.swap_snapshot(kg.freeze()), 2);
        let swapped = sys.current();
        assert!(Arc::ptr_eq(swapped.nav.kg(), &swapped.view));
        assert!(!Arc::ptr_eq(&swapped.view, &built.view));
        assert_eq!(swapped.nav.hierarchy().len(), 2);
        assert!(built.nav.hierarchy().is_empty());
    }

    #[test]
    fn miss_then_batch_then_l2_hit() {
        let sys = system(&[]);
        let r = serve(&sys, "hiking gear");
        assert!(r.features.is_none(), "first request must not block");
        let processed = sys.run_batch_cycle().unwrap();
        assert_eq!(processed, 1);
        let r2 = serve(&sys, "hiking gear");
        assert_eq!(r2.response.layer, Some(CacheLayer::L2));
        assert!(sys.current().features.get("hiking gear").is_some());
    }

    #[test]
    fn batch_cycle_uses_all_pending() {
        let sys = system(&[]);
        for i in 0..20 {
            let _ = serve(&sys, &format!("query {i}"));
        }
        assert_eq!(sys.run_batch_cycle().unwrap(), 20);
        assert_eq!(sys.run_batch_cycle().unwrap(), 0, "queue drained");
    }

    fn feature_bits(f: &StructuredFeatures) -> impl PartialEq + std::fmt::Debug + '_ {
        let intents: Vec<_> = f
            .intents
            .iter()
            .map(|(r, t, s)| (*r, t, s.to_bits()))
            .collect();
        let subcategory: Vec<u32> = f.subcategory.iter().map(|x| x.to_bits()).collect();
        (&f.query, intents, subcategory, &f.strong_intent)
    }

    /// Every entry a batch cycle installs is bitwise equal to a one-query
    /// `compute_features` for its query, for KG-hit, cold and empty
    /// queries, with one worker chunk and with several.
    #[test]
    fn batch_cycle_fills_match_compute_features_bitwise() {
        let (_, lm) = parts();
        let mut kg = KnowledgeGraph::new();
        for (query, tails) in [
            ("camping", ["sleeping outdoors", "lakeside trips"]),
            ("winter coat", ["keeping warm", "snow days"]),
        ] {
            let q = kg.intern_node(NodeKind::Query, query);
            for (i, tail) in tails.into_iter().enumerate() {
                let t = kg.intern_node(NodeKind::Intention, tail);
                kg.add_edge(Edge {
                    head: q,
                    relation: Relation::UsedForEve,
                    tail: t,
                    behavior: BehaviorKind::SearchBuy,
                    category: 1,
                    plausibility: 0.9,
                    typicality: 0.9 - 0.4 * i as f32,
                    support: 3,
                });
            }
        }
        let queries = [
            "camping",
            "brand new query",
            "",
            "winter coat",
            "another cold one",
            "hiking boots",
            "kitchen gadget",
        ];
        for workers in [1, 4] {
            let sys = ServingSystem::builder()
                .view(kg.freeze())
                .lm(lm.clone())
                .config(ServingConfig {
                    workers,
                    ..ServingConfig::default()
                })
                .build()
                .unwrap();
            for q in queries {
                assert!(serve(&sys, q).features.is_none(), "{q:?} must miss");
            }
            assert_eq!(sys.run_batch_cycle().unwrap(), queries.len());
            let generation = sys.current();
            for q in queries {
                let (installed, layer) = generation.cache.get(q).unwrap();
                assert_eq!(layer, CacheLayer::L2);
                let want = compute_features(q, &*generation.view, &lm);
                assert_eq!(
                    feature_bits(&installed),
                    feature_bits(&want),
                    "workers={workers} query {q:?}"
                );
            }
        }
    }

    #[test]
    fn daily_refresh_bumps_model_version() {
        let sys = system(&[]);
        assert_eq!(sys.model_version(), 1);
        let _ = serve(&sys, "q");
        sys.run_batch_cycle().unwrap();
        let _ = serve(&sys, "q"); // L2 hit → promotion candidate
        let promoted = sys.daily_refresh();
        assert_eq!(sys.model_version(), 2);
        assert_eq!(promoted, 1);
        let r = serve(&sys, "q");
        assert_eq!(r.response.layer, Some(CacheLayer::L1));
    }

    #[test]
    fn ops_reflects_state() {
        let sys = system(&["hot"]);
        let _ = serve(&sys, "hot");
        let _ = serve(&sys, "cold");
        let ops = sys.ops();
        assert_eq!(ops.ops_version, OPS_VERSION);
        assert_eq!(ops.l1_size, 1);
        assert_eq!(ops.pending, 1);
        assert_eq!(ops.pending_shard_depths.iter().sum::<usize>(), 1);
        assert_eq!(ops.queue_high_water, 1);
        assert_eq!((ops.l1_hits, ops.l2_hits, ops.misses), (1, 0, 1));
        assert!((ops.hit_rate - 0.5).abs() < 1e-9);
        assert_eq!(ops.model_version, 1);
        assert_eq!(ops.dropped + ops.rejected, 0);
        assert_eq!(ops.latency_count, 2);
        assert_eq!(
            ops.latency_buckets.iter().map(|(_, c)| c).sum::<u64>(),
            2,
            "histogram buckets account for every sample"
        );
        sys.run_batch_cycle().unwrap();
        let ops2 = sys.ops();
        assert_eq!(ops2.pending, 0);
        assert_eq!(ops2.l2_size, 1);
        assert_eq!(ops2.l2_shard_sizes.iter().sum::<usize>(), 1);
        assert!(ops2.features >= 2);
        // the ops schema round-trips over its own wire encoding
        use crate::protocol::OpsStats;
        assert_eq!(OpsStats::from_json(&ops2.to_json()).unwrap(), ops2);
    }

    #[test]
    fn typed_serve_matches_untyped_path() {
        let sys = system(&["hot"]);
        let served = sys.serve(&ServeRequest::new("hot"));
        assert_eq!(served.response.status, ServeStatus::Hit);
        assert_eq!(served.response.layer, Some(CacheLayer::L1));
        assert!(served.features.is_some());
        assert!(!served.response.intents.is_empty());
        // a miss reports the admission outcome on the wire
        let miss = sys.handle(&ServeRequest::new("cold"));
        assert_eq!(miss.status, ServeStatus::Enqueued);
        assert_eq!(miss.layer, None);
        // handle is serve reduced to the wire response
        assert_eq!(sys.handle(&ServeRequest::new("hot")), served.response);
    }

    #[test]
    fn rejected_miss_is_surfaced_in_response() {
        let (kg, lm) = parts();
        let sys = ServingSystem::builder()
            .view(kg)
            .lm(lm)
            .config(ServingConfig {
                shards: 1,
                pending_bound: 1,
                admission: AdmissionPolicy::RejectNew,
                ..ServingConfig::default()
            })
            .build()
            .unwrap();
        assert_eq!(
            sys.handle(&ServeRequest::new("a")).status,
            ServeStatus::Enqueued
        );
        assert_eq!(
            sys.handle(&ServeRequest::new("b")).status,
            ServeStatus::Rejected
        );
        assert_eq!(sys.ops().rejected, 1);
    }

    #[test]
    fn builder_validates_config() {
        let (kg, lm) = parts();
        let err = ServingSystem::builder()
            .view(kg)
            .lm(lm)
            .config(ServingConfig {
                workers: 0,
                ..ServingConfig::default()
            })
            .build();
        assert!(matches!(err, Err(ServingError::InvalidConfig(_))));
    }

    #[test]
    fn builder_requires_kg_and_lm() {
        let (kg, lm) = parts();
        assert_eq!(
            ServingSystem::builder().lm(lm.clone()).build().err(),
            Some(ServingError::MissingKnowledgeGraph)
        );
        assert_eq!(
            ServingSystem::builder().view(kg).build().err(),
            Some(ServingError::MissingModel)
        );
    }

    #[test]
    fn worker_panic_degrades_instead_of_killing_caller() {
        let sys = system(&[]);
        let _ = serve(&sys, PANIC_QUERY);
        for i in 0..7 {
            let _ = serve(&sys, &format!("healthy {i}"));
        }
        let err = sys.run_batch_cycle().unwrap_err();
        let ServingError::BatchWorker {
            failed_chunks,
            requeued,
        } = err
        else {
            panic!("expected BatchWorker error");
        };
        assert_eq!(failed_chunks, 1, "only the poisoned chunk fails");
        assert!(requeued >= 1, "poisoned chunk re-queued");
        assert_eq!(sys.current().cache.pending_len(), requeued);
        let ops = sys.ops();
        assert_eq!(ops.batch_failed_chunks, 1);
        assert_eq!(
            ops.l2_size,
            8 - requeued,
            "surviving chunks are still installed"
        );
        // the poisoned query keeps failing but never panics the caller
        assert!(sys.run_batch_cycle().is_err());
    }

    #[test]
    fn feedback_loop_roundtrip() {
        let sys = system(&[]);
        sys.record_feedback("camping", "acme tent");
        sys.record_feedback("camping", "acme mattress");
        let fb = sys.drain_feedback();
        assert_eq!(fb.len(), 2);
        assert!(sys.drain_feedback().is_empty());
    }
}
