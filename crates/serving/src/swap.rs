//! Hot snapshot swap: generation-tagged serving state behind an RCU-style
//! handle.
//!
//! The paper's system refreshes its knowledge daily; the serving endpoint
//! must pick the new graph up *without* dropping traffic. The mechanism
//! here is read-copy-update over an [`Arc`]:
//!
//! * Everything whose contents depend on the graph — the frozen
//!   [`KgSnapshotView`], the two-layer cache, the feature store and the
//!   navigation engine — is bundled into one immutable
//!   [`SnapshotGeneration`] with a monotonically increasing generation
//!   number.
//! * Readers take one [`SnapshotHandle::load`] (a read-locked `Arc`
//!   clone, no allocation) per request and answer entirely from that
//!   generation. A request can therefore never observe a torn mix of old
//!   graph and new cache: per generation, answers are byte-identical.
//! * A swap builds the *whole* next generation off to the side (load +
//!   verify the file, recompute the preload set, build the intent
//!   hierarchy) and only then publishes it with one pointer store.
//!   In-flight requests finish on the old generation, which is freed when
//!   its last `Arc` drops; late batch installs into a stale generation die
//!   with it by design.
//!
//! Bundling the cache with the view is what makes the swap *correct*
//! rather than merely atomic: a shared cache would race a generation load
//! against a cache lookup and could serve features computed on a graph
//! the response's generation tag disowns.

use crate::cache::CacheStore;
use crate::features::FeatureStore;
use cosmo_kg::KgSnapshotView;
use cosmo_nav::NavigationEngine;
use std::sync::{Arc, PoisonError, RwLock};

/// One immutable generation of serving state: the graph view plus every
/// cache and index keyed off it, all built before the generation is
/// published, so no request ever builds any of them.
pub struct SnapshotGeneration {
    /// Generation number (1 for the build-time snapshot, +1 per swap).
    pub generation: u64,
    /// The frozen knowledge-graph view this generation answers from.
    pub view: Arc<KgSnapshotView>,
    /// The sharded two-layer cache for this generation.
    pub cache: CacheStore,
    /// The sharded feature store for this generation.
    pub features: FeatureStore,
    /// The Figure 8 navigation engine over this generation's view.
    pub nav: NavigationEngine<Arc<KgSnapshotView>>,
}

/// The RCU publication point: readers clone the current generation's
/// `Arc` cheaply; a writer replaces the pointer atomically.
pub struct SnapshotHandle {
    current: RwLock<Arc<SnapshotGeneration>>,
}

impl SnapshotHandle {
    /// Create a handle publishing `generation`.
    pub fn new(generation: SnapshotGeneration) -> Self {
        SnapshotHandle {
            current: RwLock::new(Arc::new(generation)),
        }
    }

    /// The currently published generation. Callers serve one request
    /// entirely from the returned `Arc` so a concurrent swap cannot tear
    /// the answer.
    pub fn load(&self) -> Arc<SnapshotGeneration> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Atomically publish `next`, returning the generation it replaced.
    /// The old generation stays alive until its last reader drops it.
    pub fn publish(&self, next: SnapshotGeneration) -> Arc<SnapshotGeneration> {
        std::mem::replace(
            &mut *self.current.write().unwrap_or_else(PoisonError::into_inner),
            Arc::new(next),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::ServingConfig;

    fn generation(n: u64) -> SnapshotGeneration {
        let view = Arc::new(cosmo_kg::KnowledgeGraph::new().freeze());
        SnapshotGeneration {
            generation: n,
            nav: NavigationEngine::new(Arc::clone(&view)),
            view,
            cache: CacheStore::new(Vec::new(), &ServingConfig::default()),
            features: FeatureStore::with_shards(2),
        }
    }

    #[test]
    fn publish_is_visible_and_old_readers_survive() {
        let handle = SnapshotHandle::new(generation(1));
        let before = handle.load();
        assert_eq!(before.generation, 1);
        let old = handle.publish(generation(2));
        assert_eq!(old.generation, 1);
        assert_eq!(handle.load().generation, 2);
        // the pre-swap reader still holds a fully usable generation
        assert_eq!(before.generation, 1);
        assert_eq!(before.view.num_nodes(), 0);
    }

    #[test]
    fn concurrent_readers_never_tear() {
        let handle = Arc::new(SnapshotHandle::new(generation(1)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let handle = Arc::clone(&handle);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let generation = handle.load();
                        // generations only move forward under a reader
                        assert!(generation.generation >= last);
                        last = generation.generation;
                    }
                })
            })
            .collect();
        for n in 2..50 {
            handle.publish(generation(n));
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(handle.load().generation, 49);
    }
}
