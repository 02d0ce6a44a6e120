//! Concurrency stress tests and histogram property tests for the sharded
//! serving hot path.

use cosmo_kg::{KgSnapshotView, KnowledgeGraph, Relation};
use cosmo_lm::{CosmoLm, StudentConfig};
use cosmo_serving::{
    bucket_index, AdmissionPolicy, LatencyRecorder, ServeRequest, ServingConfig, ServingError,
    ServingSystem,
};
use proptest::prelude::*;
use std::sync::atomic::Ordering;
use std::sync::Arc;

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

fn build(cfg: ServingConfig, preload: &[&str]) -> ServingSystem {
    let (kg, lm) = parts();
    ServingSystem::builder()
        .view(kg)
        .lm(lm)
        .preload(preload.iter().copied())
        .config(cfg)
        .build()
        .unwrap()
}

/// Race request threads against a batch thread and a daily-refresh
/// thread; afterwards every request must be accounted for exactly once:
/// l1_hits + l2_hits + misses == total requests issued since the last
/// metrics reset.
#[test]
fn stress_counters_reconcile_under_races() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 2_000;
    let sys = build(
        ServingConfig {
            workers: 2,
            shards: 8,
            ..ServingConfig::default()
        },
        &["hot 0", "hot 1", "hot 2"],
    );
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let requesters: Vec<_> = (0..THREADS)
            .map(|t| {
                let sys = &sys;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        match i % 4 {
                            0 => drop(sys.serve(&ServeRequest::new(format!("hot {}", i % 3)))),
                            1 => drop(sys.serve(&ServeRequest::new(format!("warm {}", i % 64)))),
                            _ => drop(sys.serve(&ServeRequest::new(format!("cold {t}-{i}")))),
                        }
                    }
                })
            })
            .collect();
        let batcher = s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                if sys.run_batch_cycle().unwrap_or(0) == 0 {
                    std::thread::yield_now();
                }
            }
        });
        let refresher = s.spawn(|| {
            for _ in 0..5 {
                sys.daily_refresh();
                std::thread::yield_now();
            }
        });
        for h in requesters {
            h.join().expect("request thread panicked");
        }
        refresher.join().expect("refresh thread panicked");
        done.store(true, Ordering::Release);
        batcher.join().expect("batch thread panicked");
    });
    let generation = sys.current();
    let m = &generation.cache.metrics;
    let m = &m;
    let total = m.l1_hits.load(Ordering::Relaxed)
        + m.l2_hits.load(Ordering::Relaxed)
        + m.misses.load(Ordering::Relaxed);
    assert_eq!(
        total,
        (THREADS * PER_THREAD) as u64,
        "every request accounted exactly once"
    );
    assert_eq!(sys.latency.len(), THREADS * PER_THREAD);
    // pending gauge equals the true number of distinct queued queries
    let drained = sys.current().cache.drain_pending(usize::MAX);
    assert_eq!(
        {
            let mut d = drained.clone();
            d.sort();
            d.dedup();
            d.len()
        },
        drained.len(),
        "drained queries are distinct"
    );
}

/// A pure-miss flood of 10× the queue bound must never grow the pending
/// queue past the bound; every overflow shows up in the drop counter.
#[test]
fn miss_flood_respects_bound_with_drops_visible() {
    let bound = 64usize;
    let sys = build(
        ServingConfig {
            shards: 8,
            pending_bound: bound,
            admission: AdmissionPolicy::DropOldest,
            ..ServingConfig::default()
        },
        &[],
    );
    let flood = bound * 10;
    for i in 0..flood {
        let r = sys.serve(&ServeRequest::new(format!("flood {i}")));
        assert!(r.features.is_none());
        assert!(
            sys.current().cache.pending_len() <= bound,
            "queue exceeded bound at request {i}"
        );
    }
    let snap = sys.ops();
    assert!(snap.pending <= bound);
    assert!(snap.queue_high_water <= bound);
    assert_eq!(snap.rejected, 0);
    assert_eq!(
        flood as u64 - snap.dropped,
        snap.pending as u64,
        "distinct misses minus drops equals what is still queued"
    );
}

/// Same flood with one shard: the bound is exact (no per-shard rounding),
/// so exactly `flood - bound` entries are dropped.
#[test]
fn single_shard_flood_drops_exactly_overflow() {
    let bound = 64usize;
    let sys = build(
        ServingConfig {
            shards: 1,
            pending_bound: bound,
            admission: AdmissionPolicy::DropOldest,
            ..ServingConfig::default()
        },
        &[],
    );
    let flood = bound * 10;
    for i in 0..flood {
        sys.serve(&ServeRequest::new(format!("flood {i}")));
    }
    let snap = sys.ops();
    assert_eq!(snap.pending, bound);
    assert_eq!(snap.queue_high_water, bound);
    assert_eq!(snap.dropped, (flood - bound) as u64);
}

/// Under reject-new the earliest misses keep their slots and the rest
/// are refused.
#[test]
fn single_shard_flood_rejects_new_when_full() {
    let bound = 32usize;
    let sys = build(
        ServingConfig {
            shards: 1,
            pending_bound: bound,
            admission: AdmissionPolicy::RejectNew,
            ..ServingConfig::default()
        },
        &[],
    );
    for i in 0..bound * 4 {
        sys.serve(&ServeRequest::new(format!("flood {i}")));
    }
    let snap = sys.ops();
    assert_eq!(snap.pending, bound);
    assert_eq!(snap.dropped, 0);
    assert_eq!(snap.rejected, (bound * 3) as u64);
    // the survivors are the first `bound` queries, in order
    let drained = sys.current().cache.drain_pending(usize::MAX);
    assert_eq!(drained[0], "flood 0");
    assert_eq!(drained.len(), bound);
}

#[test]
fn builder_rejects_zero_fields() {
    for cfg in [
        ServingConfig {
            workers: 0,
            ..ServingConfig::default()
        },
        ServingConfig {
            batch_size: 0,
            ..ServingConfig::default()
        },
        ServingConfig {
            l1_capacity: 0,
            ..ServingConfig::default()
        },
        ServingConfig {
            l2_capacity: 0,
            ..ServingConfig::default()
        },
        ServingConfig {
            shards: 0,
            ..ServingConfig::default()
        },
        ServingConfig {
            pending_bound: 0,
            ..ServingConfig::default()
        },
    ] {
        assert!(cfg.validate().is_err(), "{cfg:?} must be rejected");
        let (kg, lm) = parts();
        let err = ServingSystem::builder().view(kg).lm(lm).config(cfg).build();
        assert!(matches!(err, Err(ServingError::InvalidConfig(_))));
    }
    assert!(ServingConfig::default().validate().is_ok());
}

proptest! {
    /// Histogram percentiles always land in the same bucket as the exact
    /// (sorted-vector) percentile — i.e. the log-scaled histogram is
    /// never off by more than one bucket's quantisation.
    #[test]
    fn histogram_percentile_matches_exact_within_one_bucket(
        mut samples in prop::collection::vec(0u64..2_000_000, 1..200),
        p in 0.0f64..=1.0,
    ) {
        let rec = LatencyRecorder::default();
        for &s in &samples {
            rec.record(s);
        }
        samples.sort_unstable();
        let rank = ((samples.len() - 1) as f64 * p).round() as usize;
        let exact = samples[rank];
        let approx = rec.percentile(p);
        prop_assert_eq!(
            bucket_index(approx),
            bucket_index(exact),
            "p={} exact={} approx={}",
            p, exact, approx
        );
    }
}
