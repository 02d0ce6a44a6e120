//! Traffic simulation for the deployment experiment (Figure 5 repro).
//!
//! Replays a multi-day Zipf-distributed query stream with daily drift (a
//! fraction of each day's queries are new — the "flash sale" / evolving
//! traffic the paper's limitations section discusses), interleaving the
//! request path with batch cycles and daily refreshes, and reports
//! per-day hit rates, latency percentiles, and admission counters.
//!
//! [`simulate`] is single-threaded and deterministic; it drives the
//! Figure 5 hit-rate repro. Throughput under real concurrency is measured
//! over sockets instead, by the `cosmo-http` load generator.

use crate::protocol::ServeRequest;
use crate::system::ServingSystem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Traffic simulation parameters.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// RNG seed.
    pub seed: u64,
    /// Simulated days.
    pub days: usize,
    /// Requests per day.
    pub requests_per_day: usize,
    /// Distinct queries in the base popularity distribution.
    pub query_universe: usize,
    /// Zipf exponent of query popularity.
    pub zipf: f64,
    /// Fraction of each day's traffic drawn from brand-new queries
    /// (daily drift).
    pub drift: f64,
    /// Batch cycles run per day (asynchronous processing cadence).
    pub batch_cycles_per_day: usize,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            seed: 0x7AFF1C,
            days: 7,
            requests_per_day: 5_000,
            query_universe: 2_000,
            zipf: 1.0,
            drift: 0.05,
            batch_cycles_per_day: 50,
        }
    }
}

/// Per-day results.
#[derive(Debug, Clone)]
pub struct DayReport {
    /// Day index (0-based).
    pub day: usize,
    /// Overall cache hit rate for the day.
    pub hit_rate: f64,
    /// L1 share of hits.
    pub l1_hits: u64,
    /// L2 share of hits.
    pub l2_hits: u64,
    /// Misses.
    pub misses: u64,
    /// Pending entries evicted under drop-oldest admission this day.
    pub dropped: u64,
    /// Pending enqueues refused under reject-new admission this day.
    pub rejected: u64,
    /// Peak pending-queue depth observed this day.
    pub queue_high_water: usize,
    /// p50 request latency (µs).
    pub p50_us: u64,
    /// p99 request latency (µs).
    pub p99_us: u64,
    /// Entries promoted to L1 at end of day.
    pub promoted: usize,
}

/// The base query strings used by the simulation (exposed so callers can
/// preload the hottest prefix into L1).
pub fn query_universe(cfg: &TrafficConfig) -> Vec<String> {
    (0..cfg.query_universe)
        .map(|i| format!("sim query {i}"))
        .collect()
}

/// Zipf-CDF sampler over a fixed universe.
struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    fn new(universe: usize, zipf: f64) -> Self {
        let weights: Vec<f64> = (1..=universe.max(1))
            .map(|r| 1.0 / (r as f64).powf(zipf))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }
        ZipfSampler { cdf }
    }

    /// Sample a rank index. Consumes exactly one `rng.gen::<f64>()`.
    fn index<R: Rng>(&self, rng: &mut R) -> usize {
        let x: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < x).min(self.cdf.len() - 1)
    }
}

/// Close a simulated day: summarise counters and run the daily refresh.
fn close_day(system: &ServingSystem, day: usize) -> DayReport {
    use std::sync::atomic::Ordering::Relaxed;
    let generation = system.current();
    let m = &generation.cache.metrics;
    DayReport {
        day,
        hit_rate: m.hit_rate(),
        l1_hits: m.l1_hits.load(Relaxed),
        l2_hits: m.l2_hits.load(Relaxed),
        misses: m.misses.load(Relaxed),
        dropped: m.dropped.load(Relaxed),
        rejected: m.rejected.load(Relaxed),
        queue_high_water: m.pending_high_water(),
        p50_us: system.latency.percentile(0.5),
        p99_us: system.latency.percentile(0.99),
        promoted: system.daily_refresh(),
    }
}

/// Run the simulation.
pub fn simulate(system: &ServingSystem, cfg: &TrafficConfig) -> Vec<DayReport> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let universe = query_universe(cfg);
    let sampler = ZipfSampler::new(universe.len(), cfg.zipf);

    let mut reports = Vec::with_capacity(cfg.days);
    let mut drift_counter = 0usize;
    for day in 0..cfg.days {
        system.current().cache.metrics.reset();
        system.latency.reset();
        let batch_every = (cfg.requests_per_day / cfg.batch_cycles_per_day.max(1)).max(1);
        for r in 0..cfg.requests_per_day {
            let query = if rng.gen_bool(cfg.drift) {
                drift_counter += 1;
                format!("drift query {day}-{drift_counter}")
            } else {
                // PANIC: the sampler draws indices below universe.len()
                universe[sampler.index(&mut rng)].clone()
            };
            system.serve(&ServeRequest::new(query));
            if r % batch_every == batch_every - 1 {
                let _ = system.run_batch_cycle();
            }
        }
        // flush remaining pending work before the day closes
        while system.run_batch_cycle().unwrap_or(0) > 0 {}
        reports.push(close_day(system, day));
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{ServingConfig, ServingSystem};
    use cosmo_kg::{KnowledgeGraph, Relation};
    use cosmo_lm::{CosmoLm, StudentConfig};
    use std::sync::Arc;

    fn small_system(preload_top: usize, cfg: &TrafficConfig) -> ServingSystem {
        let lm = Arc::new(CosmoLm::new(
            StudentConfig::default(),
            vec![("sleeping outdoors".into(), Some(Relation::UsedForFunc))],
        ));
        let universe = query_universe(cfg);
        let preload: Vec<String> = universe.into_iter().take(preload_top).collect();
        ServingSystem::builder()
            .view(KnowledgeGraph::new().freeze())
            .lm(lm)
            .preload(preload)
            .config(ServingConfig {
                workers: 2,
                batch_size: 512,
                l1_capacity: 512,
                ..ServingConfig::default()
            })
            .build()
            .unwrap()
    }

    fn tiny_traffic() -> TrafficConfig {
        TrafficConfig {
            days: 3,
            requests_per_day: 800,
            query_universe: 300,
            batch_cycles_per_day: 20,
            ..Default::default()
        }
    }

    #[test]
    fn hit_rate_improves_after_first_day() {
        let cfg = tiny_traffic();
        let sys = small_system(30, &cfg);
        let reports = simulate(&sys, &cfg);
        assert_eq!(reports.len(), 3);
        assert!(
            reports[1].hit_rate > reports[0].hit_rate - 0.02,
            "day-2 hit rate {} should not collapse vs day-1 {}",
            reports[1].hit_rate,
            reports[0].hit_rate
        );
        assert!(
            reports[2].hit_rate > 0.5,
            "steady-state hit rate {}",
            reports[2].hit_rate
        );
    }

    #[test]
    fn preloading_raises_day_one_hits() {
        let cfg = tiny_traffic();
        let cold = simulate(&small_system(0, &cfg), &cfg);
        let warm = simulate(&small_system(100, &cfg), &cfg);
        assert!(
            warm[0].hit_rate > cold[0].hit_rate,
            "preloaded L1 must help day one: warm={} cold={}",
            warm[0].hit_rate,
            cold[0].hit_rate
        );
    }

    #[test]
    fn drift_queries_cause_some_misses() {
        let cfg = TrafficConfig {
            drift: 0.3,
            ..tiny_traffic()
        };
        let sys = small_system(300, &cfg);
        let reports = simulate(&sys, &cfg);
        assert!(
            reports.iter().all(|r| r.misses > 0),
            "drift must produce misses"
        );
    }

    #[test]
    fn counters_add_up() {
        let cfg = tiny_traffic();
        let sys = small_system(50, &cfg);
        let reports = simulate(&sys, &cfg);
        for r in &reports {
            assert_eq!(
                (r.l1_hits + r.l2_hits + r.misses) as usize,
                cfg.requests_per_day,
                "day {} counters",
                r.day
            );
        }
    }
}
