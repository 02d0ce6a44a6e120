//! Closed-loop load generation against a running server.
//!
//! Each client thread drives one keep-alive connection as fast as the
//! server answers — classic closed-loop load, where offered concurrency
//! (not an open-loop arrival rate) is the independent variable.

use crate::client::HttpClient;
use cosmo_serving::LatencyRecorder;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One load run's shape.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent closed-loop clients.
    pub concurrency: usize,
    /// Wall-clock duration of the measurement window.
    pub duration: Duration,
    /// Request bodies (`POST /v1/serve-intents` payloads), cycled
    /// round-robin per client.
    pub bodies: Vec<String>,
}

/// Aggregated result of one load run at a fixed concurrency.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Concurrency this run used.
    pub concurrency: usize,
    /// Completed requests.
    pub requests: u64,
    /// Requests answered `200`.
    pub ok: u64,
    /// Requests answered `503` (admission or serve-path rejection).
    pub rejected: u64,
    /// Requests answered any other non-200 status.
    pub other_errors: u64,
    /// Transport errors (resets from connection shedding, timeouts).
    pub transport_errors: u64,
    /// Measured wall-clock seconds.
    pub elapsed_secs: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Client-observed p50 latency (µs).
    pub p50_us: u64,
    /// Client-observed p99 latency (µs).
    pub p99_us: u64,
}

/// Run one closed-loop load window against `addr`.
///
/// Clients are plain OS threads (not [`cosmo_exec::WorkerPool`] jobs) so
/// the generator's scheduling cannot interfere with the server's pool —
/// the thing under measurement.
pub fn run_load(addr: SocketAddr, config: &LoadConfig) -> LoadReport {
    assert!(config.concurrency > 0, "need at least one client");
    assert!(!config.bodies.is_empty(), "need at least one request body");

    let stop = Arc::new(AtomicBool::new(false));
    let latencies = Arc::new(LatencyRecorder::default());
    let ok = Arc::new(AtomicU64::new(0));
    let rejected = Arc::new(AtomicU64::new(0));
    let other_errors = Arc::new(AtomicU64::new(0));
    let transport_errors = Arc::new(AtomicU64::new(0));

    let start = Instant::now();
    let mut handles = Vec::with_capacity(config.concurrency);
    for client_idx in 0..config.concurrency {
        let stop = Arc::clone(&stop);
        let latencies = Arc::clone(&latencies);
        let ok = Arc::clone(&ok);
        let rejected = Arc::clone(&rejected);
        let other_errors = Arc::clone(&other_errors);
        let transport_errors = Arc::clone(&transport_errors);
        let bodies = config.bodies.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = match HttpClient::connect(addr) {
                Ok(c) => c,
                Err(_) => {
                    transport_errors.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            };
            // stagger the cycle start per client so concurrent clients
            // don't all hammer the same query at the same instant
            let mut next = client_idx;
            while !stop.load(Ordering::Relaxed) {
                // PANIC: next % len is in range; bodies is asserted
                // non-empty before the clients spawn
                let body = &bodies[next % bodies.len()];
                next += 1;
                let sent = Instant::now();
                match client.request("POST", "/v1/serve-intents", body) {
                    Ok(resp) => {
                        latencies.record(sent.elapsed().as_micros() as u64);
                        match resp.status {
                            200 => ok.fetch_add(1, Ordering::Relaxed),
                            503 => rejected.fetch_add(1, Ordering::Relaxed),
                            _ => other_errors.fetch_add(1, Ordering::Relaxed),
                        };
                    }
                    Err(_) => {
                        transport_errors.fetch_add(1, Ordering::Relaxed);
                        // reconnect after a reset (e.g. the connection
                        // was shed under DropOldest admission)
                        match HttpClient::connect(addr) {
                            Ok(c) => client = c,
                            Err(_) => return,
                        }
                    }
                }
            }
        }));
    }

    std::thread::sleep(config.duration);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        let _ = h.join();
    }
    let elapsed = start.elapsed().as_secs_f64();

    let ok = ok.load(Ordering::Relaxed);
    let rejected = rejected.load(Ordering::Relaxed);
    let other_errors = other_errors.load(Ordering::Relaxed);
    let requests = ok + rejected + other_errors;
    LoadReport {
        concurrency: config.concurrency,
        requests,
        ok,
        rejected,
        other_errors,
        transport_errors: transport_errors.load(Ordering::Relaxed),
        elapsed_secs: elapsed,
        throughput_rps: requests as f64 / elapsed.max(1e-9),
        p50_us: latencies.percentile(0.50),
        p99_us: latencies.percentile(0.99),
    }
}
