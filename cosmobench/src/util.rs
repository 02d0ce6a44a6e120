//! Small helpers: a seeded RNG, a Zipf sampler, order statistics, a byte
//! digest and the process's peak RSS.

use cosmo_synth::scale::mix64;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// splitmix64 stream: the benchmark's only randomness, so one seed fixes
/// every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(mix64(seed ^ 0xC05E_BE4C))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Zipf(s) over ranks `0..n` by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Nearest-rank quantile of an unsorted sample; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A quantile over fixed windows of a per-window quantile: `samples` are
/// `(window index, value)` pairs; each window's `q` quantile is taken,
/// skipping windows with fewer than `min_samples` values, and `over`
/// picks among those. The median (or a lower quartile) over windows
/// keeps a scheduler hiccup from deciding a whole run's tail.
pub fn windowed(samples: &[(usize, f64)], q: f64, min_samples: usize, over: f64) -> f64 {
    let windows = samples.iter().map(|&(w, _)| w + 1).max().unwrap_or(0);
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(w, v) in samples {
        per[w].push(v);
    }
    let stats: Vec<f64> = per
        .iter()
        .filter(|v| v.len() >= min_samples)
        .map(|v| quantile(v, q))
        .collect();
    quantile(&stats, over)
}

/// FNV-1a, 64 bit: a stable digest of output bytes.
pub fn fnv64(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Peak anonymous resident memory (`RssAnon`), sampled every few ms on
/// a thread of its own: the process's heap and stacks, without the page
/// cache behind the mapped snapshot files, whose residency depends on
/// which snapshot generations happen to be alive at the peak.
pub struct AnonPeak {
    stop: Arc<AtomicBool>,
    peak_kb: Arc<AtomicU64>,
    sampler: std::thread::JoinHandle<()>,
}

impl AnonPeak {
    pub fn start() -> AnonPeak {
        let stop = Arc::new(AtomicBool::new(false));
        let peak_kb = Arc::new(AtomicU64::new(0));
        let sampler = {
            let (stop, peak_kb) = (Arc::clone(&stop), Arc::clone(&peak_kb));
            std::thread::spawn(move || loop {
                peak_kb.fetch_max(rss_anon_kb(), Ordering::Relaxed);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            })
        };
        AnonPeak {
            stop,
            peak_kb,
            sampler,
        }
    }

    /// Stop sampling; the peak in MB.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.sampler.join().expect("memory sampler panicked");
        self.peak_kb.load(Ordering::Relaxed) as f64 / 1024.0
    }
}

fn rss_anon_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("RssAnon:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            })
        })
        .unwrap_or(0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
