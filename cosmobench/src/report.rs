//! Metric names, the result line and the stamped result file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// End-to-end metrics, reported by every workload with tracing off. What
/// `p50_us` and `p99_us` time depends on the workload; see `README.md`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("rss_mb", "MB"),
    ("p50_us", "us"),
    ("p99_us", "us"),
];

/// Per-layer metrics, reported by every workload's traced run. A count a
/// workload never drives reads 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("http.parse_us", "us"),
    ("http.route_us", "us"),
    ("http.write_us", "us"),
    ("http.transport_us", "us"),
    ("http.req_bytes", "bytes"),
    ("http.resp_bytes", "bytes"),
    ("http.conns_accepted", "count"),
    ("http.rejected_conns", "count"),
    ("http.shed_conns", "count"),
    ("serving.decode_us", "us"),
    ("serving.lookup_us", "us"),
    ("serving.encode_us", "us"),
    ("serving.l1_hits", "count"),
    ("serving.l2_hits", "count"),
    ("serving.misses", "count"),
    ("serving.dropped", "count"),
    ("serving.rejected", "count"),
    ("serving.queue_high_water", "count"),
    ("serving.batch_cycle_ms", "ms"),
    ("serving.batch_queries", "count"),
    ("serving.batch_fill", "ratio"),
    ("serving.batch_wait_ms", "ms"),
    ("serving.features_batch_ms", "ms"),
    ("serving.swap_ms", "ms"),
    ("lm.generate_batch_ms", "ms"),
    ("lm.embed_batch_ms", "ms"),
    ("lm.cold_share", "ratio"),
    ("lm.instructions_s", "s"),
    ("lm.train_s", "s"),
    ("kg.intents_us", "us"),
    ("kg.open_verified_ms", "ms"),
    ("kg.freeze_edges_per_s", "1/s"),
    ("kg.spill_runs", "count"),
    ("kg.file_mb", "MB"),
    ("nav.build_ms", "ms"),
    ("nav.interpret_us", "us"),
    ("synth.world_s", "s"),
    ("synth.log_s", "s"),
    ("synth.shards_s", "s"),
    ("core.run_over_s", "s"),
    ("core.candidates", "count"),
    ("core.kept_ratio", "ratio"),
    ("core.edges_admitted", "count"),
    ("exec.batch_failed_chunks", "count"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.sent", "count"),
    ("loadgen.completed", "count"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload-specific figures, printed by name beside the metrics.
    pub named: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks.
    pub errors: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push((name.to_string(), value, unit));
    }

    /// Record a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// The result line: every metric of the chosen list, in list order.
    pub fn result_line(&self, list: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in list.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { f64::MAX };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Run identity, stamped on every result.
pub struct Stamp {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub seconds: u64,
}

impl Stamp {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"seconds\": {}, \
             \"nproc\": {}, \"fast_math\": {}, \"commit\": \"{}\", \"rustc\": \"{}\"}}",
            self.workload,
            self.seed,
            self.traced,
            self.seconds,
            crate::util::nproc(),
            cfg!(feature = "fast-math"),
            env!("COSMOBENCH_COMMIT"),
            env!("COSMOBENCH_RUSTC"),
        )
    }
}

/// Write the stamped result under `dir`, named by workload, seed and
/// trace mode.
pub fn write_result(dir: &Path, stamp: &Stamp, line: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let name = format!(
        "{}-seed{}-trace{}.json",
        stamp.workload, stamp.seed, stamp.traced as u8
    );
    std::fs::write(
        dir.join(name),
        format!("{{\"stamp\": {}, \"result\": {line}}}\n", stamp.to_json()),
    )
}

/// The `p50_us` an untraced run of the same workload and seed recorded,
/// for the tracing-overhead line.
pub fn untraced_p50(dir: &Path, stamp: &Stamp) -> Option<f64> {
    let text = std::fs::read_to_string(
        dir.join(format!("{}-seed{}-trace0.json", stamp.workload, stamp.seed)),
    )
    .ok()?;
    let key = "\"p50_us\": {\"value\": ";
    let at = text.find(key)? + key.len();
    let end = text[at..].find(',')?;
    text[at..at + end].parse().ok()
}
