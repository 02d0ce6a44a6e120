//! Simulated inference-cost model.
//!
//! A core COSMO claim (§1, §5): distilling knowledge through a pipeline of
//! OPT-30B generation + classifier scoring is too expensive for online
//! serving, while the instruction-tuned COSMO-LM "with fewer parameters,
//! offers significant advantages in terms of model inference efficiency".
//! We reproduce that comparison with a standard transformer cost model:
//! a decoder forward pass costs ≈ `2 · params` FLOPs per generated token
//! (plus the prompt encoding), and wall-clock latency follows from a fixed
//! accelerator throughput. The `repro -- efficiency` experiment combines
//! this simulated cost with measured wall-clock of our actual student.

/// Simulated hosted model size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TeacherModel {
    /// OPT-30B (the paper's bulk-generation model).
    Opt30b,
    /// OPT-175B.
    Opt175b,
    /// LLaMA-7B (the COSMO-LM student scale).
    Llama7b,
    /// LLaMA-13B.
    Llama13b,
}

impl TeacherModel {
    /// Parameter count.
    pub fn params(self) -> f64 {
        match self {
            TeacherModel::Opt30b => 30e9,
            TeacherModel::Opt175b => 175e9,
            TeacherModel::Llama7b => 7e9,
            TeacherModel::Llama13b => 13e9,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            TeacherModel::Opt30b => "OPT-30B",
            TeacherModel::Opt175b => "OPT-175B",
            TeacherModel::Llama7b => "LLaMA-7B",
            TeacherModel::Llama13b => "LLaMA-13B",
        }
    }
}

/// Sustained accelerator throughput assumed for the latency estimate
/// (FLOP/s). ~16 A100s at moderate utilisation, as in §3.2.2.
const CLUSTER_FLOPS: f64 = 2.5e15;

/// Running simulated-cost accumulator.
#[derive(Debug, Clone)]
pub struct CostMeter {
    model: TeacherModel,
    calls: u64,
    prompt_tokens: u64,
    generated_tokens: u64,
}

impl CostMeter {
    /// New meter for a model.
    pub fn new(model: TeacherModel) -> Self {
        CostMeter {
            model,
            calls: 0,
            prompt_tokens: 0,
            generated_tokens: 0,
        }
    }

    /// Record one generation call from raw prompt/continuation strings
    /// (tokens approximated as whitespace words × 1.3).
    pub fn record_generation(&mut self, prompt: &str, generation: &str) {
        self.calls += 1;
        self.prompt_tokens += approx_tokens(prompt);
        self.generated_tokens += approx_tokens(generation);
    }

    /// Record a scoring-only call (no generation; one forward pass).
    pub fn record_scoring(&mut self, input: &str) {
        self.calls += 1;
        self.prompt_tokens += approx_tokens(input);
    }

    /// Number of recorded calls.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Fold another meter's counts into this one (same model assumed).
    /// Token counts are integers, so the merged totals are independent of
    /// merge order — parallel pipeline stages rely on that.
    pub fn merge(&mut self, other: &CostMeter) {
        self.calls += other.calls;
        self.prompt_tokens += other.prompt_tokens;
        self.generated_tokens += other.generated_tokens;
    }

    /// Total simulated FLOPs: `2·P` per processed token.
    pub fn total_flops(&self) -> f64 {
        2.0 * self.model.params() * (self.prompt_tokens + self.generated_tokens) as f64
    }

    /// Total simulated wall-clock seconds on the reference cluster.
    pub fn total_seconds(&self) -> f64 {
        self.total_flops() / CLUSTER_FLOPS
    }

    /// Mean simulated latency per call (milliseconds).
    pub fn mean_latency_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_seconds() * 1000.0 / self.calls as f64
        }
    }

    /// The model being metered.
    pub fn model(&self) -> TeacherModel {
        self.model
    }
}

fn approx_tokens(text: &str) -> u64 {
    (text.split_whitespace().count() as f64 * 1.3).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigger_models_cost_more() {
        let mut small = CostMeter::new(TeacherModel::Llama7b);
        let mut big = CostMeter::new(TeacherModel::Opt175b);
        small.record_generation("a prompt here", "an answer");
        big.record_generation("a prompt here", "an answer");
        assert!(big.total_flops() > small.total_flops() * 20.0);
    }

    #[test]
    fn latency_scales_with_tokens() {
        let mut m = CostMeter::new(TeacherModel::Opt30b);
        m.record_generation("one two three", "four five");
        let once = m.total_seconds();
        m.record_generation("one two three", "four five");
        assert!((m.total_seconds() - 2.0 * once).abs() < 1e-12);
        assert!(m.mean_latency_ms() > 0.0);
    }

    #[test]
    fn scoring_counts_prompt_only() {
        let mut m = CostMeter::new(TeacherModel::Llama13b);
        m.record_scoring("score this candidate text");
        assert_eq!(m.calls(), 1);
        assert!(m.total_flops() > 0.0);
    }

    #[test]
    fn empty_meter_is_zero() {
        let m = CostMeter::new(TeacherModel::Opt30b);
        assert_eq!(m.mean_latency_ms(), 0.0);
        assert_eq!(m.total_flops(), 0.0);
    }
}
