//! Inference-efficiency comparison (§1, §5).
//!
//! "Compared to directly distilling knowledge from large language models,
//! the instruction-finetuned models, with fewer parameters, offer
//! significant advantages in terms of model inference efficiency."
//!
//! Two views are reported:
//!
//! * **Simulated-scale view** — per-request FLOPs/latency of the paper's
//!   actual deployments (OPT-30B/175B teacher + critic scoring vs
//!   LLaMA-7B/13B student) using the transformer cost model in
//!   `cosmo-teacher::cost`;
//! * **Measured view** — wall-clock throughput of *our* student on this
//!   machine; lives in `cosmo-bench` (`figures::measured_student_throughput`)
//!   because this crate is deterministic and may not read the clock (A04).

use cosmo_teacher::{CostMeter, TeacherModel};

/// One efficiency row.
#[derive(Debug, Clone)]
pub struct EfficiencyRow {
    /// Configuration name.
    pub name: String,
    /// Parameters.
    pub params: f64,
    /// Simulated mean latency per request (ms) on the reference cluster.
    pub sim_latency_ms: f64,
    /// Simulated FLOPs per request.
    pub sim_flops_per_req: f64,
}

/// Simulated-scale comparison for a fixed (prompt, generation) length.
pub fn simulated_comparison(prompt: &str, generation: &str) -> Vec<EfficiencyRow> {
    [
        (
            "FolkScope pipeline (OPT-175B + critic)",
            TeacherModel::Opt175b,
        ),
        (
            "FolkScope pipeline (OPT-30B + critic)",
            TeacherModel::Opt30b,
        ),
        ("COSMO-LM (LLaMA-13B)", TeacherModel::Llama13b),
        ("COSMO-LM (LLaMA-7B)", TeacherModel::Llama7b),
    ]
    .into_iter()
    .map(|(name, model)| {
        let mut meter = CostMeter::new(model);
        meter.record_generation(prompt, generation);
        if name.contains("critic") {
            // the distillation pipeline additionally scores every candidate
            // with a classifier forward pass
            meter.record_scoring(generation);
        }
        EfficiencyRow {
            name: name.to_string(),
            params: model.params(),
            sim_latency_ms: meter.mean_latency_ms() * meter.calls() as f64,
            sim_flops_per_req: meter.total_flops(),
        }
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn student_models_dominate_teacher_pipelines() {
        let rows = simulated_comparison(
            "The following search query caused the following product purchases. Query: camping",
            "1. they are used for sleeping outdoors.",
        );
        assert_eq!(rows.len(), 4);
        let opt175 = rows.iter().find(|r| r.name.contains("175B")).unwrap();
        let llama7 = rows.iter().find(|r| r.name.contains("7B")).unwrap();
        assert!(
            opt175.sim_flops_per_req > llama7.sim_flops_per_req * 20.0,
            "teacher pipeline must be ≫ student"
        );
        assert!(opt175.sim_latency_ms > llama7.sim_latency_ms);
    }
}
