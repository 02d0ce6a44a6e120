//! Instruction-tune COSMO-LM and compare it against the raw teacher —
//! the paper's central §3.4 story: a small aligned model generates
//! *typical* knowledge where the raw LLM mostly doesn't.
//!
//! ```text
//! cargo run --release --example train_student
//! ```

use cosmo::core::{run, PipelineConfig};
use cosmo::lm::{
    build_instructions, eval_generation, tail_vocab_from_pipeline, task_histogram, CosmoLm,
    StudentConfig, TaskType,
};
use cosmo::teacher::{Teacher, TeacherConfig};

fn main() {
    // Offline pipeline → annotations.
    let out = run(PipelineConfig::tiny(2024));

    // §3.4: turn annotations into instruction data (5 task types, multiple
    // verbalisation templates).
    let instructions = build_instructions(&out.world, &out.filtered, &out.annotation, 7);
    println!("== instruction data ==");
    for (task, n) in task_histogram(&instructions) {
        println!("  {:<30} {n}", task.name());
    }

    // Instruction-tune the student.
    let epochs = 10;
    let t0 = std::time::Instant::now();
    let mut student = CosmoLm::new(
        StudentConfig {
            epochs,
            ..StudentConfig::default()
        },
        tail_vocab_from_pipeline(&out),
    );
    let report = student.train(&instructions);
    let secs = t0.elapsed().as_secs_f64();
    println!("\n== training ==");
    println!(
        "per-epoch wall clock: {:.0} ms",
        secs * 1000.0 / epochs as f64
    );
    println!("generation instances: {}", report.n_generate);
    println!("prediction instances: {}", report.n_predict);
    println!(
        "held-out generation top-1 (exact tail): {:.1}%",
        report.gen_top1 * 100.0
    );
    for (task, acc) in &report.predict_accuracy {
        println!("held-out {task}: {:.1}%", acc * 100.0);
    }

    // The headline comparison: student vs raw teacher on held-out
    // behaviours, judged by the world's ground-truth oracle.
    let mut teacher = Teacher::new(&out.world, TeacherConfig::default());
    let eval = eval_generation(&out.world, &out.log, &student, &mut teacher, 1_000, 300);
    println!("\n== generation quality (n={}) ==", eval.n);
    println!(
        "COSMO-LM:    typical {:.1}%  plausible {:.1}%",
        eval.student_typical * 100.0,
        eval.student_plausible * 100.0
    );
    println!(
        "raw teacher: typical {:.1}%  plausible {:.1}%",
        eval.teacher_typical * 100.0,
        eval.teacher_plausible * 100.0
    );

    // One model, five tasks: use the prediction heads too.
    let sb = &out.log.search_buys[0];
    let input = format!(
        "is the product relevant to the query: search query: {} | purchased product: {}",
        out.world.query(sb.query).text,
        out.world.product(sb.product).title
    );
    println!(
        "\nrelevance head on a real behaviour: P(relevant) = {:.2}",
        student.predict(TaskType::RelevancePrediction, &input)
    );
}
