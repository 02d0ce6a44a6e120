//! Regenerate the paper's tables and figures.
//!
//! Usage:
//!   repro -- <experiment|all|ablations> [--scale tiny|small|full] [--seed N]

use cosmo_bench::extensions::{freeze_child, FREEZE_CHILD_ARG};
use cosmo_bench::{build_context, run_experiment, Scale, EXPERIMENTS};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // kg-scaling runs each streamed freeze in a child of this binary, so
    // the child's peak RSS is the freeze's alone
    if args.first().map(String::as_str) == Some(FREEZE_CHILD_ARG) {
        match freeze_child(&args[1..]) {
            Ok(line) => println!("{line}"),
            Err(usage) => {
                eprintln!("usage: repro {usage}");
                std::process::exit(2);
            }
        }
        return;
    }
    let mut scale = Scale::Small;
    let mut seed = 0x000C_0530_u64;
    let mut smoke = false;
    let mut paper = false;
    let mut targets: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = Scale::parse(args.get(i).map(|s| s.as_str()).unwrap_or(""))
                    .expect("--scale tiny|small|full");
            }
            "--seed" => {
                i += 1;
                seed = args[i].parse().expect("--seed <u64>");
            }
            "--smoke" => smoke = true,
            "--paper" => paper = true,
            other => targets.push(other.to_string()),
        }
        i += 1;
    }
    if targets.is_empty() {
        eprintln!(
            "usage: repro <experiment|all|ablations> [--scale tiny|small|full] [--smoke] [--paper]"
        );
        eprintln!("experiments: {}", EXPERIMENTS.join(", "));
        std::process::exit(2);
    }
    if targets == ["all"] {
        targets = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
        targets.push("ablations".to_string());
    }

    let t0 = Instant::now();
    eprintln!("[repro] building context at {scale:?} scale (seed {seed:#x})...");
    let ctx = build_context(scale, seed);
    eprintln!(
        "[repro] context ready in {:.1}s: KG {} nodes / {} edges / {} relations; {} instructions; student gen-top1 {:.1}%",
        t0.elapsed().as_secs_f64(),
        ctx.out.kg.num_nodes(),
        ctx.out.kg.num_edges(),
        ctx.out.kg.num_relations(),
        ctx.instructions.len(),
        ctx.student_report.gen_top1 * 100.0
    );

    for t in &targets {
        let t1 = Instant::now();
        // `kg-scaling` has mode switches: --smoke is the CI gate, --paper
        // streams the full 6.3M-node / 29M-edge world (minutes; ~3 GB of
        // scratch disk).
        let result = if t == "kg-scaling" {
            let tier = if paper {
                cosmo_bench::extensions::KgTier::Paper
            } else if smoke {
                cosmo_bench::extensions::KgTier::Smoke
            } else {
                cosmo_bench::extensions::KgTier::Default
            };
            Some(cosmo_bench::extensions::kg_scaling(&ctx, tier))
        } else {
            run_experiment(&ctx, t)
        };
        match result {
            Some(output) => {
                println!("\n================ {t} ================");
                println!("{output}");
                eprintln!("[repro] {t} done in {:.1}s", t1.elapsed().as_secs_f64());
            }
            None => eprintln!("[repro] unknown experiment: {t}"),
        }
    }
}
