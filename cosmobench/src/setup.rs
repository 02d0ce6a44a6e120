//! Building the system under test from a seed: the refreshed student, the
//! mid-scale world frozen to a v2 file, and the HTTP server over it.

use crate::util::{nproc, Rng};
use cosmo_core::{generate_and_freeze, run_over, PipelineConfig, ScaleFreezeReport};
use cosmo_http::{HttpServer, ServerConfig, ServerHandle};
use cosmo_kg::{KgSnapshotView, StreamOptions};
use cosmo_lm::{build_instructions, tail_vocab_from_pipeline, CosmoLm, StudentConfig};
use cosmo_serving::ServingSystem;
use cosmo_synth::scale::head_text;
use cosmo_synth::{BehaviorLog, ScaleConfig, World};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Query heads preloaded into L1 (the default L1 capacity).
pub const PRELOAD: usize = 4096;

/// Student epochs, as the tiny-scale experiment context trains it.
const STUDENT_EPOCHS: usize = 6;

/// Wall clock of the refresh stages, and the pipeline's counts.
#[derive(Default, Clone)]
pub struct Stages {
    pub world_s: f64,
    pub log_s: f64,
    pub run_over_s: f64,
    pub instructions_s: f64,
    pub train_s: f64,
    pub freeze_s: f64,
    pub candidates: usize,
    pub kept: usize,
    pub edges_admitted: usize,
    pub report_debug: String,
}

/// The pipeline's inputs: the synthetic catalogue and behaviour log.
pub struct Inputs {
    pub cfg: PipelineConfig,
    pub world: World,
    pub log: BehaviorLog,
    pub world_s: f64,
    pub log_s: f64,
}

pub fn pipeline_inputs(seed: u64) -> Inputs {
    let cfg = PipelineConfig {
        threads: nproc(),
        ..PipelineConfig::tiny(seed)
    };
    let t = Instant::now();
    let world = World::generate(cfg.world.clone());
    let world_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let log = BehaviorLog::generate(&world, &cfg.behavior);
    let log_s = t.elapsed().as_secs_f64();
    Inputs {
        cfg,
        world,
        log,
        world_s,
        log_s,
    }
}

/// The Figure 2 pipeline over `inputs`, then instruction tuning of the
/// student on its annotations.
pub fn refresh_student(inputs: Inputs, seed: u64) -> (Arc<CosmoLm>, Stages) {
    let mut st = Stages {
        world_s: inputs.world_s,
        log_s: inputs.log_s,
        ..Stages::default()
    };
    let t = Instant::now();
    let out = run_over(inputs.world, inputs.log, &inputs.cfg);
    st.run_over_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let instructions = build_instructions(&out.world, &out.filtered, &out.annotation, seed ^ 2);
    st.instructions_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut lm = CosmoLm::new(
        StudentConfig {
            seed: seed ^ 3,
            epochs: STUDENT_EPOCHS,
            ..StudentConfig::default()
        },
        tail_vocab_from_pipeline(&out),
    );
    lm.train(&instructions);
    st.train_s = t.elapsed().as_secs_f64();
    st.candidates = out.report.candidates;
    st.kept = out.report.kept_after_filter;
    st.edges_admitted = out.report.edges_admitted;
    st.report_debug = format!("{:?}", out.report);
    (Arc::new(lm), st)
}

/// Stream the mid-scale world for `seed` into a v2 file at `path`.
pub fn freeze_mid(seed: u64, path: &Path) -> (ScaleFreezeReport, f64) {
    let spill_dir = path.parent().map(Path::to_path_buf);
    let t = Instant::now();
    let report = generate_and_freeze(
        &ScaleConfig::mid(seed),
        nproc(),
        path,
        StreamOptions {
            spill_dir,
            ..StreamOptions::default()
        },
    )
    .expect("stream-freeze the mid world");
    (report, t.elapsed().as_secs_f64())
}

/// Every query head of the mid world for `seed`, in a seed-chosen order.
pub fn query_heads(seed: u64) -> Vec<String> {
    let cfg = ScaleConfig::mid(seed);
    let mut heads: Vec<u64> = (0..cfg.queries).collect();
    Rng::new(seed ^ 0x4EAD).shuffle(&mut heads);
    heads.into_iter().map(|h| head_text(&cfg, h).1).collect()
}

/// The served system: everything the serving workloads share.
pub struct Serving {
    pub system: Arc<ServingSystem>,
    pub server: ServerHandle,
    pub lm: Arc<CosmoLm>,
    pub file: PathBuf,
    /// The queries preloaded into L1.
    pub preload: Vec<String>,
    /// Query heads of the served world, none of them preloaded.
    pub misses: Vec<String>,
    pub stages: Stages,
    pub freeze: ScaleFreezeReport,
}

impl Serving {
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Connection workers: enough for the closed loop's `nproc` connections,
/// the open loop's, and one probe at once.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        conn_workers: 2 * nproc() + 1,
        ..ServerConfig::default()
    }
}

/// Start serving `file` with `preload` in L1.
pub fn start(
    file: &Path,
    lm: &Arc<CosmoLm>,
    preload: &[String],
) -> (Arc<ServingSystem>, ServerHandle) {
    let view = KgSnapshotView::open(file).expect("open the frozen v2 file");
    let system = Arc::new(
        ServingSystem::builder()
            .view(view)
            .lm(Arc::clone(lm))
            .preload(preload.iter().cloned())
            .build()
            .expect("default serving config is valid"),
    );
    let server = HttpServer::start(Arc::clone(&system), server_config()).expect("bind loopback");
    (system, server)
}

/// The shared serving set-up: student from the tiny pipeline, the mid
/// world frozen to v2 and opened mapped, L1 preloaded with query heads,
/// and the HTTP server started.
pub fn serving(seed: u64, dir: &Path) -> Serving {
    let (lm, mut stages) = refresh_student(pipeline_inputs(seed), seed);
    let file = dir.join("mid.kg2");
    let (freeze, freeze_s) = freeze_mid(seed, &file);
    stages.freeze_s = freeze_s;
    let mut heads = query_heads(seed);
    let preload: Vec<String> = heads.drain(..PRELOAD).collect();
    let (system, server) = start(&file, &lm, &preload);
    Serving {
        system,
        server,
        lm,
        file,
        preload,
        misses: heads,
        stages,
        freeze,
    }
}

/// Read a file once so its pages are cached before timing starts,
/// through a small buffer so the read adds nothing to the process's
/// memory peak.
pub fn warm_page_cache(path: &Path) {
    let mut file = std::fs::File::open(path).expect("open the snapshot file");
    std::io::copy(&mut file, &mut std::io::sink()).expect("read the snapshot file");
}
