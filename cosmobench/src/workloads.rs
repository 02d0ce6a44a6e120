//! The three workloads. Each builds its inputs from the seed, hands the
//! system only those inputs, measures, and checks the outputs.

use crate::load::{closed_loop, http_request, open_loop, OpenReport, Plan, WINDOW};
use crate::probe;
use crate::report::Report;
use crate::setup::{self, Serving, PRELOAD};
use crate::util::{fnv64, median, nproc, quantile, windowed, Rng, Zipf, FNV_OFFSET};
use cosmo_kg::KgSnapshotView;
use cosmo_serving::{compute_features, ServeRequest, ServingSystem, StructuredFeatures};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Fixed open-loop rate of `hot_read`, requests per second.
pub const HOT_RATE: f64 = 4_000.0;
/// How long `hot_read`'s sender yields the core before each due time.
const HOT_SPIN: Duration = Duration::from_micros(100);
/// Fixed open-loop rate of `cold_fill`, requests per second.
pub const COLD_RATE: f64 = 8_000.0;
/// Zipf exponent of every query stream.
const ZIPF_S: f64 = 1.0;
/// `cold_fill`'s query universe: four times the default L2 capacity.
const UNIVERSE: usize = 65_536;
/// Share of the universe that is KG-resident query heads; the rest are
/// unseen queries that take the student's cold path.
const KG_SHARE: f64 = 0.7;
/// Windows `cold_fill`'s fill quantiles are taken over: about a thousand
/// fills each, so a window's p99 rests on ten of them.
const FILL_WINDOW: Duration = Duration::from_secs(1);
/// Pause between the benchmark's batch cycles, as the repository's serve
/// experiment drives them.
const BATCH_PAUSE: Duration = Duration::from_millis(5);
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// The pipeline seed of an `offline` run's `k`-th refresh. Each refresh
/// of a run draws its own inputs, so one run's figures are a median over
/// several worlds rather than one world's size.
fn refresh_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(16).wrapping_add(k)
}

/// `offline`: about how long one refresh takes on a 2-core machine; a run
/// makes `--seconds / REFRESH_S` of them.
const REFRESH_S: f64 = 3.0;
/// Sampled bodies compared against the in-process answer.
const SAMPLE_EVERY: usize = 97;

/// One run's arguments.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Scratch directory for snapshot files, removed at exit.
    pub dir: PathBuf,
}

impl Run {
    /// Time `build`, the run's own set-up, beside `reps - 1` more set-ups
    /// made in child processes, so each starts from a fresh process like
    /// the first and none leaves memory behind in this one. Returns the
    /// built value, the median set-up time and each child's output.
    fn timed_setup<T>(&self, reps: usize, build: impl FnOnce() -> T) -> (T, f64, Vec<String>) {
        let (mut times, outputs): (Vec<f64>, Vec<String>) =
            (1..reps).map(|_| self.child_setup()).unzip();
        let t = Instant::now();
        let built = build();
        times.push(t.elapsed().as_secs_f64());
        (built, median(&times), outputs)
    }

    fn child_setup(&self) -> (f64, String) {
        let exe = std::env::current_exe().expect("path of this benchmark binary");
        let out = std::process::Command::new(exe)
            .args([
                "--workload",
                &self.workload,
                "--seed",
                &self.seed.to_string(),
            ])
            .args(["--setup-only", "1"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("run a set-up repetition");
        let text = String::from_utf8_lossy(&out.stdout);
        let secs = text
            .lines()
            .last()
            .and_then(|l| l.strip_prefix("setup_s "))
            .and_then(|v| v.parse().ok());
        match secs {
            Some(s) if out.status.success() => (s, text.into_owned()),
            _ => panic!("set-up repetition failed: {text}"),
        }
    }

    fn serving(&self) -> (Serving, f64) {
        let (s, secs, _) = self.timed_setup(SETUP_REPS, || setup::serving(self.seed, &self.dir));
        (s, secs)
    }
}

/// One set-up repetition of `workload`, timed and torn down: the body of
/// a `--setup-only` child process.
pub fn setup_once(workload: &str, seed: u64, dir: &Path) -> f64 {
    let t = Instant::now();
    match workload {
        "offline" => {
            let r = Refresh::run(refresh_seed(seed, 0), &dir.join("refresh.kg2"));
            println!("refresh_digest {:#018x}", r.digest);
            r.seconds
        }
        _ => {
            let s = setup::serving(seed, dir);
            let took = t.elapsed().as_secs_f64();
            s.shutdown();
            took
        }
    }
}

/// A query stream: Zipf over `n` items, popularity ranks shuffled by seed.
fn zipf_stream(rng: &mut Rng, n: usize, len: usize) -> Vec<u32> {
    let zipf = Zipf::new(n, ZIPF_S);
    let mut rank_to_item: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut rank_to_item);
    (0..len).map(|_| rank_to_item[zipf.sample(rng)]).collect()
}

/// Queries no world contains: unseen by the graph and the cache.
fn unseen_queries(seed: u64, n: usize) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0x0F_F5EE);
    (0..n)
        .map(|i| {
            let spec = &cosmo_synth::SPECS[rng.below(cosmo_synth::SPECS.len())];
            let base = spec.bases[rng.below(spec.bases.len())];
            let event = spec.events[rng.below(spec.events.len())];
            format!("{base} ideas for {event} u{i:06}")
        })
        .collect()
}

/// Misses for the probes: KG-resident heads outside L1 and unseen
/// queries in the `cold_fill` mix.
fn miss_mix(s: &Serving, seed: u64) -> (Vec<String>, Vec<String>) {
    let cold = unseen_queries(seed ^ 0x9B0B, 512);
    let mut rng = Rng::new(seed ^ 0x3115);
    let mut misses: Vec<String> = (0..512)
        .map(|i| {
            if rng.next_f64() < KG_SHARE {
                s.misses[i].clone()
            } else {
                cold[i].clone()
            }
        })
        .collect();
    rng.shuffle(&mut misses);
    (misses, cold)
}

fn serve_plan(queries: &[String], schedule: Vec<u32>, rate: f64, spin: Duration) -> Plan {
    Plan {
        requests: queries
            .iter()
            .map(|q| http_request("/v1/serve-intents", &ServeRequest::new(q.clone()).to_json()))
            .collect(),
        schedule,
        rate,
        spin,
    }
}

fn schedule_len(rate: f64, seconds: f64) -> usize {
    ((rate * seconds) as usize).max(1)
}

/// Loadgen self-report, load-phase traffic sizes and open-loop totals.
fn loadgen(report: &mut Report, open: &OpenReport, plan: &Plan) {
    let late = open.late_p99_us();
    report.named("loadgen.late_p99_us", late, "us");
    report.named("loadgen.sent", open.sent as f64, "count");
    report.named("loadgen.completed", open.completed as f64, "count");
    report.set("loadgen.late_p99_us", late);
    report.set("loadgen.sent", open.sent as f64);
    report.set("loadgen.completed", open.completed as f64);
    let ok: Vec<_> = open.outcomes.iter().filter(|o| OpenReport::ok(o)).collect();
    let mean = |f: &dyn Fn(&crate::load::Outcome) -> u32| {
        ok.iter().map(|o| f(o) as f64).sum::<f64>() / ok.len().max(1) as f64
    };
    report.set("http.req_bytes", mean(&|o| o.req_bytes));
    report.set("http.resp_bytes", mean(&|o| o.resp_bytes));
    report.check(open.sent == plan.schedule.len() as u64, || {
        format!(
            "load generator sent {} of {} scheduled requests",
            open.sent,
            plan.schedule.len()
        )
    });
}

/// Per-layer numbers every serving workload shares.
fn trace_serving(report: &mut Report, s: &Serving, seed: u64, swap_to: &Path) {
    probe::counters(report, s);
    probe::stages(report, &s.stages, &s.freeze);
    probe::shards(report, seed);
    let (misses, cold) = miss_mix(s, seed);
    probe::request_path(report, s);
    if !report.metrics.contains_key("serving.batch_cycle_ms") {
        probe::batch_cycle(report, &s.system, &misses);
    }
    probe::layers(report, s, &misses, &cold, swap_to);
}

fn fail_ratio(report: &mut Report) {
    let ratio = report.failed as f64 / report.attempted.max(1) as f64;
    report.named("fail_ratio", ratio, "ratio");
}

/// `hot_read`: every query is a preloaded L1 head. A closed loop at
/// `nproc` connections gives `rps` and the latency metrics, per request
/// from send to answer; then an open loop at [`HOT_RATE`] sends requests
/// pipelined on their own schedule, whose latency from due time is
/// printed by name.
pub fn hot_read(run: &Run) -> Report {
    let mut report = Report::default();
    let (s, setup_s) = run.serving();
    report.set("setup_s", setup_s);
    let addr = s.server.addr();
    let preload = s.preload.clone();
    let mut rng = Rng::new(run.seed ^ 0x407);

    let closed_bodies: Vec<String> = zipf_stream(&mut rng, PRELOAD, 8192)
        .into_iter()
        .map(|i| ServeRequest::new(preload[i as usize].clone()).to_json())
        .collect();
    setup::warm_page_cache(&s.file);
    closed_loop(addr, nproc(), &closed_bodies, Duration::from_millis(300));

    let closed_s = (run.seconds * 0.75).max(1.0);
    let open_s = (run.seconds - closed_s).max(1.0);
    let closed = closed_loop(
        addr,
        nproc(),
        &closed_bodies,
        Duration::from_secs_f64(closed_s),
    );
    let schedule = zipf_stream(&mut rng, PRELOAD, schedule_len(HOT_RATE, open_s));
    let plan = serve_plan(&preload, schedule, HOT_RATE, HOT_SPIN);
    let mut samples: Vec<(u32, Vec<u8>)> = Vec::new();
    let open = open_loop(addr, &plan, |i, r, _, body, _| {
        if i % SAMPLE_EVERY == 0 {
            samples.push((r, body.to_vec()));
        }
    });

    report.set("p50_us", closed.p50_us);
    report.set("p99_us", closed.p99_us);
    report.named("rps", closed.rps, "1/s");
    report.named("open_rate", HOT_RATE, "1/s");
    report.named("open_p50_us", open.latency_us(0.5, WINDOW, 0.5), "us");
    report.named("open_p99_us", open.latency_us(0.99, WINDOW, 0.5), "us");
    report.attempted = closed.completed + closed.failed + plan.schedule.len() as u64;
    report.failed = closed.failed + open.failed();
    fail_ratio(&mut report);
    loadgen(&mut report, &open, &plan);

    // sampled bodies must be byte-identical to the in-process answer of
    // an identically built twin system
    let twin = ServingSystem::builder()
        .view(KgSnapshotView::open(&s.file).expect("reopen the served file"))
        .lm(Arc::clone(&s.lm))
        .preload(preload.iter().cloned())
        .build()
        .expect("default serving config is valid");
    let mismatched = samples
        .iter()
        .filter(|(r, body)| {
            let want = twin.handle(&ServeRequest::new(preload[*r as usize].clone()));
            want.to_json().as_bytes() != body.as_slice()
        })
        .count();
    report.check(!samples.is_empty() && mismatched == 0, || {
        format!(
            "hot_read: {mismatched} of {} sampled bodies differ from the twin's",
            samples.len()
        )
    });
    let hits = s.system.ops();
    report.check(hits.misses == 0, || {
        format!("hot_read: {} reads missed L1", hits.misses)
    });
    if run.traced {
        trace_serving(&mut report, &s, run.seed, &s.file.clone());
        report.set("lm.cold_share", 0.0);
    }
    s.shutdown();
    report
}

/// Fill bookkeeping shared by the reader (first `enqueued` answers) and
/// the batch driver (fills).
#[derive(Default)]
struct Fills {
    waiting: HashMap<u32, Instant>,
    filled: HashSet<u32>,
    /// `(query, first enqueued, cycle start, cycle end)`.
    done: Vec<(u32, Instant, Instant, Instant)>,
    /// Fills whose cycle cannot be told: the `enqueued` answer was read
    /// after the cycle that filled the query had started.
    untimed: usize,
}

/// `cold_fill`: open loop at [`COLD_RATE`] over a Zipf universe four times
/// L2, 70% KG-resident heads and 30% unseen queries; the benchmark's own
/// driver runs `run_batch_cycle` with a fixed pause between cycles.
/// `p50_us`/`p99_us` time a query from its first `enqueued` answer to the
/// end of the batch cycle after which the feature store holds it.
pub fn cold_fill(run: &Run) -> Report {
    let mut report = Report::default();
    let (s, setup_s) = run.serving();
    report.set("setup_s", setup_s);
    let addr = s.server.addr();

    let n_kg = (UNIVERSE as f64 * KG_SHARE) as usize;
    let mut universe: Vec<String> = s.misses[..n_kg].to_vec();
    universe.extend(unseen_queries(run.seed, UNIVERSE - n_kg));
    let mut rng = Rng::new(run.seed ^ 0xC01D);
    let schedule = zipf_stream(&mut rng, UNIVERSE, schedule_len(COLD_RATE, run.seconds));
    let plan = serve_plan(&universe, schedule, COLD_RATE, Duration::ZERO);
    setup::warm_page_cache(&s.file);
    let warm: Vec<String> = s.preload[..256]
        .iter()
        .map(|q| ServeRequest::new(q.clone()).to_json())
        .collect();
    closed_loop(addr, nproc(), &warm, Duration::from_millis(300));

    let fills = Mutex::new(Fills::default());
    let hits = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let mut cycles: Vec<(f64, usize)> = Vec::new();
    let base = Instant::now();
    let open = std::thread::scope(|scope| {
        let driver = scope.spawn(|| {
            let mut cycles = Vec::new();
            let drain_deadline = || Instant::now() + Duration::from_secs(3);
            let mut deadline: Option<Instant> = None;
            loop {
                let start = Instant::now();
                let n = s.system.run_batch_cycle().unwrap_or(0);
                let end = Instant::now();
                if n > 0 {
                    cycles.push(((end - start).as_secs_f64() * 1e3, n));
                }
                let generation = s.system.current();
                let mut f = fills.lock().expect("fill bookkeeping");
                let Fills {
                    waiting,
                    filled,
                    done,
                    untimed,
                } = &mut *f;
                waiting.retain(|&r, &mut enq| {
                    if generation.features.get(&universe[r as usize]).is_none() {
                        return true;
                    }
                    filled.insert(r);
                    // read after this cycle began: an earlier cycle may
                    // have filled it
                    if enq > start {
                        *untimed += 1;
                    } else {
                        done.push((r, enq, start, end));
                    }
                    false
                });
                let idle = waiting.is_empty() && generation.cache.pending_len() == 0;
                drop(f);
                if stop.load(Ordering::Acquire) {
                    let d = *deadline.get_or_insert_with(drain_deadline);
                    if idle || Instant::now() > d {
                        break;
                    }
                }
                std::thread::sleep(BATCH_PAUSE);
            }
            cycles
        });
        let open = open_loop(addr, &plan, |_, r, status, body, at| {
            if status != 200 {
                return;
            }
            if contains(body, b"\"status\":\"enqueued\"") {
                let mut f = fills.lock().expect("fill bookkeeping");
                if f.filled.contains(&r) || f.waiting.contains_key(&r) {
                    return;
                }
                // checked under the lock the driver books fills under, so
                // a fill that landed before this answer was read is seen
                // here or, with a later cycle start, by the driver
                let q = &universe[r as usize];
                if s.system.current().features.get(q).is_some() {
                    f.filled.insert(r);
                    f.untimed += 1;
                } else {
                    f.waiting.insert(r, at);
                }
            } else if contains(body, b"\"status\":\"hit\"") {
                hits.fetch_add(1, Ordering::Relaxed);
            }
        });
        stop.store(true, Ordering::Release);
        cycles = driver.join().expect("batch driver panicked");
        open
    });

    let fills = fills.into_inner().expect("fill bookkeeping");
    let window = |t: Instant| {
        (t.saturating_duration_since(base).as_secs_f64() / FILL_WINDOW.as_secs_f64()) as usize
    };
    let mut fill_us: Vec<(usize, f64)> = fills
        .done
        .iter()
        .map(|&(_, enq, _, end)| (window(enq), (end - enq).as_secs_f64() * 1e6))
        .collect();
    fill_us.extend(
        fills
            .waiting
            .values()
            .map(|&enq| (window(enq), f64::INFINITY)),
    );
    let p50 = windowed(&fill_us, 0.5, 10, 0.5);
    let p99 = windowed(&fill_us, 0.99, 10, 0.5);
    report.set("p50_us", p50);
    report.set("p99_us", p99);
    report.named("fill_p50_ms", p50 / 1e3, "ms");
    report.named("fill_p99_ms", p99 / 1e3, "ms");
    report.named("fills", fills.done.len() as f64, "count");
    report.named("never_filled", fills.waiting.len() as f64, "count");
    report.named("untimed_fills", fills.untimed as f64, "count");
    let answered = open.completed.max(1) as f64;
    report.named(
        "hit_ratio",
        hits.load(Ordering::Relaxed) as f64 / answered,
        "ratio",
    );
    report.named("serve_p50_us", open.latency_us(0.5, WINDOW, 0.5), "us");
    report.named("serve_p99_us", open.latency_us(0.99, WINDOW, 0.5), "us");
    report.named("open_rate", COLD_RATE, "1/s");
    report.attempted = plan.schedule.len() as u64;
    report.failed = open.failed();
    fail_ratio(&mut report);
    loadgen(&mut report, &open, &plan);

    // sampled fills must be bitwise equal to in-process compute_features
    let generation = s.system.current();
    let step = (fills.done.len() / 64).max(1);
    let mut checked = 0usize;
    let mut differing = Vec::new();
    for &(r, ..) in fills.done.iter().step_by(step) {
        let q = &universe[r as usize];
        let got = generation
            .features
            .get(q)
            .expect("filled query stays in the store");
        let want = compute_features(q, &*generation.view, &s.lm);
        checked += 1;
        if !same_features(&got, &want) {
            differing.push(q.clone());
        }
    }
    report.check(checked > 0 && differing.is_empty(), || {
        format!(
            "cold_fill: {} of {checked} sampled fills differ from compute_features: {:?}",
            differing.len(),
            differing.iter().take(3).collect::<Vec<_>>()
        )
    });

    if run.traced {
        let mut waits: Vec<f64> = Vec::new();
        let mut cold = 0usize;
        for &(r, enq, start, _) in &fills.done {
            waits.push(start.saturating_duration_since(enq).as_secs_f64() * 1e3);
            cold += (r as usize >= n_kg) as usize;
        }
        let sizes: Vec<f64> = cycles.iter().map(|&(_, n)| n as f64).collect();
        let mean_queries = sizes.iter().sum::<f64>() / sizes.len().max(1) as f64;
        report.set(
            "serving.batch_cycle_ms",
            median(&cycles.iter().map(|&(ms, _)| ms).collect::<Vec<_>>()),
        );
        report.set("serving.batch_queries", mean_queries);
        report.set(
            "serving.batch_fill",
            mean_queries / s.system.config().batch_size as f64,
        );
        report.set("serving.batch_wait_ms", median(&waits));
        report.set(
            "lm.cold_share",
            cold as f64 / fills.done.len().max(1) as f64,
        );
        trace_serving(&mut report, &s, run.seed, &s.file.clone());
    }
    s.shutdown();
    report
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

fn same_features(a: &StructuredFeatures, b: &StructuredFeatures) -> bool {
    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    a.query == b.query
        && a.strong_intent == b.strong_intent
        && a.intents.len() == b.intents.len()
        && a.intents
            .iter()
            .zip(&b.intents)
            .all(|(x, y)| x.0 == y.0 && x.1 == y.1 && x.2.to_bits() == y.2.to_bits())
        && bits(&a.subcategory) == bits(&b.subcategory)
}

/// Digests of the `offline` output pinned per seed, for the default
/// seed 1 and the holdout seed 2 (default build; `fast-math` changes the
/// bits).
const OFFLINE_PINS: [(u64, u64); 2] = [(1, 0xeafe_2350_7acb_4e87), (2, 0x8fc7_ef4e_a3dd_76b4)];

/// One daily refresh: seed-generated inputs, the Figure 2 pipeline,
/// instruction tuning of the student, and the mid world stream-frozen to
/// v2 at `file`.
struct Refresh {
    lm: Option<Arc<cosmo_lm::CosmoLm>>,
    stages: setup::Stages,
    freeze: cosmo_core::ScaleFreezeReport,
    seconds: f64,
    /// FNV-1a over the pipeline report and the frozen file's bytes.
    digest: u64,
}

impl Refresh {
    /// Drop the trained model, keeping the figures.
    fn release(&mut self) {
        self.lm = None;
    }

    fn run(seed: u64, file: &Path) -> Refresh {
        let t = Instant::now();
        let (lm, mut stages) = setup::refresh_student(setup::pipeline_inputs(seed), seed);
        let (freeze, freeze_s) = setup::freeze_mid(seed, file);
        let seconds = t.elapsed().as_secs_f64();
        stages.freeze_s = freeze_s;
        let bytes = std::fs::read(file).expect("read the frozen file");
        let digest = fnv64(&bytes, fnv64(stages.report_debug.as_bytes(), FNV_OFFSET));
        Refresh {
            lm: Some(lm),
            stages,
            freeze,
            seconds,
            digest,
        }
    }
}

/// `offline`: the daily refresh, repeated until the run's time is spent —
/// see [`Refresh`]. Set-up is the first refresh of the process, which
/// pays the one-time costs; `p50_us` is the median of the later refreshes,
/// each over its own inputs, and `p99_us` the slowest.
pub fn offline(run: &Run) -> Report {
    let mut report = Report::default();
    let file = run.dir.join("refresh.kg2");
    let (first, setup_s, children) = run.timed_setup(SETUP_REPS, || {
        Refresh::run(refresh_seed(run.seed, 0), &file)
    });
    report.set("setup_s", setup_s);
    // a fixed count per run length, so every run allocates alike
    let count = ((run.seconds / REFRESH_S).round() as usize).max(2);
    let mut refreshes: Vec<Refresh> = Vec::with_capacity(count);
    for k in 1..=count {
        if let Some(prev) = refreshes.last_mut() {
            prev.release();
        }
        refreshes.push(Refresh::run(refresh_seed(run.seed, k as u64), &file));
    }
    let times: Vec<f64> = refreshes.iter().map(|r| r.seconds * 1e6).collect();
    let pipeline_s: Vec<f64> = refreshes
        .iter()
        .map(|r| r.seconds - r.stages.freeze_s)
        .collect();
    let freeze_s: Vec<f64> = refreshes.iter().map(|r| r.stages.freeze_s).collect();
    report.named("pipeline_s", median(&pipeline_s), "s");
    report.named("freeze_s", median(&freeze_s), "s");
    report.set("p50_us", median(&times));
    report.set("p99_us", quantile(&times, 1.0));
    report.named("refreshes", times.len() as f64, "count");
    report.attempted = (times.len() + children.len() + 1) as u64;

    // the set-up refreshes ran the same inputs in separate processes:
    // their outputs must agree to the byte
    let digest = first.digest;
    println!("offline digest for seed {}: {digest:#018x}", run.seed);
    let hex = format!("refresh_digest {digest:#018x}");
    let agreeing = children.iter().filter(|out| out.contains(&hex)).count();
    report.check(agreeing == children.len(), || {
        format!(
            "offline: {} of {} set-up refreshes in other processes disagree with {digest:#018x}",
            children.len() - agreeing,
            children.len()
        )
    });
    let pinned = OFFLINE_PINS.iter().find(|(seed, _)| *seed == run.seed);
    if let (Some(&(_, pin)), false) = (pinned, cfg!(feature = "fast-math")) {
        report.check(pin == digest, || {
            format!("offline: digest {digest:#018x} differs from the pinned {pin:#018x}")
        });
    }
    let Refresh {
        lm, stages, freeze, ..
    } = refreshes.pop().expect("at least one refresh ran");
    let lm = lm.expect("the last refresh keeps its model");
    let view = KgSnapshotView::open_verified(&file).expect("the frozen file verifies");
    report.check(
        view.num_nodes() == freeze.stats.nodes && view.num_edges() == freeze.stats.edges,
        || "offline: the frozen file's counts differ from the writer's".to_string(),
    );
    drop(view);
    if run.traced {
        // serve the refreshed output to take the serving layers' numbers,
        // with queries from the world frozen into it
        let mut misses = setup::query_heads(refresh_seed(run.seed, count as u64));
        let preload: Vec<String> = misses.drain(..PRELOAD).collect();
        let (system, server) = setup::start(&file, &lm, &preload);
        let s = Serving {
            system,
            server,
            lm,
            file: file.clone(),
            preload,
            misses,
            stages,
            freeze,
        };
        report.set("lm.cold_share", 0.0);
        trace_serving(&mut report, &s, run.seed, &file);
        // the refresh drives no traffic of its own
        for name in [
            "loadgen.late_p99_us",
            "loadgen.sent",
            "loadgen.completed",
            "http.req_bytes",
            "http.resp_bytes",
        ] {
            report.set(name, 0.0);
        }
        s.shutdown();
    }
    report
}
