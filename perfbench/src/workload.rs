//! The three benchmark workloads: how their inputs are built from a seed,
//! how one simulation run is driven (plain or traced), and the checks
//! every finished run must pass.

use std::rc::Rc;

use cloudburst_bench::price_regimes;
use cloudburst_chaos::{CrashLaw, FaultProfile};
use cloudburst_core::config::EcSiteConfig;
use cloudburst_core::engine::EngineWorld;
use cloudburst_core::{EngineHarness, ExperimentConfig, SchedulerKind, ServeConfig, ServeHarness};
use cloudburst_econ::{Money, PriceModel};
use cloudburst_sim::{RngFactory, SimDuration, SimTime};
use cloudburst_sla::{RunReport, ServeReport, WindowConfig, WindowStats};
use cloudburst_workload::{Batch, BatchArrivals, OpenArrivalConfig, SizeBucket};

use crate::host::{Stopwatch, Timing};
use crate::trace::{SpanName, Tracer};

/// The schedulers every workload runs, in report order.
pub const SCHEDULERS: [SchedulerKind; 3] = [
    SchedulerKind::Greedy,
    SchedulerKind::OrderPreserving,
    SchedulerKind::Sibs,
];

/// Metric-name suffix for a scheduler (`jobs_per_s.<suffix>`).
pub fn scheduler_suffix(kind: SchedulerKind) -> &'static str {
    match kind {
        SchedulerKind::Greedy => "greedy",
        SchedulerKind::OrderPreserving => "op",
        SchedulerKind::Sibs => "op_sibs",
        other => other.label(),
    }
}

/// Consecutive seeds the timed section cycles through, one per round, so
/// a timed run averages over many inputs rather than one draw.
const PAPER_SEEDS: u64 = 32;
const MEGASCALE_SEEDS: u64 = 8;
const SERVE_SEEDS: u64 = 8;
/// Jobs per `megascale` run: two admission batches of about 10 000 jobs,
/// so a run takes well under a second and a timed run holds several.
pub const MEGASCALE_JOBS: u64 = 20_000;
/// Virtual days per `serve_stream` run.
const SERVE_DAYS: u64 = 3;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 6 grid on the paper config, consecutive seeds, back to back.
    PaperSweep,
    /// The megascale closed batch for each scheduler.
    Megascale,
    /// A multi-day open stream with faults and spot pricing armed.
    ServeStream,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSweep,
        Workload::Megascale,
        Workload::ServeStream,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::Megascale => "megascale",
            Workload::ServeStream => "serve_stream",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's runs are open-arrival serve runs.
    pub fn is_serve(self) -> bool {
        self == Workload::ServeStream
    }
}

/// One simulation run's input: its config, plus the generated batches for
/// a closed run (a serve run generates its stream lazily from the config).
#[derive(Clone, Debug)]
pub struct Spec {
    pub cfg: ExperimentConfig,
    pub batches: Option<Rc<Vec<Batch>>>,
}

/// A workload's generated inputs. A round is one run per spec it lists;
/// the timed section runs whole rounds, cycling through `rounds`.
#[derive(Debug)]
pub struct Inputs {
    pub specs: Vec<Spec>,
    pub rounds: Vec<Vec<usize>>,
}

/// The closed arrival batches of `cfg`, from its seed.
pub fn generate(cfg: &ExperimentConfig) -> Vec<Batch> {
    BatchArrivals::new(cfg.arrivals.clone()).generate(&RngFactory::new(cfg.seed), &cfg.truth)
}

/// The serve workload's config for one scheduler: a diurnal ±80 % stream
/// with flash crowds, 2-minute epochs of about 10 small-biased jobs, fast
/// machines so live jobs plateau, rescheduling on, faults armed, and the
/// spot-revocable price regime plus one on-demand extra site.
pub fn serve_config(kind: SchedulerKind, seed: u64) -> ExperimentConfig {
    let horizon = SimDuration::from_secs(SERVE_DAYS * 86_400);
    let (_, econ) = price_regimes()
        .into_iter()
        .find(|(name, _)| *name == "spot-revocable")
        .expect("price_regimes() lists spot-revocable");
    let mut cfg = ExperimentConfig {
        seed,
        scheduler: kind,
        ..ExperimentConfig::default()
    };
    cfg.ic_speed = 4.0;
    cfg.ec_speed = 4.0;
    cfg.rescheduling = true;
    cfg.faults = Some(FaultProfile {
        ic_crash: Some(CrashLaw {
            mean_uptime_secs: 6.0 * 3_600.0,
            mean_downtime_secs: 600.0,
            max_faults_per_machine: 2,
        }),
        transfer_stall_prob: 0.01,
        transfer_loss_prob: 0.02,
        exec_failure_prob: 0.02,
        horizon_secs: horizon.as_secs_f64(),
        ..FaultProfile::dormant()
    });
    cfg.extra_ec_sites = vec![EcSiteConfig {
        n_machines: cfg.n_ec,
        speed: cfg.ec_speed,
        upload_model: cfg.upload_model.clone(),
        download_model: cfg.download_model.clone(),
        price: Some(PriceModel::OnDemand {
            usd_per_machine_hour: Money::from_cents(240),
            usd_per_gb_transfer: Money::from_cents(9),
        }),
    }];
    cfg.econ = Some(econ);
    cfg.serve = Some(ServeConfig {
        arrivals: OpenArrivalConfig {
            epoch: SimDuration::from_secs(120),
            jobs_per_epoch: 10.0,
            bucket: SizeBucket::SmallBiased,
            ..OpenArrivalConfig::diurnal_service()
        },
        horizon,
        window: WindowConfig {
            window: SimDuration::from_secs(7_200),
            oo_tolerance: 0,
        },
    });
    cfg
}

/// Builds the workload's inputs from `seed`. `max_rounds` caps how many
/// distinct rounds `paper_sweep` generates (the reference pass needs one).
pub fn build_inputs(w: Workload, seed: u64, max_rounds: u64) -> Inputs {
    let seeds = match w {
        Workload::PaperSweep => PAPER_SEEDS,
        Workload::Megascale => MEGASCALE_SEEDS,
        Workload::ServeStream => SERVE_SEEDS,
    };
    let mut specs = Vec::new();
    let mut rounds = Vec::new();
    for s in 0..seeds.min(max_rounds) {
        let seed = seed.wrapping_add(s);
        let mut round = Vec::new();
        let mut push = |spec: Spec| {
            round.push(specs.len());
            specs.push(spec);
        };
        match w {
            Workload::PaperSweep => {
                for kind in SCHEDULERS {
                    for bucket in SizeBucket::ALL {
                        let cfg = ExperimentConfig::paper(kind, bucket, seed);
                        let batches = Some(Rc::new(generate(&cfg)));
                        push(Spec { cfg, batches });
                    }
                }
            }
            Workload::Megascale => {
                // The arrival stream depends on the seed, not the scheduler.
                let batches = Rc::new(generate(&ExperimentConfig::megascale(
                    SCHEDULERS[0],
                    MEGASCALE_JOBS,
                    seed,
                )));
                for kind in SCHEDULERS {
                    let cfg = ExperimentConfig::megascale(kind, MEGASCALE_JOBS, seed);
                    push(Spec {
                        cfg,
                        batches: Some(Rc::clone(&batches)),
                    });
                }
            }
            Workload::ServeStream => {
                for kind in SCHEDULERS {
                    push(Spec {
                        cfg: serve_config(kind, seed),
                        batches: None,
                    });
                }
            }
        }
        rounds.push(round);
    }
    Inputs { specs, rounds }
}

/// A finished run's report.
#[derive(Debug)]
pub enum Report {
    Closed(RunReport),
    Serve(ServeReport),
}

impl Report {
    /// Simulated jobs completed.
    pub fn jobs(&self) -> u64 {
        match self {
            Report::Closed(r) => r.n_jobs as u64,
            Report::Serve(r) => r.jobs_completed,
        }
    }

    /// The serialized report — the bytes the digest and the worker-count
    /// identity check compare.
    pub fn to_json(&self) -> String {
        match self {
            Report::Closed(r) => serde_json::to_string(r),
            Report::Serve(r) => serde_json::to_string(r),
        }
        .expect("reports serialize")
    }

    pub fn faults(&self) -> &cloudburst_sla::FaultMetrics {
        match self {
            Report::Closed(r) => &r.faults,
            Report::Serve(r) => &r.faults,
        }
    }

    pub fn econ(&self) -> Option<&cloudburst_econ::CostMetrics> {
        match self {
            Report::Closed(r) => r.econ.as_ref(),
            Report::Serve(r) => r.econ.as_ref(),
        }
    }
}

/// Totals of the window rows a serve run drained while it ran.
#[derive(Clone, Copy, Debug, Default)]
pub struct Drained {
    pub windows: u64,
    pub arrivals: u64,
    pub completions: u64,
}

impl Drained {
    fn add(&mut self, rows: &[WindowStats]) {
        self.windows += rows.len() as u64;
        for r in rows {
            self.arrivals += r.arrivals;
            self.completions += r.completions;
        }
    }
}

/// A finished run: its report, the final world and the drained rows.
#[derive(Debug)]
pub struct Finished {
    pub report: Report,
    pub world: EngineWorld,
    pub drained: Drained,
}

impl Finished {
    /// The correctness checks every run must pass: closed runs complete
    /// every job; serve runs complete every admitted job and their window
    /// rows add up to the totals; an armed econ ledger balances.
    pub fn check(&self) -> Result<(), String> {
        match &self.report {
            Report::Closed(r) => {
                if r.n_jobs == 0 || r.completion_times.len() != r.n_jobs {
                    return Err(format!(
                        "closed run completed {} of {} jobs",
                        r.completion_times.len(),
                        r.n_jobs
                    ));
                }
                if r.tickets.len() != r.n_jobs {
                    return Err(format!("{} tickets for {} jobs", r.tickets.len(), r.n_jobs));
                }
            }
            Report::Serve(r) => {
                if r.jobs_admitted == 0 || r.jobs_admitted != r.jobs_completed {
                    return Err(format!(
                        "serve run admitted {} but completed {}",
                        r.jobs_admitted, r.jobs_completed
                    ));
                }
                let mut rows = self.drained;
                rows.add(&r.windows);
                if rows.arrivals != r.jobs_admitted || rows.completions != r.jobs_completed {
                    return Err(format!(
                        "window rows hold {} arrivals / {} completions, totals {} / {}",
                        rows.arrivals, rows.completions, r.jobs_admitted, r.jobs_completed
                    ));
                }
            }
        }
        if let Some(e) = self.report.econ() {
            if e.net_cost() != e.compute + e.transfer + e.penalty {
                return Err("econ net cost is not compute + transfer + penalty".into());
            }
            let compute: Money = e.per_site.iter().map(|s| s.compute).sum();
            let transfer: Money = e.per_site.iter().map(|s| s.transfer).sum();
            if compute != e.compute || transfer != e.transfer {
                return Err("econ per-site ledger does not sum to the totals".into());
            }
        }
        Ok(())
    }
}

/// Window width and virtual horizon of a serve config.
fn serve_shape(cfg: &ExperimentConfig) -> (SimDuration, SimDuration) {
    let serve = cfg
        .serve
        .as_ref()
        .expect("serve spec carries a serve section");
    (serve.window.window, serve.horizon)
}

/// Runs one spec untraced. Returns the host time from harness
/// construction to `finish()`, and the finished run.
pub fn run_plain(spec: &Spec) -> (Timing, Finished) {
    match &spec.batches {
        Some(batches) => {
            let batches = batches.to_vec();
            let clock = Stopwatch::start();
            let mut h = EngineHarness::new(&spec.cfg, batches);
            h.run();
            let (report, world) = h.finish();
            let time = clock.stop();
            (
                time,
                Finished {
                    report: Report::Closed(report),
                    world,
                    drained: Drained::default(),
                },
            )
        }
        None => {
            let (window, horizon) = serve_shape(&spec.cfg);
            let mut drained = Drained::default();
            let clock = Stopwatch::start();
            let mut h = ServeHarness::new(&spec.cfg);
            let mut k = 1;
            while window * k <= horizon {
                h.run_until(SimTime::ZERO + window * k);
                drained.add(&h.world_mut().drain_serve_windows());
                k += 1;
            }
            h.run();
            drained.add(&h.world_mut().drain_serve_windows());
            let (report, world) = h.finish();
            let time = clock.stop();
            (
                time,
                Finished {
                    report: Report::Serve(report),
                    world,
                    drained,
                },
            )
        }
    }
}

/// What a traced run saw step by step.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepStats {
    pub events: u64,
    pub admit_steps: u64,
    pub complete_steps: u64,
    pub other_steps: u64,
    /// Deepest queue (IC plus every EC site) right after an admission.
    pub queue_depth_max: u64,
    /// Most admitted-but-undelivered jobs right after an admission.
    pub live_high_water: u64,
    /// Steps fired before the admission that reached the probe state: the
    /// deepest queue (closed) or the most live jobs (serve).
    pub peak_step: u64,
    /// Simulated instant of that admission.
    pub peak_at: SimTime,
}

/// Admitted and completed job counts, read through the public API.
fn counters(world: &EngineWorld, serve: bool) -> (u64, u64) {
    if serve {
        let admitted = world.serve_admitted_jobs();
        (admitted, admitted - world.serve_live_jobs())
    } else {
        let admitted = world.est_exec_estimates().len() as u64;
        (admitted, admitted - world.outstanding_jobs() as u64)
    }
}

fn queue_depth(world: &EngineWorld) -> u64 {
    let sites = 1 + world.config().extra_ec_sites.len();
    let ec: usize = (0..sites).map(|s| world.ec_cloud(s).queued()).sum();
    (world.ic_cloud().queued() + ec) as u64
}

/// The stepping surface both harnesses share.
trait Stepper {
    fn step(&mut self) -> bool;
    fn now(&self) -> SimTime;
    fn world(&self) -> &EngineWorld;
}

impl Stepper for EngineHarness {
    fn step(&mut self) -> bool {
        EngineHarness::step(self)
    }
    fn now(&self) -> SimTime {
        EngineHarness::now(self)
    }
    fn world(&self) -> &EngineWorld {
        EngineHarness::world(self)
    }
}

impl Stepper for ServeHarness {
    fn step(&mut self) -> bool {
        ServeHarness::step(self)
    }
    fn now(&self) -> SimTime {
        ServeHarness::now(self)
    }
    fn world(&self) -> &EngineWorld {
        ServeHarness::world(self)
    }
}

/// Steps `h` one event at a time to the end of its queue, recording a
/// span per step classified by which public counter the step moved:
/// admitted jobs (admission), completed jobs (completion), or neither.
/// `after_step` runs between steps, outside the step spans.
fn traced_steps<H: Stepper>(
    h: &mut H,
    tracer: &mut Tracer,
    root: u32,
    run: u32,
    serve: bool,
    mut after_step: impl FnMut(&mut H, &mut Tracer),
) -> StepStats {
    let mut stats = StepStats::default();
    let mut before = counters(h.world(), serve);
    loop {
        let s0 = tracer.now_ns();
        if !h.step() {
            break;
        }
        let s1 = tracer.now_ns();
        let after = counters(h.world(), serve);
        let name = if after.0 > before.0 {
            stats.admit_steps += 1;
            let depth = queue_depth(h.world());
            let live = after.0 - after.1;
            let peak = if serve {
                live > stats.live_high_water
            } else {
                depth > stats.queue_depth_max
            };
            if peak {
                stats.peak_step = stats.events;
                stats.peak_at = h.now();
            }
            stats.queue_depth_max = stats.queue_depth_max.max(depth);
            stats.live_high_water = stats.live_high_water.max(live);
            SpanName::Admit
        } else if after.1 > before.1 {
            stats.complete_steps += 1;
            SpanName::Complete
        } else {
            stats.other_steps += 1;
            SpanName::Other
        };
        tracer.record_step(name, root, run, s0, s1);
        stats.events += 1;
        before = after;
        after_step(h, tracer);
    }
    stats
}

/// Runs one spec with a span around every public call and every step.
/// Returns the host time of the run (tracing included), the finished run
/// and its step statistics.
pub fn run_traced(spec: &Spec, tracer: &mut Tracer, run: u32) -> (Timing, Finished, StepStats) {
    let batches = spec.batches.as_ref().map(|b| b.to_vec());
    let clock = Stopwatch::start();
    let root = tracer.open(SpanName::Run, run);
    let (finished, stats) = match batches {
        Some(batches) => {
            let w0 = tracer.now_ns();
            let mut h = EngineHarness::new(&spec.cfg, batches);
            tracer.record(SpanName::WorldNew, root, run, w0, tracer.now_ns());
            let stats = traced_steps(&mut h, tracer, root, run, false, |_, _| {});
            let f0 = tracer.now_ns();
            let (report, world) = h.finish();
            tracer.record(SpanName::Finish, root, run, f0, tracer.now_ns());
            (
                Finished {
                    report: Report::Closed(report),
                    world,
                    drained: Drained::default(),
                },
                stats,
            )
        }
        None => {
            let (window, _) = serve_shape(&spec.cfg);
            let mut drained = Drained::default();
            let w0 = tracer.now_ns();
            let mut h = ServeHarness::new(&spec.cfg);
            tracer.record(SpanName::WorldNew, root, run, w0, tracer.now_ns());
            // Closed windows are drained as they seal, as the plain run does.
            let mut boundary = SimTime::ZERO + window;
            let stats = traced_steps(&mut h, tracer, root, run, true, |h, tracer| {
                if h.now() >= boundary {
                    let d0 = tracer.now_ns();
                    let rows = h.world_mut().drain_serve_windows();
                    tracer.record(SpanName::WindowDrain, root, run, d0, tracer.now_ns());
                    drained.add(&rows);
                    while h.now() >= boundary {
                        boundary += window;
                    }
                }
            });
            let d0 = tracer.now_ns();
            let rows = h.world_mut().drain_serve_windows();
            tracer.record(SpanName::WindowDrain, root, run, d0, tracer.now_ns());
            drained.add(&rows);
            let f0 = tracer.now_ns();
            let (report, world) = h.finish();
            tracer.record(SpanName::Finish, root, run, f0, tracer.now_ns());
            (
                Finished {
                    report: Report::Serve(report),
                    world,
                    drained,
                },
                stats,
            )
        }
    };
    tracer.close(root);
    (clock.stop(), finished, stats)
}
