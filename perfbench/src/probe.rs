//! Per-layer probes: single calls into one layer's public functions, timed
//! on the workload's own state. Each is run once per traced run, after
//! the timed section.

use std::hint::black_box;
use std::time::Instant;

use cloudburst_chaos::{EstateShape, FaultProfile};
use cloudburst_core::engine::EngineWorld;
use cloudburst_core::{EngineHarness, ExperimentConfig, SchedulerKind, ServeHarness};
use cloudburst_qrsm::QrsModel;
use cloudburst_sched::{
    BurstScheduler, GreedyScheduler, LoadModelBuf, OrderPreservingScheduler, Placement,
    SibsScheduler,
};
use cloudburst_sim::{RngFactory, ShardPool, SimTime};
use cloudburst_sla::{FaultMetrics, WindowSeries};
use cloudburst_workload::arrival::training_corpus;
use cloudburst_workload::{Job, OpenArrivals};

use crate::stats::median;
use crate::workload::{run_plain, Report, Spec, StepStats};

/// Mean host seconds per call of `f`: calls it `batch` times between clock
/// reads until at least `min_secs` have passed.
fn per_call(min_secs: f64, batch: u32, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0u64;
    loop {
        for _ in 0..batch {
            f();
        }
        calls += batch as u64;
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed >= min_secs {
            return elapsed / calls as f64;
        }
    }
}

/// Median host seconds of `f` over at least `min_reps` calls and
/// `min_secs` of calls (capped at 1000 calls).
fn median_secs(min_reps: usize, min_secs: f64, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::new();
    let t0 = Instant::now();
    while times.len() < min_reps || (t0.elapsed().as_secs_f64() < min_secs && times.len() < 1000) {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    median(&mut times)
}

/// A fresh scheduler of the config's kind, as the engine builds it.
fn scheduler_for(cfg: &ExperimentConfig) -> Box<dyn BurstScheduler> {
    let op = || OrderPreservingScheduler::new(cfg.chunk_policy.clone(), cfg.seed);
    match cfg.scheduler {
        SchedulerKind::Greedy => Box::new(GreedyScheduler::new()),
        SchedulerKind::Sibs => Box::new(SibsScheduler::new(op())),
        _ => Box::new(op()),
    }
}

/// Probes taken at the run's peak admission.
#[derive(Clone, Copy, Debug, Default)]
pub struct PeakProbe {
    /// `BurstScheduler::schedule_batch` on the peak batch, on the engine's
    /// load snapshot and estimator just before it.
    pub schedule_batch_ms: f64,
    /// `ShardPool::map_ordered_into` over the scheduled batch with the
    /// engine's estimate closure, at one worker and at auto.
    pub fanout_w1_us: f64,
    pub fanout_auto_us: f64,
    /// `EstimateProvider::exec_secs` per job.
    pub predict_ns: f64,
    /// `upload_secs` / `download_secs` per call.
    pub estimate_ns: f64,
    /// Right after the peak admission: `load_snapshot`,
    /// `decision_sweep` and `broker_site_choice` per call.
    pub load_snapshot_us: f64,
    pub decision_sweep_us: f64,
    pub broker_ns: f64,
}

/// Replays `spec` to just before the admission that `stats` found to be
/// its peak, probes the scheduling path there, fires the admission, and
/// probes the decision path on the resulting state.
pub fn peak(spec: &Spec, stats: &StepStats) -> PeakProbe {
    let cfg = &spec.cfg;
    let at = stats.peak_at;
    match &spec.batches {
        Some(batches) => {
            let batch = batches
                .iter()
                .find(|b| b.arrival == at)
                .expect("the peak admission is a batch arrival")
                .jobs
                .clone();
            let mut h = EngineHarness::new(cfg, batches.to_vec());
            for _ in 0..stats.peak_step {
                h.step();
            }
            let mut p = before_admission(cfg, h.world_mut(), &batch, at);
            assert!(h.step(), "the peak admission is pending");
            after_admission(h.world_mut(), at, &mut p);
            p
        }
        None => {
            let serve = cfg
                .serve
                .as_ref()
                .expect("serve spec carries a serve section");
            let mut stream = OpenArrivals::new(
                serve.arrivals.clone(),
                &RngFactory::new(cfg.seed),
                cfg.truth.clone(),
            );
            while stream.next_arrival() < at {
                stream.next_batch();
            }
            let batch = stream.next_batch().jobs;
            let mut h = ServeHarness::new(cfg);
            for _ in 0..stats.peak_step {
                h.step();
            }
            let mut p = before_admission(cfg, h.world_mut(), &batch, at);
            assert!(h.step(), "the peak admission is pending");
            after_admission(h.world_mut(), at, &mut p);
            p
        }
    }
}

fn before_admission(
    cfg: &ExperimentConfig,
    world: &mut EngineWorld,
    batch: &[Job],
    at: SimTime,
) -> PeakProbe {
    let load = {
        let s = world.load_snapshot(at);
        LoadModelBuf {
            now: s.now,
            ic_free_secs: s.ic_free_secs.to_vec(),
            ec_free_secs: s.ec_free_secs.to_vec(),
            upload_backlog_bytes: s.upload_backlog_bytes,
            download_backlog_bytes: s.download_backlog_bytes,
            outstanding_est_completions: s.outstanding_est_completions.to_vec(),
        }
    };
    let est = world.estimates();
    let mut sched = scheduler_for(cfg);
    let mut scheduled: Vec<(Job, Placement)> = Vec::new();
    let schedule_batch = median_secs(3, 0.03, || {
        scheduled = sched
            .schedule_batch(batch.to_vec(), &load.as_model(), est)
            .jobs;
    });

    let mut out: Vec<(f64, f64)> = Vec::new();
    let mut fanout = |pool: ShardPool| {
        per_call(0.02, 1, || {
            pool.map_ordered_into(&scheduled, &mut out, |_, (job, _)| {
                (
                    est.exec_secs(job),
                    est.qrsm.rmse_for(job.features.job_type.code() as u64),
                )
            });
            black_box(&out);
        })
    };
    let fanout_w1 = fanout(ShardPool::new(1));
    let fanout_auto = fanout(ShardPool::new(0));

    let n = batch.len().max(1) as f64;
    let predict = per_call(0.01, 1, || {
        for job in batch {
            black_box(est.exec_secs(black_box(job)));
        }
    }) / n;
    let estimate = per_call(0.01, 1, || {
        for job in batch {
            black_box(est.upload_secs(at, black_box(job.input_bytes())));
            black_box(est.download_secs(at, black_box(job.output_bytes)));
        }
    }) / (2.0 * n);
    PeakProbe {
        schedule_batch_ms: schedule_batch * 1e3,
        fanout_w1_us: fanout_w1 * 1e6,
        fanout_auto_us: fanout_auto * 1e6,
        predict_ns: predict * 1e9,
        estimate_ns: estimate * 1e9,
        ..PeakProbe::default()
    }
}

fn after_admission(world: &mut EngineWorld, at: SimTime, p: &mut PeakProbe) {
    // The first sweeps may still move a job (pull-back / push-out); time
    // the sweep at its fixed point.
    let mut moves = (world.pull_backs(), world.push_outs());
    for _ in 0..32 {
        world.decision_sweep(at);
        let after = (world.pull_backs(), world.push_outs());
        if after == moves {
            break;
        }
        moves = after;
    }
    p.load_snapshot_us = per_call(0.02, 1, || {
        black_box(world.load_snapshot(at).ic_free_secs.len());
    }) * 1e6;
    p.decision_sweep_us = per_call(0.02, 1, || world.decision_sweep(at)) * 1e6;
    p.broker_ns = per_call(0.01, 256, || {
        black_box(world.broker_site_choice(black_box(at)));
    }) * 1e9;
}

/// `training_corpus` + `QrsModel::fit` on the config's training set, ms.
pub fn train_ms(cfg: &ExperimentConfig) -> f64 {
    let rngs = RngFactory::new(cfg.seed);
    median_secs(5, 0.05, || {
        let corpus = training_corpus(
            &mut rngs.stream("qrsm/training"),
            &cfg.truth,
            cfg.training_docs.max(64),
        );
        let xs: Vec<Vec<f64>> = corpus.iter().map(|(f, _)| f.regressors()).collect();
        let ys: Vec<f64> = corpus.iter().map(|(_, t)| *t).collect();
        black_box(QrsModel::fit(&xs, &ys, cfg.fit.to_method()).expect("training corpus fits"));
    }) * 1e3
}

/// `FaultProfile::compile` of the config's profile against its estate, µs.
/// A config without a profile compiles the dormant one.
pub fn compile_us(cfg: &ExperimentConfig) -> f64 {
    let shape = EstateShape {
        n_ic: cfg.n_ic as u32,
        ec_machines: std::iter::once(cfg.n_ec)
            .chain(cfg.extra_ec_sites.iter().map(|s| s.n_machines))
            .map(|n| n.max(1) as u32)
            .collect(),
    };
    let profile = cfg.faults.clone().unwrap_or_else(FaultProfile::dormant);
    per_call(0.02, 1, || {
        black_box(profile.compile(cfg.seed, &shape));
    }) * 1e6
}

/// Generating the spec's input from its seed, ms: `BatchArrivals::generate`
/// for a closed spec, the whole `OpenArrivals` stream to the horizon for a
/// serve spec.
pub fn generate_ms(spec: &Spec) -> f64 {
    let cfg = &spec.cfg;
    median_secs(3, 0.05, || match &cfg.serve {
        None => {
            black_box(crate::workload::generate(cfg));
        }
        Some(serve) => {
            let mut stream = OpenArrivals::new(
                serve.arrivals.clone(),
                &RngFactory::new(cfg.seed),
                cfg.truth.clone(),
            );
            let horizon = SimTime::ZERO + serve.horizon;
            while stream.next_arrival() < horizon {
                black_box(stream.next_batch());
            }
        }
    }) * 1e3
}

/// The window fold for a closed spec, which has no serve windows of its
/// own: its admissions and completions replayed in time order through a
/// `WindowSeries` of the default width, draining sealed rows at each
/// window boundary. Returns (median µs per drain call, windows).
pub fn closed_window_drain(spec: &Spec) -> (f64, u64) {
    let (_, finished) = run_plain(spec);
    let Report::Closed(report) = &finished.report else {
        unreachable!("closed spec")
    };
    let timelines = finished.world.timelines();
    let mut events: Vec<(SimTime, u8, u64)> = Vec::with_capacity(2 * timelines.len());
    for t in timelines {
        events.push((t.scheduled, 0, t.id));
        events.push((t.completed.expect("closed runs complete"), 1, t.id));
    }
    events.sort_unstable();
    let mut series = WindowSeries::new(cloudburst_sla::WindowConfig::default());
    let window = series.config().window;
    let mut boundary = SimTime::ZERO + window;
    let mut drains = Vec::new();
    let mut windows = 0u64;
    let mut drain = |series: &mut WindowSeries, drains: &mut Vec<f64>| {
        let t0 = Instant::now();
        let rows = series.drain_closed();
        drains.push(t0.elapsed().as_secs_f64() * 1e6);
        windows += rows.len() as u64;
    };
    let mut seq = 0u64;
    for (t, kind, id) in events {
        while t >= boundary {
            drain(&mut series, &mut drains);
            boundary += window;
        }
        if kind == 0 {
            series.on_admit(seq, t);
            seq += 1;
        } else {
            let tl = &timelines[id as usize];
            let met = t <= report.tickets[id as usize].promised;
            series.on_complete(
                id,
                t,
                finished.world.job_output_bytes(id),
                (t - tl.arrival).as_secs_f64(),
                Some(met),
            );
        }
    }
    series.finish(boundary, &FaultMetrics::default());
    drain(&mut series, &mut drains);
    (median(&mut drains), windows)
}
