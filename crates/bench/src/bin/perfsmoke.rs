//! `perfsmoke` — a one-command perf trajectory probe.
//!
//! Times the raw event kernel (schedule/fire cascade and schedule/cancel
//! churn, reported as events per second), the autonomic-model fast paths
//! (sliding-window RLS refit vs the legacy batch refit; streaming OO
//! series vs the legacy per-sample rescan, both reported with speedups),
//! plus a representative subset of the `repro` experiments, the
//! dormant-chaos and dormant-econ overhead probes (full engine runs with a
//! zero-probability fault profile or a price-free econ section armed,
//! timed in interleaved pairs against the plain config — a dormant section
//! must cost nothing), the cost-aware broker decision rate, and the
//! sustained open-system serving probe (a 24-virtual-hour stream vs its
//! draw-identical closed-batch twin, plus the per-window live-bytes
//! high-water curve). It prints a single line of JSON (`"bench":
//! "perfsmoke"`) that `perfgate` checks against the `perfsmoke` rules of
//! `BENCH.json`:
//!
//! ```text
//! perfsmoke            print the JSON line to stdout
//! perfsmoke <path>     additionally write it to <path>
//! ```

// Timing wall-clock durations is this binary's whole purpose; the
// disallowed-methods ban on Instant::now targets deterministic library
// code, not the perf harness.
#![allow(clippy::disallowed_methods)]

use std::io::Write as _;
use std::time::Instant;

use cloudburst_bench::run_experiment_by_id;
use cloudburst_chaos::FaultProfile;
use cloudburst_core::config::EcSiteConfig;
use cloudburst_core::{
    run_experiment, EngineHarness, ExperimentConfig, SchedulerKind, ServeConfig, ServeHarness,
};
use cloudburst_econ::{BrokerPolicy, EconConfig, Money, PriceModel};
use cloudburst_qrsm::{design::QuadraticDesign, fit, Method, QrsModel};
use cloudburst_sim::{RngFactory, Sim, SimDuration, SimTime};
use cloudburst_sla::{oo_series, CompletionRecord, OoConfig, OoSample, WindowConfig};
use cloudburst_testsupport::{high_water_bytes, reset_high_water, CountingAlloc};
use cloudburst_workload::arrival::training_corpus;
use cloudburst_workload::{ArrivalConfig, GroundTruth, OpenArrivalConfig, SizeBucket};
use serde_json::json;

// The sustained-serving probe reports per-window live-bytes high-water
// marks, so the whole binary runs under the counting allocator. Its two
// relaxed atomics cost every probe low single-digit percent at most —
// far inside the 5x perfgate headroom — and the BENCH.json serving
// baselines were recorded under the same allocator.
#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Paired blocks per dormant-overhead probe, of `DORMANT_BLOCK_RUNS` runs
/// per side. Many short pairs put both sides of each pair under the same
/// host conditions; an odd count makes the median ratio one measured pair,
/// so the chaos overhead ratio is its exact reciprocal.
const DORMANT_BLOCKS: usize = 151;
const DORMANT_BLOCK_RUNS: usize = 2;

/// Experiments that together touch every subsystem: the Fig. 6 sweep
/// (bucket × scheduler), the burstiness timeline, and the SIBS bound path.
const REPRO_SUBSET: [&str; 3] = ["fig6", "fig4a", "sibs"];

/// Self-rescheduling cascade: one live chain, `n` sequential fires — the
/// pure schedule→fire hot path with maximal slot reuse.
fn kernel_cascade(n: u64) -> f64 {
    let mut sim: Sim<u64> = Sim::new();
    fn chain(remaining: u64) -> impl FnOnce(&mut u64, &mut Sim<u64>) + 'static {
        move |w, sim| {
            *w += 1;
            if remaining > 0 {
                sim.schedule_in(SimDuration::from_micros(1), chain(remaining - 1));
            }
        }
    }
    sim.schedule_now(chain(n - 1));
    let mut fired = 0u64;
    let t0 = Instant::now();
    sim.run(&mut fired);
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(fired, n);
    n as f64 / secs
}

/// Schedule/cancel churn: batches where half the scheduled events are
/// cancelled before firing — the tombstone-free cancellation path.
fn kernel_churn(batches: u64, per_batch: u64) -> f64 {
    let mut sim: Sim<u64> = Sim::new();
    let mut ops = 0u64;
    let t0 = Instant::now();
    for b in 0..batches {
        let ids: Vec<_> = (0..per_batch)
            .map(|i| {
                sim.schedule_in(SimDuration::from_micros(1 + (i % 7)), |w: &mut u64, _| *w += 1)
            })
            .collect();
        for id in ids.iter().skip(b as usize % 2).step_by(2) {
            sim.cancel(*id);
        }
        let mut fired = 0u64;
        sim.run(&mut fired);
        ops += per_batch;
    }
    let secs = t0.elapsed().as_secs_f64();
    ops as f64 / secs
}

/// Legacy vs RLS refit at the engine's default window size (400, the
/// training-corpus size). Returns `(batch_secs_per_refit,
/// rls_secs_per_refit)` — the RLS number times a full observe→refit step
/// (eviction down-date, row up-date, Cholesky solve, residual stats).
fn qrsm_refit_probe(window: usize, iters: usize) -> (f64, f64) {
    let rngs = RngFactory::new(1234);
    let truth = GroundTruth::default();
    let c = training_corpus(&mut rngs.stream("perfsmoke/qrsm"), &truth, window + iters);
    let xs: Vec<Vec<f64>> = c.iter().map(|(f, _)| f.regressors()).collect();
    let ys: Vec<f64> = c.iter().map(|(_, t)| *t).collect();
    let (wxs, wys) = (&xs[..window], &ys[..window]);

    // Legacy path: every refit re-expands the window and solves cold.
    let d = QuadraticDesign::new(xs[0].len());
    let t0 = Instant::now();
    let mut sink = 0.0;
    for _ in 0..iters.min(60) {
        let m = d.design_matrix(wxs);
        sink += fit::fit(&m, wys, Method::Ols).expect("batch fit")[0];
    }
    let batch = t0.elapsed().as_secs_f64() / iters.min(60) as f64;

    let mut m = QrsModel::fit(wxs, wys, Method::Ols)
        .expect("seed fit")
        .with_window_capacity(window)
        .with_refit_every(1);
    let t0 = Instant::now();
    for i in 0..iters {
        m.observe(&xs[window + i], ys[window + i]);
    }
    let rls = t0.elapsed().as_secs_f64() / iters as f64;
    assert!(sink.is_finite() && m.rmse().is_finite());
    (batch, rls)
}

/// Streaming vs rescan OO series at repro scale (jobs × a full-horizon
/// 2-minute sampling grid). Returns `(rescan_secs, streaming_secs)` per
/// full-series computation.
fn oo_series_probe(jobs: usize, reps: usize) -> (f64, f64) {
    let comps: Vec<CompletionRecord> = (0..jobs)
        .map(|i| CompletionRecord {
            id: i as u64,
            at: SimTime::from_secs(((i as u64 * 2_654_435_761) % (jobs as u64 * 60)) + 1),
            bytes: 1_000_000 + (i as u64 % 100) * 10_000,
        })
        .collect();
    let horizon = SimTime::from_secs(jobs as u64 * 60 + 120);
    let cfg = OoConfig { tolerance: 4, sample_interval: SimDuration::from_mins(2) };

    let t0 = Instant::now();
    let mut last: Vec<OoSample> = Vec::new();
    for _ in 0..reps {
        last = oo_series_rescan(&comps, jobs, horizon, cfg);
    }
    let rescan = t0.elapsed().as_secs_f64() / reps as f64;

    let t0 = Instant::now();
    let mut stream_last: Vec<OoSample> = Vec::new();
    for _ in 0..reps {
        stream_last = oo_series(&comps, jobs, horizon, cfg);
    }
    let streaming = t0.elapsed().as_secs_f64() / reps as f64;
    assert_eq!(last, stream_last, "streaming series must match the rescan");
    (rescan, streaming)
}

/// The pre-streaming per-sample rescan (the library's copy is
/// `#[cfg(test)]`-gated as the equivalence oracle).
fn oo_series_rescan(
    completions: &[CompletionRecord],
    total_jobs: usize,
    horizon: SimTime,
    cfg: OoConfig,
) -> Vec<OoSample> {
    let mut by_time: Vec<&CompletionRecord> = completions.iter().collect();
    by_time.sort_by_key(|c| (c.at, c.id));
    let mut complete = vec![false; total_jobs];
    let mut bytes = vec![0u64; total_jobs];
    let mut samples = Vec::new();
    let mut next = 0usize;
    let mut m_t: Option<u64> = None;
    let mut t = SimTime::ZERO + cfg.sample_interval;
    while t <= horizon {
        while next < by_time.len() && by_time[next].at <= t {
            let c = by_time[next];
            complete[c.id as usize] = true;
            bytes[c.id as usize] = c.bytes;
            next += 1;
        }
        let mut best: Option<u64> = None;
        let mut prefix = 0u64;
        for i in 0..total_jobs as u64 {
            if complete[i as usize] {
                prefix += 1;
                if (i + 1).saturating_sub(cfg.tolerance) <= prefix {
                    best = Some(i);
                }
            }
        }
        m_t = best.or(m_t);
        let o_t = match m_t {
            None => 0,
            Some(m) => (0..=m).filter(|&i| complete[i as usize]).map(|i| bytes[i as usize]).sum(),
        };
        samples.push(OoSample { at: t, m_t, o_t, completed: prefix as usize });
        t += cfg.sample_interval;
    }
    samples
}

/// Dormant-section overhead: small full engine runs of a plain config vs
/// the same config after `arm` adds an armed-but-dormant section (a
/// zero-probability fault profile, or an econ section with no prices). A
/// dormant section must take the identical code path, so the engine
/// byte-identity tests pin the semantic half of that claim and this probe
/// pins the wall-clock half. It times `DORMANT_BLOCKS` paired blocks,
/// alternating which side of a pair runs first, so drift on a noisy host
/// hits both sides alike. Returns `(dormant_runs_per_sec,
/// clean_over_dormant)`: dormant throughput from the median block, and
/// the median of the per-pair clean/dormant time ratios (1.0 = free).
fn dormant_probe(arm: impl FnOnce(&mut ExperimentConfig)) -> (f64, f64) {
    let mut clean = ExperimentConfig::paper(SchedulerKind::OrderPreserving, SizeBucket::Uniform, 7);
    clean.arrivals.n_batches = 3;
    clean.arrivals.jobs_per_batch = 8.0;
    clean.n_ic = 2;
    clean.training_docs = 150;
    let mut armed = clean.clone();
    arm(&mut armed);
    run_experiment(&clean); // warm-up
    run_experiment(&armed);

    let time_block = |cfg: &ExperimentConfig| {
        let t0 = Instant::now();
        for _ in 0..DORMANT_BLOCK_RUNS {
            run_experiment(cfg);
        }
        t0.elapsed().as_secs_f64()
    };
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (mut armed_secs, mut ratios) = (Vec::new(), Vec::new());
    for b in 0..DORMANT_BLOCKS {
        let (c, a) = if b % 2 == 0 {
            let c = time_block(&clean);
            (c, time_block(&armed))
        } else {
            let a = time_block(&armed);
            (time_block(&clean), a)
        };
        armed_secs.push(a);
        ratios.push(c / a);
    }
    (DORMANT_BLOCK_RUNS as f64 / median(armed_secs), median(ratios))
}

/// Cost-aware broker decision throughput: one armed world with a priced
/// primary site plus three priced extra sites, timed over repeated
/// `broker_site_choice` calls — the per-burst site pick the econ layer
/// adds to the hot path (a bounded scan over sites, never the queue).
fn econ_broker_probe(n: usize) -> f64 {
    let mut cfg = ExperimentConfig::default();
    let site = |rate_cents: u64| EcSiteConfig {
        n_machines: 2,
        speed: 1.0,
        upload_model: cfg.upload_model.clone(),
        download_model: cfg.download_model.clone(),
        price: Some(PriceModel::OnDemand {
            usd_per_machine_hour: Money::from_cents(rate_cents as i64),
            usd_per_gb_transfer: Money::from_cents(9),
        }),
    };
    cfg.extra_ec_sites = vec![site(240), site(180), site(300)];
    cfg.econ = Some(EconConfig {
        primary_price: Some(PriceModel::flat(Money::from_cents(210))),
        broker: BrokerPolicy::CostAware,
        ..EconConfig::default()
    });
    let h = EngineHarness::new(&cfg, Vec::new());
    let mut sink = 0usize;
    let t0 = Instant::now();
    for i in 0..n {
        sink += h.world().broker_site_choice(SimTime::from_secs((i % 3_600) as u64));
    }
    let secs = t0.elapsed().as_secs_f64();
    assert!(sink < n * 8, "broker picked an out-of-range site");
    n as f64 / secs
}

/// Sustained open-system serving vs its closed-batch twin over the
/// draw-identical workload (flat envelope, no bursts): a 24-simulated-hour
/// stream on a stable estate, stepped window by window with closed rows
/// drained as they land. Returns `(sustained_jobs_per_sec,
/// closed_jobs_per_sec, jobs, live_high_water, mem_curve)` where
/// `mem_curve` is the post-warm-up per-window live-bytes high-water marks
/// — the O(live-jobs) memory record `perfgate` holds flat.
fn serve_sustained_probe() -> (f64, f64, u64, u64, Vec<(u64, usize)>) {
    const EPOCHS: u32 = 720; // 24h of 2-minute epochs
    const WINDOWS: u64 = 12; // 2h windows
    const WARMUP: u64 = 3;
    let mut cfg = ExperimentConfig {
        seed: 97,
        scheduler: SchedulerKind::OrderPreserving,
        ..ExperimentConfig::default()
    };
    // Stable service: fast machines + small-biased jobs keep utilization
    // well under 1, so live jobs (and live bytes) plateau.
    cfg.ic_speed = 4.0;
    cfg.arrivals = ArrivalConfig {
        n_batches: EPOCHS,
        jobs_per_batch: 10.0,
        bucket: SizeBucket::SmallBiased,
        batch_interval: SimDuration::from_secs(120),
        ..ArrivalConfig::default()
    };
    let window = SimDuration::from_secs(7_200);
    cfg.serve = Some(ServeConfig {
        arrivals: OpenArrivalConfig::matching_closed(&cfg.arrivals),
        horizon: cfg.arrivals.batch_interval * EPOCHS as u64,
        window: WindowConfig { window, oo_tolerance: 0 },
    });

    // One serve pass: window-stepped with rows drained as they land,
    // recording the per-window live-bytes high-water curve.
    let serve_pass = |cfg: &ExperimentConfig| {
        let mut h = ServeHarness::new(cfg);
        h.run_until(SimTime::ZERO + window * WARMUP);
        h.world_mut().drain_serve_windows();
        let mut curve = Vec::new();
        for k in WARMUP..WINDOWS {
            reset_high_water();
            h.run_until(SimTime::ZERO + window * (k + 1));
            h.world_mut().drain_serve_windows();
            curve.push((k, high_water_bytes()));
        }
        h.run();
        let (report, _world) = h.finish();
        assert_eq!(report.jobs_completed, report.jobs_admitted, "serve stream must drain");
        (report, curve)
    };

    // Closed-batch twin: same draws, whole-run accumulation. Both paths
    // get an untimed warm-up (first-touch pages, lazy init), then the
    // best of three timed runs each — the ratio of two ~tens-of-ms
    // sections would otherwise be at the mercy of scheduler noise.
    const TIMED_RUNS: usize = 3;
    let closed_cfg = {
        let mut c = cfg.clone();
        c.serve = None;
        c
    };
    run_experiment(&closed_cfg); // warm-up
    serve_pass(&cfg); // warm-up
    let mut closed_best = f64::INFINITY;
    let mut closed = run_experiment(&closed_cfg);
    for _ in 0..TIMED_RUNS {
        let t0 = Instant::now();
        closed = run_experiment(&closed_cfg);
        closed_best = closed_best.min(t0.elapsed().as_secs_f64());
    }
    let closed_jps = closed.n_jobs as f64 / closed_best;

    let mut serve_best = f64::INFINITY;
    let (mut report, mut curve) = serve_pass(&cfg);
    for _ in 0..TIMED_RUNS {
        let t0 = Instant::now();
        (report, curve) = serve_pass(&cfg);
        serve_best = serve_best.min(t0.elapsed().as_secs_f64());
    }
    let sustained_jps = report.jobs_completed as f64 / serve_best;
    assert_eq!(
        report.jobs_admitted as usize, closed.n_jobs,
        "matching_closed stream must admit the closed run's jobs"
    );
    (sustained_jps, closed_jps, report.jobs_completed, report.live_high_water, curve)
}

fn main() {
    let out_path = std::env::args().nth(1);

    // Warm-up keeps first-touch page faults and lazy init out of the numbers.
    kernel_cascade(10_000);
    let cascade_eps = kernel_cascade(200_000);
    let churn_eps = kernel_churn(100, 1_000);

    qrsm_refit_probe(400, 50); // warm-up
    let (refit_batch, refit_rls) = qrsm_refit_probe(400, 2_000);
    let (oo_rescan, oo_stream) = oo_series_probe(2_000, 30);
    let (chaos_dormant_rps, chaos_clean_over_dormant) =
        dormant_probe(|cfg| cfg.faults = Some(FaultProfile::dormant()));
    let (econ_dormant_rps, econ_dormant_over_clean) =
        dormant_probe(|cfg| cfg.econ = Some(EconConfig::default()));
    let econ_broker_dps = econ_broker_probe(2_000_000);
    let (serve_jps, serve_closed_jps, serve_jobs, serve_live_hw, serve_mem_curve) =
        serve_sustained_probe();

    let mut repro = serde_json::Map::new();
    let t_all = Instant::now();
    for id in REPRO_SUBSET {
        let t0 = Instant::now();
        run_experiment_by_id(id).expect("known experiment id");
        repro.insert(format!("repro_{id}_secs"), json!(t0.elapsed().as_secs_f64()));
    }
    let repro_total = t_all.elapsed().as_secs_f64();

    let mut doc = serde_json::Map::new();
    doc.insert("bench".into(), json!("perfsmoke"));
    doc.insert("kernel_cascade_events_per_sec".into(), json!(cascade_eps));
    doc.insert("kernel_churn_events_per_sec".into(), json!(churn_eps));
    doc.insert("qrsm_refit_batch_secs".into(), json!(refit_batch));
    doc.insert("qrsm_refit_rls_secs".into(), json!(refit_rls));
    doc.insert("qrsm_refit_speedup".into(), json!(refit_batch / refit_rls));
    doc.insert("oo_series_rescan_secs".into(), json!(oo_rescan));
    doc.insert("oo_series_streaming_secs".into(), json!(oo_stream));
    doc.insert("oo_series_speedup".into(), json!(oo_rescan / oo_stream));
    doc.insert("chaos_dormant_runs_per_sec".into(), json!(chaos_dormant_rps));
    doc.insert("chaos_dormant_overhead_ratio".into(), json!(1.0 / chaos_clean_over_dormant));
    doc.insert("econ_dormant_runs_per_sec".into(), json!(econ_dormant_rps));
    doc.insert("econ_dormant_over_clean".into(), json!(econ_dormant_over_clean));
    doc.insert("econ_broker_decisions_per_sec".into(), json!(econ_broker_dps));
    doc.insert("serve_sustained_jobs_per_sec".into(), json!(serve_jps));
    doc.insert("serve_closed_jobs_per_sec".into(), json!(serve_closed_jps));
    doc.insert("serve_sustained_over_closed".into(), json!(serve_jps / serve_closed_jps));
    doc.insert("serve_jobs".into(), json!(serve_jobs));
    doc.insert("serve_live_high_water_jobs".into(), json!(serve_live_hw));
    for (k, bytes) in &serve_mem_curve {
        doc.insert(format!("serve_mem_curve_w{k:02}_live_bytes"), json!(bytes));
    }
    doc.insert("repro_subset_secs".into(), json!(repro_total));
    // Host metadata, so numbers stay interpretable across machines.
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    doc.insert("host_cores".into(), json!(host_cores));
    for (k, v) in repro {
        doc.insert(k, v);
    }

    let line = serde_json::to_string(&serde_json::Value::Object(doc)).expect("serialize");
    println!("{line}");
    if let Some(path) = out_path {
        let mut f = std::fs::File::create(&path).expect("create output file");
        writeln!(f, "{line}").expect("write output file");
    }
}
