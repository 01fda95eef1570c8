//! Chaos golden tests: a seeded faulty run must be byte-reproducible —
//! across repeated runs *and* across a serialize → replay round trip of
//! its compiled `FaultPlan` — and the canonical mid-batch EC blackout
//! scenario must complete every job through the recovery path
//! (timeout → backoff retries → IC re-dispatch).

use proptest::prelude::*;

use cloudburst_repro::chaos::{CrashLaw, FaultPlan, FaultProfile, RetryPolicy};
use cloudburst_repro::core::{
    run_experiment, run_experiment_detailed, EngineHarness, ExperimentConfig, SchedulerKind,
};
use cloudburst_repro::sim::RngFactory;
use cloudburst_repro::workload::{ArrivalConfig, Batch, BatchArrivals, SizeBucket};

fn small_cfg(kind: SchedulerKind, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        scheduler: kind,
        arrivals: ArrivalConfig {
            n_batches: 3,
            jobs_per_batch: 6.0,
            bucket: SizeBucket::Uniform,
            ..ArrivalConfig::default()
        },
        n_ic: 2, // starve the IC so the schedulers actually burst
        training_docs: 150,
        ..ExperimentConfig::default()
    }
}

/// The full chaos menu: EC crashes, a scripted blackout, payload losses
/// and execution failures, with a tight retry budget so the recovery
/// machinery is exercised end to end.
fn chaotic_profile() -> FaultProfile {
    FaultProfile {
        ec_crash: Some(CrashLaw {
            mean_uptime_secs: 600.0,
            mean_downtime_secs: 120.0,
            max_faults_per_machine: 2,
        }),
        transfer_loss_prob: 0.2,
        exec_failure_prob: 0.15,
        retry: RetryPolicy {
            base_backoff_secs: 5.0,
            backoff_cap_secs: 30.0,
            max_transfer_retries: 2,
            max_exec_retries: 3,
            timeout_factor: 2.0,
            min_timeout_secs: 20.0,
        },
        ..FaultProfile::dormant()
    }
    .with_blackout(300.0, 1500.0)
}

fn batches_for(cfg: &ExperimentConfig) -> Vec<Batch> {
    BatchArrivals::new(cfg.arrivals.clone()).generate(&RngFactory::new(cfg.seed), &cfg.truth)
}

#[test]
fn seeded_faulty_run_is_byte_reproducible() {
    let mut cfg = small_cfg(SchedulerKind::OrderPreserving, 31);
    cfg.faults = Some(chaotic_profile());
    let (r1, w1) = run_experiment_detailed(&cfg);
    let (r2, _) = run_experiment_detailed(&cfg);
    let j1 = serde_json::to_string(&r1).expect("report serializes");
    let j2 = serde_json::to_string(&r2).expect("report serializes");
    assert_eq!(j1, j2, "same profile + seed must reproduce the report byte-for-byte");
    assert_eq!(r1.completion_times.len(), r1.n_jobs, "faulty run lost jobs");
    assert!(
        r1.faults.recovery_actions() > 0,
        "the chaotic profile should force recovery work: {:?}",
        r1.faults
    );
    // The timeline record (every per-job stage stamp) must replay too.
    let m1 = w1.fault_metrics().expect("chaos armed").clone();
    assert_eq!(m1, r1.faults);
}

#[test]
fn fault_plan_replay_round_trips_byte_identically() {
    let mut cfg = small_cfg(SchedulerKind::Sibs, 47);
    cfg.faults = Some(chaotic_profile());
    let (r1, w1) = run_experiment_detailed(&cfg);
    let plan_json = w1.fault_plan().expect("chaos armed").to_json();
    let plan = FaultPlan::from_json(&plan_json).expect("plan parses");
    assert_eq!(plan.to_json(), plan_json, "plan JSON must round-trip exactly");
    // Replay from the deserialized plan (the profile is *not* recompiled).
    let mut h = EngineHarness::new_with_plan(&cfg, batches_for(&cfg), Some(plan));
    h.run();
    let (r2, w2) = h.finish();
    assert_eq!(
        serde_json::to_string(&r1).expect("serializes"),
        serde_json::to_string(&r2).expect("serializes"),
        "replaying a serialized plan must reproduce the run byte-for-byte"
    );
    assert_eq!(
        format!("{:?}", w1.timelines()),
        format!("{:?}", w2.timelines()),
        "replay must reproduce every per-job stage stamp"
    );
}

#[test]
fn mid_batch_blackout_completes_all_jobs_via_redispatch() {
    // Blackout only: every EC link goes dark from t = 300 s (mid second
    // batch) to t = 2400 s — longer than the whole retry budget of any
    // transfer. In-flight uploads freeze, time out, retry into the same
    // dark window, exhaust the budget and re-dispatch to the IC — Eq. 1
    // slackness owns them again from there.
    let mut cfg = small_cfg(SchedulerKind::OrderPreserving, 23);
    cfg.faults = Some(
        FaultProfile {
            retry: RetryPolicy {
                base_backoff_secs: 5.0,
                backoff_cap_secs: 20.0,
                max_transfer_retries: 1,
                max_exec_retries: 3,
                timeout_factor: 1.0,
                min_timeout_secs: 10.0,
            },
            ..FaultProfile::dormant()
        }
        .with_blackout(300.0, 2400.0),
    );
    let r = run_experiment(&cfg);
    assert_eq!(r.completion_times.len(), r.n_jobs, "blackout run lost jobs");
    assert!(r.faults.transfer_timeouts > 0, "no transfer timed out: {:?}", r.faults);
    assert!(r.faults.transfer_retries > 0, "no retry was attempted: {:?}", r.faults);
    assert!(r.faults.redispatches > 0, "no job was re-dispatched: {:?}", r.faults);
    assert!((r.faults.blackout_secs - 2100.0).abs() < 1e-9, "{:?}", r.faults);

    // Fault attribution against the fault-free twin. Makespan can land a
    // hair *under* the twin's (re-dispatched jobs skip the network round
    // trip entirely), but the blackout must hurt in-order availability:
    // jobs stuck in timeout/retry churn deliver their output late.
    let mut clean = cfg.clone();
    clean.faults = None;
    let base = run_experiment(&clean);
    assert!(base.faults.is_clean());
    let attr = cloudburst_repro::sla::fault_attribution(&r, &base);
    assert!(attr.oo_mean_degradation > 0.0, "blackout left the OO metric unharmed: {attr:?}");
}

#[test]
fn every_lost_upload_exhausts_its_retries_then_redispatches() {
    // Every upload payload is lost, so each job bursted at admission
    // loses its upload k + 1 times (k retries after backoff), then
    // re-dispatches to the IC. Timeouts are set far beyond any upload so
    // only the lost-payload branch of recovery runs, and no result is
    // ever downloaded.
    for k in [0u32, 2] {
        let mut cfg = small_cfg(SchedulerKind::Greedy, 37);
        cfg.faults = Some(FaultProfile {
            transfer_loss_prob: 1.0,
            retry: RetryPolicy {
                base_backoff_secs: 5.0,
                backoff_cap_secs: 20.0,
                max_transfer_retries: k,
                max_exec_retries: 3,
                timeout_factor: 1000.0,
                min_timeout_secs: 1.0e6,
            },
            ..FaultProfile::dormant()
        });
        let r = run_experiment(&cfg);
        let f = &r.faults;
        let bursted = (r.burst_ratio * r.n_jobs as f64).round() as u64;
        assert_eq!(r.completion_times.len(), r.n_jobs, "lost-payload run lost jobs (k = {k})");
        assert!(bursted > 0, "nothing bursted, the case is vacuous (k = {k})");
        assert_eq!(f.transfer_timeouts, 0, "a timeout fired (k = {k}): {f:?}");
        assert_eq!(f.redispatches, bursted, "k = {k}: {f:?}");
        assert_eq!(f.transfer_losses, (u64::from(k) + 1) * f.redispatches, "k = {k}: {f:?}");
        assert_eq!(f.transfer_retries, u64::from(k) * f.redispatches, "k = {k}: {f:?}");
        assert_eq!(r.downloaded_bytes, 0, "k = {k}");
    }
}

/// Golden byte-stability, mirroring `golden_determinism.rs` and the conform
/// golden-workspace test: the canonical chaos scenario (EC crashes + a
/// scripted blackout + losses/exec failures under a tight retry budget)
/// must reproduce the checked-in SLA report *file* byte for byte. Catches
/// cross-commit drift that the run-vs-run tests above cannot see.
///
/// Regenerate after an intentional engine/chaos change with:
/// `CHAOS_GOLDEN_BLESS=1 cargo test --test chaos_golden golden`.
#[test]
fn golden_chaos_report_is_byte_stable() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/chaos_scenario.report.json");
    let mut cfg = small_cfg(SchedulerKind::OrderPreserving, 31);
    cfg.faults = Some(chaotic_profile());
    let report = run_experiment(&cfg);
    let fresh = serde_json::to_string(&report).expect("report serializes");
    if std::env::var_os("CHAOS_GOLDEN_BLESS").is_some() {
        std::fs::write(path, format!("{fresh}\n")).expect("write golden fixture");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden fixture exists (bless to create)");
    assert_eq!(
        fresh,
        golden.trim_end(),
        "chaos scenario report drifted from {path}; if intentional, re-bless"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite guard: a dormant profile (or an explicit zero-probability
    /// one) must leave the run byte-identical to `faults: None` — reports
    /// *and* per-job timelines — across all three burst schedulers.
    #[test]
    fn dormant_profile_is_byte_equivalent_to_no_faults(
        seed in 1u64..500,
        kind_idx in 0usize..3,
        n_ic in 2usize..6,
        rescheduling in any::<bool>(),
    ) {
        let kind = [SchedulerKind::Greedy, SchedulerKind::OrderPreserving, SchedulerKind::Sibs]
            [kind_idx];
        let mut clean = small_cfg(kind, seed);
        clean.n_ic = n_ic;
        clean.rescheduling = rescheduling;
        let mut dormant = clean.clone();
        dormant.faults = Some(FaultProfile::dormant());
        let (r1, w1) = run_experiment_detailed(&clean);
        let (r2, w2) = run_experiment_detailed(&dormant);
        prop_assert_eq!(
            serde_json::to_string(&r1).expect("serializes"),
            serde_json::to_string(&r2).expect("serializes"),
            "dormant chaos perturbed the report ({:?}, seed {})", kind, seed
        );
        prop_assert_eq!(
            format!("{:?}", w1.timelines()),
            format!("{:?}", w2.timelines()),
            "dormant chaos perturbed the event timeline ({:?}, seed {})", kind, seed
        );
        prop_assert!(r2.faults.is_clean());
    }
}
