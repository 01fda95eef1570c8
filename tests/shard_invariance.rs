//! Thread-count invariance goldens for the sharded engine: the
//! `shard_workers` knob must never reach a byte of output. A paper-scale
//! run and a canonical faulty run are executed at 1/2/4/8 workers and the
//! full `RunReport` JSON compared against the pinned serial path — the
//! composed run is a pure function of (config, seed), not of how many
//! threads happened to carry it.
//!
//! The shard pool runs every fan-out inline, so these goldens pin that
//! the knob stays inert: a config that sets it still decodes and runs to
//! the same bytes.

use cloudburst_repro::chaos::{CrashLaw, FaultProfile, RetryPolicy};
use cloudburst_repro::core::config::EcSiteConfig;
use cloudburst_repro::core::{
    run_experiment, run_experiment_detailed, ExperimentConfig, SchedulerKind,
};
use cloudburst_repro::workload::{ArrivalConfig, SizeBucket};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn report_json_at(cfg: &ExperimentConfig, workers: usize) -> String {
    let mut cfg = cfg.clone();
    cfg.shard_workers = Some(workers);
    serde_json::to_string(&run_experiment(&cfg)).expect("RunReport serializes")
}

fn assert_worker_count_invariant(cfg: &ExperimentConfig, label: &str) {
    let reference = report_json_at(cfg, 1);
    for workers in &WORKER_COUNTS[1..] {
        assert_eq!(
            report_json_at(cfg, *workers),
            reference,
            "{label}: {workers} workers diverged from the serial path"
        );
    }
}

#[test]
fn paper_run_is_worker_count_invariant() {
    let cfg = ExperimentConfig::paper(SchedulerKind::OrderPreserving, SizeBucket::LargeBiased, 22);
    assert_worker_count_invariant(&cfg, "paper config");
}

#[test]
fn faulty_run_is_worker_count_invariant() {
    // The chaos scenario from `chaos_golden.rs`: EC crashes, a scripted
    // blackout, payload losses and execution failures under a tight retry
    // budget — recovery paths interleave with every decision point, so
    // this is the run most likely to betray a barrier placed wrongly.
    let cfg = ExperimentConfig {
        seed: 31,
        scheduler: SchedulerKind::OrderPreserving,
        arrivals: ArrivalConfig {
            n_batches: 3,
            jobs_per_batch: 6.0,
            bucket: SizeBucket::Uniform,
            ..ArrivalConfig::default()
        },
        n_ic: 2, // starve the IC so the scheduler actually bursts
        training_docs: 150,
        faults: Some(
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
            .with_blackout(300.0, 1500.0),
        ),
        ..ExperimentConfig::default()
    };
    assert_worker_count_invariant(&cfg, "faulty config");
}

#[test]
fn starved_shard_site_composes_identically() {
    // Shard-starvation edge case: a single batch against two EC sites.
    // Site selection is per-batch (least loaded, ties to the lowest
    // index), so every burst lands on site 0 and site 1's shard holds
    // zero jobs for the whole run — the empty shard must contribute
    // nothing but also perturb nothing, at any worker count.
    let cfg = ExperimentConfig {
        seed: 9,
        scheduler: SchedulerKind::Greedy,
        arrivals: ArrivalConfig {
            n_batches: 1,
            jobs_per_batch: 10.0,
            bucket: SizeBucket::Uniform,
            ..ArrivalConfig::default()
        },
        n_ic: 2, // starve the IC so the scheduler actually bursts
        training_docs: 150,
        extra_ec_sites: vec![EcSiteConfig {
            n_machines: 2,
            speed: 1.5,
            upload_model: ExperimentConfig::default().upload_model,
            download_model: ExperimentConfig::default().download_model,
            price: None,
        }],
        ..ExperimentConfig::default()
    };

    // Pin the premise: the run bursts, and all of it goes to site 0.
    let mut serial = cfg.clone();
    serial.shard_workers = Some(1);
    let (report, world) = run_experiment_detailed(&serial);
    assert!(report.burst_ratio > 0.0, "2 IC machines should force bursting");
    assert!(world.ec_cloud(0).completed() > 0, "site 0 should carry the batch");
    assert_eq!(
        world.ec_cloud(1).completed(),
        0,
        "single-batch run should leave site 1 starved (site choice is per-batch)"
    );

    assert_worker_count_invariant(&cfg, "starved-site config");
}
