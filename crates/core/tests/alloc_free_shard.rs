//! Steady-state allocation discipline for the shard fan-out (own binary,
//! own process-global counter, mirroring `alloc_free.rs`):
//!
//! * a `ShardPool` fan-out is allocation-free once its output buffer has
//!   warmed up, at one worker and at four: the pool runs every fan-out
//!   inline, so a worker count never buys a spawn or a chunk slot;
//! * an engine configured with `shard_workers: Some(4)` — which runs
//!   inline like every other value — keeps its steady-state decision
//!   sweep at zero allocations: fan-outs happen only at batch admissions,
//!   and the epoch-barrier refit flush is a no-op branch when nothing is
//!   queued.

use cloudburst_chaos::FaultProfile;
use cloudburst_core::{EngineHarness, ExperimentConfig, SchedulerKind};
use cloudburst_sim::{RngFactory, ShardPool};
use cloudburst_testsupport::{allocations, CountingAlloc};
use cloudburst_workload::{BatchArrivals, SizeBucket};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

// One test function: the counter is process-global, so concurrent tests in
// this binary would pollute each other's deltas.
#[test]
fn shard_worker_steady_state_is_allocation_disciplined() {
    // --- ShardPool: allocation-free once warm, at any worker count. ---
    // 10k items, the size of a megascale admission.
    let items: Vec<u64> = (0..10_000).collect();
    for workers in [1, 4] {
        let pool = ShardPool::new(workers);
        let mut out: Vec<u64> = Vec::new();
        pool.map_ordered_into(&items, &mut out, |_, &x| x.wrapping_mul(2_654_435_761));
        let (n, _) = allocations(|| {
            for _ in 0..50 {
                pool.map_ordered_into(&items, &mut out, |_, &x| x.wrapping_mul(2_654_435_761));
            }
        });
        assert_eq!(n, 0, "warm fan-out at {workers} worker(s) must not allocate");
    }

    // --- Engine at shard_workers 4: the decision sweep is zero-alloc. ---
    let mut cfg =
        ExperimentConfig::paper(SchedulerKind::OrderPreserving, SizeBucket::LargeBiased, 9);
    cfg.arrivals.jobs_per_batch = 60.0;
    cfg.rescheduling = true;
    cfg.faults = Some(FaultProfile::dormant());
    cfg.shard_workers = Some(4);

    let rngs = RngFactory::new(cfg.seed);
    let batches = BatchArrivals::new(cfg.arrivals.clone()).generate(&rngs, &cfg.truth);
    let mut h = EngineHarness::new(&cfg, batches);
    h.run_until(cloudburst_sim::SimTime::from_secs(9 * 60));
    let now = h.now();
    let w = h.world_mut();
    assert!(w.outstanding_jobs() > 0, "mid-run state must have work in flight");

    // Warm-up: let the sweep reach its fixed point and size every scratch
    // buffer (identical protocol to `alloc_free.rs`).
    let mut moves = (w.pull_backs(), w.push_outs());
    for _ in 0..32 {
        w.decision_sweep(now);
        let after = (w.pull_backs(), w.push_outs());
        if after == moves {
            break;
        }
        moves = after;
    }

    let (n, _) = allocations(|| {
        for _ in 0..100 {
            w.decision_sweep(now);
        }
    });
    assert_eq!(n, 0, "steady-state decision sweep at 4 shard workers must not allocate");

    h.run();
    let (report, _world) = h.finish();
    assert!(report.makespan_secs > 0.0);
}
