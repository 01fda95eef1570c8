//! `cloudburst-core` — the pipelined, event-based cloud-bursting system
//! (Fig. 5 of the paper) tying every substrate together.
//!
//! The architecture is "a network of asynchronous queues — upload,
//! execution, download queues — and \[a\] job moves from one queue to the
//! other" (Sec. III-B). Here those queues are simulated in virtual time on
//! the `cloudburst-sim` kernel:
//!
//! ```text
//!  batches ──► job queue ──► controller/scheduler ──┬──► IC exec ─────────┐
//!                                                   └──► upload queue(s)  │
//!                                                        └► upload link   │
//!                                                            └► EC exec   │
//!                                                                └► download link
//!                                                                    └────┴──► result queue
//! ```
//!
//! * [`config`] — experiment configuration (workload, pools, pipe, models,
//!   scheduler choice, extensions), fully serializable.
//! * [`engine`] — the discrete-event pipeline; runs one experiment and
//!   produces a `cloudburst_sla::RunReport`.
//! * [`autonomic`] — periodic 1 MB probe transfers, EWMA recalibration and
//!   thread-count adaptation (Sec. III-A-2).
//! * [`runner`] — multi-seed replication, parallelized with crossbeam
//!   scoped threads; aggregation helpers.
//! * [`scaling`] — the elastic-EC extension ("the scaling must be just
//!   enough to ensure saturation of the download bandwidth", Sec. V-B-4).
//! * [`multi_ec`] — the multiple-external-clouds extension (Sec. I / VII).
//! * [`live`] — the same pipeline on real threads and crossbeam channels at
//!   a configurable time scale, demonstrating the event-based architecture
//!   outside virtual time.
//! * [`timeline`] — per-job stage timestamps for run auditing.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod autonomic;
pub mod config;
pub mod engine;
pub mod live;
pub mod multi_ec;
pub mod runner;
pub mod scaling;
pub mod timeline;

pub use config::{ExperimentConfig, SchedulerKind, ServeConfig};
pub use engine::{
    run_experiment, run_experiment_detailed, run_with_batches, serve_experiment,
    serve_experiment_detailed, EngineHarness, Harness, ServeHarness,
};
pub use timeline::JobTimeline;
pub use runner::{run_all_buckets, run_replications};
