//! Deterministic request queueing and scheduling in front of the
//! racetrack LLC.
//!
//! The paper (and the default `rtm-mem` hierarchy) evaluates the LLC
//! under a single-request-at-a-time access model. This crate lifts that
//! assumption with a discrete-event serving layer between the trace
//! generators and [`rtm_mem::RacetrackLlc`]:
//!
//! * **per-stripe-group request queues** with bounded depth and
//!   admission backpressure;
//! * **bank-level parallelism** — stripe groups are interleaved over
//!   independent banks, each servicing one request at a time, so
//!   requests to different banks overlap;
//! * **pluggable scheduling policies** ([`SchedPolicy`]): FCFS,
//!   FR-FCFS-style row-hit-first (a zero-shift candidate bypasses
//!   older work), and shift-aware, which reorders the stripe group
//!   holding the bank's oldest request by estimated latency from the
//!   group's head position and the p-ECC/STS latency model of
//!   `rtm-controller`; a starvation bound overrides both;
//! * **a closed-loop client model** with per-client think time and a
//!   bounded outstanding-request budget;
//! * **full queueing statistics** — exact p50/p95/p99 queue delay,
//!   service and total latency, stall/backpressure counters, occupancy
//!   peaks — plus `rtm-obs` histograms and queue events
//!   (`ReqEnqueued`/`ReqDispatched`/`ReqCompleted`/`ReqBackpressure`)
//!   when observability is enabled.
//!
//! Everything is single-threaded and seedable: a [`ServeSim`] run is a
//! pure function of its configuration and trace, so sweeps parallelised
//! with `rtm-par` are bit-identical for any thread count.
//!
//! # Examples
//!
//! ```
//! use rtm_serve::{SchedPolicy, ServeConfig, ServeSim};
//! use rtm_trace::{TraceGenerator, WorkloadProfile};
//!
//! let profile = WorkloadProfile::by_name("canneal").unwrap();
//! let cfg = ServeConfig::new(SchedPolicy::ShiftAware).with_requests(2_000);
//! let mut source = TraceGenerator::new(profile, 42);
//! let result = ServeSim::new(cfg).run(&mut source);
//! assert_eq!(result.requests, 2_000);
//! assert!(result.service.p99 >= result.service.p50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod parallel;
pub mod policy;
pub mod sim;

pub use parallel::{
    run_oracle, run_parallel, GroupRouter, ServeStats, ShiftCommand, ThroughputConfig,
};
pub use policy::SchedPolicy;
pub use sim::{
    Completion, LatencySummary, RequestSource, ServeConfig, ServeResult, ServeSim, SourcePoll,
    ATTRIBUTION_COMPONENTS,
};
