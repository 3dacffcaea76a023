//! Multi-tenant serving frontend for the racetrack-memory LLC.
//!
//! `rtm-serve` (PRs 4-7) drives the racetrack LLC with a fixed
//! closed-loop client model. This crate adds the missing front door
//! for the "heavy traffic from millions of users" regime:
//!
//! * **tenant sessions** ([`session`]) — tens of thousands of
//!   deterministic [`rtm_trace::TenantStream`]s merged into one
//!   open-loop arrival sequence, each tenant owning a window of the
//!   tenant-strided address space;
//! * **SLO classes** ([`class`]) — `latency` / `throughput` /
//!   `besteffort`, each buying different token-bucket parameters
//!   relative to the tenant's fair share of backend capacity;
//! * **admission control** ([`door`]) — a deterministic token-bucket
//!   decision (admit / defer / shed) taken *before* the serving
//!   layer's bounded per-group queues can backpressure, implemented
//!   as an [`rtm_serve::RequestSource`] so completions flow back into
//!   per-class latency and fairness statistics;
//! * **a binary wire protocol** ([`proto`], [`wire`]) — compact
//!   little-endian frames plus an in-memory [`proto::Loopback`]
//!   transport, letting the `front-driver` binary replay recorded
//!   multi-tenant traffic against a standalone `front-server` process
//!   over any byte stream.
//!
//! Everything is deterministic: a [`door::FrontResult`] is a pure
//! function of the [`door::FrontConfig`] and scheduling policy, and a
//! wire replay of recorded traffic is bit-identical to the internal
//! run it was recorded from.
//!
//! # Examples
//!
//! ```
//! use rtm_front::{run_front, FrontConfig};
//! use rtm_obs::Obs;
//! use rtm_serve::SchedPolicy;
//!
//! let cfg = FrontConfig::new(100).with_offered(2_000);
//! let r = run_front(&cfg, SchedPolicy::ShiftAware, Obs::default());
//! assert_eq!(r.admitted() + r.shed(), 2_000);
//! assert_eq!(r.completed(), r.admitted());
//! assert!(r.fairness_ratio() >= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bucket;
pub mod class;
pub mod door;
pub mod proto;
pub mod session;
pub mod wire;

pub use bucket::TokenBucket;
pub use class::{ClassSpec, SloClass};
pub use door::{run_front, ClassStats, FrontConfig, FrontDoor, FrontResult, FRONT_STRIDE};
pub use proto::{Frame, Loopback, ProtoError, Verdict};
pub use session::{FrontArrival, SessionArrivals, SessionTable};
pub use wire::{record_frames, serve_frames, WireError};
