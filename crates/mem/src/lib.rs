//! Trace-driven cache hierarchy simulator with a racetrack-memory LLC
//! backend.
//!
//! This crate replaces the paper's gem5 full-system setup with a
//! trace-driven model of the same Table 4 platform: private L1 data
//! caches, a shared L2, a last-level cache built from SRAM, STT-RAM or
//! racetrack memory, and DDR3 main memory. The racetrack LLC carries
//! per-group head-position registers and routes every shift through the
//! position-error-aware controller, so shift counts, latencies and
//! residual error probabilities come out of the same machinery the
//! paper evaluates.
//!
//! The hierarchy follows the paper's single-request-at-a-time LLC
//! access model; [`Hierarchy::with_llc`] mounts any [`llc::LlcModel`]
//! behind the same L1/L2 front end. Per-stripe-group request queues,
//! bank-level parallelism and pluggable scheduling policies live in the
//! `rtm-serve` crate, which drives a banked [`llc::RacetrackLlc`]
//! directly.
//!
//! * [`cache`] — generic set-associative LRU cache bookkeeping;
//! * [`llc`] — the three LLC backends behind one interface;
//! * [`hierarchy`] — the full system: trace in, statistics out;
//! * [`stream`] — the L2-miss stream one L1/L2 pass leaves, which
//!   [`Hierarchy::replay`] serves from any LLC.
//!
//! # Examples
//!
//! ```
//! use rtm_mem::hierarchy::{Hierarchy, LlcChoice};
//! use rtm_obs::Obs;
//! use rtm_trace::{TraceGenerator, WorkloadProfile};
//!
//! let profile = WorkloadProfile::by_name("swaptions").unwrap();
//! let mut sys = Hierarchy::new(LlcChoice::SramBaseline, Obs::default());
//! let result = sys.run(&mut TraceGenerator::new(profile, 1), 20_000);
//! assert_eq!(result.accesses, 20_000);
//! assert!(result.cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod hierarchy;
pub mod llc;
pub mod physical;
pub mod stream;

pub use cache::{AccessKind, Cache, CacheStats};
pub use hierarchy::{Hierarchy, LlcChoice, SimResult};
pub use llc::{LlcStats, RacetrackLlc, SimpleLlc};
pub use stream::FilteredStream;
