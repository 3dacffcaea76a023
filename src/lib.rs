//! `hifi-rtm` — facade crate for the Hi-fi Playback (ISCA 2015)
//! reproduction workspace.
//!
//! Re-exports every member crate under a short alias so examples and
//! integration tests can reach the whole system through one dependency.
//!
//! The interesting entry points live in [`core`]:
//! [`core::RtmConfig`] describes a protected racetrack memory design and
//! [`core::experiments`] regenerates every table and figure in the paper's
//! evaluation. See `README.md` for a guided tour.

pub use rtm_codes as codes;
pub use rtm_controller as controller;
pub use rtm_core as core;
pub use rtm_cost as cost;
pub use rtm_front as front;
pub use rtm_mem as mem;
pub use rtm_model as model;
pub use rtm_obs as obs;
pub use rtm_pecc as pecc;
pub use rtm_reliability as reliability;
pub use rtm_serve as serve;
pub use rtm_trace as trace;
pub use rtm_track as track;
pub use rtm_util as util;
