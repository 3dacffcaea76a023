//! Position error correction codes (p-ECC) — Section 4.2 of the Hi-fi
//! Playback paper.
//!
//! Bit-error ECC cannot see a shift that moved *every* bit by the same
//! amount; p-ECC can, by storing a known cyclic pattern in dedicated
//! domains read through extra ports. After each shift the controller
//! compares the observed pattern window against the window expected at
//! the believed head position: any phase difference *is* the position
//! error.
//!
//! * [`code`] — the tap checker a protected stripe runs after each
//!   shift: the cyclic square-wave code of `rtm-codes` (window
//!   extraction and the phase-difference decoder) or its aperiodic
//!   marker;
//! * [`layout`] — domain/port/guard budgets for SED, SECDED, the general
//!   m-step construction, and the overhead-region variant p-ECC-O;
//! * [`protected`] — a bit-accurate protected stripe that runs
//!   detection/correction against physically simulated shifts;
//! * [`init`] — the program-and-test initialization protocol of
//!   Section 4.3.
//!
//! # Examples
//!
//! ```
//! use rtm_codes::{PeccCode, Verdict};
//!
//! // SECDED p-ECC (corrects ±1, detects ±2).
//! let code = PeccCode::secded();
//! assert_eq!(code.classify_offset(0), Verdict::Clean);
//! assert_eq!(code.classify_offset(1), Verdict::Correctable(1));
//! assert_eq!(code.classify_offset(-1), Verdict::Correctable(-1));
//! assert_eq!(code.classify_offset(2), Verdict::Uncorrectable);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod code;
pub mod group;
pub mod init;
pub mod layout;
pub mod protected;

pub use layout::{PeccLayout, ProtectionKind};
pub use protected::ProtectedStripe;
