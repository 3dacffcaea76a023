//! The [`StripeChecker`] bridge that lets a [`crate::protected`]
//! stripe run its bit-accurate tap check against either pattern
//! family.
//!
//! The cyclic square-wave code ([`PeccCode`]) and its phase-difference
//! decoder live in [`rtm_codes::cyclic`], beside the deletion/insertion
//! codecs that share its [`Verdict`] vocabulary.
//!
//! A stripe protected by one of the stream codecs (Chee–Kiah multi-look
//! or Vahid 2-DI) does not carry a cyclic pattern at all: its in-track
//! check pattern is the aperiodic [`MarkerCode`], whose windows are
//! globally unique within ±(period/2) and therefore never alias short
//! of a full period — the structural property that trades the cyclic
//! SDC floor for detected DUEs.

use rtm_codes::{MarkerCode, PeccCode, Verdict};

use rtm_track::bit::Bit;

/// The tap pattern a protected stripe checks after each shift: the
/// cyclic square wave for the paper's p-ECC family, or the aperiodic
/// marker that backs the deletion/insertion codecs.
///
/// Both variants expose the same phase-decode shape (`bit_at`,
/// `window`, `decode(expected_index, observed)`), so the physical
/// simulation in [`crate::protected`] is pattern-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StripeChecker {
    /// Cyclic p-ECC phase code (aliases at multiples of its period).
    Cyclic(PeccCode),
    /// Aperiodic marker with shift-unique windows (never aliases short
    /// of a full period of 64 steps).
    Marker(MarkerCode),
}

impl StripeChecker {
    /// Correction strength in steps.
    pub fn strength(&self) -> u32 {
        match self {
            StripeChecker::Cyclic(c) => c.strength(),
            StripeChecker::Marker(m) => m.strength(),
        }
    }

    /// Number of taps the checker reads per check.
    pub fn window(&self) -> u32 {
        match self {
            StripeChecker::Cyclic(c) => c.window(),
            StripeChecker::Marker(m) => m.window(),
        }
    }

    /// Pattern bit at (possibly negative) index `i`.
    pub fn bit_at(&self, i: i64) -> Bit {
        match self {
            StripeChecker::Cyclic(c) => c.bit_at(i),
            StripeChecker::Marker(m) => m.bit_at(i),
        }
    }

    /// Decodes an observed tap window against the window expected at
    /// pattern index `expected_index`.
    pub fn decode(&self, expected_index: i64, observed: &[Bit]) -> Verdict {
        match self {
            StripeChecker::Cyclic(c) => c.decode(expected_index, observed),
            StripeChecker::Marker(m) => m.decode(expected_index, observed),
        }
    }

    /// Ideal-channel verdict for a true offset of `e` steps.
    pub fn classify_offset(&self, e: i32) -> Verdict {
        match self {
            StripeChecker::Cyclic(c) => c.classify_offset(e),
            StripeChecker::Marker(m) => m.classify_offset(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_variants_share_the_decode_shape() {
        let cyc = StripeChecker::Cyclic(PeccCode::secded());
        let mrk = StripeChecker::Marker(MarkerCode::new(2));
        for chk in [cyc, mrk] {
            let w = chk.window() as usize;
            let clean: Vec<Bit> = (0..w).map(|i| chk.bit_at(10 + i as i64)).collect();
            assert_eq!(chk.decode(10, &clean), Verdict::Clean);
            // An over-shift by 1 leaves the taps reading index
            // expected − 1.
            let slipped: Vec<Bit> = (0..w).map(|i| chk.bit_at(9 + i as i64)).collect();
            assert_eq!(chk.decode(10, &slipped), Verdict::Correctable(1));
        }
    }

    #[test]
    fn marker_checker_does_not_alias_where_cyclic_does() {
        let cyc = StripeChecker::Cyclic(PeccCode::secded());
        let mrk = StripeChecker::Marker(MarkerCode::new(2));
        // A full cyclic period (4 steps for m = 1) is invisible to the
        // square wave but detected by the marker.
        assert_eq!(cyc.classify_offset(4), Verdict::Clean);
        assert_eq!(mrk.classify_offset(4), Verdict::Uncorrectable);
    }
}
