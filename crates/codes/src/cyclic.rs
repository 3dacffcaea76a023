//! The cyclic p-ECC code, its phase-difference decoder, and its
//! adapter behind [`PositionCodec`].
//!
//! For correction strength `m` the code is a square wave of period
//! `P = 2·(m + 1)` — `m + 1` ones followed by `m + 1` zeros, repeated —
//! read through `m + 1` adjacent ports. A window of `m + 1` consecutive
//! bits uniquely identifies its phase within the period, so comparing
//! the observed window's phase against the expected phase yields the
//! position-error offset modulo `P`:
//!
//! * difference `0` — clean shift;
//! * difference `d ∈ [1, m]` — over-shift by `d`, correctable;
//! * difference `P − d, d ∈ [1, m]` — under-shift by `d`, correctable;
//! * difference `m + 1` — a ±(m+1)-step error: detectable but
//!   ambiguous in sign, hence uncorrectable (the paper's SECDED case
//!   "cannot differentiate +2 from −2");
//! * offsets beyond `m + 1` **alias**: an error of exactly `P` steps is
//!   invisible — the silent-corruption floor any cyclic code has.
//!
//! With `m = 1` this is exactly the paper's Fig. 6(e) cycle
//! `11 → 10 → 00 → 01`, and with detect-only strength (SED) the period-2
//! wave `1010…` of Fig. 5.
//!
//! The cyclic scheme sits behind the same [`PositionCodec`] trait as
//! the deletion/insertion codes; [`CyclicCodec`] is that adapter. Its
//! `decode` reads the phase window out of the serial stream, so a slip
//! *before* the window displaces it (shift-count decoding) while a slip
//! of a full period still reads clean — the adapter deliberately keeps
//! the aliasing semantics.

use crate::codec::{transmit_serial, Decoded, PositionCodec, Readout, Sentinel};
use crate::verdict::Verdict;
use rtm_track::bit::Bit;

/// A p-ECC cyclic code of a given correction strength.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PeccCode {
    /// Correction strength: `m` step errors are correctable, `m + 1`
    /// detectable. Strength 0 is the SED code (detect ±1 only).
    strength: u32,
}

impl PeccCode {
    /// Creates a code correcting up to `strength` steps.
    pub fn new(strength: u32) -> Self {
        Self { strength }
    }

    /// The SED code of Fig. 5: detects ±1, corrects nothing.
    pub fn sed() -> Self {
        Self::new(0)
    }

    /// The SECDED code of Fig. 6: corrects ±1, detects ±2.
    pub fn secded() -> Self {
        Self::new(1)
    }

    /// Correction strength `m`.
    pub fn strength(&self) -> u32 {
        self.strength
    }

    /// Code period `P = 2(m + 1)`.
    pub fn period(&self) -> u32 {
        2 * (self.strength + 1)
    }

    /// Window width (= number of p-ECC read ports) `m + 1`.
    pub fn window(&self) -> u32 {
        self.strength + 1
    }

    /// The code bit at (possibly negative) index `i`: ones for the first
    /// half of each period.
    pub fn bit_at(&self, i: i64) -> Bit {
        let p = self.period() as i64;
        let phase = i.rem_euclid(p);
        Bit::from(phase < p / 2)
    }

    /// Generates `len` code bits starting at index `start`.
    pub fn pattern(&self, start: i64, len: usize) -> Vec<Bit> {
        (0..len as i64).map(|k| self.bit_at(start + k)).collect()
    }

    /// The window of `m + 1` bits expected when the leading tap sits at
    /// code index `i`.
    pub fn expected_window(&self, i: i64) -> Vec<Bit> {
        self.pattern(i, self.window() as usize)
    }

    /// Finds the unique phase `r ∈ [0, P)` whose window matches
    /// `observed`, or `None` if no phase matches (garbled bits).
    ///
    /// # Panics
    ///
    /// Panics if `observed.len() != self.window()`.
    pub fn match_phase(&self, observed: &[Bit]) -> Option<u32> {
        assert_eq!(
            observed.len(),
            self.window() as usize,
            "window width must be m + 1"
        );
        if observed.iter().any(|b| !b.is_known()) {
            return None;
        }
        let p = self.period();
        let mut found = None;
        for r in 0..p {
            let cand = self.expected_window(r as i64);
            if cand == observed {
                // Unique by construction; assert in debug builds.
                debug_assert!(found.is_none(), "window phases must be unique");
                found = Some(r);
                #[cfg(not(debug_assertions))]
                break;
            }
        }
        found
    }

    /// Decodes the observed window against the expected code index
    /// `expected_index` (where the leading tap *should* be reading).
    ///
    /// An over-shift by `e` makes the tap read index `expected − e`, so
    /// the phase difference recovers `e mod P`.
    ///
    /// # Panics
    ///
    /// Panics if `observed.len() != self.window()`.
    pub fn decode(&self, expected_index: i64, observed: &[Bit]) -> Verdict {
        let p = self.period() as i64;
        let expected_phase = expected_index.rem_euclid(p);
        let Some(observed_phase) = self.match_phase(observed) else {
            return Verdict::Uncorrectable;
        };
        // observed index = expected − e  ⇒  e = expected − observed (mod P).
        let d = (expected_phase - observed_phase as i64).rem_euclid(p);
        self.verdict_for_phase_difference(d as u32)
    }

    /// Classifies a *known* physical offset `e` the way the decoder
    /// would see it — including aliasing for `|e| > m + 1`. This is the
    /// statistical fast path used by the architecture simulator.
    pub fn classify_offset(&self, e: i32) -> Verdict {
        let p = self.period() as i64;
        let d = (e as i64).rem_euclid(p);
        self.verdict_for_phase_difference(d as u32)
    }

    fn verdict_for_phase_difference(&self, d: u32) -> Verdict {
        let m = self.strength;
        let p = self.period();
        debug_assert!(d < p);
        if d == 0 {
            Verdict::Clean
        } else if d <= m {
            Verdict::Correctable(d as i32)
        } else if d == m + 1 {
            Verdict::Uncorrectable
        } else {
            // d in [m+2, 2m+1] ⇒ under-shift by p − d ∈ [1, m].
            Verdict::Correctable(-((p - d) as i32))
        }
    }
}

/// The cyclic p-ECC adapted behind [`PositionCodec`]: the codeword is
/// the data word followed by a stretch of the square wave sized like
/// the dedicated p-ECC code region (`Lseg + 3m + 2` for segment length
/// `Lseg`), and decoding reads the phase window at the start of that
/// region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CyclicCodec {
    code: PeccCode,
    data_bits: usize,
    region: usize,
    sentinel: Sentinel,
}

impl CyclicCodec {
    /// A cyclic codec of strength `m` protecting `data_bits` arranged
    /// as segments of `lseg` (the code region is sized exactly as the
    /// paper's dedicated-region layout: `lseg + 3m + 2`).
    pub fn new(m: u32, data_bits: usize, lseg: usize) -> Self {
        let region = lseg + 3 * m as usize + 2;
        Self {
            code: PeccCode::new(m),
            data_bits,
            region,
            sentinel: Sentinel::new(m),
        }
    }

    /// The paper's default configuration: SECDED over a 64-bit word
    /// with 8-domain segments.
    pub fn paper_default() -> Self {
        Self::new(1, 64, 8)
    }

    /// The underlying cyclic code.
    pub fn code(&self) -> PeccCode {
        self.code
    }
}

impl PositionCodec for CyclicCodec {
    fn name(&self) -> &'static str {
        "cyclic p-ECC"
    }

    fn data_bits(&self) -> usize {
        self.data_bits
    }

    fn overhead_bits_per_word(&self) -> usize {
        self.region
    }

    fn strength(&self) -> u32 {
        self.code.strength()
    }

    fn pulses(&self) -> usize {
        self.codeword_bits() + self.sentinel.reads()
    }

    fn encode(&self, data: &[Bit]) -> Vec<Bit> {
        assert_eq!(data.len(), self.data_bits, "data word width");
        assert!(data.iter().all(|b| b.is_known()), "data must be known");
        let mut cw = data.to_vec();
        cw.extend(self.code.pattern(0, self.region));
        cw
    }

    fn transmit(&self, codeword: &[Bit], e: i32, at: usize) -> Readout {
        assert!(e.unsigned_abs() <= self.strength() + 1, "slip too large");
        transmit_serial(codeword, &self.sentinel, self.pulses(), e, at)
    }

    fn decode(&self, readout: &Readout) -> Decoded {
        // The phase window sits `m + 1` cells into the code region —
        // the margin keeps an in-strength under-shift from dragging
        // data bits under the taps. A slip anywhere before the window
        // displaces it by the net offset; a slip after it is invisible
        // this read (caught next check) — both faithful to the
        // tap-based stripe decoder.
        let margin = (self.strength() + 1) as i64;
        let base = self.data_bits + margin as usize;
        let w = self.code.window() as usize;
        let observed = &readout.stream[base..base + w];
        // In stream coordinates an over-shift (deletion) brings *later*
        // pattern bits forward: observed index = expected + e, the
        // mirror of the tap-based convention — so flip the sign.
        let verdict = match self.code.decode(margin, observed) {
            Verdict::Correctable(k) => Verdict::Correctable(-k),
            v => v,
        };
        match verdict {
            Verdict::Clean => Decoded {
                verdict,
                offset: 0,
                data: Some(readout.stream[..self.data_bits].to_vec()),
            },
            Verdict::Correctable(e) => {
                // The phase window recovers the *net slip* but not where
                // in the stream it struck, so the cyclic codec cannot
                // repair the read itself: the controller back-shifts by
                // `e` and re-reads (exactly `ProtectedStripe::correct`).
                Decoded {
                    verdict,
                    offset: e,
                    data: None,
                }
            }
            Verdict::Uncorrectable => Decoded::uncorrectable(),
        }
    }

    fn classify_offset(&self, e: i32) -> Verdict {
        self.code.classify_offset(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sed_pattern_is_alternating() {
        let code = PeccCode::sed();
        assert_eq!(code.period(), 2);
        assert_eq!(code.window(), 1);
        let pat = code.pattern(0, 5);
        let want: Vec<Bit> = [true, false, true, false, true]
            .into_iter()
            .map(Bit::from)
            .collect();
        assert_eq!(pat, want, "the '10101' of Fig. 5");
    }

    #[test]
    fn secded_cycle_matches_fig6() {
        // Fig 6(e): successful right shifts by 4k, 4k+1, 4k+2, 4k+3 read
        // '11', '10', '00', '01'. A right shift by s reads indices that
        // DECREASE by s, so the observed windows walk backwards through the
        // wave: expected window at index −s.
        let code = PeccCode::secded();
        let w = |s: i64| -> String {
            code.expected_window(-s)
                .iter()
                .map(|b| b.to_string())
                .collect()
        };
        assert_eq!(w(0), "11");
        assert_eq!(w(1), "01");
        assert_eq!(w(2), "00");
        assert_eq!(w(3), "10");
        assert_eq!(w(4), "11");
    }

    #[test]
    fn windows_are_unique_within_period() {
        for m in 0..=4u32 {
            let code = PeccCode::new(m);
            let p = code.period();
            let windows: Vec<Vec<Bit>> = (0..p).map(|r| code.expected_window(r as i64)).collect();
            for i in 0..p as usize {
                for j in (i + 1)..p as usize {
                    assert_ne!(windows[i], windows[j], "m={m}: phases {i} and {j} collide");
                }
            }
        }
    }

    #[test]
    fn match_phase_rejects_unknown_and_garbage() {
        let code = PeccCode::secded();
        assert_eq!(code.match_phase(&[Bit::Unknown, Bit::One]), None);
        // Every 2-bit known pattern matches some phase for m=1 (all four
        // windows occur), so garbage manifests via a *wrong but valid*
        // phase — which is why ±2 is only detectable, not correctable.
        assert!(code.match_phase(&[Bit::One, Bit::Zero]).is_some());
    }

    #[test]
    fn decode_identifies_all_correctable_offsets() {
        for m in 1..=3u32 {
            let code = PeccCode::new(m);
            for s in 0..20i64 {
                let expected = 100 - s; // arbitrary believed index
                for e in -(m as i64)..=(m as i64) {
                    let observed = code.expected_window(expected - e);
                    let verdict = code.decode(expected, &observed);
                    let want = if e == 0 {
                        Verdict::Clean
                    } else {
                        Verdict::Correctable(e as i32)
                    };
                    assert_eq!(verdict, want, "m={m} e={e}");
                }
                // ±(m+1) must be flagged uncorrectable.
                let e = m as i64 + 1;
                let obs = code.expected_window(expected - e);
                assert_eq!(code.decode(expected, &obs), Verdict::Uncorrectable);
                let obs = code.expected_window(expected + e);
                assert_eq!(code.decode(expected, &obs), Verdict::Uncorrectable);
            }
        }
    }

    #[test]
    fn decode_flags_garbled_window() {
        let code = PeccCode::secded();
        assert_eq!(
            code.decode(0, &[Bit::Unknown, Bit::Unknown]),
            Verdict::Uncorrectable
        );
    }

    #[test]
    fn classify_matches_decode_semantics() {
        for m in 0..=3u32 {
            let code = PeccCode::new(m);
            for e in -8i32..=8 {
                let classified = code.classify_offset(e);
                // Emulate through decode.
                let expected_index = 50i64;
                let observed = code.expected_window(expected_index - e as i64);
                let decoded = code.decode(expected_index, &observed);
                assert_eq!(classified, decoded, "m={m} e={e}");
            }
        }
    }

    #[test]
    fn sed_detects_odd_misses_even() {
        let code = PeccCode::sed();
        assert_eq!(code.classify_offset(0), Verdict::Clean);
        assert_eq!(code.classify_offset(1), Verdict::Uncorrectable);
        assert_eq!(code.classify_offset(-1), Verdict::Uncorrectable);
        // The SED blind spot the paper motivates SECDED with:
        assert_eq!(code.classify_offset(2), Verdict::Clean);
        assert_eq!(code.classify_offset(-2), Verdict::Clean);
    }

    #[test]
    fn aliasing_at_full_period_is_silent() {
        let code = PeccCode::secded();
        // A ±4-step error is invisible to the period-4 code: SDC.
        assert_eq!(code.classify_offset(4), Verdict::Clean);
        assert_eq!(code.classify_offset(-4), Verdict::Clean);
        // A 3-step error aliases to a miscorrection (looks like −1).
        assert_eq!(code.classify_offset(3), Verdict::Correctable(-1));
    }

    #[test]
    #[should_panic]
    fn wrong_window_width_panics() {
        let _ = PeccCode::secded().decode(0, &[Bit::One]);
    }

    #[test]
    fn adapter_agrees_with_classify_on_pure_slips() {
        let codec = CyclicCodec::paper_default();
        let data: Vec<Bit> = (0..64).map(|i| Bit::from(i % 3 == 0)).collect();
        let cw = codec.encode(&data);
        for e in -2i32..=2 {
            let readout = codec.transmit(&cw, e, 10);
            let decoded = codec.decode(&readout);
            assert_eq!(decoded.verdict, codec.classify_offset(e), "e={e}");
            if e == 0 {
                assert_eq!(decoded.data.as_deref(), Some(&data[..]));
            }
        }
    }

    #[test]
    fn adapter_keeps_the_aliasing_floor() {
        // A slip of a full period before the window reads clean — the
        // SDC floor the stream codecs are built to remove. The slip is
        // injected directly (transmit caps at strength + 1).
        let codec = CyclicCodec::paper_default();
        assert_eq!(codec.classify_offset(4), Verdict::Clean);
        assert_eq!(codec.classify_offset(3), Verdict::Correctable(-1));
    }
}
