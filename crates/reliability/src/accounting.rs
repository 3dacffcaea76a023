//! Per-scheme reliability reports: shift mix × intensity × code →
//! SDC/DUE failure rates and MTTFs.
//!
//! The classification follows the code semantics exactly (including
//! aliasing): for each shift distance `d` and error magnitude `k`, the
//! active p-ECC either silently accepts (`SDC`), corrects in place
//! (harmless), mis-corrects (`SDC`), or detects without correcting
//! (`DUE`). Reference targets follow the paper's Section 2.2: IBM's
//! 1000-year SDC and 10-year DUE goals.

use rtm_codes::Verdict;
use rtm_model::rates::OutOfStepRates;
use rtm_pecc::layout::ProtectionKind;
use rtm_util::units::{Seconds, SECONDS_PER_YEAR};
use std::collections::BTreeMap;

/// IBM's SDC target the paper adopts (1000 years).
pub const SDC_TARGET_SECONDS: f64 = 1000.0 * SECONDS_PER_YEAR;

/// IBM's DUE target the paper adopts (10 years).
pub const DUE_TARGET_SECONDS: f64 = 10.0 * SECONDS_PER_YEAR;

/// A distribution over single-operation shift distances.
#[derive(Debug, Clone, PartialEq)]
pub struct ShiftMix {
    weights: BTreeMap<u32, f64>,
}

impl ShiftMix {
    /// Builds a mix from `(distance, weight)` pairs; weights are
    /// normalised.
    ///
    /// # Panics
    ///
    /// Panics if no positive-weight, positive-distance entry exists.
    pub fn new<I: IntoIterator<Item = (u32, f64)>>(entries: I) -> Self {
        let mut weights = BTreeMap::new();
        for (d, w) in entries {
            if w > 0.0 {
                assert!(d > 0, "distance must be positive");
                *weights.entry(d).or_insert(0.0) += w;
            }
        }
        assert!(!weights.is_empty(), "shift mix must not be empty");
        let total: f64 = weights.values().sum();
        for w in weights.values_mut() {
            *w /= total;
        }
        Self { weights }
    }

    /// Uniform mix over a distance range.
    pub fn uniform(range: std::ops::RangeInclusive<u32>) -> Self {
        Self::new(range.map(|d| (d, 1.0)))
    }

    /// A single fixed distance.
    pub fn single(distance: u32) -> Self {
        Self::new([(distance, 1.0)])
    }

    /// Iterates `(distance, probability)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.weights.iter().map(|(&d, &w)| (d, w))
    }

    /// Mean shift distance.
    pub fn mean_distance(&self) -> f64 {
        self.iter().map(|(d, w)| d as f64 * w).sum()
    }
}

/// SDC/DUE failure rates for one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityReport {
    /// Expected silent corruptions per second.
    pub sdc_rate_per_second: f64,
    /// Expected detected-uncorrectable errors per second.
    pub due_rate_per_second: f64,
    /// Expected (harmless) corrections per second.
    pub correction_rate_per_second: f64,
}

impl ReliabilityReport {
    /// Analytic report for `kind` protection under a shift `mix` at
    /// `intensity` stripe-shift operations per second.
    ///
    /// `intensity` counts *stripe* operations: for a 512-stripe line
    /// group served together, multiply the group command rate by 512.
    pub fn analytic(kind: ProtectionKind, mix: &ShiftMix, intensity: f64) -> Self {
        Self::with_rates(kind, mix, intensity, &OutOfStepRates::paper_calibration())
    }

    /// Analytic report with an explicit rate table.
    pub fn with_rates(
        kind: ProtectionKind,
        mix: &ShiftMix,
        intensity: f64,
        rates: &OutOfStepRates,
    ) -> Self {
        assert!(intensity >= 0.0, "intensity must be non-negative");
        let mut sdc = 0.0;
        let mut due = 0.0;
        let mut corrections = 0.0;
        for (d, w) in mix.iter() {
            for k in 1..=4u32 {
                let p = rates.rate(d, k) * w;
                if p <= 0.0 {
                    continue;
                }
                // Kind-level classification covers the cyclic family
                // (with its aliasing) and the stream codecs (which
                // never alias) alike; an unprotected kind classifies
                // everything Clean, i.e. silent.
                match kind.classify_offset(k as i32) {
                    Verdict::Clean => sdc += p,
                    Verdict::Correctable(c) if c == k as i32 => corrections += p,
                    Verdict::Correctable(_) => sdc += p,
                    Verdict::Uncorrectable => due += p,
                }
            }
        }
        Self {
            sdc_rate_per_second: sdc * intensity,
            due_rate_per_second: due * intensity,
            correction_rate_per_second: corrections * intensity,
        }
    }

    /// SDC mean time to failure.
    pub fn sdc_mttf(&self) -> Seconds {
        rate_to_mttf(self.sdc_rate_per_second)
    }

    /// DUE mean time to failure.
    pub fn due_mttf(&self) -> Seconds {
        rate_to_mttf(self.due_rate_per_second)
    }

    /// Meets the 1000-year SDC goal.
    pub fn meets_sdc_target(&self) -> bool {
        self.sdc_mttf().as_secs() >= SDC_TARGET_SECONDS
    }

    /// Meets the 10-year DUE goal.
    pub fn meets_due_target(&self) -> bool {
        self.due_mttf().as_secs() >= DUE_TARGET_SECONDS
    }
}

fn rate_to_mttf(rate: f64) -> Seconds {
    if rate <= 0.0 {
        Seconds(f64::INFINITY)
    } else {
        Seconds(1.0 / rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's default LLC serves 512-stripe groups; a moderate
    /// workload issues ~10M group commands/s.
    fn paper_intensity() -> f64 {
        1.0e7 * 512.0
    }

    #[test]
    fn baseline_mttf_is_microseconds() {
        // Fig. 10 baseline: 1.33 µs SDC MTTF.
        let mix = ShiftMix::uniform(1..=7);
        let r = ReliabilityReport::analytic(ProtectionKind::None, &mix, paper_intensity());
        let mttf = r.sdc_mttf().as_secs();
        assert!(
            (1e-7..1e-3).contains(&mttf),
            "baseline SDC MTTF {mttf:.3e} s"
        );
        assert_eq!(r.due_rate_per_second, 0.0, "nothing is ever detected");
    }

    #[test]
    fn sed_detects_but_leaves_due_exposure() {
        let mix = ShiftMix::uniform(1..=7);
        let r = ReliabilityReport::analytic(ProtectionKind::Sed, &mix, paper_intensity());
        // Fig. 10: SED improves SDC MTTF to ~10 hours; Fig. 11: DUE
        // MTTF is tiny because every ±1 is only detected.
        let sdc_hours = r.sdc_mttf().as_secs() / 3600.0;
        assert!(sdc_hours > 1.0, "SED SDC MTTF {sdc_hours} hours");
        assert!(r.due_mttf().as_secs() < 1.0, "SED DUE MTTF should be tiny");
        assert!(!r.meets_due_target());
    }

    #[test]
    fn secded_fixes_sdc_keeps_modest_due() {
        let mix = ShiftMix::uniform(1..=7);
        let r = ReliabilityReport::analytic(ProtectionKind::SECDED, &mix, paper_intensity());
        // Fig. 10: SECDED SDC MTTF > 1000 years.
        assert!(r.meets_sdc_target(), "SDC MTTF {}", r.sdc_mttf().as_years());
        // Fig. 11: plain SECDED DUE MTTF ~1 day-ish — not good enough.
        let due_days = r.due_mttf().as_secs() / 86400.0;
        assert!(
            (0.01..100.0).contains(&due_days),
            "DUE MTTF {due_days} days"
        );
        assert!(!r.meets_due_target());
    }

    #[test]
    fn safe_distance_reaches_due_target() {
        // Restricting shifts to ≤3 steps (the worst-case safe distance)
        // pushes DUE MTTF past 10 years — the p-ECC-S result.
        let mix = ShiftMix::uniform(1..=3);
        let r = ReliabilityReport::analytic(ProtectionKind::SECDED, &mix, paper_intensity());
        assert!(
            r.meets_due_target(),
            "DUE MTTF {} years",
            r.due_mttf().as_years()
        );
        assert!(r.meets_sdc_target());
    }

    #[test]
    fn pecc_o_single_steps_are_safest() {
        let r = ReliabilityReport::analytic(
            ProtectionKind::SECDED_O,
            &ShiftMix::single(1),
            paper_intensity(),
        );
        // Fig. 12: p-ECC-O tops the DUE MTTF chart.
        assert!(r.due_mttf().as_years() > 1000.0);
    }

    #[test]
    fn stronger_codes_shift_due_to_corrections() {
        let mix = ShiftMix::uniform(1..=7);
        let secded = ReliabilityReport::analytic(ProtectionKind::SECDED, &mix, paper_intensity());
        let m2 = ReliabilityReport::analytic(
            ProtectionKind::Correcting { m: 2 },
            &mix,
            paper_intensity(),
        );
        // m = 2 corrects ±2 as well, so its DUE rate (±3) is far lower.
        assert!(m2.due_rate_per_second < secded.due_rate_per_second * 1e-3);
        assert!(m2.correction_rate_per_second > secded.correction_rate_per_second);
    }

    #[test]
    fn report_scales_linearly_with_intensity() {
        let mix = ShiftMix::uniform(1..=7);
        let a = ReliabilityReport::analytic(ProtectionKind::SECDED, &mix, 1e6);
        let b = ReliabilityReport::analytic(ProtectionKind::SECDED, &mix, 2e6);
        assert!((b.due_rate_per_second / a.due_rate_per_second - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_intensity_is_immortal() {
        let mix = ShiftMix::single(7);
        let r = ReliabilityReport::analytic(ProtectionKind::None, &mix, 0.0);
        assert!(!r.sdc_mttf().as_secs().is_finite());
    }

    #[test]
    fn shift_mix_normalises_and_means() {
        let mix = ShiftMix::new([(1, 2.0), (3, 2.0)]);
        assert!((mix.mean_distance() - 2.0).abs() < 1e-12);
        let total: f64 = mix.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn empty_mix_rejected() {
        let _ = ShiftMix::new(std::iter::empty::<(u32, f64)>());
    }
}
