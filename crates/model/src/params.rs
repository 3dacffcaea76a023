//! Device parameters for the in-plane racetrack stripe (the paper's
//! Table 1) and their statistical variation.
//!
//! Two variation sources are modelled, following the paper's Section 3.1:
//!
//! * **process variation** — sampled once per stripe at "fabrication"
//!   (domain-wall width, pinning potential depth/width, flat-region
//!   width);
//! * **environmental variation** — sampled per shift operation (thermal
//!   noise on the effective drive, modelled as a perturbation of the
//!   wall velocity).

use rtm_util::rng::SmallRng64;

/// Mean values and standard deviations of the stripe device parameters.
///
/// Defaults are the paper's Table 1:
///
/// | parameter | mean | σ |
/// |---|---|---|
/// | domain-wall width Δ | 5 nm | 0.02·Δ̄ |
/// | pinning potential depth V | 1.2 J/dm³ | 0.02·V̄ |
/// | pinning potential width d | 45 nm | 0.05·d̄ |
/// | flat region width L | 150 nm | 0.05·d̄ |
/// | drive current density J | 1.24 A/µm² | chosen as 2·J₀ |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceParams {
    /// Mean domain-wall width Δ̄ (nm).
    pub wall_width_nm: f64,
    /// Relative σ of the wall width.
    pub wall_width_rel_sigma: f64,
    /// Mean pinning potential depth V̄ (J/dm³).
    pub pin_depth: f64,
    /// Relative σ of the pinning depth.
    pub pin_depth_rel_sigma: f64,
    /// Mean pinning potential (notch) width d̄ (nm).
    pub notch_width_nm: f64,
    /// σ of the notch width, relative to d̄.
    pub notch_width_rel_sigma: f64,
    /// Mean flat-region width L̄ (nm).
    pub flat_width_nm: f64,
    /// σ of the flat width, relative to d̄ (the paper expresses both the
    /// d and L sigmas in units of d̄).
    pub flat_width_rel_sigma_of_d: f64,
    /// Drive current density during stage-1, as a multiple of the
    /// threshold J₀. The paper selects 2.0 to balance under- and
    /// over-shift errors.
    pub drive_ratio: f64,
    /// Relative σ of the per-shift environmental velocity noise.
    ///
    /// This folds thermal fluctuation and supply jitter into a single
    /// multiplicative velocity perturbation applied per shift operation.
    pub env_velocity_rel_sigma: f64,
    /// Nominal single-step transit time (flat + notch) at the nominal
    /// drive, in nanoseconds. The paper estimates stage-1 at 0.4 ns per
    /// step.
    pub step_time_ns: f64,
}

impl DeviceParams {
    /// The paper's Table 1 configuration.
    pub fn table1() -> Self {
        Self {
            wall_width_nm: 5.0,
            wall_width_rel_sigma: 0.02,
            pin_depth: 1.2,
            pin_depth_rel_sigma: 0.02,
            notch_width_nm: 45.0,
            notch_width_rel_sigma: 0.05,
            flat_width_nm: 150.0,
            flat_width_rel_sigma_of_d: 0.05 * 45.0 / 150.0,
            drive_ratio: 2.0,
            env_velocity_rel_sigma: 0.028,
            step_time_ns: 0.4,
        }
    }

    /// A perpendicular-magnetic-anisotropy (PMA) material variant, per
    /// the paper's Section 3.1 remark: "Using perpendicular material
    /// can reduce the size of domain but may increase error rate at the
    /// same time." Domains (and notches) shrink ~3×, boosting density;
    /// the narrower pinning sites and sharper walls raise the relative
    /// variation of every feature.
    pub fn perpendicular() -> Self {
        Self {
            wall_width_nm: 1.5,
            wall_width_rel_sigma: 0.03,
            pin_depth: 1.2,
            pin_depth_rel_sigma: 0.03,
            notch_width_nm: 15.0,
            notch_width_rel_sigma: 0.08,
            flat_width_nm: 50.0,
            flat_width_rel_sigma_of_d: 0.08 * 15.0 / 50.0,
            drive_ratio: 2.0,
            env_velocity_rel_sigma: 0.035,
            step_time_ns: 0.3,
        }
    }

    /// Returns a copy with a different drive ratio (J/J₀), used by the
    /// drive-current ablation: under-driving raises under-shift errors,
    /// over-driving raises over-shift errors.
    pub fn with_drive_ratio(mut self, ratio: f64) -> Self {
        assert!(ratio > 1.0, "stage-1 drive must exceed threshold J0");
        self.drive_ratio = ratio;
        self
    }

    /// Returns a copy with scaled process variation (1.0 = Table 1).
    ///
    /// The paper notes its estimate is conservative and real devices may
    /// be worse; sweeping this factor exercises that sensitivity.
    pub fn with_variation_scale(mut self, scale: f64) -> Self {
        assert!(scale >= 0.0, "variation scale must be non-negative");
        self.wall_width_rel_sigma *= scale;
        self.pin_depth_rel_sigma *= scale;
        self.notch_width_rel_sigma *= scale;
        self.flat_width_rel_sigma_of_d *= scale;
        self.env_velocity_rel_sigma *= scale;
        self
    }

    /// Notch pitch (one step): flat region plus notch region, in nm.
    pub fn pitch_nm(&self) -> f64 {
        self.flat_width_nm + self.notch_width_nm
    }

    /// Half-width of the notch capture window in *step* units: a wall
    /// whose final continuous position lands within this distance of a
    /// notch centre is pinned there when the drive is removed.
    pub fn capture_half_window(&self) -> f64 {
        0.5 * self.notch_width_nm / self.pitch_nm()
    }

    /// Samples the per-stripe (process) parameters.
    pub fn sample_process(&self, rng: &mut SmallRng64) -> DeviceSample {
        let g = |rng: &mut SmallRng64, mean: f64, sigma: f64| mean + sigma * rng.next_gaussian();
        let wall_width_nm = g(
            rng,
            self.wall_width_nm,
            self.wall_width_rel_sigma * self.wall_width_nm,
        )
        .max(0.1);
        let pin_depth = g(
            rng,
            self.pin_depth,
            self.pin_depth_rel_sigma * self.pin_depth,
        )
        .max(1e-3);
        let notch_width_nm = g(
            rng,
            self.notch_width_nm,
            self.notch_width_rel_sigma * self.notch_width_nm,
        )
        .max(1.0);
        let flat_width_nm = g(
            rng,
            self.flat_width_nm,
            self.flat_width_rel_sigma_of_d * self.flat_width_nm,
        )
        .max(1.0);
        DeviceSample {
            wall_width_nm,
            pin_depth,
            notch_width_nm,
            flat_width_nm,
        }
    }

    /// Samples the per-shift multiplicative velocity perturbation
    /// (environmental variation). Mean 1.0.
    pub fn sample_env_velocity_factor(&self, rng: &mut SmallRng64) -> f64 {
        (1.0 + self.env_velocity_rel_sigma * rng.next_gaussian()).max(0.05)
    }
}

impl Default for DeviceParams {
    fn default() -> Self {
        Self::table1()
    }
}

/// One concrete draw of the process-varying parameters for a stripe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSample {
    /// Domain-wall width Δ (nm).
    pub wall_width_nm: f64,
    /// Pinning potential depth V (J/dm³).
    pub pin_depth: f64,
    /// Notch region width d (nm).
    pub notch_width_nm: f64,
    /// Flat region width L (nm).
    pub flat_width_nm: f64,
}

impl DeviceSample {
    /// The nominal (mean) sample of `params`, with no variation applied.
    pub fn nominal(params: &DeviceParams) -> Self {
        Self {
            wall_width_nm: params.wall_width_nm,
            pin_depth: params.pin_depth,
            notch_width_nm: params.notch_width_nm,
            flat_width_nm: params.flat_width_nm,
        }
    }

    /// Notch pitch for this sample (nm).
    pub fn pitch_nm(&self) -> f64 {
        self.flat_width_nm + self.notch_width_nm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_util::stats::OnlineStats;

    #[test]
    fn table1_matches_paper() {
        let p = DeviceParams::table1();
        assert_eq!(p.wall_width_nm, 5.0);
        assert_eq!(p.pin_depth, 1.2);
        assert_eq!(p.notch_width_nm, 45.0);
        assert_eq!(p.flat_width_nm, 150.0);
        assert_eq!(p.drive_ratio, 2.0);
        assert!((p.pitch_nm() - 195.0).abs() < 1e-12);
    }

    #[test]
    fn capture_window_is_fraction_of_pitch() {
        let p = DeviceParams::table1();
        let w = p.capture_half_window();
        assert!(w > 0.0 && w < 0.5, "w = {w}");
        assert!((w - 0.5 * 45.0 / 195.0).abs() < 1e-12);
    }

    #[test]
    fn process_sampling_has_requested_moments() {
        let p = DeviceParams::table1();
        let mut rng = SmallRng64::new(42);
        let mut widths = OnlineStats::new();
        let mut flats = OnlineStats::new();
        for _ in 0..50_000 {
            let s = p.sample_process(&mut rng);
            widths.push(s.wall_width_nm);
            flats.push(s.flat_width_nm);
        }
        assert!((widths.mean() - 5.0).abs() < 0.01);
        assert!((widths.std_dev() - 0.1).abs() < 0.005);
        assert!((flats.mean() - 150.0).abs() < 0.1);
    }

    #[test]
    fn env_factor_is_centered_on_one() {
        let p = DeviceParams::table1();
        let mut rng = SmallRng64::new(17);
        let s: OnlineStats = (0..50_000)
            .map(|_| p.sample_env_velocity_factor(&mut rng))
            .collect();
        assert!((s.mean() - 1.0).abs() < 0.005);
        assert!(s.min() > 0.0);
    }

    #[test]
    fn variation_scale_zero_is_deterministic() {
        let p = DeviceParams::table1().with_variation_scale(0.0);
        let mut rng = SmallRng64::new(5);
        let a = p.sample_process(&mut rng);
        let b = p.sample_process(&mut rng);
        assert_eq!(a, b);
        assert_eq!(a, DeviceSample::nominal(&p));
        assert_eq!(p.sample_env_velocity_factor(&mut rng), 1.0);
    }

    #[test]
    fn perpendicular_is_denser_but_noisier() {
        let inplane = DeviceParams::table1();
        let pma = DeviceParams::perpendicular();
        // ~3x smaller pitch = ~3x the areal density per stripe.
        assert!(pma.pitch_nm() < inplane.pitch_nm() / 2.5);
        // ...but every relative sigma is worse.
        assert!(pma.notch_width_rel_sigma > inplane.notch_width_rel_sigma);
        assert!(pma.env_velocity_rel_sigma > inplane.env_velocity_rel_sigma);
    }

    #[test]
    #[should_panic]
    fn drive_ratio_below_threshold_rejected() {
        let _ = DeviceParams::table1().with_drive_ratio(0.9);
    }
}
