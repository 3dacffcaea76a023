//! Property tests for the displacement-noise model and rate tables.

use rtm_model::params::DeviceParams;
use rtm_model::rates::{mttf_for_error_rate, OutOfStepRates};
use rtm_model::shift::{NoiseModel, ShiftOutcome};
use rtm_model::sts::StsTiming;
use rtm_util::check::{run_cases, Gen};
use rtm_util::rng::SmallRng64;

/// settle() + apply_sts() always yields a pinned outcome, and the
/// settled notch is within one step of the continuous error.
#[test]
fn sts_always_pins_nearby() {
    run_cases(256, |g: &mut Gen| {
        let e = g.f64_in(-3.0, 3.0);
        let noise = NoiseModel::from_params(&DeviceParams::table1());
        let settled = noise.apply_sts(noise.settle(e));
        match settled {
            ShiftOutcome::Pinned { offset } => {
                assert!((offset as f64 - e).abs() <= 1.0, "e={e}, offset={offset}");
            }
            other => panic!("unexpected {other:?}"),
        }
    });
}

/// settle() classifies by distance to the nearest notch: within the
/// capture window it pins, outside it stops mid-flat.
#[test]
fn settle_respects_capture_window() {
    run_cases(256, |g: &mut Gen| {
        let k = g.i32_in(-3, 3);
        let frac = g.f64_in(0.0, 1.0);
        let noise = NoiseModel::from_params(&DeviceParams::table1());
        let w = noise.capture_half_window;
        let e = k as f64 + frac;
        match noise.settle(e) {
            ShiftOutcome::Pinned { offset } => {
                assert!((e - offset as f64).abs() <= w + 1e-12);
            }
            ShiftOutcome::StopInMiddle { lower, frac } => {
                assert_eq!(lower, e.floor() as i32);
                assert!(frac > w - 1e-12 && frac < 1.0 - w + 1e-12);
            }
        }
    });
}

/// Monte-Carlo error sampling has the analytic mean and sigma.
#[test]
fn sampled_moments_match_analytic() {
    run_cases(24, |g: &mut Gen| {
        let n = g.u32_in(1, 7);
        let seed = g.u64_in(0, 999);
        let noise = NoiseModel::from_params(&DeviceParams::table1());
        let mut rng = SmallRng64::new(seed);
        let samples = 20_000;
        let mut stats = rtm_util::stats::OnlineStats::new();
        for _ in 0..samples {
            stats.push(noise.sample_error(n, &mut rng));
        }
        let tol = 4.0 * noise.sigma_for(n) / (samples as f64).sqrt();
        assert!((stats.mean() - noise.mean_for(n)).abs() < tol);
        assert!((stats.std_dev() / noise.sigma_for(n) - 1.0).abs() < 0.05);
    });
}

/// Variation scaling scales rates monotonically.
#[test]
fn variation_scale_monotone() {
    run_cases(64, |g: &mut Gen| {
        let scale = g.f64_in(0.25, 3.0);
        let base =
            OutOfStepRates::from_noise_model(&NoiseModel::from_params(&DeviceParams::table1()));
        let scaled = OutOfStepRates::from_noise_model(&NoiseModel::from_params(
            &DeviceParams::table1().with_variation_scale(scale),
        ));
        for d in 1..=7 {
            if scale > 1.05 {
                assert!(scaled.rate(d, 1) >= base.rate(d, 1));
            } else if scale < 0.95 {
                assert!(scaled.rate(d, 1) <= base.rate(d, 1));
            }
        }
    });
}

/// MTTF x rate x intensity always multiplies back to 1.
#[test]
fn mttf_inverse_relation() {
    run_cases(256, |g: &mut Gen| {
        let rate = 10f64.powf(g.f64_in(-20.0, -3.0));
        let intensity = 10f64.powf(g.f64_in(3.0, 10.0));
        let mttf = mttf_for_error_rate(rate, intensity).as_secs();
        assert!((mttf * rate * intensity - 1.0).abs() < 1e-9);
    });
}

/// Chunk-boundary trial counts (fewer trials than one chunk, exact
/// multiples, non-divisible remainders) produce identical PDFs for any
/// worker count, and the bin tallies plus Welford count always account
/// for every trial.
#[test]
fn position_pdf_chunk_boundaries_are_thread_invariant() {
    use rtm_model::montecarlo::{position_pdf_with_threads, MC_CHUNK_TRIALS};
    use rtm_obs::Obs;
    run_cases(6, |g: &mut Gen| {
        let trials = match g.u64_in(0, 2) {
            0 => g.u64_in(1, 500),                 // far below one chunk
            1 => MC_CHUNK_TRIALS * g.u64_in(1, 2), // exact multiple
            _ => MC_CHUNK_TRIALS * g.u64_in(1, 2) + g.u64_in(1, MC_CHUNK_TRIALS - 1),
        };
        let seed = g.u64_in(0, u64::MAX);
        let distance = g.u32_in(1, 7);
        let params = DeviceParams::table1();
        let base = position_pdf_with_threads(&params, distance, trials, seed, 1, &Obs::default());
        for threads in [2usize, 5] {
            let alt = position_pdf_with_threads(
                &params,
                distance,
                trials,
                seed,
                threads,
                &Obs::default(),
            );
            assert_eq!(base, alt, "trials={trials} threads={threads}");
        }
        assert_eq!(base.error_stats.count(), trials);
        let binned: u64 = base.bins.iter().map(|b| b.samples).sum();
        assert!(binned <= trials, "binned {binned} > trials {trials}");
    });
}

/// Sequence latency equals the sum of its parts' latencies.
#[test]
fn sequence_latency_additive() {
    run_cases(256, |g: &mut Gen| {
        let seq = g.vec_of(1, 5, |g| g.u32_in(1, 7));
        let t = StsTiming::paper();
        let direct: u64 = seq.iter().map(|&d| t.shift_cycles(d).count()).sum();
        assert_eq!(t.sequence_cycles(&seq).count(), direct);
    });
}
