//! p-ECC initialization — the program-and-test protocol of Section 4.3.
//!
//! The code pattern must itself be written through shift operations,
//! which can suffer position errors. The paper's remedy is iterative:
//! program the code bits from the end port, walk them across the stripe
//! reading them back at every port, walk them back, and repeat until the
//! confidence target is met. For a 64-domain, 8-port stripe one round
//! already pushes the residual error probability below 10⁻¹⁰⁰, with an
//! expected latency around 1200 cycles; a 128 MB memory initialises in
//! under 20 ms.

use crate::layout::PeccLayout;
use rtm_codes::Verdict;
use rtm_model::rates::OutOfStepRates;
use rtm_model::shift::ShiftOutcome;
use rtm_track::bit::Bit;
use rtm_track::fault::FaultModel;
use rtm_track::stripe::Stripe;
use rtm_util::units::{Cycles, Seconds};

/// Plan and cost estimate for initialising one stripe's p-ECC.
#[derive(Debug, Clone, PartialEq)]
pub struct InitPlan {
    /// Number of program-and-test rounds.
    pub rounds: u32,
    /// Shift steps taken per round (forward + backward sweep).
    pub steps_per_round: u64,
    /// Latency of the full initialisation for one stripe.
    pub cycles: Cycles,
    /// Residual probability (natural log) that an undetected position
    /// error survives initialisation.
    pub ln_residual_error: f64,
}

impl InitPlan {
    /// Residual error probability in linear space (may underflow to 0).
    pub fn residual_error(&self) -> f64 {
        self.ln_residual_error.exp()
    }

    /// Wall-clock duration at `clock_hz`.
    pub fn duration(&self, clock_hz: f64) -> Seconds {
        self.cycles.to_seconds(clock_hz)
    }
}

/// Builds the program-and-test plan for a protected stripe.
///
/// Every code bit is written at an end port and stepped across the
/// stripe one notch at a time; each step is verified by every port it
/// passes, so an undetected error requires *all* observing ports to
/// miss it in *every* round. With per-step error rate `p₁` (1-step
/// shifts only during init) and `c` independent checks per code bit per
/// round, the residual is `(p₁ᶜ)ʳ` per bit — astronomically small after
/// one round already.
///
/// `rounds` must be at least 1.
///
/// # Panics
///
/// Panics if `rounds == 0`.
pub fn plan_initialisation(layout: &PeccLayout, rates: &OutOfStepRates, rounds: u32) -> InitPlan {
    assert!(rounds > 0, "at least one program-and-test round required");
    let total_len = layout.total_domains() as u64;
    let code_bits = layout.code_domains.max(1) as u64;
    // One round: walk the pattern right across the stripe, then back.
    let steps_per_round = 2 * total_len;
    // Per 1-step shift: shift latency 3 cycles (STS) + ~1 cycle test at
    // the ports (reads proceed in parallel across ports).
    let cycles_per_step = 4u64;
    let cycles = Cycles(rounds as u64 * steps_per_round * cycles_per_step);

    // Residual: a code bit passes under every data port plus the p-ECC
    // taps on the forward sweep and again on the backward sweep; each
    // passage re-checks it, and surviving undetected requires an
    // (independent) compensating position error at every check.
    let checks_per_round = 2.0 * (layout.geometry.num_ports() + layout.extra_read_ports) as f64;
    let p1 = rates.rate(1, 1).max(1e-300);
    let ln_per_bit = checks_per_round * p1.ln() * rounds as f64;
    let ln_residual = ln_per_bit + (code_bits as f64).ln();
    InitPlan {
        rounds,
        steps_per_round,
        cycles,
        ln_residual_error: ln_residual,
    }
}

/// Outcome of a *physical* program-and-test campaign on one stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InitOutcome {
    /// Restarts triggered by a detected mismatch during verification.
    pub restarts: u32,
    /// Total 1-step shift operations issued, across restarts.
    pub total_steps: u64,
    /// Whether the final verification sweep passed with the code bits
    /// exactly in place.
    pub success: bool,
}

/// Physically simulates the Section 4.3 protocol on a bare code tape:
///
/// 1. code bits are written at the left end port and stepped right,
///    one notch at a time, until the full pattern is laid out;
/// 2. a verification sweep walks the pattern right and back left,
///    checking the expected bit under every port at every step;
/// 3. any mismatch restarts the whole procedure (up to `max_restarts`).
///
/// Position errors during programming shift the *entire* laid-out
/// pattern, which the verification sweep catches as a phase mismatch —
/// the property that makes one round sufficient in practice.
///
/// # Panics
///
/// Panics if the layout carries no code (`ProtectionKind::None`).
pub fn simulate_initialisation(
    layout: &PeccLayout,
    faults: &mut dyn FaultModel,
    max_restarts: u32,
) -> InitOutcome {
    let checker = layout
        .kind
        .checker()
        .expect("initialisation needs a coded layout");
    let code_len = layout.code_domains.max(checker.window() as usize + 1);
    // The tape: code region plus travel margin on the right for the
    // verification sweep (one full code length).
    let tape_len = 2 * code_len + 2;
    let window = checker.window() as usize;
    // Verification taps sit over the last `window` slots of the
    // laid-out pattern (slots 1..=code_len hold bits 0..code_len-1
    // after a clean programming phase).
    let tap_base = code_len - window + 1;

    let mut restarts = 0u32;
    let mut total_steps = 0u64;
    'attempt: loop {
        let mut tape = Stripe::new(tape_len);
        // Phase 1: program. Write a bit at slot 0, shift right by one,
        // repeat — after k bits the oldest sits at slot k-1. Write the
        // bits in reverse so bit 0 ends leftmost.
        for i in (0..code_len).rev() {
            tape.write_slot(0, checker.bit_at(i as i64))
                .expect("slot 0 in range");
            let outcome = faults.sample(1);
            tape.apply_shift(1, outcome);
            total_steps += 1;
            if !tape.is_aligned() {
                // A stop-in-middle during programming is detected
                // immediately (the next write would fail) — restart.
                restarts += 1;
                if restarts > max_restarts {
                    return InitOutcome {
                        restarts,
                        total_steps,
                        success: false,
                    };
                }
                continue 'attempt;
            }
        }
        // After programming, code bit i sits at slot i + 1 (each write
        // happened at slot 0 and was pushed right by the later shifts).

        // Phase 2: verify. Walk the laid-out pattern right and back
        // left; stop-in-middle states are caught on the spot, while
        // out-of-step slips survive to the final phase comparison.
        let sweep = code_len;
        for dir in [1i64, -1] {
            for _ in 0..sweep {
                let outcome = faults.sample(1);
                tape.apply_shift(dir, outcome);
                total_steps += 1;
                if !tape.is_aligned() {
                    restarts += 1;
                    if restarts > max_restarts {
                        return InitOutcome {
                            restarts,
                            total_steps,
                            success: false,
                        };
                    }
                    continue 'attempt;
                }
            }
        }
        // Final check: after a clean campaign, code bit i sits at slot
        // i + 1. Read the window under the taps and decode against that
        // expected phase — any accumulated slip shows up here.
        let observed: Vec<Bit> = (0..window)
            .map(|t| tape.read_slot(tap_base + t).unwrap_or(Bit::Unknown))
            .collect();
        // Clean run: slot s holds code bit (s - 1).
        let expected_index = (tap_base as i64) - 1;
        let verdict = checker.decode(expected_index, &observed);
        let success = verdict == Verdict::Clean && tape.actual_offset() == code_len as i64;
        if success {
            return InitOutcome {
                restarts,
                total_steps,
                success: true,
            };
        }
        restarts += 1;
        if restarts > max_restarts {
            return InitOutcome {
                restarts,
                total_steps,
                success: false,
            };
        }
    }
}

/// Convenience: a scripted single-error campaign used by tests and the
/// playground example — injects `error_at_step` as a +1 out-of-step
/// error and lets the protocol recover.
pub fn scripted_single_error(layout: &PeccLayout, error_at_step: usize) -> InitOutcome {
    let mut outcomes = vec![ShiftOutcome::Pinned { offset: 0 }; error_at_step];
    outcomes.push(ShiftOutcome::Pinned { offset: 1 });
    let mut faults = rtm_track::fault::ScriptedFaultModel::new(outcomes);
    simulate_initialisation(layout, &mut faults, 4)
}

/// Total initialisation time for a memory of `stripes` stripes,
/// initialised `parallelism` stripes at a time (per-bank init engines).
pub fn memory_init_time(plan: &InitPlan, stripes: u64, parallelism: u64, clock_hz: f64) -> Seconds {
    assert!(parallelism > 0, "parallelism must be positive");
    let waves = stripes.div_ceil(parallelism);
    Seconds(plan.duration(clock_hz).as_secs() * waves as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ProtectionKind;
    use rtm_track::geometry::StripeGeometry;

    fn default_plan(rounds: u32) -> InitPlan {
        let layout =
            PeccLayout::new(StripeGeometry::paper_default(), ProtectionKind::SECDED).unwrap();
        plan_initialisation(&layout, &OutOfStepRates::paper_calibration(), rounds)
    }

    #[test]
    fn one_round_latency_matches_paper_scale() {
        // Paper: "expected latency ... about 1200 cycles" for the
        // 64-domain 8-port stripe.
        let plan = default_plan(1);
        let c = plan.cycles.count();
        assert!((600..2400).contains(&c), "init cycles {c}");
    }

    #[test]
    fn residual_error_is_astronomically_small() {
        // Paper quotes below 1e-100 after one iteration; our slightly
        // more conservative check-count model lands below 1e-80, far
        // past any reliability requirement either way.
        let plan = default_plan(1);
        assert!(plan.ln_residual_error < -80.0 * std::f64::consts::LN_10);
        assert!(plan.residual_error() < 1e-80);
    }

    #[test]
    fn more_rounds_reduce_residual_and_raise_latency() {
        let one = default_plan(1);
        let three = default_plan(3);
        assert!(three.ln_residual_error < one.ln_residual_error);
        assert_eq!(three.cycles.count(), 3 * one.cycles.count());
        assert_eq!(three.steps_per_round, one.steps_per_round);
    }

    #[test]
    fn full_memory_under_20ms() {
        // Paper: a 128 MB racetrack memory initialises in < 20 ms.
        // 128 MB data / 64 bits per stripe = 16 Mi stripes; per-bank
        // engines initialise whole rows of 512-stripe groups at once
        // (the paper's data mapping), i.e. ~32768-way parallelism.
        let plan = default_plan(1);
        let stripes = 128u64 * 1024 * 1024 * 8 / 64;
        let t = memory_init_time(&plan, stripes, 512 * 64, 2.0e9);
        assert!(t.as_secs() < 20e-3, "init time {} too slow", t.as_secs());
    }

    #[test]
    fn physical_init_succeeds_without_faults() {
        let layout =
            PeccLayout::new(StripeGeometry::paper_default(), ProtectionKind::SECDED).unwrap();
        let mut faults = rtm_track::fault::IdealFaultModel;
        let out = simulate_initialisation(&layout, &mut faults, 2);
        assert!(out.success, "{out:?}");
        assert_eq!(out.restarts, 0);
        // One programming pass + one round-trip sweep.
        assert_eq!(out.total_steps, 3 * layout.code_domains as u64);
    }

    #[test]
    fn physical_init_detects_and_recovers_from_slip() {
        let layout =
            PeccLayout::new(StripeGeometry::paper_default(), ProtectionKind::SECDED).unwrap();
        for step in [0usize, 3, 12, 25] {
            let out = scripted_single_error(&layout, step);
            assert!(out.success, "error at step {step}: {out:?}");
            assert_eq!(out.restarts, 1, "error at step {step}");
        }
    }

    #[test]
    fn physical_init_detects_stop_in_middle() {
        let layout =
            PeccLayout::new(StripeGeometry::paper_default(), ProtectionKind::SECDED).unwrap();
        let mut faults = rtm_track::fault::ScriptedFaultModel::new([
            ShiftOutcome::Pinned { offset: 0 },
            ShiftOutcome::StopInMiddle {
                lower: 0,
                frac: 0.5,
            },
        ]);
        let out = simulate_initialisation(&layout, &mut faults, 3);
        assert!(out.success);
        assert_eq!(out.restarts, 1);
    }

    #[test]
    fn physical_init_gives_up_under_persistent_faults() {
        let layout =
            PeccLayout::new(StripeGeometry::paper_default(), ProtectionKind::SECDED).unwrap();
        // Every shift over-steps: no attempt can ever verify.
        struct Always1;
        impl rtm_track::fault::FaultModel for Always1 {
            fn sample(&mut self, _d: u32) -> ShiftOutcome {
                ShiftOutcome::Pinned { offset: 1 }
            }
        }
        let out = simulate_initialisation(&layout, &mut Always1, 3);
        assert!(!out.success);
        assert_eq!(out.restarts, 4, "max_restarts + 1 attempts");
    }

    #[test]
    fn physical_init_works_for_sed_and_stronger_codes() {
        for kind in [
            ProtectionKind::Sed,
            ProtectionKind::Correcting { m: 2 },
            ProtectionKind::SECDED_O,
        ] {
            let geom = StripeGeometry::new(64, 4).unwrap();
            let layout = PeccLayout::new(geom, kind).unwrap();
            let mut faults = rtm_track::fault::IdealFaultModel;
            let out = simulate_initialisation(&layout, &mut faults, 2);
            assert!(out.success, "{kind:?}: {out:?}");
        }
    }

    #[test]
    fn calibrated_faults_rarely_disturb_init() {
        // At the real Table 2 rates a campaign virtually never restarts.
        let layout =
            PeccLayout::new(StripeGeometry::paper_default(), ProtectionKind::SECDED).unwrap();
        let mut faults = rtm_track::fault::CalibratedFaultModel::paper(99);
        let mut restarts = 0;
        for _ in 0..200 {
            let out = simulate_initialisation(&layout, &mut faults, 5);
            assert!(out.success);
            restarts += out.restarts;
        }
        assert!(restarts <= 1, "restarts {restarts}");
    }

    #[test]
    #[should_panic]
    fn physical_init_rejects_uncoded_layout() {
        let layout =
            PeccLayout::new(StripeGeometry::paper_default(), ProtectionKind::None).unwrap();
        let _ = simulate_initialisation(&layout, &mut rtm_track::fault::IdealFaultModel, 1);
    }

    #[test]
    #[should_panic]
    fn zero_rounds_rejected() {
        let _ = default_plan(0);
    }

    #[test]
    #[should_panic]
    fn zero_parallelism_rejected() {
        let plan = default_plan(1);
        let _ = memory_init_time(&plan, 100, 0, 2.0e9);
    }
}
