//! The error-aware shift controller (the paper's Fig. 9) in its
//! statistical form: planning, latency accounting and residual-risk
//! bookkeeping for the architecture simulator.
//!
//! Four policies mirror the paper's evaluated configurations:
//!
//! | policy | paper label | behaviour |
//! |---|---|---|
//! | [`ShiftPolicy::Unconstrained`] | baseline / plain p-ECC | one shift per request, any distance |
//! | [`ShiftPolicy::StepByStep`] | p-ECC-O | 1-step shift-and-write operations only |
//! | [`ShiftPolicy::FixedSafe`] | p-ECC-S worst | static safe distance from the worst-case access rate |
//! | [`ShiftPolicy::Adaptive`] | p-ECC-S adaptive | run-time interval counter indexes the Table 3(b) thresholds |

use crate::safety::SafetyBudget;
use crate::sequence::{SequenceTable, PECC_CHECK_CYCLES};
use rtm_codes::Verdict;
use rtm_model::rates::MAX_TABULATED_DISTANCE;
use rtm_model::sts::StsTiming;
use rtm_obs::trace::{current_parent, PeccOutcome, ShiftEvent};
use rtm_obs::Obs;
use rtm_pecc::layout::ProtectionKind;
use rtm_util::units::Cycles;

/// How the controller bounds shift distances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShiftPolicy {
    /// No distance constraint: each request is one shift operation.
    Unconstrained,
    /// Every request is served with 1-step shift-and-write operations
    /// (the p-ECC-O discipline).
    StepByStep,
    /// A static safe distance computed for `worst_intensity` shift
    /// operations per second ("p-ECC-S worst").
    FixedSafe {
        /// The worst-case (peak) shift intensity the memory supports.
        worst_intensity_hz: u64,
    },
    /// Run-time adaptive safe distance from the inter-shift interval
    /// ("p-ECC-S adaptive").
    Adaptive,
}

/// A planned shift transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct ShiftPlan {
    /// Sub-shift distances (each ≤ the geometry's max shift).
    pub sequence: Vec<u32>,
    /// Total latency: STS stages plus one p-ECC check per sub-shift.
    pub latency: Cycles,
    /// Number of p-ECC checks performed.
    pub checks: u32,
    /// Probability that this transaction raises a DUE (detected
    /// uncorrectable position error).
    pub due_risk: f64,
    /// Probability that this transaction silently corrupts data
    /// (undetected or mis-corrected position error).
    pub sdc_risk: f64,
    /// Expected number of corrective back-shifts (each also costs a
    /// shift + check, folded into expected latency by callers that care;
    /// the paper treats this as negligible for performance).
    pub expected_corrections: f64,
}

impl ShiftPlan {
    /// Total steps moved.
    pub fn distance(&self) -> u32 {
        self.sequence.iter().sum()
    }
}

/// Running statistics the controller maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ControllerStats {
    /// Shift requests served.
    pub requests: u64,
    /// Physical shift operations issued (sub-shifts).
    pub operations: u64,
    /// Total steps moved.
    pub steps: u64,
    /// Total latency spent shifting.
    pub shift_cycles: u64,
    /// p-ECC checks performed.
    pub checks: u64,
    /// Requests served as batch continuations (STS driver already
    /// armed by the preceding request of the same stream).
    pub batched_requests: u64,
    /// Cycles saved by batching: one stage-2 settle per continuation.
    pub batch_saved_cycles: u64,
    /// Accumulated DUE probability (sums to expected DUE count).
    pub expected_dues: f64,
    /// Accumulated SDC probability.
    pub expected_sdcs: f64,
}

impl ControllerStats {
    /// Folds the shift counts this block carries into `obs` once, when
    /// a run ends: `shift.operations`, `shift.steps` and `pecc.checks`
    /// (the transaction-level metrics are recorded as the controller
    /// plans, see [`ShiftController::with_obs`]).
    pub fn record(&self, obs: &Obs) {
        if let Some(reg) = obs.metrics() {
            reg.fold_count("shift.operations", self.operations);
            reg.fold_count("shift.steps", self.steps);
            reg.fold_count("pecc.checks", self.checks);
        }
    }
}

/// The position-error-aware shift controller.
#[derive(Debug, Clone)]
pub struct ShiftController {
    kind: ProtectionKind,
    policy: ShiftPolicy,
    timing: StsTiming,
    budget: SafetyBudget,
    table: SequenceTable,
    stats: ControllerStats,
    /// Cycle timestamp of the previous shift request (for the adapter).
    last_shift_at: Option<u64>,
    /// The run's observer (records nothing by default).
    obs: Obs,
}

impl ShiftController {
    /// Creates a controller with the paper's timing and rate
    /// calibration for the given protection scheme and policy.
    pub fn new(kind: ProtectionKind, policy: ShiftPolicy) -> Self {
        Self::with_parts(
            kind,
            policy,
            StsTiming::paper(),
            SafetyBudget::new(
                rtm_model::rates::OutOfStepRates::paper_calibration(),
                crate::safety::PAPER_RELIABILITY_TARGET,
                kind.strength(),
            ),
            MAX_TABULATED_DISTANCE,
        )
    }

    /// Fully parameterised constructor.
    pub fn with_parts(
        kind: ProtectionKind,
        policy: ShiftPolicy,
        timing: StsTiming,
        budget: SafetyBudget,
        max_distance: u32,
    ) -> Self {
        let max_part = match kind {
            ProtectionKind::OverheadRegion { .. } => 1,
            _ => max_distance,
        };
        let table = SequenceTable::build(&budget, &timing, max_distance.max(1), max_part.max(1));
        Self {
            kind,
            policy,
            timing,
            budget,
            table,
            stats: ControllerStats::default(),
            last_shift_at: None,
            obs: Obs::default(),
        }
    }

    /// Records this controller's transactions into `obs` (builder
    /// style).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The protection scheme in force.
    pub fn kind(&self) -> ProtectionKind {
        self.kind
    }

    /// The active policy.
    pub fn policy(&self) -> ShiftPolicy {
        self.policy
    }

    /// Statistics so far.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Plans a shift of `distance` steps requested at absolute cycle
    /// time `now_cycles`, updates statistics, and returns the plan.
    ///
    /// # Panics
    ///
    /// Panics if `distance == 0` or exceeds the planning table.
    pub fn plan_shift(&mut self, distance: u32, now_cycles: u64) -> ShiftPlan {
        self.plan_distance(distance, now_cycles, false)
    }

    /// Plans a shift that *continues* a batched command stream: the
    /// directly preceding request on this controller keeps the STS
    /// driver armed, so this transaction's first sub-shift skips the
    /// stage-2 settle ([`StsTiming::setup_cycles`] cheaper than a
    /// standalone [`Self::plan_shift`]). Sequence selection, p-ECC
    /// checks and risk accounting are *identical* to the standalone
    /// plan — batching buys latency, never safety.
    ///
    /// # Panics
    ///
    /// Panics if `distance == 0` or exceeds the planning table.
    pub fn plan_shift_continuation(&mut self, distance: u32, now_cycles: u64) -> ShiftPlan {
        self.plan_distance(distance, now_cycles, true)
    }

    fn plan_distance(&mut self, distance: u32, now_cycles: u64, fused: bool) -> ShiftPlan {
        assert!(distance > 0, "zero-distance shifts are no-ops");
        let interval = match self.last_shift_at {
            Some(prev) => now_cycles.saturating_sub(prev),
            // Cold start: the adapter has no interval measurement yet,
            // so it must assume the worst (back-to-back traffic) and
            // use the safest sequence.
            None => 0,
        };
        self.last_shift_at = Some(now_cycles);

        let sequence: Vec<u32> = match (self.kind, self.policy) {
            // Unprotected or plain p-ECC without distance constraint.
            (_, ShiftPolicy::Unconstrained) => vec![distance],
            (_, ShiftPolicy::StepByStep) => vec![1; distance as usize],
            (_, ShiftPolicy::FixedSafe { worst_intensity_hz }) => {
                let dsafe = self
                    .budget
                    .safe_distance_at(worst_intensity_hz as f64)
                    .unwrap_or(1);
                split_by_cap(distance, dsafe)
            }
            (_, ShiftPolicy::Adaptive) => self.table.select(distance, interval).sequence.clone(),
        };
        let mut plan = self.cost_sequence(&sequence);
        if fused {
            // The armed driver skips one stage-2 settle on the first
            // sub-shift. Checks and risk stay as costed: batching
            // shortens latency, never weakens the safety argument.
            let saved = self.timing.setup_cycles().count();
            plan.latency = Cycles(plan.latency.count() - saved);
            self.stats.batched_requests += 1;
            self.stats.batch_saved_cycles += saved;
        }
        self.stats.requests += 1;
        self.stats.operations += plan.sequence.len() as u64;
        self.stats.steps += distance as u64;
        self.stats.shift_cycles += plan.latency.count();
        self.stats.checks += plan.checks as u64;
        self.stats.expected_dues += plan.due_risk;
        self.stats.expected_sdcs += plan.sdc_risk;
        self.record_observability(distance, &plan, now_cycles, fused);
        plan
    }

    /// Emits the transaction into the run's observer: the per-plan
    /// count, histograms and split/batch counters, the `plan_shift`
    /// span tree and the instant events. Operations, steps and p-ECC
    /// checks are not counted here: the run folds them once from its
    /// result. `fused` marks a batch continuation, whose *first* pulse
    /// is the stage-1-only continuation pulse — the span/event walk
    /// shortens that pulse so children still tile the plan's latency
    /// exactly.
    fn record_observability(&self, distance: u32, plan: &ShiftPlan, now_cycles: u64, fused: bool) {
        if let Some(reg) = self.obs.metrics() {
            reg.counter_add("shift.count", 1);
            if plan.sequence.len() > 1 {
                reg.counter_add("shift.split.count", 1);
            }
            if fused {
                reg.counter_add("shift.batch.continuations", 1);
                reg.counter_add(
                    "shift.batch.saved_cycles",
                    self.timing.setup_cycles().count(),
                );
            }
            reg.observe("shift.latency_cycles", plan.latency.count() as f64);
            reg.observe_with(
                "shift.distance",
                distance as f64,
                &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 16.0, 32.0, 64.0],
            );
        }
        let Some(trace) = self.obs.trace() else {
            return;
        };
        let protected = plan.checks > 0;
        let pulse_cycles = |idx: usize, d: u32| {
            if fused && idx == 0 {
                self.timing.continuation_shift_cycles(d).count()
            } else {
                self.timing.shift_cycles(d).count()
            }
        };
        // The whole transaction nests under whatever span the caller
        // entered (a serving-layer dispatch, or nothing for standalone
        // runs), then unfolds into its pulse/check sequence.
        let plan_span = trace.record_span(
            current_parent(),
            "plan_shift",
            now_cycles,
            now_cycles + plan.latency.count(),
        );
        let parts = plan.sequence.len() as u32;
        trace.record_event(
            now_cycles,
            ShiftEvent::ShiftPlanned {
                distance,
                parts,
                latency_cycles: plan.latency.count(),
            },
        );
        if parts > 1 {
            let cap = plan.sequence.iter().copied().max().unwrap_or(distance);
            trace.record_event(
                now_cycles,
                ShiftEvent::SafeDistanceSplit {
                    distance,
                    cap,
                    parts,
                },
            );
        }
        // The statistical controller does not sample faults, so every
        // planned check lands clean here.
        let mut t = now_cycles;
        for (i, &d) in plan.sequence.iter().enumerate() {
            let cycles = pulse_cycles(i, d);
            trace.record_span(plan_span, "sts_pulse", t, t + cycles);
            trace.record_event(
                t,
                ShiftEvent::StsPulse {
                    distance: d,
                    cycles,
                },
            );
            t += cycles;
            if protected {
                trace.record_span(plan_span, "pecc_verify", t, t + PECC_CHECK_CYCLES);
                t += PECC_CHECK_CYCLES;
                trace.record_event(
                    t,
                    ShiftEvent::PeccVerdict {
                        outcome: PeccOutcome::Clean,
                    },
                );
            }
        }
    }

    /// Computes latency and residual risk for an explicit sequence
    /// without updating statistics (used by what-if exploration).
    pub fn cost_sequence(&self, sequence: &[u32]) -> ShiftPlan {
        let protected = !matches!(self.kind, ProtectionKind::None);
        let mut latency = 0u64;
        let mut due = 0.0f64;
        let mut sdc = 0.0f64;
        let mut corrections = 0.0f64;
        for &d in sequence {
            latency += self.timing.shift_cycles(d).count();
            if protected {
                latency += PECC_CHECK_CYCLES;
            }
            let (s, u, c) = self.classify_risk(d);
            sdc += s;
            due += u;
            corrections += c;
        }
        ShiftPlan {
            sequence: sequence.to_vec(),
            latency: Cycles(latency),
            checks: if protected { sequence.len() as u32 } else { 0 },
            due_risk: due,
            sdc_risk: sdc,
            expected_corrections: corrections,
        }
    }

    /// Splits the error probability mass of one `d`-step shift into
    /// (SDC, DUE, expected corrections) under the active protection.
    fn classify_risk(&self, d: u32) -> (f64, f64, f64) {
        let rates = self.budget.rates();
        let mut sdc = 0.0;
        let mut due = 0.0;
        let mut corrections = 0.0;
        for k in 1..=4u32 {
            let p = rates.rate(d, k);
            if p <= 0.0 {
                continue;
            }
            match self.kind.classify_offset(k as i32) {
                Verdict::Clean => sdc += p, // unprotected or aliased: silently wrong
                Verdict::Correctable(c) => {
                    if c == k as i32 {
                        corrections += p; // repaired on the spot
                    } else {
                        sdc += p; // mis-correction: silently wrong
                    }
                }
                Verdict::Uncorrectable => due += p,
            }
        }
        (sdc, due, corrections)
    }

    /// Expected latency of a plan *including* the occasional corrective
    /// back-shift: each expected correction costs a 1-step shift, a
    /// re-check, and the Table 5 correction pipeline slot. The paper
    /// treats this as negligible for performance — this method shows
    /// why (the expectation adds ~10⁻⁴ cycles per shift).
    pub fn expected_latency_with_corrections(&self, plan: &ShiftPlan) -> f64 {
        let correction_cost = (self.timing.shift_cycles(1).count() + PECC_CHECK_CYCLES) as f64;
        plan.latency.count() as f64 + plan.expected_corrections * correction_cost
    }

    /// The planning table (diagnostic / experiment plotting).
    pub fn sequence_table(&self) -> &SequenceTable {
        &self.table
    }

    /// The safety budget in force.
    pub fn budget(&self) -> &SafetyBudget {
        &self.budget
    }

    /// Resets run-time state (stats and interval tracking).
    pub fn reset(&mut self) {
        self.stats = ControllerStats::default();
        self.last_shift_at = None;
    }
}

/// Splits `distance` into parts of at most `cap`, largest first.
fn split_by_cap(distance: u32, cap: u32) -> Vec<u32> {
    assert!(cap >= 1);
    let mut out = Vec::new();
    let mut rest = distance;
    while rest > 0 {
        let part = rest.min(cap);
        out.push(part);
        rest -= part;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_is_single_shift() {
        let mut ctl = ShiftController::new(ProtectionKind::None, ShiftPolicy::Unconstrained);
        let plan = ctl.plan_shift(7, 0);
        assert_eq!(plan.sequence, vec![7]);
        assert_eq!(plan.checks, 0);
        // All error mass is silent for an unprotected memory.
        assert!(plan.sdc_risk > 1e-3 * 0.9);
        assert_eq!(plan.due_risk, 0.0);
    }

    #[test]
    fn step_by_step_is_all_ones_with_checks() {
        let mut ctl = ShiftController::new(ProtectionKind::SECDED_O, ShiftPolicy::StepByStep);
        let plan = ctl.plan_shift(7, 0);
        assert_eq!(plan.sequence, vec![1; 7]);
        assert_eq!(plan.checks, 7);
        assert_eq!(plan.latency, Cycles(28)); // Table 3(b) last row
    }

    #[test]
    fn fixed_safe_uses_conservative_distance() {
        // 83 M accesses/s → safe distance 3 (Section 5.2).
        let mut ctl = ShiftController::new(
            ProtectionKind::SECDED,
            ShiftPolicy::FixedSafe {
                worst_intensity_hz: 83_000_000,
            },
        );
        let plan = ctl.plan_shift(7, 0);
        assert_eq!(plan.sequence, vec![3, 3, 1]);
    }

    #[test]
    fn adaptive_relaxes_with_idle_time() {
        let mut ctl = ShiftController::new(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        // Cold start: no interval measured yet, so the safest sequence.
        assert_eq!(ctl.plan_shift(7, 0).sequence, vec![1; 7]);
        // Immediately after (interval 4): still conservative.
        let tight = ctl.plan_shift(7, 4);
        assert!(tight.sequence.len() >= 4, "{:?}", tight.sequence);
        // After a long idle gap, single-shot.
        let relaxed = ctl.plan_shift(7, 10_000_000);
        assert_eq!(relaxed.sequence, vec![7]);
    }

    #[test]
    fn adaptive_latency_beats_step_by_step() {
        let mut adaptive = ShiftController::new(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let mut stepwise = ShiftController::new(ProtectionKind::SECDED_O, ShiftPolicy::StepByStep);
        let mut t = 0u64;
        let mut lat_a = 0u64;
        let mut lat_s = 0u64;
        for _ in 0..1000 {
            t += 100; // moderately busy: 100-cycle intervals
            lat_a += adaptive.plan_shift(4, t).latency.count();
            lat_s += stepwise.plan_shift(4, t).latency.count();
        }
        assert!(lat_a < lat_s, "adaptive {lat_a} vs step-by-step {lat_s}");
    }

    #[test]
    fn secded_converts_k1_mass_to_corrections() {
        let mut ctl = ShiftController::new(ProtectionKind::SECDED, ShiftPolicy::Unconstrained);
        let plan = ctl.plan_shift(7, 0);
        let rates = rtm_model::rates::OutOfStepRates::paper_calibration();
        // ±1 mass becomes corrections, ±2 mass becomes DUE risk, deeper
        // aliases become SDC.
        assert!((plan.expected_corrections - rates.rate(7, 1)).abs() < 1e-12);
        assert!((plan.due_risk - rates.rate(7, 2)).abs() < 1e-25);
        assert!(plan.sdc_risk < rates.rate(7, 2) * 1e-6);
    }

    #[test]
    fn sed_detects_but_does_not_correct() {
        let mut ctl = ShiftController::new(ProtectionKind::Sed, ShiftPolicy::Unconstrained);
        let plan = ctl.plan_shift(7, 0);
        let rates = rtm_model::rates::OutOfStepRates::paper_calibration();
        // ±1 detected (DUE); ±2 silently accepted (SDC).
        assert!((plan.due_risk - rates.rate(7, 1)).abs() < 1e-12);
        assert!((plan.sdc_risk - rates.rate(7, 2)).abs() < 1e-25);
        assert_eq!(plan.expected_corrections, 0.0);
    }

    #[test]
    fn safe_sequences_reduce_due_risk() {
        let mut unconstrained =
            ShiftController::new(ProtectionKind::SECDED, ShiftPolicy::Unconstrained);
        let mut safe = ShiftController::new(
            ProtectionKind::SECDED,
            ShiftPolicy::FixedSafe {
                worst_intensity_hz: 83_000_000,
            },
        );
        let loose = unconstrained.plan_shift(7, 0);
        let tight = safe.plan_shift(7, 0);
        assert!(
            tight.due_risk < loose.due_risk / 1e4,
            "safe {:.3e} vs loose {:.3e}",
            tight.due_risk,
            loose.due_risk
        );
        // ... at a modest latency premium.
        assert!(tight.latency > loose.latency);
        assert!(tight.latency.count() < 3 * loose.latency.count());
    }

    #[test]
    fn stats_accumulate() {
        let mut ctl = ShiftController::new(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        ctl.plan_shift(3, 0);
        ctl.plan_shift(4, 1000);
        let s = *ctl.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.steps, 7);
        assert!(s.operations >= 2);
        assert!(s.shift_cycles > 0);
        assert!(s.expected_dues > 0.0);
        ctl.reset();
        assert_eq!(ctl.stats().requests, 0);
    }

    #[test]
    fn corrections_are_negligible_for_latency() {
        // The paper treats correction latency as noise; the expectation
        // confirms it: well under a thousandth of a cycle per shift.
        let mut ctl = ShiftController::new(ProtectionKind::SECDED, ShiftPolicy::Unconstrained);
        let plan = ctl.plan_shift(7, 0);
        let base = plan.latency.count() as f64;
        let with = ctl.expected_latency_with_corrections(&plan);
        assert!(with > base, "expectation must add something");
        assert!(with - base < 1e-2, "correction overhead {}", with - base);
    }

    #[test]
    fn split_by_cap_covers_distance() {
        assert_eq!(split_by_cap(7, 3), vec![3, 3, 1]);
        assert_eq!(split_by_cap(6, 3), vec![3, 3]);
        assert_eq!(split_by_cap(2, 7), vec![2]);
        assert_eq!(split_by_cap(5, 1), vec![1; 5]);
    }

    #[test]
    #[should_panic]
    fn zero_distance_rejected() {
        let mut ctl = ShiftController::new(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let _ = ctl.plan_shift(0, 0);
    }

    #[test]
    fn continuation_saves_exactly_the_setup() {
        // Prime both controllers identically, then serve the same
        // request standalone vs as a batch continuation: the
        // continuation is cheaper by exactly one stage-2 settle and
        // identical in sequence, checks and risk.
        let mut standalone = ShiftController::new(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let mut fused = ShiftController::new(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        standalone.plan_shift(5, 0);
        fused.plan_shift(5, 0);
        let a = standalone.plan_shift(7, 40);
        let b = fused.plan_shift_continuation(7, 40);
        let setup = StsTiming::paper().setup_cycles().count();
        assert_eq!(a.sequence, b.sequence);
        assert_eq!(a.checks, b.checks);
        assert_eq!(a.due_risk, b.due_risk);
        assert_eq!(a.sdc_risk, b.sdc_risk);
        assert_eq!(a.latency.count(), b.latency.count() + setup);
        assert_eq!(fused.stats().batched_requests, 1);
        assert_eq!(fused.stats().batch_saved_cycles, setup);
        assert_eq!(standalone.stats().batched_requests, 0);
    }

    #[test]
    fn plan_spans_tile_the_transaction_exactly() {
        let obs = Obs::default().with_trace(true);
        let mut ctl = ShiftController::new(ProtectionKind::SECDED_O, ShiftPolicy::StepByStep)
            .with_obs(obs.clone());
        let plan = ctl.plan_shift(5, 1_000);
        let snap = obs.trace().unwrap().snapshot().spans;
        let plan_span = snap
            .spans
            .iter()
            .find(|s| s.name == "plan_shift")
            .expect("plan_shift span recorded");
        assert_eq!(plan_span.start_cycle, 1_000);
        assert_eq!(plan_span.duration(), plan.latency.count());
        // Children tile the parent exactly: 5 pulses + 5 checks.
        let children = snap.children_of(plan_span.id);
        assert_eq!(children.len(), 10);
        let child_sum: u64 = children.iter().map(|c| c.duration()).sum();
        assert_eq!(child_sum, plan.latency.count());
        assert_eq!(snap.self_cycles(plan_span), 0);
        let verify_sum: u64 = children
            .iter()
            .filter(|c| c.name == "pecc_verify")
            .map(|c| c.duration())
            .sum();
        assert_eq!(verify_sum, plan.checks as u64 * PECC_CHECK_CYCLES);

        // Fused continuations must tile too: the first pulse span is
        // the stage-1-only continuation pulse, so children still sum
        // to the (shorter) plan latency with zero self time.
        let fused = ctl.plan_shift_continuation(5, 2_000);
        let snap = obs.trace().unwrap().snapshot().spans;
        let fused_span = snap
            .spans
            .iter()
            .find(|s| s.name == "plan_shift" && s.start_cycle == 2_000)
            .expect("fused plan_shift span recorded");
        assert_eq!(fused_span.duration(), fused.latency.count());
        let children = snap.children_of(fused_span.id);
        let child_sum: u64 = children.iter().map(|c| c.duration()).sum();
        assert_eq!(child_sum, fused.latency.count());
        assert_eq!(snap.self_cycles(fused_span), 0);
    }
}
