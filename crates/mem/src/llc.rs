//! Last-level-cache backends: flat-latency SRAM / STT-RAM models and
//! the racetrack model with head-position tracking and the error-aware
//! shift controller.

use crate::cache::{AccessKind, AccessResult, Cache, CacheStats};
use rtm_controller::controller::{ShiftController, ShiftPolicy};
use rtm_cost::energy::LlcActivity;
use rtm_cost::technology::LlcDesign;
use rtm_model::analytic::Engine;
use rtm_model::params::DeviceParams;
use rtm_obs::metrics::MetricsRegistry;
use rtm_obs::Obs;
use rtm_pecc::layout::ProtectionKind;
use rtm_track::fault::{FaultModel, FaultModelChoice, SelectedFaultModel};
use rtm_track::geometry::StripeGeometry;
use rtm_util::arena::PagedBytes;
use rtm_util::units::Seconds;

/// Counters common to all LLC backends.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LlcStats {
    /// Cache-level counters.
    pub cache: CacheStats,
    /// Shift operations issued (racetrack only).
    pub shift_ops: u64,
    /// Total shift steps (racetrack only).
    pub shift_steps: u64,
    /// Cycles spent shifting (STS pulses plus the p-ECC checks on the
    /// critical path — [`Self::verify_cycles`] is the check portion).
    pub shift_cycles: u64,
    /// Critical-path cycles spent in p-ECC position checks (a subset
    /// of [`Self::shift_cycles`]). Off-critical-path parking shifts
    /// contribute neither here nor to `shift_cycles`.
    pub verify_cycles: u64,
    /// Accesses that required no shift (head already aligned).
    pub zero_shift_accesses: u64,
    /// Expected detected-uncorrectable position errors (probability
    /// mass accumulated over the run, all stripes).
    pub expected_dues: f64,
    /// Expected silent corruptions.
    pub expected_sdcs: f64,
    /// Per-shift outcomes drawn by the optional fault-sampling engine
    /// (0 when sampling is off).
    pub sampled_shifts: u64,
    /// Sampled outcomes that were position errors.
    pub observed_errors: u64,
}

impl LlcStats {
    /// Folds a racetrack run's counts into `obs`, once per run: the
    /// `llc.*` cache counters, the `engine.sample.*` sampled outcomes,
    /// and the controllers' `shift.operations`, `shift.steps` and
    /// `pecc.checks` (`pecc_checks` comes from the run's activity
    /// record). The three controller counters appear together once the
    /// run planned any shift, as they would if counted per plan.
    pub fn record(&self, obs: &Obs, pecc_checks: u64) {
        let Some(reg) = obs.metrics() else {
            return;
        };
        reg.fold_count("llc.accesses", self.cache.accesses());
        reg.fold_count("llc.misses", self.cache.misses);
        reg.fold_count("llc.writebacks", self.cache.writebacks);
        reg.fold_count("llc.zero_shift_accesses", self.zero_shift_accesses);
        reg.fold_count("engine.sample.shifts", self.sampled_shifts);
        reg.fold_count("engine.sample.errors", self.observed_errors);
        if self.shift_ops > 0 {
            reg.counter_add("shift.operations", self.shift_ops);
            reg.counter_add("shift.steps", self.shift_steps);
            reg.counter_add("pecc.checks", pecc_checks);
        }
    }
}

/// What an LLC access cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcResponse {
    /// Whether the line was present.
    pub hit: bool,
    /// Total LLC service latency in cycles (shift + array access),
    /// excluding any DRAM time on a miss (the hierarchy adds that).
    pub latency_cycles: u64,
    /// Whether a dirty victim had to be written back to memory.
    pub writeback: bool,
}

/// Occupancy of the lazily materialised per-group state, kept separate
/// from [`LlcStats`] so the lane-path oracle-equality gates (which merge
/// and compare `LlcStats` per bank) are untouched by scale accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScaleStats {
    /// Stripe groups the configured capacity spans.
    pub configured_groups: u64,
    /// Groups whose state has been touched (head register written).
    pub materialised_groups: u64,
    /// Zero-shift accesses answered while the group's state was still
    /// untouched (the pristine fast path).
    pub pristine_hits: u64,
    /// Approximate heap bytes held by per-group state (head store pages
    /// plus arena slots where applicable).
    pub arena_bytes: u64,
}

impl ScaleStats {
    /// Records the occupancy gauges into the given registry.
    pub fn record(&self, reg: &MetricsRegistry) {
        reg.gauge_set("scale.configured_groups", self.configured_groups as f64);
        reg.gauge_set("scale.materialised_groups", self.materialised_groups as f64);
        reg.gauge_set("scale.pristine_hits", self.pristine_hits as f64);
        reg.gauge_set("scale.arena_bytes", self.arena_bytes as f64);
    }
}

/// Interface the hierarchy drives.
pub trait LlcModel {
    /// Performs an access at absolute time `now_cycles`.
    fn access(&mut self, addr: u64, kind: AccessKind, now_cycles: u64) -> LlcResponse;

    /// Counters so far.
    fn stats(&self) -> LlcStats;

    /// The design point (latency/energy constants).
    fn design(&self) -> &LlcDesign;

    /// Activity record for energy accounting; `duration` is filled by
    /// the caller that knows wall-clock time.
    fn activity(&self, duration: Seconds) -> LlcActivity;

    /// Occupancy of lazily materialised state. Backends without lazy
    /// state (flat-latency models) report the default all-zero record.
    fn scale_stats(&self) -> ScaleStats {
        ScaleStats::default()
    }
}

/// A flat-latency LLC (SRAM or STT-RAM).
#[derive(Debug, Clone)]
pub struct SimpleLlc {
    cache: Cache,
    design: LlcDesign,
}

impl SimpleLlc {
    /// Builds the LLC for a design point with 64 B lines, 16 ways.
    pub fn new(design: LlcDesign) -> Self {
        Self {
            cache: Cache::new(design.capacity_bytes, 16, 64),
            design,
        }
    }
}

impl LlcModel for SimpleLlc {
    fn access(&mut self, addr: u64, kind: AccessKind, _now: u64) -> LlcResponse {
        let r = self.cache.access(addr, kind);
        let latency = match kind {
            AccessKind::Read => self.design.read_cycles,
            AccessKind::Write => self.design.write_cycles,
        };
        LlcResponse {
            hit: r.is_hit(),
            latency_cycles: latency,
            writeback: matches!(
                r,
                AccessResult::Miss {
                    writeback: Some(_),
                    ..
                }
            ),
        }
    }

    fn stats(&self) -> LlcStats {
        LlcStats {
            cache: *self.cache.stats(),
            ..LlcStats::default()
        }
    }

    fn design(&self) -> &LlcDesign {
        &self.design
    }

    fn activity(&self, duration: Seconds) -> LlcActivity {
        let s = self.cache.stats();
        LlcActivity {
            reads: s.reads,
            writes: s.writes + s.writebacks,
            shift_steps: 0,
            shift_ops: 0,
            pecc_checks: 0,
            pecc_corrections: 0,
            duration,
        }
    }
}

/// Idle head management policy, in the spirit of the head-management
/// prior work the paper builds on (TapeCache / cross-layer design):
/// what a stripe group's head does between requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HeadPolicy {
    /// Leave the head where the last access put it (the paper's
    /// configuration).
    #[default]
    Stay,
    /// During idle time, drift the head back to the centre of its
    /// range, halving the expected on-demand distance for random
    /// access at the cost of extra (off-critical-path) shift energy
    /// and risk.
    ReturnToCentre,
}

/// The racetrack LLC: cache bookkeeping plus physical head positions
/// and the position-error-aware shift controller.
///
/// Data mapping follows the paper (and STAG): each 64-byte line is
/// interleaved bit-by-bit over a group of 512 stripes sharing one shift
/// command; a group of 64-domain stripes therefore holds 64 lines, and
/// consecutive physical lines sit in adjacent domains. Every group has
/// its own head-position register.
#[derive(Debug, Clone)]
pub struct RacetrackLlc {
    cache: Cache,
    design: LlcDesign,
    /// One shift controller per bank (Section 5.3: interleaved banks
    /// service requests independently, so each adapter measures its own
    /// inter-shift interval).
    controllers: Vec<ShiftController>,
    geometry: StripeGeometry,
    /// Current head position of each stripe group, stored sparsely:
    /// untouched groups cost nothing and read as head 0 (the
    /// fabrication state), so a GB-scale LLC only pays for the groups a
    /// trace actually visits.
    heads: PagedBytes,
    stripes_per_group: u32,
    stats_shift_ops: u64,
    stats_shift_steps: u64,
    stats_shift_cycles: u64,
    stats_verify_cycles: u64,
    zero_shift: u64,
    /// Whether the controller models an idealised zero-latency shift
    /// (the paper's "RM-Ideal" series in Fig. 16).
    ideal_shifts: bool,
    /// Idle head management.
    head_policy: HeadPolicy,
    /// Steps spent on idle (off-critical-path) repositioning.
    idle_steps: u64,
    /// Optional per-shift outcome sampler: when set, every planned
    /// sub-shift draws a concrete outcome from the engine's fault
    /// model (alias tables for analytic, Gaussian for mc), giving the
    /// sweep an *observed* error count alongside the controller's
    /// expected-value risk accounting.
    sampler: Option<SelectedFaultModel>,
    sampled_shifts: u64,
    observed_errors: u64,
    /// Zero-shift accesses served while the group's head register was
    /// still untouched (lazy fast path; subset of `zero_shift`).
    pristine_hits: u64,
    /// The run's observer (records nothing by default).
    obs: Obs,
}

impl RacetrackLlc {
    /// Number of stripes a line spans (512 bits = 64 B).
    pub const STRIPES_PER_GROUP: u32 = 512;

    /// Builds the racetrack LLC with the given protection scheme and
    /// safe-distance policy, serviced by a single shift controller (the
    /// paper's default "one request at a time" assumption; see
    /// [`Self::with_banks`] for the bank-parallel layout `rtm-serve`
    /// schedules over).
    pub fn new(kind: ProtectionKind, policy: ShiftPolicy) -> Self {
        Self::with_banks(kind, policy, 1)
    }

    /// Builds a banked racetrack LLC: stripe groups are interleaved
    /// over `banks` independent controllers, each tracking its own
    /// inter-shift interval (Section 5.3's interleaving note — the
    /// per-bank intensity drops by the bank count, so the adapter can
    /// afford longer shifts at the same reliability target).
    ///
    /// # Panics
    ///
    /// Panics if `banks == 0`.
    pub fn with_banks(kind: ProtectionKind, policy: ShiftPolicy, banks: u32) -> Self {
        assert!(banks > 0, "at least one bank required");
        let design = LlcDesign::racetrack();
        let geometry = StripeGeometry::paper_default();
        // Bank-major directory storage: each bank's (4-set-per-group,
        // round-robin-interleaved) sets become one contiguous slice, so
        // a per-bank serving worker touches — and faults in — only its
        // own banks' share of the arrays.
        let sets_per_group = geometry.data_len() as u32 / 16;
        let cache =
            Cache::new(design.capacity_bytes, 16, 64).with_bank_layout(banks, sets_per_group);
        let lines = design.capacity_bytes / 64;
        let groups = lines / geometry.data_len() as u64;
        Self {
            cache,
            design,
            controllers: (0..banks)
                .map(|_| ShiftController::new(kind, policy))
                .collect(),
            geometry,
            heads: PagedBytes::new(groups as usize),
            stripes_per_group: Self::STRIPES_PER_GROUP,
            stats_shift_ops: 0,
            stats_shift_steps: 0,
            stats_shift_cycles: 0,
            stats_verify_cycles: 0,
            zero_shift: 0,
            ideal_shifts: false,
            head_policy: HeadPolicy::Stay,
            idle_steps: 0,
            sampler: None,
            sampled_shifts: 0,
            observed_errors: 0,
            pristine_hits: 0,
            obs: Obs::default(),
        }
    }

    /// Records this LLC's accesses — and its controllers' transactions
    /// — into `obs` (builder style).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.controllers = std::mem::take(&mut self.controllers)
            .into_iter()
            .map(|c| c.with_obs(obs.clone()))
            .collect();
        self.obs = obs;
        self.record_alias_tables();
        self
    }

    /// Counts the fault sampler's precomputed alias tables (whichever
    /// of [`Self::with_obs`] and [`Self::with_fault_model`] runs second
    /// sees both the sampler and the observer).
    fn record_alias_tables(&self) {
        if let Some(model) = &self.sampler {
            let tables = model.alias_tables();
            if tables > 0 {
                self.obs.counter_add("engine.alias.tables", tables);
            }
        }
    }

    /// Folds this run's LLC and controller counts into the LLC's
    /// observer (see [`LlcStats::record`]). Call once, when the run
    /// ends.
    pub fn record_metrics(&self) {
        self.stats()
            .record(&self.obs, self.controller_totals().checks);
    }

    /// Rebuilds the LLC at a different capacity (builder style), keeping
    /// the bank layout, protection scheme and policies. The paper's
    /// preset stays at 128 MB; GB-scale serving experiments override it
    /// here. Must be called before any traffic.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` does not divide into whole 64-line
    /// stripe groups and banks, or if traffic has already been issued.
    pub fn with_capacity(mut self, capacity_bytes: u64) -> Self {
        assert!(
            self.cache.stats().reads + self.cache.stats().writes == 0,
            "capacity override must precede traffic"
        );
        let banks = self.controllers.len() as u32;
        let sets_per_group = self.geometry.data_len() as u32 / 16;
        self.design.capacity_bytes = capacity_bytes;
        self.cache = Cache::new(capacity_bytes, 16, 64).with_bank_layout(banks, sets_per_group);
        let lines = capacity_bytes / 64;
        let groups = lines / self.geometry.data_len() as u64;
        self.heads = PagedBytes::new(groups as usize);
        self
    }

    /// Occupancy of the sparse head store.
    pub fn scale_stats_racetrack(&self) -> ScaleStats {
        ScaleStats {
            configured_groups: self.heads.len() as u64,
            materialised_groups: self.heads.touched() as u64,
            pristine_hits: self.pristine_hits,
            arena_bytes: self.heads.approx_bytes() as u64,
        }
    }

    /// Number of banks.
    pub fn banks(&self) -> u32 {
        self.controllers.len() as u32
    }

    /// Sets the idle head-management policy (builder style).
    pub fn with_head_policy(mut self, policy: HeadPolicy) -> Self {
        self.head_policy = policy;
        self
    }

    /// Enables per-shift outcome sampling through the chosen engine's
    /// fault model (builder style). Sampling never changes latency or
    /// risk accounting — it adds the observed error tallies
    /// ([`LlcStats::sampled_shifts`] / [`LlcStats::observed_errors`])
    /// on top of the statistical model, with Table 1 device parameters.
    pub fn with_fault_sampling(self, engine: Engine, seed: u64) -> Self {
        self.with_fault_model(FaultModelChoice::Engine, engine, seed)
    }

    /// Enables per-shift outcome sampling through an explicit
    /// [`FaultModelChoice`] (builder style) — the `--fault-model` axis.
    /// Like [`with_fault_sampling`](Self::with_fault_sampling), sampling
    /// only adds observed-error tallies; the statistical accounting is
    /// untouched.
    pub fn with_fault_model(mut self, choice: FaultModelChoice, engine: Engine, seed: u64) -> Self {
        self.sampler = Some(choice.build(engine, &DeviceParams::table1(), seed));
        self.record_alias_tables();
        self
    }

    /// Draws one outcome per planned sub-shift when sampling is on.
    fn sample_sequence(&mut self, sequence: &[u32]) {
        if let Some(model) = &mut self.sampler {
            let mut errors = 0u64;
            for &d in sequence {
                if !model.sample(d).is_success() {
                    errors += 1;
                }
            }
            self.sampled_shifts += sequence.len() as u64;
            self.observed_errors += errors;
        }
    }

    /// Steps spent repositioning heads off the critical path.
    pub fn idle_steps(&self) -> u64 {
        self.idle_steps
    }

    /// An idealised racetrack LLC whose shifts are free (Fig. 16's
    /// "RM-Ideal" upper bound). Protection risk is still accounted as
    /// zero — the ideal memory has no position errors either.
    pub fn ideal() -> Self {
        let mut llc = Self::new(ProtectionKind::None, ShiftPolicy::Unconstrained);
        llc.ideal_shifts = true;
        llc
    }

    /// The stripe-group geometry.
    pub fn geometry(&self) -> &StripeGeometry {
        &self.geometry
    }

    /// The shift controller of bank 0 (diagnostics).
    pub fn controller(&self) -> &ShiftController {
        &self.controllers[0]
    }

    /// The shift controller of a specific bank. The per-bank serving
    /// path reads these directly so bank-sharded results can be merged
    /// in bank order, reproducing the aggregated controller totals'
    /// exact floating-point summation order.
    ///
    /// # Panics
    ///
    /// Panics if `bank >= self.banks()`.
    pub fn controller_at(&self, bank: usize) -> &ShiftController {
        &self.controllers[bank]
    }

    /// Aggregated controller statistics across all banks.
    fn controller_totals(&self) -> rtm_controller::controller::ControllerStats {
        let mut total = rtm_controller::controller::ControllerStats::default();
        for c in &self.controllers {
            let s = c.stats();
            total.requests += s.requests;
            total.operations += s.operations;
            total.steps += s.steps;
            total.shift_cycles += s.shift_cycles;
            total.checks += s.checks;
            total.batched_requests += s.batched_requests;
            total.batch_saved_cycles += s.batch_saved_cycles;
            total.expected_dues += s.expected_dues;
            total.expected_sdcs += s.expected_sdcs;
        }
        total
    }

    /// Maps a (set, way) slot to its stripe group and domain index.
    fn slot_to_group_domain(&self, set: u64, way: u32) -> (usize, usize) {
        let line_index = set * self.cache.ways() as u64 + way as u64;
        let d = self.geometry.data_len() as u64;
        ((line_index / d) as usize, (line_index % d) as usize)
    }

    /// The stripe group an access to `addr` lands in. With 16 ways and
    /// 64 domains per group this depends only on the set (four
    /// consecutive sets share a group), so it is exact regardless of
    /// which way the line occupies — schedulers use it to route
    /// requests to per-group queues.
    pub fn group_of(&self, addr: u64) -> usize {
        let set = self.cache.set_of(addr);
        self.slot_to_group_domain(set, 0).0
    }

    /// Number of stripe groups.
    pub fn groups(&self) -> usize {
        self.heads.len()
    }

    /// Current head position of a stripe group.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn head_position(&self, group: usize) -> u8 {
        self.heads.get(group)
    }

    /// Predicts the shift distance an access to `addr` would need right
    /// now, without touching any state: the way is resolved by a
    /// non-mutating cache probe (falling back to the LRU victim the
    /// allocation would pick on a miss), mapped to its domain, and
    /// compared against the group's head position. Exact as long as no
    /// other access intervenes — which is what a scheduler comparing
    /// queued candidates wants.
    pub fn predicted_shift_distance(&self, addr: u64) -> u32 {
        let set = self.cache.set_of(addr);
        let way = self
            .cache
            .probe(addr)
            .unwrap_or_else(|| self.cache.victim_way(set));
        let (group, domain) = self.slot_to_group_domain(set, way);
        let target = self.geometry.head_position_for(domain) as u8;
        self.heads.get(group).abs_diff(target) as u32
    }

    /// Estimated service latency in cycles for an access to `addr`
    /// (shift under the bank's current plan costing plus array access),
    /// using [`RacetrackLlc::predicted_shift_distance`]. Non-mutating.
    pub fn estimated_latency(&self, addr: u64, kind: AccessKind) -> u64 {
        let array = match kind {
            AccessKind::Read => self.design.read_cycles,
            AccessKind::Write => self.design.write_cycles,
        };
        let shift = if self.ideal_shifts {
            0
        } else {
            match self.predicted_shift_distance(addr) {
                0 => 0,
                d => {
                    let group = self.group_of(addr);
                    let bank = group % self.controllers.len();
                    self.controllers[bank].cost_sequence(&[d]).latency.count()
                }
            }
        };
        shift + array
    }

    /// Positions the group's head for `domain`, issuing a shift through
    /// the controller if needed. Returns the shift latency in cycles.
    /// `fused` marks a batched-stream continuation: the bank's STS
    /// driver is still armed from the directly preceding request, so
    /// the shift is planned via
    /// [`ShiftController::plan_shift_continuation`].
    fn position_head(&mut self, group: usize, domain: usize, now: u64, fused: bool) -> u64 {
        let target = self.geometry.head_position_for(domain) as u8;
        let current = self.heads.get(group);
        let latency = if target == current {
            self.zero_shift += 1;
            if !self.heads.is_touched(group) {
                // The group's head register has never been written: the
                // access was answered entirely from fabrication-state
                // defaults without materialising anything.
                self.pristine_hits += 1;
            }
            0
        } else {
            let distance = current.abs_diff(target) as u32;
            let bank = group % self.controllers.len();
            let plan = if fused {
                self.controllers[bank].plan_shift_continuation(distance, now)
            } else {
                self.controllers[bank].plan_shift(distance, now)
            };
            self.stats_shift_ops += plan.sequence.len() as u64;
            self.stats_shift_steps += distance as u64;
            let latency = if self.ideal_shifts {
                0
            } else {
                plan.latency.count()
            };
            self.stats_shift_cycles += latency;
            if !self.ideal_shifts {
                self.stats_verify_cycles +=
                    plan.checks as u64 * rtm_controller::sequence::PECC_CHECK_CYCLES;
            }
            self.sample_sequence(&plan.sequence);
            latency
        };
        if target != current {
            self.heads.set(group, target);
        }
        // Idle management: after servicing, drift the head back to the
        // centre of its range off the critical path.
        if self.head_policy == HeadPolicy::ReturnToCentre {
            self.park_group(group, now + latency);
        }
        latency
    }

    /// Drifts a group's head back to the centre of its range off the
    /// critical path, so the next access finds it at most half the
    /// stripe away. The steps (and their error risk) are charged
    /// through the bank controller, the latency is not — parking is
    /// meant for idle periods. Shift-aware schedulers call this when a
    /// group's queue drains; [`HeadPolicy::ReturnToCentre`] calls it
    /// after every access.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn park_group(&mut self, group: usize, now: u64) {
        let rest = (self.geometry.max_shift() / 2) as u8;
        if self.heads.get(group) != rest {
            let distance = self.heads.get(group).abs_diff(rest) as u32;
            let bank = group % self.controllers.len();
            let plan = self.controllers[bank].plan_shift(distance, now);
            self.stats_shift_ops += plan.sequence.len() as u64;
            self.stats_shift_steps += distance as u64;
            self.idle_steps += distance as u64;
            self.obs.counter_add("llc.idle_steps", distance as u64);
            self.sample_sequence(&plan.sequence);
            self.heads.set(group, rest);
        }
    }

    /// [`LlcModel::access`] with explicit stream fusion: `fused = true`
    /// marks this access as a continuation of a batched shift command
    /// stream on its bank (the directly preceding access kept the STS
    /// driver armed), so a required shift skips its stage-2 settle.
    /// `access_fused(addr, kind, now, false)` is exactly
    /// [`LlcModel::access`].
    pub fn access_fused(
        &mut self,
        addr: u64,
        kind: AccessKind,
        now: u64,
        fused: bool,
    ) -> LlcResponse {
        let set = self.cache.set_of(addr);
        let r = self.cache.access(addr, kind);
        let (group, domain) = self.slot_to_group_domain(set, r.way());
        let shift_latency = self.position_head(group, domain, now, fused);
        let array = match kind {
            AccessKind::Read => self.design.read_cycles,
            AccessKind::Write => self.design.write_cycles,
        };
        let resp = LlcResponse {
            hit: r.is_hit(),
            latency_cycles: shift_latency + array,
            writeback: matches!(
                r,
                AccessResult::Miss {
                    writeback: Some(_),
                    ..
                }
            ),
        };
        self.obs
            .observe("llc.access_latency_cycles", resp.latency_cycles as f64);
        resp
    }
}

impl LlcModel for RacetrackLlc {
    fn access(&mut self, addr: u64, kind: AccessKind, now: u64) -> LlcResponse {
        self.access_fused(addr, kind, now, false)
    }

    fn stats(&self) -> LlcStats {
        let c = self.controller_totals();
        LlcStats {
            cache: *self.cache.stats(),
            shift_ops: self.stats_shift_ops,
            shift_steps: self.stats_shift_steps,
            shift_cycles: self.stats_shift_cycles,
            verify_cycles: self.stats_verify_cycles,
            zero_shift_accesses: self.zero_shift,
            // Each commanded sequence runs on every stripe of the group;
            // any stripe failing fails the group.
            expected_dues: c.expected_dues * self.stripes_per_group as f64,
            expected_sdcs: c.expected_sdcs * self.stripes_per_group as f64,
            sampled_shifts: self.sampled_shifts,
            observed_errors: self.observed_errors,
        }
    }

    fn design(&self) -> &LlcDesign {
        &self.design
    }

    fn scale_stats(&self) -> ScaleStats {
        self.scale_stats_racetrack()
    }

    fn activity(&self, duration: Seconds) -> LlcActivity {
        let s = self.cache.stats();
        let c = self.controller_totals();
        LlcActivity {
            reads: s.reads,
            writes: s.writes + s.writebacks,
            shift_steps: self.stats_shift_steps,
            shift_ops: self.stats_shift_ops,
            pecc_checks: c.checks,
            pecc_corrections: 0,
            duration,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rm(kind: ProtectionKind, policy: ShiftPolicy) -> RacetrackLlc {
        RacetrackLlc::new(kind, policy)
    }

    #[test]
    fn group_mapping_is_contiguous() {
        let llc = rm(ProtectionKind::None, ShiftPolicy::Unconstrained);
        // Lines 0..63 share group 0, domains 0..63.
        assert_eq!(llc.slot_to_group_domain(0, 0), (0, 0));
        assert_eq!(llc.slot_to_group_domain(0, 15), (0, 15));
        assert_eq!(llc.slot_to_group_domain(3, 15), (0, 63));
        assert_eq!(llc.slot_to_group_domain(4, 0), (1, 0));
    }

    #[test]
    fn repeated_access_to_same_line_shifts_once() {
        let mut llc = rm(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let r1 = llc.access(0x40, AccessKind::Read, 0);
        let r2 = llc.access(0x40, AccessKind::Read, 100);
        assert!(!r1.hit && r2.hit);
        // Second access needs no shift: head already positioned.
        assert_eq!(r2.latency_cycles, llc.design().read_cycles);
        assert_eq!(llc.stats().zero_shift_accesses, 1);
    }

    #[test]
    fn heads_stay_sparse_and_scale_stats_track_occupancy() {
        let mut llc = rm(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let s0 = llc.scale_stats_racetrack();
        assert_eq!(s0.configured_groups, llc.groups() as u64);
        assert_eq!(s0.materialised_groups, 0);
        assert_eq!(s0.pristine_hits, 0);
        // An access that needs a shift materialises exactly one group's
        // head register.
        llc.access(0x40, AccessKind::Read, 0);
        assert_eq!(llc.scale_stats_racetrack().materialised_groups, 1);
        // Re-access: zero-shift on an already-touched head is not a
        // pristine hit.
        llc.access(0x40, AccessKind::Read, 10);
        let s1 = llc.scale_stats_racetrack();
        assert_eq!(s1.materialised_groups, 1);
        assert_eq!(s1.pristine_hits, 0);
        // Untouched groups still read the fabrication default.
        assert_eq!(llc.head_position(llc.groups() - 1), 0);
        assert!(s1.arena_bytes > 0);
    }

    #[test]
    fn with_capacity_scales_group_count() {
        let llc = RacetrackLlc::with_banks(ProtectionKind::SECDED, ShiftPolicy::Adaptive, 8)
            .with_capacity(1 << 30);
        assert_eq!(llc.design().capacity_bytes, 1 << 30);
        assert_eq!(llc.groups(), (1 << 30) / 64 / 64);
        assert_eq!(llc.banks(), 8);
        // A 16 GB configuration spans ≥ 4 Mi groups ≥ 2 Gi stripes, and
        // costs only the page directory until touched.
        let big = RacetrackLlc::new(ProtectionKind::SECDED, ShiftPolicy::Adaptive)
            .with_capacity(16 << 30);
        assert_eq!(big.groups(), (16u64 << 30) as usize / 64 / 64);
        assert_eq!(big.scale_stats_racetrack().materialised_groups, 0);
        assert!(
            big.scale_stats_racetrack().arena_bytes < 64 << 20,
            "untouched 16 GB head store stays under 64 MB of directory"
        );
    }

    #[test]
    fn different_domains_force_shifts() {
        let mut llc = rm(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        // Same group, different ways → different domains: line 0 then
        // line 1 (set 0 way 1 after allocating a second line).
        llc.access(0x40, AccessKind::Read, 0);
        let before = llc.stats().shift_steps;
        // A second address in set 0: 0x40 + sets*64.
        let stride = llc.cache.sets() * 64;
        llc.access(0x40 + stride, AccessKind::Read, 10);
        assert!(llc.stats().shift_steps > before);
    }

    #[test]
    fn fused_access_saves_exactly_the_sts_setup() {
        let mut plain = rm(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let mut fused = rm(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let stride = plain.cache.sets() * 64;
        plain.access(0x40, AccessKind::Read, 0);
        fused.access(0x40, AccessKind::Read, 0);
        // Same shifting access on both, one as a stream continuation:
        // only the stage-2 settle differs, nothing else.
        let a = plain.access_fused(0x40 + stride, AccessKind::Read, 10, false);
        let b = fused.access_fused(0x40 + stride, AccessKind::Read, 10, true);
        let setup = rtm_model::sts::StsTiming::paper().setup_cycles().count();
        assert_eq!(a.hit, b.hit);
        assert_eq!(a.latency_cycles, b.latency_cycles + setup);
        let (sa, sb) = (plain.stats(), fused.stats());
        assert_eq!(sa.shift_steps, sb.shift_steps);
        assert_eq!(sa.shift_ops, sb.shift_ops);
        assert_eq!(sa.verify_cycles, sb.verify_cycles);
        assert_eq!(sa.expected_dues, sb.expected_dues);
        assert_eq!(sa.shift_cycles, sb.shift_cycles + setup);
        // A fused access that needs no shift is identical to a plain
        // hit (nothing to fuse).
        let c = fused.access_fused(0x40 + stride, AccessKind::Read, 50, true);
        assert_eq!(c.latency_cycles, fused.design().read_cycles);
    }

    #[test]
    fn predicted_distance_matches_realised_shift() {
        let mut llc = rm(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let stride = llc.cache.sets() * 64;
        llc.access(0x40, AccessKind::Read, 0);
        // A hit on the resident line: prediction must see distance 0.
        assert_eq!(llc.predicted_shift_distance(0x40), 0);
        // A second line in the same set lands in the predicted victim
        // way; the predicted distance must equal the steps the access
        // then actually performs.
        let addr = 0x40 + stride;
        let predicted = llc.predicted_shift_distance(addr);
        let before = llc.stats().shift_steps;
        llc.access(addr, AccessKind::Read, 10);
        assert_eq!(llc.stats().shift_steps - before, predicted as u64);
    }

    #[test]
    fn estimated_latency_matches_realised_response() {
        let mut llc = rm(ProtectionKind::SECDED, ShiftPolicy::Unconstrained);
        let stride = llc.cache.sets() * 64;
        llc.access(0, AccessKind::Read, 0);
        for i in 1..8u64 {
            let addr = i * stride;
            let est = llc.estimated_latency(addr, AccessKind::Read);
            let r = llc.access(addr, AccessKind::Read, i * 1000);
            // Unconstrained plans are exactly one sub-shift, so the
            // cost_sequence estimate is exact.
            assert_eq!(est, r.latency_cycles, "access {i}");
        }
    }

    #[test]
    fn group_of_depends_only_on_set() {
        let llc = rm(ProtectionKind::None, ShiftPolicy::Unconstrained);
        assert_eq!(llc.group_of(0x40), 0);
        // Sets 0..3 share group 0; set 4 starts group 1.
        assert_eq!(llc.group_of(3 * 64), 0);
        assert_eq!(llc.group_of(4 * 64), 1);
        assert!(llc.groups() > 0);
        assert_eq!(llc.head_position(0), 0);
    }

    #[test]
    fn protected_llc_accumulates_risk_over_all_stripes() {
        let mut llc = rm(ProtectionKind::SECDED, ShiftPolicy::Unconstrained);
        let stride = llc.cache.sets() * 64;
        for i in 0..100u64 {
            llc.access(i * stride, AccessKind::Read, i * 50);
        }
        let s = llc.stats();
        assert!(s.expected_dues > 0.0);
        // Risk is per stripe × 512.
        let c = llc.controller().stats();
        assert!((s.expected_dues / c.expected_dues - 512.0).abs() < 1e-6);
    }

    #[test]
    fn verify_cycles_are_the_check_portion_of_shift_cycles() {
        let mut llc = rm(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let stride = llc.cache.sets() * 64;
        let mut t = 0u64;
        for i in 0..200u64 {
            t += 500;
            llc.access((i % 16) * stride, AccessKind::Read, t);
        }
        let s = llc.stats();
        assert!(s.verify_cycles > 0);
        assert!(s.verify_cycles < s.shift_cycles);
        // Without parking, every controller check is on the critical
        // path, so the subset is exactly checks × the check latency.
        let c = llc.controller_totals();
        assert_eq!(
            s.verify_cycles,
            c.checks * rtm_controller::sequence::PECC_CHECK_CYCLES
        );
        // Unprotected memory performs no checks at all.
        let mut bare = rm(ProtectionKind::None, ShiftPolicy::Unconstrained);
        bare.access(0, AccessKind::Read, 0);
        bare.access(stride, AccessKind::Read, 10);
        assert_eq!(bare.stats().verify_cycles, 0);
        assert!(bare.stats().shift_cycles > 0);
    }

    #[test]
    fn ideal_llc_has_free_shifts() {
        let mut llc = RacetrackLlc::ideal();
        let stride = llc.cache.sets() * 64;
        llc.access(0, AccessKind::Read, 0);
        let r = llc.access(stride, AccessKind::Read, 10);
        assert_eq!(r.latency_cycles, llc.design().read_cycles);
        assert!(llc.stats().shift_steps > 0, "shifts counted but free");
        assert_eq!(llc.stats().shift_cycles, 0);
    }

    #[test]
    fn simple_llc_flat_latency() {
        let mut llc = SimpleLlc::new(LlcDesign::sram());
        let r = llc.access(0x1234, AccessKind::Read, 0);
        assert_eq!(r.latency_cycles, 24);
        let w = llc.access(0x1234, AccessKind::Write, 1);
        assert_eq!(w.latency_cycles, 22);
        assert!(w.hit);
    }

    #[test]
    fn step_by_step_policy_costs_more_cycles() {
        let mut adaptive = rm(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let mut stepwise = rm(ProtectionKind::SECDED_O, ShiftPolicy::StepByStep);
        let stride = adaptive.cache.sets() * 64;
        let mut t = 0;
        for i in 0..200u64 {
            // Jump between distant ways to force long shifts; generous
            // intervals let the adaptive policy use long single shifts.
            let addr = (i % 16) * stride;
            t += 10_000;
            adaptive.access(addr, AccessKind::Read, t);
            stepwise.access(addr, AccessKind::Read, t);
        }
        let a = adaptive.stats().shift_cycles;
        let s = stepwise.stats().shift_cycles;
        assert!(s > a, "step-by-step {s} vs adaptive {a}");
    }

    #[test]
    fn return_to_centre_halves_critical_path_distance() {
        // Random-access pattern over many ways: centring the head
        // between requests cuts the on-demand distance (latency) while
        // paying more total steps (energy) — the head-management trade.
        let mut stay = rm(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let mut centre = rm(ProtectionKind::SECDED, ShiftPolicy::Adaptive)
            .with_head_policy(HeadPolicy::ReturnToCentre);
        let stride = stay.cache.sets() * 64;
        let mut rng = rtm_util::rng::SmallRng64::new(11);
        let mut t = 0u64;
        for _ in 0..1500 {
            let way = rng.next_below(16);
            let addr = way * stride; // same set, 16 ways -> domains 0..15
            t += 200;
            stay.access(addr, AccessKind::Read, t);
            centre.access(addr, AccessKind::Read, t);
        }
        let s = stay.stats();
        let c = centre.stats();
        assert!(
            c.shift_cycles < s.shift_cycles,
            "centre {} vs stay {} critical-path cycles",
            c.shift_cycles,
            s.shift_cycles
        );
        assert!(
            c.shift_steps > s.shift_steps,
            "centring must cost extra total steps"
        );
        assert!(centre.idle_steps() > 0);
        assert_eq!(stay.idle_steps(), 0);
    }

    #[test]
    fn banked_adaptive_sees_longer_intervals() {
        // Interleaved traffic over many groups: a single adapter sees
        // back-to-back shifts (short intervals, conservative sequences)
        // while per-bank adapters each see 1/N of the traffic and can
        // afford faster sequences at the same reliability target.
        let mut single = RacetrackLlc::with_banks(ProtectionKind::SECDED, ShiftPolicy::Adaptive, 1);
        let mut banked = RacetrackLlc::with_banks(ProtectionKind::SECDED, ShiftPolicy::Adaptive, 8);
        assert_eq!(banked.banks(), 8);
        let stride = single.cache.sets() * 64;
        let mut t = 0u64;
        for i in 0..2000u64 {
            // Rotate across 32 groups (addresses in different sets) and
            // across ways to force long shifts on each group.
            let group = i % 32;
            let way_jump = (i / 32) % 8;
            let addr = group * 4 * 64 + way_jump * stride;
            t += 40;
            single.access(addr, AccessKind::Read, t);
            banked.access(addr, AccessKind::Read, t);
        }
        let s = single.stats();
        let b = banked.stats();
        assert_eq!(s.shift_steps, b.shift_steps, "same physical work");
        assert!(
            b.shift_cycles <= s.shift_cycles,
            "banked {} vs single {}",
            b.shift_cycles,
            s.shift_cycles
        );
        assert!(b.shift_ops <= s.shift_ops);
    }

    #[test]
    fn fault_sampling_observes_without_changing_timing() {
        let mut plain = rm(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let mut sampled = rm(ProtectionKind::SECDED, ShiftPolicy::Adaptive)
            .with_fault_sampling(Engine::Analytic, 9);
        let stride = plain.cache.sets() * 64;
        let mut t = 0u64;
        for i in 0..2000u64 {
            let addr = (i % 16) * stride;
            t += 500;
            let a = plain.access(addr, AccessKind::Read, t);
            let b = sampled.access(addr, AccessKind::Read, t);
            assert_eq!(a, b, "sampling must not perturb responses");
        }
        let p = plain.stats();
        let s = sampled.stats();
        assert_eq!(p.shift_cycles, s.shift_cycles);
        assert_eq!(p.expected_dues, s.expected_dues);
        assert_eq!(p.sampled_shifts, 0);
        // One drawn outcome per planned sub-shift.
        assert_eq!(s.sampled_shifts, s.shift_ops);
        assert!(s.observed_errors <= s.sampled_shifts);
    }

    #[test]
    fn fault_sampling_is_deterministic_per_seed() {
        let run = |engine: Engine, seed: u64| {
            let mut llc =
                rm(ProtectionKind::SECDED, ShiftPolicy::Adaptive).with_fault_sampling(engine, seed);
            let stride = llc.cache.sets() * 64;
            let mut t = 0u64;
            for i in 0..3000u64 {
                t += 200;
                llc.access((i % 16) * stride, AccessKind::Read, t);
            }
            let s = llc.stats();
            (s.sampled_shifts, s.observed_errors)
        };
        for engine in [Engine::Analytic, Engine::MonteCarlo] {
            assert_eq!(run(engine, 77), run(engine, 77), "{engine}");
        }
    }

    #[test]
    fn activity_reflects_counters() {
        let mut llc = rm(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let stride = llc.cache.sets() * 64;
        llc.access(0, AccessKind::Read, 0);
        llc.access(stride, AccessKind::Write, 10);
        let a = llc.activity(Seconds(1e-6));
        assert_eq!(a.reads, 1);
        assert_eq!(a.writes, 1);
        assert!(a.shift_steps > 0);
        assert!(a.pecc_checks > 0);
        assert_eq!(a.duration, Seconds(1e-6));
    }
}
