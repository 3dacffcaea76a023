//! The full memory hierarchy: trace in, statistics out.
//!
//! An in-order, unit-IPC core model serialises the merged four-core
//! access stream (matching the paper's single-request-at-a-time
//! assumption for the adaptive shift controller): each access advances
//! the clock by its gap instructions plus the latency of the deepest
//! level it had to reach.
//!
//! Each access is a front step through L1 and L2 and, for an L2 miss,
//! a back step through the LLC and memory. [`Hierarchy::filter`] runs
//! the front step alone and records the L2-miss stream
//! ([`crate::stream`]); [`Hierarchy::replay`] serves that stream from
//! any LLC with the same result as [`Hierarchy::run`], so a sweep over
//! LLC configurations runs each trace through L1/L2 once.
//!
//! A hierarchy can also be built around any [`LlcModel`] via
//! [`Hierarchy::with_llc`], for example an instrumented wrapper around
//! a [`RacetrackLlc`], while reusing the L1/L2 front end unchanged.
//! Queued, bank-parallel serving (per-stripe-group queues, multiple
//! in-flight requests) is `rtm-serve`'s `ServeSim`, which drives a
//! banked [`RacetrackLlc`] directly.

use crate::cache::{AccessKind, Cache};
use crate::llc::{LlcModel, RacetrackLlc, SimpleLlc};
use crate::stream::{FilteredStream, FrontConfig, FrontCounts};
use rtm_controller::controller::ShiftPolicy;
use rtm_cost::energy::{LlcActivity, LlcEnergyModel};
use rtm_cost::overhead::Scheme;
use rtm_cost::technology::{CacheTech, LlcDesign, SystemConfig, UpperLevelCache};
use rtm_model::analytic::Engine;
use rtm_obs::Obs;
use rtm_pecc::layout::ProtectionKind;
use rtm_trace::{MemAccess, TraceGenerator};
use rtm_track::fault::FaultModelChoice;
use rtm_util::units::{Picojoules, Seconds};

/// The LLC configurations the paper's Figs. 16-18 compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LlcChoice {
    /// 4 MB SRAM LLC.
    SramBaseline,
    /// 32 MB STT-RAM LLC.
    SttRam,
    /// 128 MB racetrack LLC with zero-cost, error-free shifts
    /// ("RM-Ideal").
    RacetrackIdeal,
    /// Racetrack LLC without any position-error protection.
    RacetrackUnprotected,
    /// Racetrack LLC with SECDED p-ECC-O (1-step shift-and-write).
    RacetrackPeccO,
    /// Racetrack LLC with SECDED p-ECC and the worst-case safe
    /// distance.
    RacetrackPeccSWorst,
    /// Racetrack LLC with SECDED p-ECC and the adaptive safe distance.
    RacetrackPeccSAdaptive,
}

impl LlcChoice {
    /// All seven configurations in the paper's legend order.
    pub const ALL: [LlcChoice; 7] = [
        LlcChoice::SramBaseline,
        LlcChoice::SttRam,
        LlcChoice::RacetrackIdeal,
        LlcChoice::RacetrackUnprotected,
        LlcChoice::RacetrackPeccO,
        LlcChoice::RacetrackPeccSAdaptive,
        LlcChoice::RacetrackPeccSWorst,
    ];

    /// The Table 5 scheme whose check energy applies, if any.
    pub fn scheme(&self) -> Option<Scheme> {
        match self {
            LlcChoice::RacetrackPeccO => Some(Scheme::PeccO),
            LlcChoice::RacetrackPeccSWorst => Some(Scheme::PeccSWorst),
            LlcChoice::RacetrackPeccSAdaptive => Some(Scheme::PeccSAdaptive),
            _ => None,
        }
    }

    /// Whether this is a racetrack design.
    pub fn is_racetrack(&self) -> bool {
        !matches!(self, LlcChoice::SramBaseline | LlcChoice::SttRam)
    }
}

impl std::fmt::Display for LlcChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LlcChoice::SramBaseline => write!(f, "SRAM"),
            LlcChoice::SttRam => write!(f, "STT-RAM"),
            LlcChoice::RacetrackIdeal => write!(f, "RM-Ideal"),
            LlcChoice::RacetrackUnprotected => write!(f, "RM w/o p-ECC"),
            LlcChoice::RacetrackPeccO => write!(f, "RM p-ECC-O"),
            LlcChoice::RacetrackPeccSWorst => write!(f, "RM p-ECC-S worst"),
            LlcChoice::RacetrackPeccSAdaptive => write!(f, "RM p-ECC-S adaptive"),
        }
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Configuration simulated.
    pub choice: LlcChoice,
    /// Memory accesses driven.
    pub accesses: u64,
    /// Instructions retired (memory + gap).
    pub instructions: u64,
    /// Total execution cycles.
    pub cycles: u64,
    /// Wall-clock duration at the core clock.
    pub duration: Seconds,
    /// L1 miss count (summed over cores).
    pub l1_misses: u64,
    /// L2 miss count.
    pub l2_misses: u64,
    /// LLC statistics.
    pub llc: crate::llc::LlcStats,
    /// LLC activity for energy accounting.
    pub activity: LlcActivity,
    /// Main-memory accesses (LLC misses + writebacks).
    pub dram_accesses: u64,
    /// Cycles spent on LLC shifts (0 for SRAM/STT-RAM).
    pub shift_cycles: u64,
    /// Lazily-materialised state occupancy (all zero for flat models).
    pub scale: crate::llc::ScaleStats,
}

impl SimResult {
    /// Records this run into `obs` once: the summary gauges, and the
    /// hierarchy and LLC counts this result carries (`hier.*`, and for
    /// racetrack LLCs the counters of [`crate::llc::LlcStats::record`]).
    ///
    /// Kept separate from [`Hierarchy::result`] so parallel sweeps can
    /// record results *after* their workers join, in deterministic
    /// cell order — concurrent `gauge_set`s from inside workers would
    /// leave whichever cell finished last in the snapshot.
    pub fn record_metrics(&self, obs: &Obs) {
        let Some(reg) = obs.metrics() else {
            return;
        };
        reg.gauge_set("hier.cycles", self.cycles as f64);
        reg.gauge_set("energy.llc_dynamic_pj", self.llc_dynamic_energy().value());
        reg.gauge_set("energy.llc_total_pj", self.llc_total_energy().value());
        reg.gauge_set("energy.system_pj", self.system_energy().value());
        self.scale.record(reg);
        reg.fold_count("hier.accesses", self.accesses);
        reg.fold_count("hier.l1_misses", self.l1_misses);
        reg.fold_count("hier.l2_misses", self.l2_misses);
        reg.fold_count("hier.dram_accesses", self.dram_accesses);
        if self.choice.is_racetrack() {
            self.llc.record(obs, self.activity.pecc_checks);
        }
    }

    /// Average shift intensity over the run (shift operations per
    /// second of simulated time).
    pub fn shift_intensity(&self) -> f64 {
        if self.duration.as_secs() == 0.0 {
            0.0
        } else {
            self.llc.shift_ops as f64 / self.duration.as_secs()
        }
    }

    /// MTTF implied by the accumulated DUE probability mass:
    /// `duration / expected_dues`.
    pub fn due_mttf(&self) -> Seconds {
        if self.llc.expected_dues <= 0.0 {
            Seconds(f64::INFINITY)
        } else {
            Seconds(self.duration.as_secs() / self.llc.expected_dues)
        }
    }

    /// MTTF implied by the accumulated SDC probability mass.
    pub fn sdc_mttf(&self) -> Seconds {
        if self.llc.expected_sdcs <= 0.0 {
            Seconds(f64::INFINITY)
        } else {
            Seconds(self.duration.as_secs() / self.llc.expected_sdcs)
        }
    }

    /// LLC dynamic energy under the configuration's energy model.
    pub fn llc_dynamic_energy(&self) -> Picojoules {
        self.energy_model().dynamic_energy(&self.activity)
    }

    /// LLC total (dynamic + leakage) energy.
    pub fn llc_total_energy(&self) -> Picojoules {
        self.energy_model().total_energy(&self.activity)
    }

    /// System energy proxy for Fig. 18: LLC total energy plus DRAM
    /// dynamic energy (L1/L2 are identical across configurations and
    /// cancel in the comparison; we include them as a constant via the
    /// hierarchy's counters anyway).
    pub fn system_energy(&self) -> Picojoules {
        let sys = SystemConfig::paper(CacheTech::Racetrack);
        let dram = sys.memory.access_energy * self.dram_accesses as f64;
        self.llc_total_energy() + dram
    }

    fn energy_model(&self) -> LlcEnergyModel {
        let design = match self.choice {
            LlcChoice::SramBaseline => LlcDesign::sram(),
            LlcChoice::SttRam => LlcDesign::stt_ram(),
            _ => LlcDesign::racetrack(),
        };
        LlcEnergyModel::new(
            design,
            self.choice.scheme(),
            RacetrackLlc::STRIPES_PER_GROUP,
        )
    }
}

/// The L1/L2 front end: the private L1s and the shared L2, with the
/// counters of the accesses they served.
struct Front {
    config: FrontConfig,
    l1: Vec<Cache>,
    l2: Cache,
    counts: FrontCounts,
}

/// What one access did above the LLC.
struct Step {
    /// Gap instructions retired (1 IPC) before the access issued.
    gap: u64,
    /// L1 (and L2) latency.
    latency: u64,
    /// The L2 miss the LLC must serve, if any.
    miss: Option<(u64, AccessKind)>,
}

impl Front {
    fn new(config: &SystemConfig) -> Self {
        let cache = |c: &UpperLevelCache| Cache::new(c.capacity_bytes, c.ways, config.line_bytes);
        Self {
            config: FrontConfig::of(config),
            l1: (0..config.cores).map(|_| cache(&config.l1)).collect(),
            l2: cache(&config.l2),
            counts: FrontCounts::default(),
        }
    }

    fn step(&mut self, a: &MemAccess) -> Step {
        let kind = if a.is_write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let gap = a.gap_instructions as u64;
        self.counts.accesses += 1;
        self.counts.instructions += 1 + gap;
        let core = (a.core as usize) % self.l1.len();
        let mut latency = self.config.l1.access_cycles;
        let mut miss = None;
        if !self.l1[core].access(a.addr, kind).is_hit() {
            self.counts.l1_misses += 1;
            latency += self.config.l2.access_cycles;
            if !self.l2.access(a.addr, kind).is_hit() {
                self.counts.l2_misses += 1;
                miss = Some((a.addr, kind));
            }
        }
        Step { gap, latency, miss }
    }
}

/// The simulated platform.
pub struct Hierarchy {
    config: SystemConfig,
    choice: LlcChoice,
    front: Front,
    llc: Box<dyn LlcModel>,
    cycles: u64,
    dram_accesses: u64,
    /// The run's observer (records nothing by default).
    obs: Obs,
}

impl Hierarchy {
    /// Builds the paper's Table 4 platform with the chosen LLC; the
    /// hierarchy and a racetrack LLC record into `obs`.
    pub fn new(choice: LlcChoice, obs: Obs) -> Self {
        let racetrack =
            |llc: RacetrackLlc| -> Box<dyn LlcModel> { Box::new(llc.with_obs(obs.clone())) };
        let llc: Box<dyn LlcModel> = match choice {
            LlcChoice::SramBaseline => Box::new(SimpleLlc::new(LlcDesign::sram())),
            LlcChoice::SttRam => Box::new(SimpleLlc::new(LlcDesign::stt_ram())),
            LlcChoice::RacetrackIdeal => racetrack(RacetrackLlc::ideal()),
            LlcChoice::RacetrackUnprotected => racetrack(RacetrackLlc::new(
                ProtectionKind::None,
                ShiftPolicy::Unconstrained,
            )),
            LlcChoice::RacetrackPeccO => racetrack(RacetrackLlc::new(
                ProtectionKind::SECDED_O,
                ShiftPolicy::StepByStep,
            )),
            LlcChoice::RacetrackPeccSWorst => racetrack(RacetrackLlc::new(
                ProtectionKind::SECDED,
                ShiftPolicy::FixedSafe {
                    worst_intensity_hz: 83_000_000,
                },
            )),
            LlcChoice::RacetrackPeccSAdaptive => racetrack(RacetrackLlc::new(
                ProtectionKind::SECDED,
                ShiftPolicy::Adaptive,
            )),
        };
        Self::build(llc, choice, obs)
    }

    /// Builds the platform with a *custom* racetrack LLC configuration
    /// (protection kind × policy combinations beyond the named
    /// [`LlcChoice`] presets, e.g. the SED and plain-SECDED variants of
    /// Figs. 10-11), recording into `obs`. With `sampling = Some((fault
    /// model, engine, seed))` the LLC also samples per-shift outcomes
    /// (see [`RacetrackLlc::with_fault_model`]): latency, risk and cache
    /// behaviour are unchanged, and the run additionally tallies
    /// [`crate::llc::LlcStats::sampled_shifts`] /
    /// [`crate::llc::LlcStats::observed_errors`]. Results are labelled
    /// with the closest preset for energy-model purposes:
    /// `RacetrackUnprotected`.
    pub fn racetrack(
        kind: ProtectionKind,
        policy: ShiftPolicy,
        sampling: Option<(FaultModelChoice, Engine, u64)>,
        obs: Obs,
    ) -> Self {
        let mut llc = RacetrackLlc::new(kind, policy).with_obs(obs.clone());
        if let Some((fault_model, engine, seed)) = sampling {
            llc = llc.with_fault_model(fault_model, engine, seed);
        }
        Self::build(Box::new(llc), LlcChoice::RacetrackUnprotected, obs)
    }

    /// [`Hierarchy::racetrack`] with fault sampling and no observer —
    /// one cell of the scheme × fault-model matrix.
    pub fn with_racetrack_faults(
        kind: ProtectionKind,
        policy: ShiftPolicy,
        fault_model: FaultModelChoice,
        engine: Engine,
        seed: u64,
    ) -> Self {
        Self::racetrack(
            kind,
            policy,
            Some((fault_model, engine, seed)),
            Obs::default(),
        )
    }

    /// Builds the platform around an arbitrary LLC backend (for example
    /// an instrumented wrapper around a [`RacetrackLlc`]), so the L1/L2
    /// front end and all accounting stay identical to the paper's
    /// configuration. `choice` labels the result for energy-model
    /// purposes.
    pub fn with_llc(llc: Box<dyn LlcModel>, choice: LlcChoice) -> Self {
        Self::build(llc, choice, Obs::default())
    }

    /// The platform around `llc`; the hierarchy records its access
    /// latencies into `obs` (an LLC records into the handle it was built
    /// with).
    fn build(llc: Box<dyn LlcModel>, choice: LlcChoice, obs: Obs) -> Self {
        let tech = match choice {
            LlcChoice::SramBaseline => CacheTech::Sram,
            LlcChoice::SttRam => CacheTech::SttRam,
            _ => CacheTech::Racetrack,
        };
        let config = SystemConfig::paper(tech);
        Self {
            front: Front::new(&config),
            llc,
            config,
            choice,
            cycles: 0,
            dram_accesses: 0,
            obs,
        }
    }

    /// The configuration being simulated.
    pub fn choice(&self) -> LlcChoice {
        self.choice
    }

    /// Drives one access through the hierarchy, returning its latency:
    /// the L1/L2 step, then the LLC and memory for an L2 miss.
    pub fn access(&mut self, a: &MemAccess) -> u64 {
        let step = self.front.step(a);
        self.cycles += step.gap;
        let latency = step.latency + step.miss.map_or(0, |(addr, kind)| self.back(addr, kind));
        self.cycles += latency;
        self.obs
            .observe("hier.access_latency_cycles", latency as f64);
        latency
    }

    /// Serves an L2 miss from the LLC (and memory) at the current
    /// cycle, returning the latency it adds.
    fn back(&mut self, addr: u64, kind: AccessKind) -> u64 {
        let llc_resp = self.llc.access(addr, kind, self.cycles);
        let mut latency = llc_resp.latency_cycles;
        if !llc_resp.hit {
            latency += self.config.memory.access_cycles;
            self.dram_accesses += 1;
        }
        if llc_resp.writeback {
            self.dram_accesses += 1;
        }
        latency
    }

    /// Runs `n` accesses from the generator and summarises.
    pub fn run(&mut self, gen: &mut TraceGenerator, n: u64) -> SimResult {
        for _ in 0..n {
            let a = gen.next_access();
            self.access(&a);
        }
        self.result()
    }

    /// Replays a pre-recorded access stream (see
    /// [`rtm_trace::replay`]) and summarises.
    pub fn run_trace(&mut self, accesses: &[MemAccess]) -> SimResult {
        for a in accesses {
            self.access(a);
        }
        self.result()
    }

    /// Runs `n` accesses from the generator through the paper's L1/L2
    /// front end alone and records what reaches the LLC. Every
    /// [`LlcChoice`] shares that front end, so one stream serves every
    /// LLC of the same (workload, seed, accesses): `replay` of it on a
    /// fresh hierarchy equals `run` of the same accesses.
    pub fn filter(gen: &mut TraceGenerator, n: u64) -> FilteredStream {
        let mut front = Front::new(&SystemConfig::paper(CacheTech::Racetrack));
        let mut stream = FilteredStream::new(front.config);
        // LLC-free clock, and its value when the last miss issued.
        let (mut base, mut issued) = (0u64, 0u64);
        for _ in 0..n {
            let step = front.step(&gen.next_access());
            base += step.gap;
            if let Some((addr, kind)) = step.miss {
                stream.push(addr, kind, base - issued);
                issued = base;
            }
            base += step.latency;
        }
        stream.finish(front.counts, base)
    }

    /// Serves a [`Hierarchy::filter`]ed stream's misses from this
    /// hierarchy's LLC and summarises; the result, and the
    /// `hier.access_latency_cycles` histogram it records, equal those
    /// of [`Hierarchy::run`] over the filtered accesses.
    ///
    /// # Panics
    ///
    /// Panics if this hierarchy has already driven accesses or its
    /// L1/L2 front end differs from the stream's.
    pub fn replay(&mut self, stream: &FilteredStream) -> SimResult {
        assert_eq!(
            self.front.counts.accesses, 0,
            "replay needs a fresh hierarchy"
        );
        assert_eq!(
            self.front.config, stream.front,
            "stream filtered through another L1/L2"
        );
        let l1 = self.config.l1.access_cycles;
        let upper = l1 + self.config.l2.access_cycles;
        let mut issued = 0u64;
        for m in stream.misses() {
            self.cycles += m.delta;
            issued += m.delta;
            let extra = self.back(m.addr, m.kind);
            self.cycles += extra;
            self.obs
                .observe("hier.access_latency_cycles", (upper + extra) as f64);
        }
        // The base cycles after the last miss issued, its own L1/L2
        // latency included.
        self.cycles += stream.base_cycles - issued;
        self.obs
            .observe_n("hier.access_latency_cycles", l1 as f64, stream.l1_hits());
        self.obs
            .observe_n("hier.access_latency_cycles", upper as f64, stream.l2_hits());
        self.front.counts = stream.counts;
        self.result()
    }

    /// Snapshot of the current state as a result record.
    pub fn result(&self) -> SimResult {
        let duration = Seconds(self.cycles as f64 / self.config.clock_hz);
        let llc = self.llc.stats();
        let result = SimResult {
            choice: self.choice,
            accesses: self.front.counts.accesses,
            instructions: self.front.counts.instructions,
            cycles: self.cycles,
            duration,
            l1_misses: self.front.counts.l1_misses,
            l2_misses: self.front.counts.l2_misses,
            llc,
            activity: self.llc.activity(duration),
            dram_accesses: self.dram_accesses,
            shift_cycles: llc.shift_cycles,
            scale: self.llc.scale_stats(),
        };
        // Per-run gauges are NOT recorded here: `result()` runs inside
        // parallel sweep workers, where concurrent last-writer-wins
        // `gauge_set`s would make the registry depend on scheduling.
        // Callers that want the gauges invoke
        // [`SimResult::record_metrics`] after their parallel section.
        result
    }
}

impl std::fmt::Debug for Hierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hierarchy")
            .field("choice", &self.choice)
            .field("cycles", &self.cycles)
            .field("accesses", &self.front.counts.accesses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_trace::WorkloadProfile;

    fn run(choice: LlcChoice, workload: &str, n: u64) -> SimResult {
        let p = WorkloadProfile::by_name(workload).unwrap();
        let mut sys = Hierarchy::new(choice, Obs::default());
        sys.run(&mut TraceGenerator::new(p, 42), n)
    }

    #[test]
    fn counters_balance() {
        let r = run(LlcChoice::SramBaseline, "swaptions", 50_000);
        assert_eq!(r.accesses, 50_000);
        assert!(r.instructions >= r.accesses);
        assert!(r.cycles >= r.instructions / 2);
        assert!(r.l1_misses <= r.accesses);
        assert!(r.l2_misses <= r.l1_misses);
        assert!(r.llc.cache.accesses() == r.l2_misses);
    }

    #[test]
    fn hot_workload_mostly_hits_l1() {
        let r = run(LlcChoice::SramBaseline, "swaptions", 100_000);
        assert!(
            (r.l1_misses as f64) < 0.5 * r.accesses as f64,
            "l1 misses {} of {}",
            r.l1_misses,
            r.accesses
        );
    }

    #[test]
    fn capacity_sensitive_workload_prefers_bigger_llc() {
        // canneal's 100 MB working set thrashes a 4 MB SRAM LLC but
        // largely fits the 128 MB racetrack LLC.
        let sram = run(LlcChoice::SramBaseline, "canneal", 300_000);
        let rm = run(LlcChoice::RacetrackIdeal, "canneal", 300_000);
        assert!(
            rm.dram_accesses * 2 < sram.dram_accesses * 3,
            "rm {} vs sram {}",
            rm.dram_accesses,
            sram.dram_accesses
        );
        // Note: cold-start compulsory misses dominate short runs, so the
        // execution-time gap grows with run length (exercised in the
        // experiment drivers with longer traces).
    }

    #[test]
    fn insensitive_workload_sees_little_gain() {
        let sram = run(LlcChoice::SramBaseline, "blackscholes", 200_000);
        let rm = run(LlcChoice::RacetrackIdeal, "blackscholes", 200_000);
        let ratio = rm.cycles as f64 / sram.cycles as f64;
        assert!((0.8..1.2).contains(&ratio), "cycle ratio {ratio}");
    }

    #[test]
    fn protection_adds_bounded_slowdown() {
        let ideal = run(LlcChoice::RacetrackUnprotected, "streamcluster", 200_000);
        let adaptive = run(LlcChoice::RacetrackPeccSAdaptive, "streamcluster", 200_000);
        let pecc_o = run(LlcChoice::RacetrackPeccO, "streamcluster", 200_000);
        assert!(adaptive.cycles >= ideal.cycles);
        assert!(pecc_o.cycles >= adaptive.cycles);
        // Fig. 16: even p-ECC-O costs only a few percent of execution
        // time on average.
        let worst_ratio = pecc_o.cycles as f64 / ideal.cycles as f64;
        assert!(worst_ratio < 1.30, "p-ECC-O slowdown {worst_ratio}");
    }

    #[test]
    fn due_risk_orders_match_fig11() {
        let unprot = run(LlcChoice::RacetrackUnprotected, "canneal", 150_000);
        let adaptive = run(LlcChoice::RacetrackPeccSAdaptive, "canneal", 150_000);
        // Unprotected: everything is silent corruption, no DUEs.
        assert_eq!(unprot.llc.expected_dues, 0.0);
        assert!(unprot.llc.expected_sdcs > 0.0);
        // Adaptive p-ECC-S: SDCs essentially eliminated, DUEs tiny.
        assert!(adaptive.llc.expected_sdcs < unprot.llc.expected_sdcs * 1e-9);
        assert!(adaptive.due_mttf().as_secs() > unprot.sdc_mttf().as_secs());
    }

    #[test]
    fn shift_intensity_is_positive_for_racetrack() {
        let r = run(LlcChoice::RacetrackPeccSAdaptive, "canneal", 100_000);
        assert!(r.shift_intensity() > 0.0);
        assert!(r.llc.shift_steps > 0);
        assert!(r.llc.zero_shift_accesses > 0);
    }

    #[test]
    fn energy_accounting_runs() {
        let r = run(LlcChoice::RacetrackPeccSAdaptive, "vips", 100_000);
        let dyn_e = r.llc_dynamic_energy();
        let tot = r.llc_total_energy();
        assert!(dyn_e.value() > 0.0);
        assert!(tot.value() > dyn_e.value());
        assert!(r.system_energy().value() > tot.value());
    }

    #[test]
    fn sram_has_no_shifts() {
        let r = run(LlcChoice::SramBaseline, "canneal", 100_000);
        assert_eq!(r.llc.shift_ops, 0);
        assert_eq!(r.shift_cycles, 0);
        assert_eq!(r.llc.expected_sdcs, 0.0);
    }

    #[test]
    fn all_seven_choices_run() {
        for c in LlcChoice::ALL {
            let r = run(c, "x264", 30_000);
            assert_eq!(r.accesses, 30_000, "{c}");
        }
    }
}
