//! Shared simulation sweep machinery: run every (workload × LLC
//! configuration) pair once and let the figure drivers slice the
//! results.
//!
//! Cells of the grid are independent simulations, so the sweep fans
//! them out across the `rtm-par` pool. The cells of one workload differ
//! only in their LLC, so they share one L1/L2 pass: the first cell of a
//! workload to run filters its trace ([`Hierarchy::filter`]), every
//! cell replays that stream against its own LLC ([`Hierarchy::replay`],
//! equal to a per-cell [`Hierarchy::run`]), and the last cell to finish
//! drops it. Each cell's trace seed derives from the workload name
//! alone (never the worker count or schedule), and results are folded
//! into the sweep in strict grid order as they stream back — per-run
//! gauges record at fold time, never from a worker thread — so sweep
//! output and metrics are identical for any `--threads` setting.

use rtm_controller::controller::ShiftPolicy;
use rtm_mem::hierarchy::{Hierarchy, LlcChoice, SimResult};
use rtm_mem::FilteredStream;
use rtm_obs::Obs;
use rtm_pecc::layout::ProtectionKind;
use rtm_trace::{TraceGenerator, WorkloadProfile};
use rtm_track::fault::FaultModelChoice;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SweepSettings {
    /// Accesses driven per (workload, configuration) pair.
    pub accesses: u64,
    /// RNG seed base (per-workload seeds derive from it).
    pub seed: u64,
    /// Workload subset (`None` = all twelve).
    pub workloads: Option<Vec<&'static str>>,
    /// When set, racetrack variant cells additionally sample one
    /// concrete outcome per planned sub-shift through the engine's
    /// fault model (alias fast path for
    /// [`rtm_model::analytic::Engine::Analytic`]). Sampling seeds
    /// derive from `seed` and the cell's grid index, never the worker
    /// schedule, so sweep output stays bit-identical for any thread
    /// count.
    pub sample_engine: Option<rtm_model::analytic::Engine>,
    /// Which fault process drives the sampled outcomes (the
    /// `--fault-model` axis). Only observed when `sample_engine` is
    /// set; the statistical accounting always uses the calibrated
    /// rates.
    pub fault_model: FaultModelChoice,
}

impl SweepSettings {
    /// Full-fidelity settings for the repro binaries: traces long
    /// enough that capacity-sensitive working sets overflow the smaller
    /// LLCs (the effect Figs. 16-18 hinge on).
    pub fn full() -> Self {
        Self {
            accesses: 2_000_000,
            seed: 2015,
            workloads: None,
            sample_engine: None,
            fault_model: FaultModelChoice::Engine,
        }
    }

    /// Small settings for unit tests.
    pub fn quick() -> Self {
        Self {
            accesses: 25_000,
            seed: 2015,
            workloads: Some(vec!["canneal", "swaptions", "streamcluster"]),
            sample_engine: None,
            fault_model: FaultModelChoice::Engine,
        }
    }

    /// The workload profiles this sweep covers, in display order.
    pub fn profiles(&self) -> Vec<WorkloadProfile> {
        let all = WorkloadProfile::parsec();
        match &self.workloads {
            None => all.to_vec(),
            Some(names) => names
                .iter()
                .filter_map(|n| WorkloadProfile::by_name(n))
                .collect(),
        }
    }

    /// The seeded trace every cell of workload `p` runs.
    fn generator(&self, p: WorkloadProfile) -> TraceGenerator {
        TraceGenerator::new(p, rtm_util::rng::derive_seed(self.seed, seed_of(p.name)))
    }

    /// The L1/L2 pass every cell of workload `p` replays.
    fn filter(&self, p: WorkloadProfile) -> FilteredStream {
        Hierarchy::filter(&mut self.generator(p), self.accesses)
    }
}

/// A racetrack LLC variant beyond the named presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RtVariant {
    /// Unprotected, unconstrained distances (the baseline).
    Baseline,
    /// SED p-ECC (detect-only), unconstrained distances.
    Sed,
    /// SECDED p-ECC, unconstrained distances.
    Secded,
    /// SECDED p-ECC-O (1-step shift-and-write).
    SecdedO,
    /// SECDED p-ECC with the worst-case safe distance.
    SecdedSafeWorst,
    /// SECDED p-ECC with the adaptive safe distance.
    SecdedSafeAdaptive,
    /// Chee–Kiah multi-look code, unconstrained distances.
    CheeKiah,
    /// Vahid two-deletion/insertion code, unconstrained distances.
    Vahid2di,
}

impl RtVariant {
    /// All variants in the paper's legend order.
    pub const ALL: [RtVariant; 8] = [
        RtVariant::Baseline,
        RtVariant::Sed,
        RtVariant::Secded,
        RtVariant::SecdedO,
        RtVariant::SecdedSafeWorst,
        RtVariant::SecdedSafeAdaptive,
        RtVariant::CheeKiah,
        RtVariant::Vahid2di,
    ];

    /// The (protection, policy) pair this variant simulates.
    pub fn parts(&self) -> (ProtectionKind, ShiftPolicy) {
        match self {
            RtVariant::Baseline => (ProtectionKind::None, ShiftPolicy::Unconstrained),
            RtVariant::Sed => (ProtectionKind::Sed, ShiftPolicy::Unconstrained),
            RtVariant::Secded => (ProtectionKind::SECDED, ShiftPolicy::Unconstrained),
            RtVariant::SecdedO => (ProtectionKind::SECDED_O, ShiftPolicy::StepByStep),
            RtVariant::SecdedSafeWorst => (
                ProtectionKind::SECDED,
                ShiftPolicy::FixedSafe {
                    worst_intensity_hz: 83_000_000,
                },
            ),
            RtVariant::SecdedSafeAdaptive => (ProtectionKind::SECDED, ShiftPolicy::Adaptive),
            RtVariant::CheeKiah => (ProtectionKind::CHEE_KIAH, ShiftPolicy::Unconstrained),
            RtVariant::Vahid2di => (ProtectionKind::VAHID_2DI, ShiftPolicy::Unconstrained),
        }
    }

    /// Paper legend label.
    pub fn label(&self) -> &'static str {
        match self {
            RtVariant::Baseline => "Baseline",
            RtVariant::Sed => "SED p-ECC",
            RtVariant::Secded => "SECDED p-ECC",
            RtVariant::SecdedO => "SECDED p-ECC-O",
            RtVariant::SecdedSafeWorst => "SECDED p-ECC-S worst",
            RtVariant::SecdedSafeAdaptive => "SECDED p-ECC-S adaptive",
            RtVariant::CheeKiah => "Chee-Kiah",
            RtVariant::Vahid2di => "Vahid 2-DI",
        }
    }
}

/// Results of a sweep, keyed by workload name.
#[derive(Debug, Clone, Default)]
pub struct SimSweep {
    /// Per-workload results for named LLC choices (Figs. 16-18).
    pub by_choice: BTreeMap<&'static str, BTreeMap<String, SimResult>>,
    /// Per-workload results for racetrack variants (Figs. 10/11/14).
    pub by_variant: BTreeMap<&'static str, BTreeMap<String, SimResult>>,
}

impl SimSweep {
    /// Runs every workload against the named LLC choices on the
    /// process-wide `rtm_par` pool.
    pub fn run_choices(settings: &SweepSettings, choices: &[LlcChoice]) -> Self {
        Self::run_choices_with_threads(settings, choices, rtm_par::threads(), &Obs::default())
    }

    /// [`Self::run_choices`] with an explicit worker count, recording
    /// into `obs`: every cell's hierarchy records into it while
    /// running, and each cell's result is folded in
    /// ([`SimResult::record_metrics`]) in grid order after it arrives.
    /// Results are identical for any `threads` value.
    pub fn run_choices_with_threads(
        settings: &SweepSettings,
        choices: &[LlcChoice],
        threads: usize,
        obs: &Obs,
    ) -> Self {
        let profiles = settings.profiles();
        let cells: Vec<(WorkloadProfile, LlcChoice)> = profiles
            .iter()
            .flat_map(|&p| choices.iter().map(move |&c| (p, c)))
            .collect();
        let progress = obs.progress("sweep(choices)", cells.len() as u64, "cells");
        let streams = SharedStreams::new(profiles.len(), choices.len(), |k| {
            settings.filter(profiles[k])
        });
        // Streaming fold: each cell's result is folded into the sweep in
        // strict grid order as soon as its predecessors have arrived, so
        // no worker-count-sized Vec of results accumulates and gauges
        // stay deterministic for any `threads` value.
        let sweep = rtm_par::parallel_fold_with(
            threads,
            cells.len(),
            |i| {
                let c = cells[i].1;
                let r = streams.replay(i / choices.len(), |s| {
                    Hierarchy::new(c, obs.clone()).replay(s)
                });
                progress.tick(1);
                r
            },
            Self::default(),
            |sweep, i, r| {
                let (p, c) = cells[i];
                r.record_metrics(obs);
                sweep
                    .by_choice
                    .entry(p.name)
                    .or_default()
                    .insert(c.to_string(), r);
            },
        );
        progress.finish();
        sweep
    }

    /// Runs every workload against racetrack protection variants on
    /// the process-wide `rtm_par` pool.
    pub fn run_variants(settings: &SweepSettings, variants: &[RtVariant]) -> Self {
        Self::run_variants_with_threads(settings, variants, rtm_par::threads())
    }

    /// [`Self::run_variants`] with an explicit worker count; results
    /// are identical for any `threads` value.
    pub fn run_variants_with_threads(
        settings: &SweepSettings,
        variants: &[RtVariant],
        threads: usize,
    ) -> Self {
        Self::run_variants_observed(settings, variants, threads, &Obs::default())
    }

    /// [`Self::run_variants_with_threads`] recording into `obs`, as
    /// [`Self::run_choices_with_threads`] does.
    pub fn run_variants_observed(
        settings: &SweepSettings,
        variants: &[RtVariant],
        threads: usize,
        obs: &Obs,
    ) -> Self {
        let profiles = settings.profiles();
        let cells: Vec<(WorkloadProfile, RtVariant)> = profiles
            .iter()
            .flat_map(|&p| variants.iter().map(move |&v| (p, v)))
            .collect();
        let progress = obs.progress("sweep(variants)", cells.len() as u64, "cells");
        let streams = SharedStreams::new(profiles.len(), variants.len(), |k| {
            settings.filter(profiles[k])
        });
        let sweep = rtm_par::parallel_fold_with(
            threads,
            cells.len(),
            |i| {
                let (kind, policy) = cells[i].1.parts();
                // Sampling seed from (sweep seed, grid index): fixed by
                // the cell layout, independent of worker scheduling.
                let sampling = settings.sample_engine.map(|engine| {
                    let seed = rtm_util::rng::derive_seed(settings.seed, 0x5EED_0000 + i as u64);
                    (settings.fault_model, engine, seed)
                });
                let r = streams.replay(i / variants.len(), |s| {
                    Hierarchy::racetrack(kind, policy, sampling, obs.clone()).replay(s)
                });
                progress.tick(1);
                r
            },
            Self::default(),
            |sweep, i, r| {
                let (p, v) = cells[i];
                r.record_metrics(obs);
                sweep
                    .by_variant
                    .entry(p.name)
                    .or_default()
                    .insert(v.label().to_string(), r);
            },
        );
        progress.finish();
        sweep
    }
}

/// Filtered streams shared by the grid cells that replay them, one
/// slot per stream with a count of the cells still to replay it. The
/// first cell to reach a slot filters its stream while later ones wait
/// for it, and the last cell to finish drops it, so a stream lives only
/// while its cells run.
///
/// Replays run inside [`rtm_mem::cache::recycling`], so a worker's
/// consecutive cells reuse one LLC directory; worker threads free
/// their spare when they exit, and dropping the streams frees the
/// calling thread's (a one-worker sweep runs its cells there).
pub(crate) struct SharedStreams<F> {
    slots: Vec<(Mutex<Option<Arc<FilteredStream>>>, AtomicUsize)>,
    filter: F,
}

impl<F: Fn(usize) -> FilteredStream> SharedStreams<F> {
    /// `streams` slots, each replayed by `cells_each` cells; `filter(k)`
    /// produces stream `k`.
    pub(crate) fn new(streams: usize, cells_each: usize, filter: F) -> Self {
        Self {
            slots: (0..streams)
                .map(|_| (Mutex::new(None), AtomicUsize::new(cells_each)))
                .collect(),
            filter,
        }
    }

    /// Replays stream `k`; each of the slot's cells calls this exactly
    /// once.
    pub(crate) fn replay<R>(&self, k: usize, replay: impl FnOnce(&FilteredStream) -> R) -> R {
        let (slot, left) = &self.slots[k];
        let stream = {
            let mut slot = slot.lock().expect("stream slot poisoned");
            Arc::clone(slot.get_or_insert_with(|| Arc::new((self.filter)(k))))
        };
        let r = rtm_mem::cache::recycling(|| replay(&stream));
        drop(stream);
        if left.fetch_sub(1, Ordering::AcqRel) == 1 {
            slot.lock().expect("stream slot poisoned").take();
        }
        r
    }
}

impl<F> Drop for SharedStreams<F> {
    fn drop(&mut self) {
        rtm_mem::cache::release_spare();
    }
}

fn seed_of(name: &str) -> u64 {
    name.bytes()
        .fold(0u64, |acc, b| acc.wrapping_mul(131).wrapping_add(b as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_covers_requested_matrix() {
        let s = SweepSettings::quick();
        let sweep =
            SimSweep::run_choices(&s, &[LlcChoice::SramBaseline, LlcChoice::RacetrackIdeal]);
        assert_eq!(sweep.by_choice.len(), 3);
        for per in sweep.by_choice.values() {
            assert_eq!(per.len(), 2);
            for r in per.values() {
                assert_eq!(r.accesses, s.accesses);
            }
        }
    }

    #[test]
    fn variant_sweep_runs_custom_racetracks() {
        let mut s = SweepSettings::quick();
        s.workloads = Some(vec!["x264"]);
        let sweep = SimSweep::run_variants(&s, &[RtVariant::Baseline, RtVariant::Sed]);
        let per = &sweep.by_variant["x264"];
        assert!(per.contains_key("Baseline"));
        assert!(per.contains_key("SED p-ECC"));
        // SED detects (DUE mass); baseline does not.
        assert!(per["SED p-ECC"].llc.expected_dues > 0.0);
        assert_eq!(per["Baseline"].llc.expected_dues, 0.0);
    }

    #[test]
    fn same_settings_same_results() {
        let mut s = SweepSettings::quick();
        s.workloads = Some(vec!["vips"]);
        s.accesses = 5_000;
        let a = SimSweep::run_choices(&s, &[LlcChoice::SttRam]);
        let b = SimSweep::run_choices(&s, &[LlcChoice::SttRam]);
        assert_eq!(
            a.by_choice["vips"]["STT-RAM"].cycles,
            b.by_choice["vips"]["STT-RAM"].cycles
        );
    }

    #[test]
    fn shared_stream_sweeps_match_per_cell_runs() {
        // Oracle: every cell of a sweep that shares one filtered stream
        // per workload, and every cell of the matrix (one stream for the
        // whole grid), equals an independent `Hierarchy::run` of that
        // cell alone — LLC choices, unsampled and sampled racetrack
        // variants, and the matrix's sampled cells, at 1, 2 and 8
        // workers.
        use crate::experiments::matrix::{MatrixSettings, SchemeChoice, SchemeFaultMatrix};
        use rtm_util::rng::derive_seed;
        let mut s = SweepSettings::quick();
        s.accesses = 4_000;
        s.workloads = Some(vec!["canneal", "x264"]);
        let run =
            |mut sys: Hierarchy, s: &SweepSettings, p| sys.run(&mut s.generator(p), s.accesses);
        type Grid = BTreeMap<&'static str, BTreeMap<String, SimResult>>;

        let choices = [
            LlcChoice::SramBaseline,
            LlcChoice::SttRam,
            LlcChoice::RacetrackIdeal,
            LlcChoice::RacetrackPeccSAdaptive,
        ];
        let mut want_choices = Grid::new();
        for p in s.profiles() {
            for c in choices {
                let r = run(Hierarchy::new(c, Obs::default()), &s, p);
                want_choices
                    .entry(p.name)
                    .or_default()
                    .insert(c.to_string(), r);
            }
        }

        let variants = [
            RtVariant::Baseline,
            RtVariant::SecdedSafeAdaptive,
            RtVariant::Vahid2di,
        ];
        let mut sampled = s.clone();
        sampled.sample_engine = Some(rtm_model::analytic::Engine::Analytic);
        let want_variants = |s: &SweepSettings| {
            let mut want = Grid::new();
            let grid = s
                .profiles()
                .into_iter()
                .flat_map(|p| variants.map(|v| (p, v)));
            for (i, (p, v)) in grid.enumerate() {
                let (kind, policy) = v.parts();
                let sampling = s.sample_engine.map(|engine| {
                    let seed = derive_seed(s.seed, 0x5EED_0000 + i as u64);
                    (s.fault_model, engine, seed)
                });
                let sys = Hierarchy::racetrack(kind, policy, sampling, Obs::default());
                want.entry(p.name)
                    .or_default()
                    .insert(v.label().to_string(), run(sys, s, p));
            }
            want
        };
        let (want_plain, want_sampled) = (want_variants(&s), want_variants(&sampled));
        let drew: u64 = want_sampled
            .values()
            .flat_map(|per| per.values())
            .map(|r| r.llc.sampled_shifts)
            .sum();
        assert!(drew > 0, "engine sampling produced no draws");

        let mut m = MatrixSettings::quick();
        m.accesses = 2_000;
        m.schemes = vec![
            SchemeChoice::Sts,
            SchemeChoice::PeccSAdaptive,
            SchemeChoice::Vahid2di,
        ];
        let profile = WorkloadProfile::by_name(m.workload).unwrap();
        let mut want_matrix = Vec::new();
        for (i, (scheme, fault_model)) in m
            .schemes
            .iter()
            .flat_map(|&sc| m.fault_models.iter().map(move |&f| (sc, f)))
            .enumerate()
        {
            let (kind, policy) = scheme.parts();
            let seed = derive_seed(m.seed, 0x3A78_0000 + i as u64);
            let mut sys = Hierarchy::racetrack(
                kind,
                policy,
                Some((fault_model, m.engine, seed)),
                Obs::default(),
            );
            let mut gen = TraceGenerator::new(profile, derive_seed(m.seed, 0x3A78_8000));
            let r = sys.run(&mut gen, m.accesses);
            want_matrix.push((r.llc.sampled_shifts, r.llc.observed_errors, r.cycles));
        }

        for threads in [1usize, 2, 8] {
            let obs = Obs::default();
            let got = SimSweep::run_choices_with_threads(&s, &choices, threads, &obs);
            assert_eq!(got.by_choice, want_choices, "choices, threads={threads}");
            let got = SimSweep::run_variants_with_threads(&s, &variants, threads);
            assert_eq!(got.by_variant, want_plain, "variants, threads={threads}");
            let got = SimSweep::run_variants_with_threads(&sampled, &variants, threads);
            assert_eq!(got.by_variant, want_sampled, "sampled, threads={threads}");
            let got: Vec<_> = SchemeFaultMatrix::run_with_threads(&m, threads, &obs)
                .cells
                .iter()
                .map(|c| (c.sampled_shifts, c.observed_errors, c.cycles))
                .collect();
            assert_eq!(got, want_matrix, "matrix, threads={threads}");
        }
    }

    #[test]
    fn variant_parts_cover_paper_matrix() {
        assert_eq!(RtVariant::ALL.len(), 8);
        for v in RtVariant::ALL {
            let (_, _) = v.parts();
            assert!(!v.label().is_empty());
        }
    }
}
