//! Replaying a filtered L2-miss stream is the same simulation as
//! running the trace: `replay(filter(gen, n)) == run(gen, n)` for every
//! LLC, including the metrics an observed run records.

use rtm_controller::controller::ShiftPolicy;
use rtm_mem::hierarchy::{Hierarchy, LlcChoice, SimResult};
use rtm_model::analytic::Engine;
use rtm_obs::metrics::RegistrySnapshot;
use rtm_obs::Obs;
use rtm_pecc::layout::ProtectionKind;
use rtm_trace::{TraceGenerator, WorkloadProfile};
use rtm_track::fault::FaultModelChoice;
use rtm_util::check::{run_cases, Gen};

/// How to build one side of a comparison.
#[derive(Debug, Clone, Copy)]
enum Config {
    Preset(LlcChoice),
    Racetrack {
        kind: ProtectionKind,
        policy: ShiftPolicy,
        sampling: Option<(FaultModelChoice, Engine, u64)>,
    },
}

impl Config {
    fn build(self, obs: Obs) -> Hierarchy {
        match self {
            Config::Preset(c) => Hierarchy::new(c, obs),
            Config::Racetrack {
                kind,
                policy,
                sampling,
            } => Hierarchy::racetrack(kind, policy, sampling, obs),
        }
    }
}

fn observed() -> Obs {
    Obs::default().with_metrics(true)
}

fn snapshot(obs: &Obs) -> RegistrySnapshot {
    obs.metrics().expect("metrics on").snapshot()
}

/// `run` and `replay(filter)` of the same accesses, each with its own
/// metrics-enabled observer; asserts they agree and returns the result.
fn assert_replay_equals_run(
    config: Config,
    profile: WorkloadProfile,
    seed: u64,
    n: u64,
) -> SimResult {
    let run_obs = observed();
    let run = config
        .build(run_obs.clone())
        .run(&mut TraceGenerator::new(profile, seed), n);
    let stream = Hierarchy::filter(&mut TraceGenerator::new(profile, seed), n);
    let replay_obs = observed();
    let replay = config.build(replay_obs.clone()).replay(&stream);
    assert_eq!(replay, run, "{config:?} n={n}");
    run.record_metrics(&run_obs);
    replay.record_metrics(&replay_obs);
    assert_eq!(
        snapshot(&replay_obs),
        snapshot(&run_obs),
        "{config:?} n={n}"
    );
    assert_eq!(stream.accesses(), n);
    assert_eq!(stream.l2_misses(), stream.misses().count() as u64);
    run
}

fn random_profile(g: &mut Gen) -> WorkloadProfile {
    let working_set_bytes = g.u64_in(64, 256 << 20);
    let hot_fraction = g.f64_in(0.0, 1.0);
    WorkloadProfile {
        name: "random",
        working_set_bytes,
        hot_set_bytes: g.u64_in(0, working_set_bytes),
        hot_fraction,
        stream_fraction: (1.0 - hot_fraction) * g.f64_in(0.0, 0.99),
        write_fraction: g.f64_in(0.0, 1.0),
        gap_instructions: g.f64_in(0.0, 40.0),
        capacity_sensitive: g.bool(),
    }
}

fn random_racetrack(g: &mut Gen, sampled: bool) -> Config {
    let kinds = [
        ProtectionKind::None,
        ProtectionKind::Sed,
        ProtectionKind::SECDED,
        ProtectionKind::SECDED_O,
        ProtectionKind::CHEE_KIAH,
        ProtectionKind::VAHID_2DI,
    ];
    let policies = [
        ShiftPolicy::Unconstrained,
        ShiftPolicy::StepByStep,
        ShiftPolicy::Adaptive,
        ShiftPolicy::FixedSafe {
            worst_intensity_hz: 83_000_000,
        },
    ];
    let sampling = sampled.then(|| {
        let fault_model = FaultModelChoice::ALL[g.usize_in(0, FaultModelChoice::ALL.len() - 1)];
        (fault_model, Engine::Analytic, g.u64())
    });
    Config::Racetrack {
        kind: kinds[g.usize_in(0, kinds.len() - 1)],
        policy: policies[g.usize_in(0, policies.len() - 1)],
        sampling,
    }
}

/// Random profiles, seeds and lengths (0 and 1 included) through all
/// seven presets and a racetrack LLC with and without fault sampling.
#[test]
fn replay_of_filter_equals_run() {
    run_cases(12, |g: &mut Gen| {
        let profile = random_profile(g);
        let seed = g.u64();
        let n = match g.usize_in(0, 3) {
            0 => 0,
            1 => 1,
            _ => g.u64_in(2, 3_000),
        };
        let configs = LlcChoice::ALL
            .map(Config::Preset)
            .into_iter()
            .chain([random_racetrack(g, false), random_racetrack(g, true)]);
        for config in configs {
            assert_replay_equals_run(config, profile, seed, n);
        }
    });
}

/// A capacity-sensitive PARSEC profile under the sampled adaptive
/// racetrack the paper sweeps, and long enough to overflow the 4 MB
/// SRAM LLC so its dirty evictions write back.
#[test]
fn replay_equals_run_on_a_capacity_sensitive_workload() {
    let canneal = WorkloadProfile::by_name("canneal").unwrap();
    let config = Config::Racetrack {
        kind: ProtectionKind::SECDED,
        policy: ShiftPolicy::Adaptive,
        sampling: Some((FaultModelChoice::Engine, Engine::Analytic, 7)),
    };
    let r = assert_replay_equals_run(config, canneal, 2015, 40_000);
    assert!(r.llc.sampled_shifts > 0 && r.dram_accesses > 0);
    let sram = Config::Preset(LlcChoice::SramBaseline);
    let r = assert_replay_equals_run(sram, canneal, 3, 250_000);
    assert!(r.llc.cache.writebacks > 0);
}

/// Gaps of millions of instructions and addresses beyond 2^35 force the
/// stream's escape entry; replay stays exact.
#[test]
fn escaped_misses_replay_exactly() {
    let wide = WorkloadProfile {
        name: "wide",
        working_set_bytes: 1 << 44,
        hot_set_bytes: 0,
        hot_fraction: 0.0,
        stream_fraction: 0.0,
        write_fraction: 0.5,
        gap_instructions: 2.0e7,
        capacity_sensitive: true,
    };
    let n = 200;
    let stream = Hierarchy::filter(&mut TraceGenerator::new(wide, 9), n);
    let escaped = stream
        .misses()
        .filter(|m| m.addr >= 1 << 35 || m.delta >= (1 << 24) - 1)
        .count();
    assert!(escaped as u64 > n / 2, "only {escaped} escaped misses");
    assert!(stream.heap_bytes() >= 20 * escaped);
    for choice in [LlcChoice::SttRam, LlcChoice::RacetrackPeccSAdaptive] {
        assert_replay_equals_run(Config::Preset(choice), wide, 9, n);
    }
}

/// A PARSEC stream never escapes: at most 8 B per L2 miss.
#[test]
fn parsec_streams_cost_at_most_eight_bytes_per_miss() {
    for p in WorkloadProfile::parsec() {
        let stream = Hierarchy::filter(&mut TraceGenerator::new(p, 1), 20_000);
        let bytes = stream.heap_bytes() as u64;
        assert!(bytes <= 8 * stream.l2_misses(), "{}: {bytes} B", p.name);
    }
}

#[test]
#[should_panic(expected = "fresh hierarchy")]
fn replay_refuses_a_used_hierarchy() {
    let p = WorkloadProfile::by_name("x264").unwrap();
    let stream = Hierarchy::filter(&mut TraceGenerator::new(p, 1), 10);
    let mut sys = Hierarchy::new(LlcChoice::SramBaseline, Obs::default());
    sys.run(&mut TraceGenerator::new(p, 1), 10);
    sys.replay(&stream);
}
