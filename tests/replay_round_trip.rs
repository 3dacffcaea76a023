//! Record/replay integration: a recorded trace must reproduce the
//! generator-driven simulation exactly.

use hifi_rtm::mem::hierarchy::{Hierarchy, LlcChoice};
use hifi_rtm::obs::Obs;
use hifi_rtm::trace::replay::{read_trace, write_trace};
use hifi_rtm::trace::{TraceGenerator, WorkloadProfile};

#[test]
fn recorded_trace_reproduces_simulation_exactly() {
    let profile = WorkloadProfile::by_name("bodytrack").unwrap();
    let n = 50_000;

    // Generator-driven run.
    let mut live = Hierarchy::new(LlcChoice::RacetrackPeccSAdaptive, Obs::default());
    let live_result = live.run(&mut TraceGenerator::new(profile, 77), n);

    // Record the same stream, serialise, deserialise, replay.
    let accesses = TraceGenerator::new(profile, 77).take_vec(n as usize);
    let mut buf = Vec::new();
    write_trace(&mut buf, &accesses).expect("serialise");
    let decoded = read_trace(buf.as_slice()).expect("deserialise");

    let mut replayed = Hierarchy::new(LlcChoice::RacetrackPeccSAdaptive, Obs::default());
    let replay_result = replayed.run_trace(&decoded);

    assert_eq!(live_result.cycles, replay_result.cycles);
    assert_eq!(live_result.llc, replay_result.llc);
    assert_eq!(live_result.dram_accesses, replay_result.dram_accesses);
    assert_eq!(live_result.instructions, replay_result.instructions);
}

#[test]
fn replayed_trace_is_portable_across_llc_choices() {
    // One recorded stream drives every configuration — the comparison
    // methodology Figs. 16-18 rely on.
    let profile = WorkloadProfile::by_name("ferret").unwrap();
    let accesses = TraceGenerator::new(profile, 5).take_vec(30_000);
    let mut cycles = Vec::new();
    for choice in [
        LlcChoice::SramBaseline,
        LlcChoice::RacetrackIdeal,
        LlcChoice::RacetrackPeccO,
    ] {
        let mut sys = Hierarchy::new(choice, Obs::default());
        cycles.push(sys.run_trace(&accesses).cycles);
    }
    // Same instruction stream, different memory systems: the ideal
    // racetrack is never slower than p-ECC-O on identical input.
    assert!(cycles[1] <= cycles[2]);
}
