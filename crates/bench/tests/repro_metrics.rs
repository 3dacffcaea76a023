//! End-to-end check that the `repro` binary writes well-formed rtm-obs
//! artefacts: a metrics registry snapshot and an ordered shift
//! transaction event stream.

use rtm_obs::json::Json;
use rtm_obs::metrics::RegistrySnapshot;
use std::process::Command;

#[test]
fn repro_fig14_writes_metrics_and_events() {
    let dir = std::env::temp_dir().join(format!("rtm-obs-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics_path = dir.join("m.json");
    let events_path = dir.join("e.json");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--exp",
            "fig14",
            "--quick",
            // Short traces keep the debug-build test fast; the sweep
            // still exercises every workload and variant.
            "--accesses",
            "2000",
            "--metrics",
            metrics_path.to_str().unwrap(),
            "--events",
            events_path.to_str().unwrap(),
        ])
        .output()
        .expect("repro spawns");
    assert!(
        out.status.success(),
        "repro failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    assert!(!text.trim().is_empty(), "metrics file is empty");
    let doc = Json::parse(&text).expect("metrics JSON parses");
    let snap = RegistrySnapshot::from_json(&doc).expect("snapshot decodes");
    assert!(snap.counter("shift.count").expect("shift.count") > 0);
    assert!(
        snap.counter("shift.split.count")
            .expect("shift.split.count")
            > 0
    );
    let h = snap
        .histogram("shift.latency_cycles")
        .expect("latency histogram");
    assert!(h.count > 0);
    assert!(h.p50 <= h.p95 && h.p95 <= h.p99);
    assert!(h.p99 <= h.max);

    let text = std::fs::read_to_string(&events_path).expect("events file written");
    let doc = Json::parse(&text).expect("events JSON parses");
    let events = doc
        .get("events")
        .and_then(Json::as_arr)
        .expect("event array");
    assert!(!events.is_empty(), "no events recorded");
    let count_kind = |kind: &str| {
        events
            .iter()
            .filter(|e| e.get("kind").and_then(Json::as_str) == Some(kind))
            .count()
    };
    assert!(count_kind("ShiftPlanned") >= 1);
    assert!(count_kind("PeccVerdict") >= 1);
    let seqs: Vec<u64> = events
        .iter()
        .map(|e| e.get("seq").and_then(Json::as_u64).expect("seq"))
        .collect();
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "event stream must be ordered by sequence number"
    );

    std::fs::remove_dir_all(&dir).ok();
}
