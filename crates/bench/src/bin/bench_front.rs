//! Front-door benchmark: multi-tenant admission control over the
//! serving simulator at a 1k → 10k tenant ladder. Emits a
//! machine-readable `BENCH_front.json` with one row per
//! (tenants, policy, class) plus a per-(tenants, policy) summary row.
//!
//! With `--check` the run is gated — and the artefact is written only
//! after every gate passes:
//!
//! * **determinism** — the whole ladder reruns on one worker and every
//!   [`FrontResult`] must be bit-identical to the `--threads` run;
//! * **wire equivalence** — the smallest ladder row is recorded as a
//!   frame stream, pushed through an in-memory [`Loopback`] transport
//!   and replayed by the wire server path, which must reproduce the
//!   in-process run exactly;
//! * **sanity** — per row `admitted + shed == offered`,
//!   `completed == admitted` and a finite fairness ratio; across the
//!   ladder the admission control must actually bite (some requests
//!   shed, some deferred) and the ladder must reach ≥ 10k tenants.
//!
//! ```text
//! cargo run --release -p rtm-bench --bin bench-front
//! cargo run --release -p rtm-bench --bin bench-front -- \
//!     --quick --check --threads 8 --out BENCH_front.json
//! ```

use rtm_core::experiments::frontdoor::FrontSettings;
use rtm_front::{run_front, FrontResult, Loopback};
use rtm_obs::json::Json;
use rtm_obs::Obs;
use rtm_serve::SchedPolicy;
use std::time::Instant;

/// Tenant-count ladder; the top row carries the paper-scale claim.
const LADDER: [u32; 2] = [1_000, 10_000];

struct Cell {
    tenants: u32,
    policy: SchedPolicy,
    wall_ms: f64,
    result: FrontResult,
}

fn settings_for(tenants: u32, quick: bool) -> FrontSettings {
    let mut s = FrontSettings::for_tenants(tenants, quick);
    if quick && tenants <= 1_000 {
        // Keep the small row at full per-tenant load even in quick
        // mode: it is cheap, and it is the row where admission
        // control visibly sheds (the sanity gate checks that).
        s = FrontSettings::for_tenants(tenants, false);
    }
    s
}

fn run_ladder(quick: bool, threads: usize) -> Vec<Cell> {
    let grid: Vec<(u32, SchedPolicy)> = LADDER
        .iter()
        .flat_map(|&t| SchedPolicy::ALL.into_iter().map(move |p| (t, p)))
        .collect();
    let results = rtm_par::parallel_map_with(threads, grid.len(), |i| {
        let (tenants, policy) = grid[i];
        let cfg = settings_for(tenants, quick).config();
        let start = Instant::now();
        let result = run_front(&cfg, policy, Obs::default());
        (start.elapsed().as_secs_f64() * 1e3, result)
    });
    grid.into_iter()
        .zip(results)
        .map(|((tenants, policy), (wall_ms, result))| Cell {
            tenants,
            policy,
            wall_ms,
            result,
        })
        .collect()
}

/// Records the smallest ladder row as a frame stream, pushes it
/// through the in-memory loopback transport and the wire server path,
/// and checks the replay against the in-process run.
fn check_wire_equivalence(quick: bool) {
    let cfg = settings_for(LADDER[0], quick).config();
    let policy = SchedPolicy::ShiftAware;
    let mut channel = Loopback::new();
    rtm_front::proto::write_frames(&mut channel, &rtm_front::record_frames(&cfg))
        .expect("loopback write cannot fail");
    let frames = rtm_front::proto::read_frames(&mut channel).expect("loopback read cannot fail");
    let replayed = match rtm_front::serve_frames(&frames, policy) {
        Ok((result, _)) => result,
        Err(e) => {
            eprintln!("WIRE REGRESSION: recorded stream rejected: {e}");
            std::process::exit(1);
        }
    };
    let internal = run_front(&cfg, policy, Obs::default());
    if replayed.classes != internal.classes || replayed.serve != internal.serve {
        eprintln!(
            "WIRE REGRESSION: loopback replay diverges from the in-process \
             run at {} tenants",
            LADDER[0]
        );
        std::process::exit(1);
    }
    eprintln!(
        "wire check: loopback replay identical to the in-process run \
         ({} tenants, {})",
        LADDER[0],
        policy.label()
    );
}

fn check_sanity(cells: &[Cell], quick: bool) {
    let mut shed = 0u64;
    let mut deferred = 0u64;
    for c in cells {
        let offered = settings_for(c.tenants, quick).offered;
        let r = &c.result;
        if r.admitted() + r.shed() != offered || r.completed() != r.admitted() {
            eprintln!(
                "SANITY REGRESSION: {} tenants / {}: admitted {} + shed {} \
                 vs offered {offered}, completed {}",
                c.tenants,
                c.policy,
                r.admitted(),
                r.shed(),
                r.completed()
            );
            std::process::exit(1);
        }
        let fairness = r.fairness_ratio();
        if !(fairness >= 1.0 && fairness.is_finite()) {
            eprintln!(
                "SANITY REGRESSION: {} tenants / {}: fairness ratio {fairness} \
                 (some class starved outright)",
                c.tenants, c.policy
            );
            std::process::exit(1);
        }
        shed += r.shed();
        deferred += r.deferred();
    }
    if shed == 0 || deferred == 0 {
        eprintln!(
            "SANITY REGRESSION: admission control never bit across the ladder \
             ({shed} shed, {deferred} deferrals) — offered load too low to gate"
        );
        std::process::exit(1);
    }
    if !LADDER.iter().any(|&t| t >= 10_000) {
        eprintln!("SANITY REGRESSION: ladder never reaches 10k tenants");
        std::process::exit(1);
    }
    eprintln!(
        "sanity check: conservation, fairness and scale hold \
         ({shed} shed, {deferred} deferrals across the ladder)"
    );
}

fn main() {
    let mut quick = false;
    let mut check = false;
    let mut out = std::path::PathBuf::from("BENCH_front.json");
    let mut threads = rtm_par::available_parallelism();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--out" => {
                out = args
                    .next()
                    .unwrap_or_else(|| {
                        eprintln!("error: --out needs a path");
                        std::process::exit(2);
                    })
                    .into();
            }
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("error: --threads needs a positive count");
                        std::process::exit(2);
                    });
            }
            other => {
                eprintln!("error: unknown flag {other}");
                eprintln!("usage: bench-front [--quick] [--check] [--threads N] [--out file.json]");
                std::process::exit(2);
            }
        }
    }

    eprintln!(
        "front-door ladder: {LADDER:?} tenants x {} policies ({threads} threads, quick={quick})...",
        SchedPolicy::ALL.len()
    );
    let cells = run_ladder(quick, threads);
    for c in &cells {
        eprintln!(
            "{} tenants / {}: {} admitted, {} shed, {} deferrals, fairness {:.2}, {:.0} ms",
            c.tenants,
            c.policy,
            c.result.admitted(),
            c.result.shed(),
            c.result.deferred(),
            c.result.fairness_ratio(),
            c.wall_ms
        );
    }

    // Every gate runs before the artefact is written, so a failing
    // `--check` run can never leave a fresh BENCH_front.json behind.
    if check {
        eprintln!("determinism check: rerunning the ladder on 1 worker...");
        let base = run_ladder(quick, 1);
        let diverged: Vec<String> = cells
            .iter()
            .zip(&base)
            .filter(|(a, b)| a.result != b.result)
            .map(|(a, _)| format!("{}t/{}", a.tenants, a.policy))
            .collect();
        if !diverged.is_empty() {
            eprintln!(
                "DETERMINISM REGRESSION: {threads}-thread results differ from \
                 1-thread baseline on: {}",
                diverged.join(", ")
            );
            std::process::exit(1);
        }
        eprintln!("determinism check: {threads}-thread results identical to 1-thread baseline");
        check_wire_equivalence(quick);
        check_sanity(&cells, quick);
    }

    let mut rows: Vec<Json> = Vec::new();
    for c in &cells {
        let r = &c.result;
        for s in &r.classes {
            rows.push(Json::obj(vec![
                ("tenants", Json::Str(c.tenants.to_string())),
                ("policy", Json::Str(c.policy.label().to_string())),
                ("class", Json::Str(s.class.label().to_string())),
                ("class_tenants", Json::Num(s.tenants as f64)),
                ("admitted", Json::Num(s.admitted as f64)),
                ("shed", Json::Num(s.shed as f64)),
                ("deferred", Json::Num(s.deferred as f64)),
                ("completed", Json::Num(s.completed as f64)),
                ("total_p50", Json::Num(s.latency.p50 as f64)),
                ("total_p95", Json::Num(s.latency.p95 as f64)),
                ("total_p99", Json::Num(s.latency.p99 as f64)),
            ]));
        }
        rows.push(Json::obj(vec![
            ("tenants", Json::Str(c.tenants.to_string())),
            ("policy", Json::Str(c.policy.label().to_string())),
            ("admitted", Json::Num(r.admitted() as f64)),
            ("shed", Json::Num(r.shed() as f64)),
            ("deferred", Json::Num(r.deferred() as f64)),
            ("completed", Json::Num(r.completed() as f64)),
            ("cycles", Json::Num(r.serve.cycles as f64)),
            ("fairness_ratio", Json::Num(r.fairness_ratio())),
            (
                "throughput_req_per_kcycle",
                Json::Num(r.serve.throughput_req_per_kcycle()),
            ),
            ("wall_ms", Json::Num(c.wall_ms)),
            (
                "throughput_req_per_sec",
                Json::Num(r.completed() as f64 / (c.wall_ms / 1e3)),
            ),
        ]));
    }
    let mut doc = Json::obj(vec![
        ("schema", Json::Str("rtm-bench-front/v1".to_string())),
        ("threads", Json::Num(threads as f64)),
        ("quick", Json::Bool(quick)),
        (
            "ladder",
            Json::Arr(LADDER.iter().map(|&t| Json::Num(t as f64)).collect()),
        ),
        ("rows", Json::Arr(rows)),
    ]);
    rtm_bench::stamp::stamp(&mut doc);
    if let Err(e) = rtm_obs::export::write_json(&out, &doc) {
        eprintln!("error: cannot write {}: {e}", out.display());
        std::process::exit(2);
    }
    eprintln!("wrote {}", out.display());
}
