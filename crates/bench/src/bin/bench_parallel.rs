//! Single- vs multi-thread determinism gate for the two hot paths the
//! `rtm-par` pool serves: the Fig. 4 Monte-Carlo and the Fig. 14
//! variant sweep. Emits a machine-readable `BENCH_parallel.json` of
//! their model outputs and verifies that the multi-thread run
//! reproduced the single-thread output bit for bit. Host time of the
//! sweep is perfbench's `sweep` workload.
//!
//! ```text
//! cargo run --release -p rtm-bench --bin bench-parallel
//! cargo run --release -p rtm-bench --bin bench-parallel -- \
//!     --quick --threads 4 --out BENCH_parallel.json
//! ```
//!
//! Exits non-zero if any multi-thread output differs from the
//! single-thread baseline, so CI can use it as a determinism gate.

use rtm_core::experiments::{RtVariant, SimSweep, SweepSettings};
use rtm_model::montecarlo::{position_pdf_with_threads, PositionPdf};
use rtm_model::params::DeviceParams;
use rtm_obs::json::Json;
use rtm_obs::Obs;

fn fig4_mc(trials: u64, seed: u64, threads: usize) -> Vec<PositionPdf> {
    let params = DeviceParams::table1();
    [1u32, 4, 7]
        .iter()
        .map(|&d| {
            position_pdf_with_threads(
                &params,
                d,
                trials,
                rtm_util::rng::derive_seed(seed, d as u64),
                threads,
                &Obs::default(),
            )
        })
        .collect()
}

fn main() {
    let mut quick = false;
    let mut out = std::path::PathBuf::from("BENCH_parallel.json");
    let mut threads = rtm_par::available_parallelism();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
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
                eprintln!("usage: bench-parallel [--quick] [--threads N] [--out file.json]");
                std::process::exit(2);
            }
        }
    }

    let mc_trials: u64 = if quick { 200_000 } else { 2_000_000 };
    let mut settings = if quick {
        let mut s = SweepSettings::quick();
        s.accesses = 60_000;
        s.workloads = None;
        s
    } else {
        SweepSettings::full()
    };
    settings.accesses = settings.accesses.min(500_000);

    let mut benches = Vec::new();
    let mut all_identical = true;
    // The extra fields are deterministic model outputs: `obs-tool
    // compare` gates them against the committed `BENCH_parallel.json`
    // baseline.
    let mut record = |name: &str, identical: bool, extra: Vec<(&str, Json)>| {
        eprintln!(
            "{name}: 1 vs {threads} threads, outputs {}",
            if identical { "identical" } else { "DIFFER" }
        );
        all_identical &= identical;
        let mut fields = vec![
            ("name", Json::Str(name.to_string())),
            ("identical_output", Json::Bool(identical)),
        ];
        fields.extend(extra);
        benches.push(Json::obj(fields));
    };

    eprintln!("fig4 Monte-Carlo ({mc_trials} trials x 3 panels)...");
    let base = fig4_mc(mc_trials, 2015, 1);
    let alt = fig4_mc(mc_trials, 2015, threads);
    let success_sum: f64 = base.iter().map(PositionPdf::success_probability).sum();
    record(
        "fig4_montecarlo",
        base == alt,
        vec![("success_probability_sum", Json::Num(success_sum))],
    );

    eprintln!(
        "fig14 variant sweep ({} workloads x {} variants x {} accesses)...",
        settings.profiles().len(),
        RtVariant::ALL.len(),
        settings.accesses
    );
    let base = SimSweep::run_variants_with_threads(&settings, &RtVariant::ALL, 1);
    let alt = SimSweep::run_variants_with_threads(&settings, &RtVariant::ALL, threads);
    let cells: f64 = base.by_variant.values().map(|m| m.len() as f64).sum();
    let cycles: f64 = base
        .by_variant
        .values()
        .flat_map(|m| m.values())
        .map(|r| r.cycles as f64)
        .sum();
    let shift_cycles: f64 = base
        .by_variant
        .values()
        .flat_map(|m| m.values())
        .map(|r| r.shift_cycles as f64)
        .sum();
    record(
        "fig14_sweep",
        base.by_variant == alt.by_variant,
        vec![
            ("cells", Json::Num(cells)),
            ("total_cycles", Json::Num(cycles)),
            ("total_shift_cycles", Json::Num(shift_cycles)),
        ],
    );

    // The determinism gate runs before the artefact is written, so a
    // failing run can never leave a fresh baseline behind.
    if !all_identical {
        eprintln!("DETERMINISM REGRESSION: multi-thread output differs");
        std::process::exit(1);
    }

    let mut doc = Json::obj(vec![
        ("schema", Json::Str("rtm-bench-parallel/v1".to_string())),
        ("threads", Json::Num(threads as f64)),
        ("quick", Json::Bool(quick)),
        ("mc_trials", Json::Num(mc_trials as f64)),
        ("sweep_accesses", Json::Num(settings.accesses as f64)),
        ("benches", Json::Arr(benches)),
    ]);
    rtm_bench::stamp::stamp(&mut doc);
    if let Err(e) = rtm_obs::export::write_json(&out, &doc) {
        eprintln!("error: cannot write {}: {e}", out.display());
        std::process::exit(2);
    }
    eprintln!("wrote {}", out.display());
}
