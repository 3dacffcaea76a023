//! Host-time benchmark of the hifi-rtm pipelines.
//!
//! ```text
//! perfbench --workload <sweep|closed|open|lanes> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats the workload for `--seconds`, checks every
//! iteration's model output and prints the end-to-end metrics.
//! `--trace 1` repeats a pass for `--seconds` that runs the workload
//! untraced and traced and checks that both give the same outputs; it
//! prints each per-layer metric's median over the passes. Every run
//! writes its span tree to `perfbench/out/`. The last stdout line is the
//! result object; the line before it holds diagnostics. See `README.md`.

mod ledger;
mod replay;
mod report;
mod workloads;
mod wrap;

use std::process::ExitCode;
use std::time::Instant;

use ledger::TimerCost;
use report::{host_probe_mem_ns, host_probe_ms, median, Report};

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds {seconds}: expected a non-negative number"
        ));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The measured phase's time budget: iterations continue until it is
/// spent, with at least two so every run checks determinism.
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    pub fn new(seconds: f64) -> Self {
        Self {
            start: Instant::now(),
            seconds,
        }
    }

    pub fn more(&self, done: usize) -> bool {
        done < 2 || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Per-iteration readings of an untraced run, reduced to the
/// end-to-end metrics.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    pub ops_per_s: Vec<f64>,
    pub sim_cycles: u64,
    pub sim_p99_cycles: u64,
}

impl EndToEnd {
    pub fn emit(&self, report: &mut Report) {
        report.metric("ops_per_s", median(&self.ops_per_s), "1/s");
        report.metric("setup_s", median(&self.setup_s), "s");
        let rss = rtm_util::sys::peak_rss_bytes().unwrap_or(0);
        report.metric("peak_rss_mb", rss as f64 / (1u64 << 20) as f64, "MB");
        report.metric("sim_cycles", self.sim_cycles as f64, "cycles");
        report.metric("sim_p99_cycles", self.sim_p99_cycles as f64, "cycles");
        report.diagnostic("iterations", self.ops_per_s.len().to_string());
        report.diagnostic("ops_per_s_each", format!("{:?}", self.ops_per_s));
        report.diagnostic("setup_s_each", format!("{:?}", self.setup_s));
    }
}

/// Per-layer metrics of a traced run. A layer a workload never calls
/// reads 0 (zero calls); README.md lists which layers each workload
/// exercises.
#[derive(Debug, Default)]
pub struct Layers {
    pub trace_next_ns: f64,
    pub trace_calls: u64,
    pub front_arrival_ns: f64,
    pub front_door_ns: f64,
    pub front_polls: u64,
    pub front_admit_ratio: f64,
    pub front_deferred: u64,
    pub front_wire_encode_ns: f64,
    pub front_wire_decode_ns: f64,
    pub front_wire_bytes_per_frame: f64,
    pub serve_loop_self_ns: f64,
    pub serve_peak_queued: u64,
    pub serve_backpressure_stalls: u64,
    pub serve_lane_ns: f64,
    pub mem_hier_self_ns: f64,
    pub mem_llc_ns: f64,
    pub mem_llc_calls: u64,
    pub mem_llc_hit_ratio: f64,
    pub mem_llc_zero_shift_ratio: f64,
    pub controller_plan_ns: f64,
    pub controller_plans: u64,
    pub controller_ops_per_plan: f64,
    pub model_sample_ns: f64,
    pub model_sampled_shifts: u64,
    pub par_cell_ms_p50: f64,
    pub par_straggler_ratio: f64,
    pub par_spsc_ns: f64,
    pub timer_ns: f64,
    pub trace_overhead_frac: f64,
    pub residual_frac: f64,
}

impl Layers {
    /// Every per-layer metric as (name, value, unit).
    fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        let n = |v: u64| v as f64;
        vec![
            ("trace.next_ns", self.trace_next_ns, "ns"),
            ("trace.calls", n(self.trace_calls), "count"),
            ("front.arrival_ns", self.front_arrival_ns, "ns"),
            ("front.door_ns", self.front_door_ns, "ns"),
            ("front.polls", n(self.front_polls), "count"),
            ("front.admit_ratio", self.front_admit_ratio, "ratio"),
            ("front.deferred", n(self.front_deferred), "count"),
            ("front.wire_encode_ns", self.front_wire_encode_ns, "ns"),
            ("front.wire_decode_ns", self.front_wire_decode_ns, "ns"),
            (
                "front.wire_bytes_per_frame",
                self.front_wire_bytes_per_frame,
                "B/frame",
            ),
            ("serve.loop_self_ns", self.serve_loop_self_ns, "ns"),
            ("serve.peak_queued", n(self.serve_peak_queued), "count"),
            (
                "serve.backpressure_stalls",
                n(self.serve_backpressure_stalls),
                "count",
            ),
            ("serve.lane_ns", self.serve_lane_ns, "ns"),
            ("mem.hier_self_ns", self.mem_hier_self_ns, "ns"),
            ("mem.llc_ns", self.mem_llc_ns, "ns"),
            ("mem.llc_calls", n(self.mem_llc_calls), "count"),
            ("mem.llc_hit_ratio", self.mem_llc_hit_ratio, "ratio"),
            (
                "mem.llc_zero_shift_ratio",
                self.mem_llc_zero_shift_ratio,
                "ratio",
            ),
            ("controller.plan_ns", self.controller_plan_ns, "ns"),
            ("controller.plans", n(self.controller_plans), "count"),
            (
                "controller.ops_per_plan",
                self.controller_ops_per_plan,
                "ratio",
            ),
            ("model.sample_ns", self.model_sample_ns, "ns"),
            (
                "model.sampled_shifts",
                n(self.model_sampled_shifts),
                "count",
            ),
            ("par.cell_ms_p50", self.par_cell_ms_p50, "ms"),
            ("par.straggler_ratio", self.par_straggler_ratio, "ratio"),
            ("par.spsc_ns", self.par_spsc_ns, "ns"),
            ("timer_ns", self.timer_ns, "ns"),
            ("trace_overhead_frac", self.trace_overhead_frac, "ratio"),
            ("residual_frac", self.residual_frac, "ratio"),
        ]
    }

    /// Reports, per metric, the median over a run's traced passes.
    pub fn emit_median(passes: &[Layers], report: &mut Report) {
        let rows: Vec<_> = passes.iter().map(Layers::rows).collect();
        for (i, &(name, _, unit)) in rows[0].iter().enumerate() {
            let values: Vec<f64> = rows.iter().map(|r| r[i].1).collect();
            report.metric(name, median(&values), unit);
        }
        report.diagnostic("passes", passes.len().to_string());
    }
}

/// Calibrates the timer and records it in the layer metrics.
pub fn timer(layers: &mut Layers, report: &mut Report) -> TimerCost {
    let t = TimerCost::calibrate();
    layers.timer_ns = t.pair_ns;
    report.diagnostic("timer_bias_ns", t.bias_ns.to_string());
    t
}

/// Share of `traced_s` over `untraced_s` that tracing added.
pub fn overhead(traced_s: f64, untraced_s: f64) -> f64 {
    (traced_s - untraced_s) / untraced_s
}

/// Share of the traced wall that no layer accounts for.
pub fn residual(traced_ns: f64, attributed_ns: f64) -> f64 {
    (traced_ns - attributed_ns) / traced_ns
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new(&args.workload, args.seed);
    report.diagnostic("host_probe_ms", host_probe_ms().to_string());
    report.diagnostic(
        "threads_available",
        std::thread::available_parallelism()
            .map_or(0, |n| n.get())
            .to_string(),
    );
    let root = report.spans.open(&args.workload, None);
    let ran = workloads::run(&args, &mut report, root);
    report.spans.close(root);
    if let Err(e) = ran {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!(
        "spans-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, report.spans.to_json()))
    {
        Ok(()) => report.diagnostic("spans", format!("\"{}\"", path.display())),
        Err(e) => report.check(false, &format!("writing {}: {e}", path.display())),
    }
    // After the metrics, so its table does not count in `peak_rss_mb`.
    report.diagnostic("host_probe_mem_ns", host_probe_mem_ns().to_string());
    println!("{}", report.diagnostics_json());
    println!("{}", report.result_json());
    // A failed check is reported through `correct` and `failed`; the
    // exit code only says whether a result was produced.
    ExitCode::SUCCESS
}
