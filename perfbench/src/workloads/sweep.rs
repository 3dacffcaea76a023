//! `sweep`: the paper-figure pipeline behind `repro`/`report` —
//! `SimSweep::run_variants_with_threads` over the 12 PARSEC profiles ×
//! 8 racetrack variants with analytic fault sampling, on two `rtm-par`
//! workers. It never touches `rtm-serve` or `rtm-front`.

use std::hint::black_box;
use std::time::Instant;

use rtm_core::experiments::{RtVariant, SimSweep, SweepSettings};
use rtm_mem::hierarchy::{Hierarchy, LlcChoice, SimResult};
use rtm_mem::llc::RacetrackLlc;
use rtm_model::analytic::Engine;
use rtm_trace::{TraceGenerator, WorkloadProfile};
use rtm_track::fault::FaultModelChoice;
use rtm_util::rng::derive_seed;

use crate::ledger::{batch_per_call, Busy};
use crate::replay;
use crate::report::{digest, median, percentile, Report};
use crate::wrap::{TimedIter, TimedLlc};
use crate::{overhead, residual, timer, Args, Budget, EndToEnd, Layers};

/// Accesses per cell.
const ACCESSES: u64 = 60_000;
const WORKERS: usize = 2;
const ENGINE: Engine = Engine::Analytic;
const FAULTS: FaultModelChoice = FaultModelChoice::Engine;

type Cell = (WorkloadProfile, RtVariant);

fn settings(seed: u64) -> SweepSettings {
    SweepSettings {
        accesses: ACCESSES,
        seed,
        workloads: None,
        sample_engine: Some(ENGINE),
        fault_model: FAULTS,
    }
}

/// The grid in the sweep's own order: profiles, then variants.
fn cells() -> Vec<Cell> {
    WorkloadProfile::parsec()
        .iter()
        .flat_map(|&p| RtVariant::ALL.iter().map(move |&v| (p, v)))
        .collect()
}

/// A cell's trace generator, seeded as `SimSweep` seeds it.
fn generator(seed: u64, p: WorkloadProfile) -> TraceGenerator {
    let name = p.name.bytes().fold(0u64, |acc, b| {
        acc.wrapping_mul(131).wrapping_add(u64::from(b))
    });
    TraceGenerator::new(p, derive_seed(seed, name))
}

/// A cell's fault-sampling seed, derived as `SimSweep` derives it.
fn sample_seed(seed: u64, cell: usize) -> u64 {
    derive_seed(seed, 0x5EED_0000 + cell as u64)
}

fn racetrack(seed: u64, cell: usize, v: RtVariant) -> RacetrackLlc {
    let (kind, policy) = v.parts();
    RacetrackLlc::new(kind, policy).with_fault_model(FAULTS, ENGINE, sample_seed(seed, cell))
}

fn simulator(seed: u64, cell: usize, v: RtVariant) -> Hierarchy {
    let (kind, policy) = v.parts();
    Hierarchy::with_racetrack_faults(kind, policy, FAULTS, ENGINE, sample_seed(seed, cell))
}

/// Runs the sweep through its public entry point; results in grid
/// order (`None` when a cell is missing) and the host seconds taken.
fn sweep(seed: u64, cells: &[Cell], workers: usize) -> (Option<Vec<SimResult>>, f64) {
    let t = Instant::now();
    let s = SimSweep::run_variants_with_threads(&settings(seed), &RtVariant::ALL, workers);
    let wall = t.elapsed().as_secs_f64();
    let results = cells
        .iter()
        .map(|(p, v)| s.by_variant.get(p.name)?.get(v.label()).cloned())
        .collect();
    (results, wall)
}

/// Output checks of one sweep: 96 cells that each ran every access,
/// equal to the first iteration and to the stored reference.
fn check(
    report: &mut Report,
    results: &Option<Vec<SimResult>>,
    first: Option<&Vec<SimResult>>,
) -> bool {
    let Some(rs) = results else {
        return false;
    };
    let shaped = rs.len() == 96 && rs.iter().all(|r| r.accesses == ACCESSES);
    let repeats = first.is_none_or(|f| f == rs);
    shaped && repeats && report.matches_reference(digest(rs))
}

pub fn untraced(args: &Args, report: &mut Report, root: usize) {
    let cells = &cells();
    let mut e2e = EndToEnd::default();
    let mut first: Option<Vec<SimResult>> = None;
    let budget = Budget::new(args.seconds);
    let mut i = 0;
    while budget.more(i) {
        let span = report.spans.open(&format!("iteration {i}"), Some(root));
        // Set-up: the simulator construction the sweep does per cell.
        let t = Instant::now();
        for (c, (p, v)) in cells.iter().enumerate() {
            black_box((simulator(args.seed, c, *v), generator(args.seed, *p)));
        }
        e2e.setup_s.push(t.elapsed().as_secs_f64());
        let (results, wall) = sweep(args.seed, cells, WORKERS);
        report.spans.close(span);
        let ok = check(report, &results, first.as_ref());
        report.ops(cells.len() as u64, ok, "sweep output check");
        e2e.ops_per_s
            .push((cells.len() as u64 * ACCESSES) as f64 / wall);
        if first.is_none() {
            first = results;
        }
        i += 1;
    }
    if let Some(rs) = &first {
        let cycles: Vec<u64> = rs.iter().map(|r| r.cycles).collect();
        e2e.sim_cycles = cycles.iter().sum();
        e2e.sim_p99_cycles = percentile(&cycles, 0.99);
        report.diagnostic("digest", format!("\"{:016x}\"", digest(rs)));
    }
    e2e.emit(report);
}

pub fn traced(args: &Args, report: &mut Report, root: usize) -> Layers {
    let cells = &cells();
    let seed = args.seed;
    let n = cells.len() as u64;
    let mut layers = Layers::default();
    let timer = timer(&mut layers, report);

    // The reference: the public entry point on two workers, then on one.
    let (reference, _) = sweep(seed, cells, WORKERS);
    let ok = check(report, &reference, None);
    report.ops(n, ok, "sweep output check");
    let Some(reference) = reference else {
        return Layers::default();
    };
    let (serial, serial_s) = sweep(seed, cells, 1);
    report.ops(
        n,
        serial.as_ref() == Some(&reference),
        "1-worker sweep differs from 2-worker",
    );

    // Per-cell host time on the sweep's two workers.
    let span = report.spans.open("cell timing", Some(root));
    let timed = rtm_par::parallel_map_with(WORKERS, cells.len(), |c| {
        let (p, v) = cells[c];
        let t = Instant::now();
        let r = simulator(seed, c, v).run(&mut generator(seed, p), ACCESSES);
        (r, t.elapsed().as_secs_f64() * 1e3)
    });
    report.spans.close(span);
    let same = timed.iter().zip(&reference).all(|((r, _), want)| r == want);
    report.ops(n, same, "per-cell replay differs from the sweep");
    let cell_ms: Vec<f64> = timed.iter().map(|&(_, ms)| ms).collect();
    let mean_ms = cell_ms.iter().sum::<f64>() / cell_ms.len() as f64;
    layers.par_cell_ms_p50 = median(&cell_ms);
    layers.par_straggler_ratio = cell_ms.iter().copied().fold(0.0, f64::max) / mean_ms;

    // Traced serial replay: generator, hierarchy and LLC calls timed
    // per call; controller and sampler replayed from what the LLC did.
    let (mut gen_all, mut hier_all, mut llc_all) =
        (Busy::default(), Busy::default(), Busy::default());
    let (mut plan_all, mut sample_all) = (Busy::default(), Busy::default());
    let (mut ops, mut sampled, mut hier_self_ns, mut traced_ns) = (0u64, 0u64, 0.0, 0.0);
    let mut faithful = true;
    for (c, (p, v)) in cells.iter().enumerate() {
        let span = report
            .spans
            .open(&format!("{} / {}", p.name, v.label()), Some(root));
        let (llc, tap) = TimedLlc::new(racetrack(seed, c, *v));
        let mut sys = Hierarchy::with_llc(Box::new(llc), LlcChoice::RacetrackUnprotected);
        let mut gen = TimedIter::new(generator(seed, *p));
        let mut hier = Busy::default();
        let t = Instant::now();
        for _ in 0..ACCESSES {
            let a = gen.next().expect("trace generators never end");
            hier.time(|| sys.access(&a));
        }
        let r = sys.result();
        traced_ns += t.elapsed().as_nanos() as f64;
        let tap = tap.borrow();
        let (kind, policy) = v.parts();
        let plan = replay::plans(kind, policy, 1, &tap.shifts, true);
        let draws = replay::samples(sample_seed(seed, c), &plan.sequence);
        report
            .spans
            .call_site(span, "rtm-trace TraceGenerator::next", &gen.busy);
        report
            .spans
            .call_site(span, "rtm-mem Hierarchy::access", &hier);
        report
            .spans
            .call_site(span, "rtm-mem RacetrackLlc::access", &tap.busy);
        report
            .spans
            .call_site(span, "rtm-controller plan_shift (replay)", &plan.busy);
        report
            .spans
            .call_site(span, "rtm-model sample (replay)", &draws.busy);
        report.spans.close(span);

        faithful &= r == reference[c]
            && plan.ops == r.llc.shift_ops
            && plan.steps == r.llc.shift_steps
            && plan.shift_cycles == r.llc.shift_cycles
            && plan.sequence.len() as u64 == r.llc.sampled_shifts
            && draws.errors == r.llc.observed_errors;
        hier_self_ns += hier.net_ns(&timer) - tap.busy.wall_ns(&timer);
        ops += plan.ops;
        sampled += plan.sequence.len() as u64;
        gen_all.absorb(&gen.busy);
        hier_all.absorb(&hier);
        llc_all.absorb(&tap.busy);
        plan_all.absorb(&plan.busy);
        sample_all.absorb(&draws.busy);
    }
    report.ops(n, faithful, "traced replay differs from the sweep");

    let llc_calls = llc_all.calls;
    let hits: u64 = reference.iter().map(|r| r.llc.cache.hits).sum();
    let zero_shift: u64 = reference.iter().map(|r| r.llc.zero_shift_accesses).sum();
    layers.trace_next_ns = gen_all.per_call(&timer);
    layers.trace_calls = gen_all.calls;
    layers.mem_hier_self_ns = hier_self_ns / hier_all.calls as f64;
    layers.mem_llc_ns = llc_all.per_call(&timer);
    layers.mem_llc_calls = llc_calls;
    layers.mem_llc_hit_ratio = hits as f64 / llc_calls as f64;
    layers.mem_llc_zero_shift_ratio = zero_shift as f64 / llc_calls as f64;
    layers.controller_plan_ns = batch_per_call(&plan_all);
    layers.controller_plans = plan_all.calls;
    layers.controller_ops_per_plan = ops as f64 / plan_all.calls as f64;
    layers.model_sample_ns = batch_per_call(&sample_all);
    layers.model_sampled_shifts = sampled;
    layers.trace_overhead_frac = overhead(traced_ns * 1e-9, serial_s);
    let attributed = gen_all.net_ns(&timer) + hier_self_ns + llc_all.net_ns(&timer);
    layers.residual_frac = residual(traced_ns, attributed);
    layers
}
