//! `closed`: the closed-loop event loop — `ServeSim::run`, shift-aware
//! policy, four clients with eight outstanding requests each over the
//! four-tenant `canneal` mix. Queues stay shallow, so the scheduler's
//! per-event cost is paid at small depth.

use std::time::Instant;

use rtm_serve::{SchedPolicy, ServeConfig, ServeResult, ServeSim};

use super::canneal_mix;
use crate::ledger::batch_per_call;
use crate::replay;
use crate::report::{digest, Report};
use crate::wrap::LoggedSource;
use crate::{overhead, residual, timer, Args, Budget, EndToEnd, Layers};

/// Requests served per iteration.
const REQUESTS: u64 = 200_000;

fn config() -> ServeConfig {
    ServeConfig::new(SchedPolicy::ShiftAware).with_requests(REQUESTS)
}

/// Every request completed, and the output equals the first
/// iteration's and the stored reference.
fn check(report: &mut Report, r: &ServeResult, first: Option<&ServeResult>) -> bool {
    let shaped =
        r.requests == REQUESTS && r.total.count == REQUESTS && r.queue_delay.count == REQUESTS;
    shaped && first.is_none_or(|f| f == r) && report.matches_reference(digest(r))
}

pub fn untraced(args: &Args, report: &mut Report, root: usize) {
    let mut e2e = EndToEnd::default();
    let mut first: Option<ServeResult> = None;
    let budget = Budget::new(args.seconds);
    let mut i = 0;
    while budget.more(i) {
        let span = report.spans.open(&format!("iteration {i}"), Some(root));
        let t = Instant::now();
        let sim = ServeSim::new(config());
        let mut source = canneal_mix(args.seed);
        e2e.setup_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let r = sim.run(&mut source);
        let wall = t.elapsed().as_secs_f64();
        report.spans.close(span);
        let ok = check(report, &r, first.as_ref());
        report.ops(REQUESTS, ok, "closed-loop output check");
        e2e.ops_per_s.push(r.requests as f64 / wall);
        first.get_or_insert(r);
        i += 1;
    }
    if let Some(r) = &first {
        e2e.sim_cycles = r.cycles;
        e2e.sim_p99_cycles = r.total.p99;
        report.diagnostic("digest", format!("\"{:016x}\"", digest(r)));
        report.diagnostic("peak_queued", r.peak_queued.to_string());
    }
    e2e.emit(report);
}

pub fn traced(args: &Args, report: &mut Report, root: usize) -> Layers {
    let cfg = config();
    let mut layers = Layers::default();
    let timer = timer(&mut layers, report);

    let span = report.spans.open("untraced run", Some(root));
    let t = Instant::now();
    let reference = ServeSim::new(cfg).run(&mut canneal_mix(args.seed));
    let untraced_s = t.elapsed().as_secs_f64();
    report.spans.close(span);
    let ok = check(report, &reference, None);
    report.ops(REQUESTS, ok, "closed-loop output check");

    // Traced: the generator behind a RequestSource that times each
    // callback of the event loop.
    let span = report.spans.open("traced run", Some(root));
    let mut source = LoggedSource::new(canneal_mix(args.seed));
    let sim = ServeSim::new(cfg);
    let t = Instant::now();
    let r = sim.run_source(&mut source);
    let traced_ns = t.elapsed().as_nanos() as f64;
    report.spans.call_site(
        span,
        "rtm-trace MixedTraceGenerator::next (poll)",
        &source.poll,
    );
    report
        .spans
        .call_site(span, "rtm-serve RequestSource::admitted", &source.admitted);
    report.spans.call_site(
        span,
        "rtm-serve RequestSource::completed",
        &source.completed,
    );
    report.spans.close(span);
    report.ops(REQUESTS, r == reference, "traced run differs from untraced");

    // The loop's LLC calls and the controller's plans, replayed.
    let span = report.spans.open("isolated replays", Some(root));
    let llc = replay::llc_of_dispatches(&cfg, &source.log);
    let plan = replay::plans(
        cfg.protection,
        cfg.shift_policy,
        cfg.banks,
        &llc.shifts,
        false,
    );
    report
        .spans
        .call_site(span, "rtm-mem RacetrackLlc::access (replay)", &llc.busy);
    report
        .spans
        .call_site(span, "rtm-controller plan_shift (replay)", &plan.busy);
    report.spans.close(span);
    report.check(
        llc.mismatches == 0 && llc.stats == r.llc,
        "LLC replay differs from the event loop's LLC",
    );
    report.check(
        plan.ops == r.llc.shift_ops && plan.steps == r.llc.shift_steps,
        "controller replay differs from the event loop's LLC",
    );

    let callbacks = [&source.poll, &source.admitted, &source.completed];
    let callbacks_wall: f64 = callbacks.iter().map(|b| b.wall_ns(&timer)).sum();
    let callbacks_net: f64 = callbacks.iter().map(|b| b.net_ns(&timer)).sum();
    let loop_self_ns = traced_ns - callbacks_wall - llc.busy.net_ns(&timer);
    layers.trace_next_ns = source.poll.per_call(&timer);
    layers.trace_calls = source.poll.calls;
    layers.serve_loop_self_ns = loop_self_ns / r.requests as f64;
    layers.serve_peak_queued = r.peak_queued as u64;
    layers.serve_backpressure_stalls = r.backpressure_stalls;
    layers.mem_llc_ns = llc.busy.per_call(&timer);
    layers.mem_llc_calls = llc.busy.calls;
    let cache = r.llc.cache;
    layers.mem_llc_hit_ratio = cache.hits as f64 / (cache.hits + cache.misses) as f64;
    layers.mem_llc_zero_shift_ratio = r.llc.zero_shift_accesses as f64 / llc.busy.calls as f64;
    layers.controller_plan_ns = batch_per_call(&plan.busy);
    layers.controller_plans = plan.busy.calls;
    layers.controller_ops_per_plan = plan.ops as f64 / plan.busy.calls as f64;
    layers.trace_overhead_frac = overhead(traced_ns * 1e-9, untraced_s);
    let attributed = callbacks_net + llc.busy.net_ns(&timer) + loop_self_ns;
    layers.residual_frac = residual(traced_ns, attributed);
    layers
}
