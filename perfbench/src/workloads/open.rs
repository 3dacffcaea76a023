//! `open`: the open-loop front door as `front-server` runs it — a
//! 1,000-tenant shift-aware `FrontConfig` recorded as frames (set-up),
//! then `proto::encode_all` → `proto::decode_all` → `serve_frames`
//! (measured). The admission window lets queues run deep (peak 1,024),
//! so any per-event cost that grows with queue depth dominates here.

use std::time::Instant;

use rtm_front::proto::{self, Frame};
use rtm_front::wire::{config_of_hello, hello_frame, response_frames};
use rtm_front::{record_frames, serve_frames, FrontArrival, FrontConfig, FrontDoor, FrontResult};
use rtm_serve::{SchedPolicy, ServeSim};

use crate::ledger::{batch_per_call, Busy};
use crate::replay;
use crate::report::{digest, Report};
use crate::wrap::{LoggedSource, TimedIter};
use crate::{overhead, residual, timer, Args, Budget, EndToEnd, Layers};

const TENANTS: u32 = 1_000;
const POLICY: SchedPolicy = SchedPolicy::ShiftAware;

fn config(seed: u64) -> FrontConfig {
    FrontConfig::new(TENANTS).with_seed(seed)
}

/// What the wire path answers: the run's result and its reply frames.
type Served = (FrontResult, Vec<Frame>);

/// The measured wire path; the host seconds it took.
fn wire(frames: &[Frame]) -> (Result<(Vec<Frame>, Served), String>, f64) {
    let t = Instant::now();
    let bytes = proto::encode_all(frames);
    let served = proto::decode_all(&bytes)
        .map_err(|e| e.to_string())
        .and_then(|decoded| {
            let served = serve_frames(&decoded, POLICY).map_err(|e| e.to_string())?;
            Ok((decoded, served))
        });
    (served, t.elapsed().as_secs_f64())
}

/// The wire round trip is lossless, every offered request was admitted
/// or shed, every admitted one completed and was answered, and the
/// output equals the first iteration's and the stored reference.
fn check(
    report: &mut Report,
    cfg: &FrontConfig,
    frames: &[Frame],
    decoded: &[Frame],
    served: &Served,
    first: Option<&Served>,
) -> bool {
    let (r, _) = served;
    let answered = r.responses.as_ref().map_or(0, Vec::len) as u64;
    let invariants = decoded == frames
        && r.admitted() + r.shed() == cfg.offered
        && r.completed() == r.admitted()
        && r.serve.requests == r.completed()
        && answered == cfg.offered;
    invariants && first.is_none_or(|f| f == served) && report.matches_reference(digest(served))
}

pub fn untraced(args: &Args, report: &mut Report, root: usize) {
    let cfg = config(args.seed);
    let mut e2e = EndToEnd::default();
    let mut first: Option<Served> = None;
    let budget = Budget::new(args.seconds);
    let mut i = 0;
    while budget.more(i) {
        let span = report.spans.open(&format!("iteration {i}"), Some(root));
        let t = Instant::now();
        let frames = record_frames(&cfg);
        e2e.setup_s.push(t.elapsed().as_secs_f64());
        let (out, wall) = wire(&frames);
        report.spans.close(span);
        match out {
            Ok((decoded, served)) => {
                let ok = check(report, &cfg, &frames, &decoded, &served, first.as_ref());
                report.ops(cfg.offered, ok, "front-door output check");
                e2e.ops_per_s.push(served.0.completed() as f64 / wall);
                first.get_or_insert(served);
            }
            Err(e) => report.ops(cfg.offered, false, &format!("wire path failed: {e}")),
        }
        i += 1;
    }
    let Some((r, resp)) = &first else { return };
    e2e.sim_cycles = r.serve.cycles;
    e2e.sim_p99_cycles = r.serve.total.p99;
    report.diagnostic("digest", format!("\"{:016x}\"", digest(&(r, resp))));
    report.diagnostic("peak_queued", r.serve.peak_queued.to_string());
    e2e.emit(report);
}

/// Re-records the frames of `record_frames` from an arrival iterator,
/// so the arrival generator can be timed.
fn record(cfg: &FrontConfig, arrivals: impl Iterator<Item = FrontArrival>) -> Vec<Frame> {
    let mut frames = vec![hello_frame(cfg)];
    let mut prev = 0;
    for a in arrivals {
        frames.push(Frame::Request {
            tenant: a.tenant,
            class: a.class,
            addr: a.addr,
            is_write: a.is_write,
            gap: (a.cycle - prev) as u32,
        });
        prev = a.cycle;
    }
    frames.push(Frame::Fin);
    frames
}

/// Decoded request frames as arrivals: the inverse of the gap encoding,
/// as `serve_frames` replays them.
struct Replay<'a> {
    frames: std::slice::Iter<'a, Frame>,
    cycle: u64,
    seq: u64,
}

impl Iterator for Replay<'_> {
    type Item = FrontArrival;

    fn next(&mut self) -> Option<FrontArrival> {
        loop {
            if let Frame::Request {
                tenant,
                class,
                addr,
                is_write,
                gap,
            } = self.frames.next()?
            {
                self.cycle += u64::from(*gap);
                self.seq += 1;
                return Some(FrontArrival {
                    cycle: self.cycle,
                    seq: self.seq - 1,
                    tenant: *tenant,
                    class: *class,
                    addr: *addr,
                    is_write: *is_write,
                });
            }
        }
    }
}

pub fn traced(args: &Args, report: &mut Report, root: usize) -> Layers {
    let cfg = config(args.seed);
    let mut layers = Layers::default();
    let timer = timer(&mut layers, report);

    let span = report.spans.open("untraced run", Some(root));
    let frames = record_frames(&cfg);
    let (out, untraced_s) = wire(&frames);
    report.spans.close(span);
    let reference = match out {
        Ok((decoded, served)) => {
            let ok = check(report, &cfg, &frames, &decoded, &served, None);
            report.ops(cfg.offered, ok, "front-door output check");
            served
        }
        Err(e) => {
            report.ops(cfg.offered, false, &format!("wire path failed: {e}"));
            return Layers::default();
        }
    };

    // Arrival generation (set-up), timed per arrival.
    let span = report.spans.open("traced recording", Some(root));
    let mut arrivals = TimedIter::new(cfg.arrivals());
    let recorded = record(&cfg, &mut arrivals);
    report
        .spans
        .call_site(span, "rtm-front SessionArrivals::next", &arrivals.busy);
    report.spans.close(span);
    report.check(
        recorded == frames,
        "re-recorded frames differ from record_frames",
    );

    // Traced wire path: codec batch-timed, the door behind a timing
    // RequestSource.
    let span = report.spans.open("traced run", Some(root));
    let traced_start = Instant::now();
    let (mut encode, mut decode) = (Busy::default(), Busy::default());
    let n_frames = frames.len() as u64;
    let bytes = encode.batch(n_frames, || proto::encode_all(&frames));
    let decoded = match decode.batch(n_frames, || proto::decode_all(&bytes)) {
        Ok(d) => d,
        Err(e) => {
            report.ops(cfg.offered, false, &format!("decode failed: {e}"));
            return Layers::default();
        }
    };
    let Ok(served_cfg) = config_of_hello(&decoded[0]) else {
        report.ops(cfg.offered, false, "decoded hello rejected");
        return Layers::default();
    };
    let replay_arrivals = Replay {
        frames: decoded[1..].iter(),
        cycle: 0,
        seq: 0,
    };
    let door = FrontDoor::over(
        replay_arrivals,
        served_cfg.table(),
        served_cfg.window,
        served_cfg.conn_clients,
    )
    .log_responses();
    let mut source = LoggedSource::new(door);
    let serve_cfg = served_cfg.serve_config(POLICY);
    let t = Instant::now();
    let serve = ServeSim::new(serve_cfg).run_source(&mut source);
    let loop_ns = t.elapsed().as_nanos() as f64;
    let log = std::mem::take(&mut source.log);
    let (poll, admitted, completed) = (source.poll, source.admitted, source.completed);
    let result = source.inner.finish(serve);
    let response = response_frames(&result);
    let traced_ns = traced_start.elapsed().as_nanos() as f64;
    report
        .spans
        .call_site(span, "rtm-front encode_all", &encode);
    report
        .spans
        .call_site(span, "rtm-front decode_all", &decode);
    report
        .spans
        .call_site(span, "rtm-front FrontDoor::poll", &poll);
    report
        .spans
        .call_site(span, "rtm-front FrontDoor::admitted", &admitted);
    report
        .spans
        .call_site(span, "rtm-front FrontDoor::completed", &completed);
    report.spans.close(span);
    let traced = (result, response);
    report.ops(
        cfg.offered,
        traced == reference,
        "traced front-door run differs from serve_frames",
    );
    let r = &traced.0;

    let span = report.spans.open("isolated replays", Some(root));
    let llc = replay::llc_of_dispatches(&serve_cfg, &log);
    let plan = replay::plans(
        serve_cfg.protection,
        serve_cfg.shift_policy,
        serve_cfg.banks,
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
        llc.mismatches == 0 && llc.stats == r.serve.llc,
        "LLC replay differs from the event loop's LLC",
    );
    report.check(
        plan.ops == r.serve.llc.shift_ops && plan.steps == r.serve.llc.shift_steps,
        "controller replay differs from the event loop's LLC",
    );

    let door_wall = poll.wall_ns(&timer) + admitted.wall_ns(&timer) + completed.wall_ns(&timer);
    let door_net = poll.net_ns(&timer) + admitted.net_ns(&timer) + completed.net_ns(&timer);
    let loop_self_ns = loop_ns - door_wall - llc.busy.net_ns(&timer);
    let offered = cfg.offered as f64;
    layers.front_arrival_ns = arrivals.busy.per_call(&timer);
    layers.front_door_ns = door_net / offered;
    layers.front_polls = poll.calls;
    layers.front_admit_ratio = r.admitted() as f64 / offered;
    layers.front_deferred = r.deferred();
    layers.front_wire_encode_ns = batch_per_call(&encode);
    layers.front_wire_decode_ns = batch_per_call(&decode);
    layers.front_wire_bytes_per_frame = bytes.len() as f64 / n_frames as f64;
    layers.serve_loop_self_ns = loop_self_ns / r.completed() as f64;
    layers.serve_peak_queued = r.serve.peak_queued as u64;
    layers.serve_backpressure_stalls = r.serve.backpressure_stalls;
    layers.mem_llc_ns = llc.busy.per_call(&timer);
    layers.mem_llc_calls = llc.busy.calls;
    let cache = r.serve.llc.cache;
    layers.mem_llc_hit_ratio = cache.hits as f64 / (cache.hits + cache.misses) as f64;
    layers.mem_llc_zero_shift_ratio =
        r.serve.llc.zero_shift_accesses as f64 / llc.busy.calls as f64;
    layers.controller_plan_ns = batch_per_call(&plan.busy);
    layers.controller_plans = plan.busy.calls;
    layers.controller_ops_per_plan = plan.ops as f64 / plan.busy.calls as f64;
    layers.trace_overhead_frac = overhead(traced_ns * 1e-9, untraced_s);
    let attributed = encode.raw_ns as f64
        + decode.raw_ns as f64
        + door_net
        + llc.busy.net_ns(&timer)
        + loop_self_ns;
    layers.residual_frac = residual(traced_ns, attributed);
    layers
}
