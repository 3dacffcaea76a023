//! `lanes`: the lock-free lane data path — `run_parallel` with one bank
//! worker plus the front-end thread, over a pre-generated trace of the
//! same four-tenant `canneal` mix as `closed`. The LLC is driven with
//! `access_fused` on batched per-bank shift streams; there is no event
//! loop, but there is the SPSC hand-off.

use std::thread;
use std::time::Instant;

use rtm_mem::cache::AccessKind;
use rtm_mem::llc::RacetrackLlc;
use rtm_par::spsc::{self, Recv};
use rtm_serve::{
    run_oracle, run_parallel, GroupRouter, ServeStats, ShiftCommand, ThroughputConfig,
};
use rtm_trace::MemAccess;

use super::canneal_mix;
use crate::ledger::{batch_per_call, Busy};
use crate::replay::{self, ShiftReq};
use crate::report::{digest, median, Report};
use crate::wrap::TimedIter;
use crate::{overhead, residual, timer, Args, Budget, EndToEnd, Layers};

/// Requests in the pre-generated trace.
const REQUESTS: usize = 1_000_000;

/// One bank worker, with rings deep enough for the whole trace so the
/// front end never yields on a full ring (as the wall-clock rows of
/// `bench-serve` run it).
fn config() -> ThroughputConfig {
    ThroughputConfig::new()
        .with_threads(1)
        .with_ring_capacity(REQUESTS.next_power_of_two())
}

/// Equal to the serial oracle (run outside the timed region), to the
/// first iteration and to the stored reference.
fn check(
    report: &mut Report,
    s: &ServeStats,
    oracle: &ServeStats,
    first: Option<&ServeStats>,
) -> bool {
    s.requests == REQUESTS as u64
        && s == oracle
        && first.is_none_or(|f| f == s)
        && report.matches_reference(digest(s))
}

pub fn untraced(args: &Args, report: &mut Report, root: usize) {
    let cfg = config();
    let mut e2e = EndToEnd::default();
    // Set-up: trace pre-generation, three times for a steady median.
    let span = report.spans.open("set-up", Some(root));
    let mut trace = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        trace = canneal_mix(args.seed).take_vec(REQUESTS);
        e2e.setup_s.push(t.elapsed().as_secs_f64());
    }
    report.spans.close(span);
    let span = report.spans.open("oracle", Some(root));
    let oracle = run_oracle(cfg, &trace);
    report.spans.close(span);

    let mut first: Option<ServeStats> = None;
    let budget = Budget::new(args.seconds);
    let mut i = 0;
    while budget.more(i) {
        let span = report.spans.open(&format!("iteration {i}"), Some(root));
        let t = Instant::now();
        let s = run_parallel(cfg, &trace);
        let wall = t.elapsed().as_secs_f64();
        report.spans.close(span);
        let ok = check(report, &s, &oracle, first.as_ref());
        report.ops(REQUESTS as u64, ok, "lane output check");
        e2e.ops_per_s.push(s.requests as f64 / wall);
        first.get_or_insert(s);
        i += 1;
    }
    e2e.sim_cycles = oracle.makespan_cycles;
    e2e.sim_p99_cycles = oracle.service.p99;
    report.diagnostic("digest", format!("\"{:016x}\"", digest(&oracle)));
    e2e.emit(report);
}

/// The front end's stream fusion: consecutive same-group requests on a
/// bank fuse, up to the batch limit.
struct Fuser {
    last_group: Vec<usize>,
    run: Vec<u32>,
    limit: u32,
}

impl Fuser {
    fn new(cfg: &ThroughputConfig) -> Self {
        Self {
            last_group: vec![usize::MAX; cfg.banks as usize],
            run: vec![0; cfg.banks as usize],
            limit: cfg.batch_limit,
        }
    }

    fn fused(&mut self, bank: usize, group: usize) -> bool {
        let fused = self.last_group[bank] == group && self.run[bank] < self.limit;
        if fused {
            self.run[bank] += 1;
        } else {
            self.last_group[bank] = group;
            self.run[bank] = 1;
        }
        fused
    }
}

/// Host ns per command through one SPSC ring between two threads.
fn spsc_ns(commands: &[ShiftCommand], capacity: usize) -> (f64, bool) {
    let (mut tx, mut rx) = spsc::ring::<ShiftCommand>(capacity);
    let t = Instant::now();
    let (n, x) = thread::scope(|s| {
        let consumer = s.spawn(move || {
            let (mut n, mut x) = (0usize, 0u64);
            loop {
                match rx.try_recv() {
                    Recv::Item(c) => {
                        n += 1;
                        x ^= c.addr;
                    }
                    Recv::Empty => thread::yield_now(),
                    Recv::Closed => return (n, x),
                }
            }
        });
        for &c in commands {
            let mut c = c;
            while let Err(back) = tx.push(c) {
                c = back;
                thread::yield_now();
            }
        }
        drop(tx);
        consumer.join().expect("ring consumer panicked")
    });
    let ns = t.elapsed().as_nanos() as f64 / commands.len() as f64;
    let want = commands.iter().fold(0, |x, c| x ^ c.addr);
    (ns, n == commands.len() && x == want)
}

pub fn traced(args: &Args, report: &mut Report, root: usize) -> Layers {
    let cfg = config();
    let banks = cfg.banks as usize;
    let mut layers = Layers::default();
    let timer = timer(&mut layers, report);

    let span = report.spans.open("traced set-up", Some(root));
    let mut gen = TimedIter::new(canneal_mix(args.seed));
    let trace: Vec<MemAccess> = (&mut gen).take(REQUESTS).collect();
    report
        .spans
        .call_site(span, "rtm-trace MixedTraceGenerator::next", &gen.busy);
    report.spans.close(span);

    let span = report.spans.open("oracle", Some(root));
    let t = Instant::now();
    let oracle = run_oracle(cfg, &trace);
    let oracle_s = t.elapsed().as_secs_f64();
    report.spans.close(span);
    let span = report.spans.open("untraced run", Some(root));
    let s = run_parallel(cfg, &trace);
    report.spans.close(span);
    let ok = check(report, &s, &oracle, None);
    report.ops(REQUESTS as u64, ok, "lane output check");

    // Traced replay of the lane semantics: route, fuse, and time each
    // access_fused at the bank's lane clock.
    let span = report.spans.open("traced lane replay", Some(root));
    let router = GroupRouter::paper(cfg.banks);
    let mut fuser = Fuser::new(&cfg);
    let mut llc = RacetrackLlc::with_banks(cfg.protection, cfg.shift_policy, cfg.banks);
    let mut clocks = vec![0u64; banks];
    let mut busy = Busy::default();
    let mut shifts = Vec::new();
    let mut commands = Vec::with_capacity(trace.len());
    let t = Instant::now();
    for a in &trace {
        let group = router.group_of(a.addr);
        let bank = group % banks;
        let fused = fuser.fused(bank, group);
        let kind = if a.is_write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let now = clocks[bank];
        let before = llc.head_position(group);
        let resp = busy.time(|| llc.access_fused(a.addr, kind, now, fused));
        let distance = u32::from(before.abs_diff(llc.head_position(group)));
        if distance > 0 {
            shifts.push(ShiftReq {
                distance,
                now,
                bank: bank as u32,
                fused,
            });
        }
        clocks[bank] += resp.latency_cycles;
        commands.push(ShiftCommand {
            addr: a.addr,
            write: a.is_write,
            fused,
        });
    }
    let traced_ns = t.elapsed().as_nanos() as f64;
    report
        .spans
        .call_site(span, "rtm-mem RacetrackLlc::access_fused", &busy);
    report.spans.close(span);
    let stats = rtm_mem::llc::LlcModel::stats(&llc);
    let (got, want) = (stats, oracle.llc);
    report.check(
        clocks == oracle.lane_cycles
            && got.cache == want.cache
            && got.shift_ops == want.shift_ops
            && got.shift_steps == want.shift_steps
            && got.shift_cycles == want.shift_cycles
            && got.zero_shift_accesses == want.zero_shift_accesses,
        "lane replay differs from the oracle",
    );

    let span = report.spans.open("isolated replays", Some(root));
    let plan = replay::plans(cfg.protection, cfg.shift_policy, cfg.banks, &shifts, false);
    report
        .spans
        .call_site(span, "rtm-controller plan_shift (replay)", &plan.busy);
    let mut spsc_runs = Vec::new();
    let mut spsc_ok = true;
    for _ in 0..3 {
        let (ns, ok) = spsc_ns(&commands, cfg.ring_capacity);
        spsc_runs.push(ns);
        spsc_ok &= ok;
    }
    report.spans.close(span);
    report.check(
        plan.ops == oracle.llc.shift_ops && plan.steps == oracle.llc.shift_steps,
        "controller replay differs from the oracle",
    );
    report.check(spsc_ok, "SPSC hand-off lost or reordered commands");

    layers.trace_next_ns = gen.busy.per_call(&timer);
    layers.trace_calls = gen.busy.calls;
    layers.serve_lane_ns = oracle_s * 1e9 / REQUESTS as f64;
    layers.mem_llc_ns = busy.per_call(&timer);
    layers.mem_llc_calls = busy.calls;
    let cache = oracle.llc.cache;
    layers.mem_llc_hit_ratio = cache.hits as f64 / (cache.hits + cache.misses) as f64;
    layers.mem_llc_zero_shift_ratio = oracle.zero_shift_dispatches as f64 / busy.calls as f64;
    layers.controller_plan_ns = batch_per_call(&plan.busy);
    layers.controller_plans = plan.busy.calls;
    layers.controller_ops_per_plan = plan.ops as f64 / plan.busy.calls as f64;
    layers.par_spsc_ns = median(&spsc_runs);
    layers.trace_overhead_frac = overhead(traced_ns * 1e-9, oracle_s);
    layers.residual_frac = residual(traced_ns, busy.net_ns(&timer));
    layers
}
