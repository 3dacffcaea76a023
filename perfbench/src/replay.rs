//! Isolated replays of a workload's own inputs, for the layers no public
//! trait or generic parameter reaches from inside a run: the event
//! loop's LLC calls, the shift controller and the fault sampler. Each
//! replay is checked against the run it came from, so its timing is of
//! exactly the work the run did.

use rtm_controller::controller::{ShiftController, ShiftPolicy};
use rtm_mem::cache::AccessKind;
use rtm_mem::llc::{LlcModel, LlcStats, RacetrackLlc};
use rtm_model::analytic::Engine;
use rtm_model::params::DeviceParams;
use rtm_pecc::layout::ProtectionKind;
use rtm_serve::{GroupRouter, ServeConfig};
use rtm_track::fault::{FaultModel, FaultModelChoice};

use crate::ledger::Busy;
use crate::wrap::DispatchLog;

/// One shift an LLC access needed: what the controller was asked to plan.
#[derive(Debug, Clone, Copy)]
pub struct ShiftReq {
    pub distance: u32,
    pub now: u64,
    pub bank: u32,
    /// A batched-stream continuation (lane path only).
    pub fused: bool,
}

/// The event loop's LLC calls, replayed on a fresh LLC.
#[derive(Debug)]
pub struct LlcReplay {
    pub busy: Busy,
    pub stats: LlcStats,
    pub shifts: Vec<ShiftReq>,
    /// Requests whose replayed service latency or hit differs from the
    /// completion the loop reported.
    pub mismatches: u64,
}

/// Rebuilds the sequence of LLC calls a `ServeSim` run made and replays
/// it, timing each call.
///
/// A request dispatches at `completion - fill - service`; the loop
/// dispatches at most once per bank per cycle and visits banks in
/// ascending order, so sorting by (dispatch cycle, bank) restores the
/// exact call order.
pub fn llc_of_dispatches(cfg: &ServeConfig, log: &DispatchLog) -> LlcReplay {
    let router = GroupRouter::paper(cfg.banks);
    let mut order: Vec<(u64, usize, usize)> = log
        .completions
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let addr = log.admitted[c.id as usize].addr;
            (c.cycle - c.fill - c.service, router.bank_of(addr), i)
        })
        .collect();
    order.sort_unstable();
    let mut llc = RacetrackLlc::with_banks(cfg.protection, cfg.shift_policy, cfg.banks);
    if let Some(bytes) = cfg.capacity_bytes {
        llc = llc.with_capacity(bytes);
    }
    let mut busy = Busy::default();
    let mut shifts = Vec::new();
    let mut mismatches = 0;
    for &(now, bank, i) in &order {
        let c = &log.completions[i];
        let a = log.admitted[c.id as usize];
        let kind = if a.is_write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let group = router.group_of(a.addr);
        let before = llc.head_position(group);
        let resp = busy.time(|| llc.access(a.addr, kind, now));
        let distance = u32::from(before.abs_diff(llc.head_position(group)));
        if distance > 0 {
            shifts.push(ShiftReq {
                distance,
                now,
                bank: bank as u32,
                fused: false,
            });
        }
        if resp.latency_cycles != c.service || resp.hit != (c.fill == 0) {
            mismatches += 1;
        }
    }
    LlcReplay {
        busy,
        stats: llc.stats(),
        shifts,
        mismatches,
    }
}

/// The controller's plans for a stream of shift requests.
#[derive(Debug)]
pub struct PlanReplay {
    /// One batch-timed region over every plan.
    pub busy: Busy,
    /// Sub-shifts planned (safe-distance splits included).
    pub ops: u64,
    pub steps: u64,
    pub shift_cycles: u64,
    /// Every planned sub-shift distance, in order (when asked for).
    pub sequence: Vec<u32>,
}

/// Replays `shifts` through fresh per-bank controllers. The timed pass
/// only plans; the sub-shift sequence, when `collect` asks for it, comes
/// from a second, untimed pass.
pub fn plans(
    kind: ProtectionKind,
    policy: ShiftPolicy,
    banks: u32,
    shifts: &[ShiftReq],
    collect: bool,
) -> PlanReplay {
    let fresh = || -> Vec<ShiftController> {
        (0..banks)
            .map(|_| ShiftController::new(kind, policy))
            .collect()
    };
    let plan = |ctrls: &mut [ShiftController], r: &ShiftReq| {
        let c = &mut ctrls[r.bank as usize];
        if r.fused {
            c.plan_shift_continuation(r.distance, r.now)
        } else {
            c.plan_shift(r.distance, r.now)
        }
    };
    let mut ctrls = fresh();
    let mut busy = Busy::default();
    let (ops, steps, shift_cycles) = busy.batch(shifts.len() as u64, || {
        let (mut ops, mut steps, mut cycles) = (0u64, 0u64, 0u64);
        for r in shifts {
            let p = plan(&mut ctrls, r);
            ops += p.sequence.len() as u64;
            steps += u64::from(p.distance());
            cycles += p.latency.count();
        }
        (ops, steps, cycles)
    });
    let mut sequence = Vec::new();
    if collect {
        let mut ctrls = fresh();
        for r in shifts {
            sequence.extend_from_slice(&plan(&mut ctrls, r).sequence);
        }
    }
    PlanReplay {
        busy,
        ops,
        steps,
        shift_cycles,
        sequence,
    }
}

/// The fault sampler's draws for a planned sub-shift sequence.
#[derive(Debug)]
pub struct SampleReplay {
    /// One batch-timed region over every draw.
    pub busy: Busy,
    pub errors: u64,
}

/// Replays one sampled outcome per sub-shift through the sweep's fault
/// model (engine process, analytic alias tables) seeded as the cell was.
pub fn samples(seed: u64, sequence: &[u32]) -> SampleReplay {
    let mut model = FaultModelChoice::Engine.build(Engine::Analytic, &DeviceParams::table1(), seed);
    let mut busy = Busy::default();
    let errors = busy.batch(sequence.len() as u64, || {
        sequence
            .iter()
            .filter(|&&d| !model.sample(d).is_success())
            .count() as u64
    });
    SampleReplay { busy, errors }
}
