//! Golden-output tests for the serving event loop.
//!
//! Runs [`ServeSim`] over every scheduling policy × banks {1, 8} ×
//! starvation bound {0, 1, 4, `u32::MAX`} × two drives, and compares an
//! FNV-1a digest of each run's `Debug`-printed [`ServeResult`] plus the
//! sequence of [`RequestSource::completed`] callbacks against the table
//! below. The table pins the exact schedule: any change to selection,
//! starvation aging or completion order moves a digest.
//!
//! - **paced**: the default contended configuration (4 clients × 8
//!   outstanding, queue depth 8, think times honoured) over a 4×`canneal`
//!   set-aliased mix.
//! - **deep**: a saturating drive of 64 clients × 64 outstanding with
//!   queue depth 16 over a 64-tenant set-aliased mix, so up to 172 requests
//!   queue at once (all of them on one bank when `banks` is 1) and the
//!   starvation bound fires often.
//!
//! Re-record only for a change that is meant to alter the schedule: the
//! failure message prints the whole table as it now stands.
//!
//! A second test pins the order in which completions due at the same
//! cycle reach the source: dispatch order.

use rtm_serve::{Completion, RequestSource, SchedPolicy, ServeConfig, ServeSim, SourcePoll};
use rtm_trace::{MemAccess, MixedTraceGenerator, TraceGenerator, WorkloadProfile};

const GOLDEN: [(&str, &str); 48] = [
    ("fcfs/b1/s0/paced", "ec288f9bfd0a7a46"),
    ("fcfs/b1/s0/deep", "1c419e696e04f307"),
    ("fcfs/b1/s1/paced", "ec288f9bfd0a7a46"),
    ("fcfs/b1/s1/deep", "1c419e696e04f307"),
    ("fcfs/b1/s4/paced", "ec288f9bfd0a7a46"),
    ("fcfs/b1/s4/deep", "1c419e696e04f307"),
    ("fcfs/b1/smax/paced", "ec288f9bfd0a7a46"),
    ("fcfs/b1/smax/deep", "1c419e696e04f307"),
    ("fcfs/b8/s0/paced", "5b026e24d20f7718"),
    ("fcfs/b8/s0/deep", "7e2309e3e121f34b"),
    ("fcfs/b8/s1/paced", "5b026e24d20f7718"),
    ("fcfs/b8/s1/deep", "7e2309e3e121f34b"),
    ("fcfs/b8/s4/paced", "5b026e24d20f7718"),
    ("fcfs/b8/s4/deep", "7e2309e3e121f34b"),
    ("fcfs/b8/smax/paced", "5b026e24d20f7718"),
    ("fcfs/b8/smax/deep", "7e2309e3e121f34b"),
    ("fr-fcfs/b1/s0/paced", "ac6e42186233e052"),
    ("fr-fcfs/b1/s0/deep", "ab0ec332446b0ebf"),
    ("fr-fcfs/b1/s1/paced", "4b1ab87b02970e92"),
    ("fr-fcfs/b1/s1/deep", "a2665f86942f3e47"),
    ("fr-fcfs/b1/s4/paced", "9d3268f2b4c7f48a"),
    ("fr-fcfs/b1/s4/deep", "d257d58b192076b6"),
    ("fr-fcfs/b1/smax/paced", "eef9eb44d332011b"),
    ("fr-fcfs/b1/smax/deep", "546a03abe5b7c1d9"),
    ("fr-fcfs/b8/s0/paced", "672746a067a4de34"),
    ("fr-fcfs/b8/s0/deep", "7028fc5e0a28ad0b"),
    ("fr-fcfs/b8/s1/paced", "4780a63beb92bd48"),
    ("fr-fcfs/b8/s1/deep", "b3f940d5342ec494"),
    ("fr-fcfs/b8/s4/paced", "f6cfaeb4a636009e"),
    ("fr-fcfs/b8/s4/deep", "d48ec4049d124e3e"),
    ("fr-fcfs/b8/smax/paced", "0938b699aac858ec"),
    ("fr-fcfs/b8/smax/deep", "f10e91598378583e"),
    ("shift-aware/b1/s0/paced", "b4b40b079e784cc8"),
    ("shift-aware/b1/s0/deep", "f8bd566d2f80a1d9"),
    ("shift-aware/b1/s1/paced", "dede7b6ce850b82e"),
    ("shift-aware/b1/s1/deep", "3fb558f79b5e0750"),
    ("shift-aware/b1/s4/paced", "8b9ff8c72d2c0a11"),
    ("shift-aware/b1/s4/deep", "c5738fba040c97d0"),
    ("shift-aware/b1/smax/paced", "053aa74c5aaa6b48"),
    ("shift-aware/b1/smax/deep", "c2008611e7be0be8"),
    ("shift-aware/b8/s0/paced", "c98ce7cdb90d106e"),
    ("shift-aware/b8/s0/deep", "aeaed5df4d101eed"),
    ("shift-aware/b8/s1/paced", "657ff0068462dad9"),
    ("shift-aware/b8/s1/deep", "878835a8ae02094a"),
    ("shift-aware/b8/s4/paced", "2a3b78173ce2765a"),
    ("shift-aware/b8/s4/deep", "bdf0ecb66f0f3719"),
    ("shift-aware/b8/smax/paced", "99b3eccc5a4b31e3"),
    ("shift-aware/b8/smax/deep", "dd64a97e679b130e"),
];

/// 64-bit FNV-1a of `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// An always-ready source that records each admitted request's address
/// and every completion in callback order.
struct Recording<I> {
    inner: I,
    pending: u64,
    addrs: Vec<u64>,
    completions: Vec<Completion>,
}

impl<I> Recording<I> {
    fn new(inner: I) -> Self {
        Recording {
            inner,
            pending: 0,
            addrs: Vec::new(),
            completions: Vec::new(),
        }
    }
}

impl<I: Iterator<Item = MemAccess>> RequestSource for Recording<I> {
    fn poll(&mut self, _now: u64) -> SourcePoll {
        let a = self.inner.next().expect("generators are endless");
        self.pending = a.addr;
        SourcePoll::Ready(a)
    }

    fn admitted(&mut self, id: u64, _now: u64) {
        assert_eq!(id, self.addrs.len() as u64);
        self.addrs.push(self.pending);
    }

    fn completed(&mut self, completion: &Completion) {
        self.completions.push(*completion);
    }
}

fn digest(policy: SchedPolicy, banks: u32, starve_limit: u32, deep: bool) -> String {
    let canneal = WorkloadProfile::by_name("canneal").unwrap();
    let (cfg, tenants, requests) = if deep {
        let cfg = ServeConfig::new(policy)
            .with_clients(64, 64)
            .with_queue_depth(16)
            .with_paced(false);
        (cfg, 64, 3_000)
    } else {
        (ServeConfig::new(policy), 4, 2_000)
    };
    let cfg = cfg
        .with_banks(banks)
        .with_starve_limit(starve_limit)
        .with_requests(requests);
    let mut source = Recording::new(MixedTraceGenerator::new(&vec![canneal; tenants], 2015));
    let result = ServeSim::new(cfg).run_source(&mut source);
    assert_eq!(result.requests, requests);
    let hash = source
        .completions
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, c| {
            fnv1a(h, format!("{c:?}\n").as_bytes())
        });
    format!("{:016x}", fnv1a(hash, format!("{result:?}").as_bytes()))
}

#[test]
fn schedules_match_the_golden_table() {
    let mut actual = Vec::new();
    for policy in SchedPolicy::ALL {
        for banks in [1, 8] {
            for (limit, tag) in [(0, "0"), (1, "1"), (4, "4"), (u32::MAX, "max")] {
                for deep in [false, true] {
                    let drive = if deep { "deep" } else { "paced" };
                    let name = format!("{policy}/b{banks}/s{tag}/{drive}");
                    actual.push((name, digest(policy, banks, limit, deep)));
                }
            }
        }
    }
    let table: String = actual
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", \"{d}\"),\n"))
        .collect();
    let mismatched: Vec<&str> = actual
        .iter()
        .zip(GOLDEN.iter())
        .filter(|((name, d), (gname, gd))| name != gname || d != gd)
        .map(|((name, _), _)| name.as_str())
        .collect();
    assert!(
        actual.len() == GOLDEN.len() && mismatched.is_empty(),
        "schedules differ from the golden table at {mismatched:?}; now:\n{table}"
    );
}

#[test]
fn same_cycle_completions_arrive_in_dispatch_order() {
    // Queues deep enough that admission never stalls: each instant then
    // dispatches in a single pass, bank 0 first, so dispatch order is
    // (dispatch cycle, bank), and completions due at one cycle must
    // reach the source in exactly that order.
    let cfg = ServeConfig::new(SchedPolicy::ShiftAware)
        .with_clients(16, 4)
        .with_queue_depth(64)
        .with_paced(false)
        .with_requests(4_000);
    let probe = ServeSim::new(cfg);
    let p = WorkloadProfile::by_name("canneal").unwrap();
    let mut source = Recording::new(TraceGenerator::with_cores(p, 2015, 16));
    let r = ServeSim::new(cfg).run_source(&mut source);
    assert_eq!(r.backpressure_stalls, 0);
    let dispatch_key = |c: &Completion| {
        let addr = source.addrs[c.id as usize];
        let bank = probe.llc().group_of(addr) % cfg.banks as usize;
        (c.cycle - c.fill - c.service, bank)
    };
    let mut ties = 0;
    for pair in source.completions.windows(2) {
        assert!(pair[0].cycle <= pair[1].cycle, "completions in time order");
        if pair[0].cycle == pair[1].cycle {
            ties += 1;
            assert!(
                dispatch_key(&pair[0]) < dispatch_key(&pair[1]),
                "{:?} retired before {:?}",
                pair[0],
                pair[1]
            );
        }
    }
    assert!(ties > 100, "only {ties} same-cycle completions");
}
