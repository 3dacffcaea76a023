//! Recording, replaying and answering wire-protocol traffic.
//!
//! The driver side records a [`FrontConfig`]'s arrival stream as
//! `Hello + Request* + Fin`; the server side rebuilds the session
//! table from the `Hello` and replays the requests through the same
//! [`FrontDoor`] admission path the internal experiment uses. Because
//! both paths share every decision-relevant component — the table,
//! the buckets, the serving simulator — a wire replay is bit-identical
//! to the internal run it was recorded from (asserted by tests and
//! the `bench-front --check` gate).

use std::fmt;

use crate::class::ClassSpec;
use crate::door::{FrontConfig, FrontDoor, FrontResult};
use crate::proto::{Frame, ProtoError};
use crate::session::FrontArrival;
use rtm_serve::{SchedPolicy, ServeSim};

/// Largest tenant population a `Hello` may request. The session table
/// allocates per-tenant state up front, so a larger count is rejected
/// with [`WireError::BadHello`] before anything is allocated. The bound
/// sits well above the largest population any experiment or benchmark
/// serves (10,000 tenants).
pub const MAX_HELLO_TENANTS: u32 = 1 << 17;

/// Errors answering a recorded stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream did not start with a `Hello`.
    MissingHello,
    /// A frame kind that has no business in a request stream.
    UnexpectedFrame(&'static str),
    /// The `Hello` carried an unusable configuration.
    BadHello(String),
    /// The request count did not match the `Hello`'s `offered`.
    WrongRequestCount {
        /// What the `Hello` promised.
        expected: u64,
        /// What the stream carried.
        got: u64,
    },
    /// Decode error in the underlying byte stream.
    Proto(ProtoError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::MissingHello => write!(f, "stream must start with Hello"),
            WireError::UnexpectedFrame(kind) => {
                write!(f, "unexpected {kind} frame in request stream")
            }
            WireError::BadHello(why) => write!(f, "unusable Hello: {why}"),
            WireError::WrongRequestCount { expected, got } => {
                write!(
                    f,
                    "Hello promised {expected} requests, stream carried {got}"
                )
            }
            WireError::Proto(e) => write!(f, "decode error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<ProtoError> for WireError {
    fn from(e: ProtoError) -> Self {
        WireError::Proto(e)
    }
}

/// Records a configuration's traffic as a request stream.
pub fn record_frames(cfg: &FrontConfig) -> Vec<Frame> {
    let mut frames = Vec::with_capacity(cfg.offered as usize + 2);
    frames.push(hello_frame(cfg));
    let mut prev_cycle = 0u64;
    for a in cfg.arrivals() {
        let gap = a.cycle - prev_cycle;
        debug_assert!(gap <= u32::MAX as u64, "inter-arrival gap fits the frame");
        frames.push(Frame::Request {
            tenant: a.tenant,
            class: a.class,
            addr: a.addr,
            is_write: a.is_write,
            gap: gap as u32,
        });
        prev_cycle = a.cycle;
    }
    frames.push(Frame::Fin);
    frames
}

/// The `Hello` describing a configuration.
pub fn hello_frame(cfg: &FrontConfig) -> Frame {
    Frame::Hello {
        tenants: cfg.tenants,
        seed: cfg.seed,
        offered: cfg.offered,
        window: cfg.window,
        capacity_req_per_kcycle: cfg.capacity_req_per_kcycle,
        think_scale: cfg.effective_think_scale(),
        classes: cfg.classes.entries().to_vec(),
    }
}

/// Reconstructs the [`FrontConfig`] a `Hello` describes.
///
/// # Errors
///
/// Rejects hellos whose fields cannot form a valid configuration, and
/// tenant counts above [`MAX_HELLO_TENANTS`].
pub fn config_of_hello(hello: &Frame) -> Result<FrontConfig, WireError> {
    let Frame::Hello {
        tenants,
        seed,
        offered,
        window,
        capacity_req_per_kcycle,
        think_scale,
        classes,
    } = hello
    else {
        return Err(WireError::MissingHello);
    };
    if *tenants == 0 {
        return Err(WireError::BadHello("zero tenants".into()));
    }
    if *tenants > MAX_HELLO_TENANTS {
        return Err(WireError::BadHello(format!(
            "{tenants} tenants exceed the limit of {MAX_HELLO_TENANTS}"
        )));
    }
    if *offered == 0 {
        return Err(WireError::BadHello("zero offered requests".into()));
    }
    if *window == 0 {
        return Err(WireError::BadHello("zero admission window".into()));
    }
    if *capacity_req_per_kcycle == 0 {
        return Err(WireError::BadHello("zero capacity estimate".into()));
    }
    if !classes.iter().any(|(_, w)| *w > 0) {
        return Err(WireError::BadHello("no class with positive weight".into()));
    }
    for (i, (c, _)) in classes.iter().enumerate() {
        if classes[i + 1..].iter().any(|(o, _)| o == c) {
            return Err(WireError::BadHello(format!("class {c} repeated")));
        }
    }
    let mut cfg = FrontConfig::new(*tenants).with_classes(ClassSpec::new(classes));
    cfg.seed = *seed;
    cfg.offered = *offered;
    cfg.window = *window;
    cfg.capacity_req_per_kcycle = *capacity_req_per_kcycle;
    cfg.think_scale = *think_scale;
    Ok(cfg)
}

/// Replays decoded request frames as arrivals (exact inverse of the
/// gap encoding in [`record_frames`]).
struct ReplayArrivals<'a> {
    requests: std::slice::Iter<'a, Frame>,
    cycle: u64,
    seq: u64,
}

impl Iterator for ReplayArrivals<'_> {
    type Item = FrontArrival;

    fn next(&mut self) -> Option<FrontArrival> {
        loop {
            match self.requests.next()? {
                Frame::Request {
                    tenant,
                    class,
                    addr,
                    is_write,
                    gap,
                } => {
                    self.cycle += *gap as u64;
                    let seq = self.seq;
                    self.seq += 1;
                    return Some(FrontArrival {
                        cycle: self.cycle,
                        seq,
                        tenant: *tenant,
                        class: *class,
                        addr: *addr,
                        is_write: *is_write,
                    });
                }
                Frame::Fin => return None,
                // Validated before replay; skip defensively.
                _ => continue,
            }
        }
    }
}

/// Answers a recorded request stream: validates it, replays it through
/// the admission path under `policy`, and returns the run result plus
/// the response stream (`Response* + ClassSummary* + Summary + Fin`).
///
/// # Errors
///
/// Returns a [`WireError`] for malformed or inconsistent streams.
pub fn serve_frames(
    frames: &[Frame],
    policy: SchedPolicy,
) -> Result<(FrontResult, Vec<Frame>), WireError> {
    let Some(hello) = frames.first() else {
        return Err(WireError::MissingHello);
    };
    let cfg = config_of_hello(hello)?;
    let mut requests = 0u64;
    for f in &frames[1..] {
        match f {
            Frame::Request { .. } => requests += 1,
            Frame::Fin => {}
            Frame::Hello { .. } => return Err(WireError::UnexpectedFrame("Hello")),
            Frame::Response { .. } => return Err(WireError::UnexpectedFrame("Response")),
            Frame::ClassSummary { .. } => return Err(WireError::UnexpectedFrame("ClassSummary")),
            Frame::Summary { .. } => return Err(WireError::UnexpectedFrame("Summary")),
        }
    }
    if requests != cfg.offered {
        return Err(WireError::WrongRequestCount {
            expected: cfg.offered,
            got: requests,
        });
    }
    let arrivals = ReplayArrivals {
        requests: frames[1..].iter(),
        cycle: 0,
        seq: 0,
    };
    let mut door =
        FrontDoor::over(arrivals, cfg.table(), cfg.window, cfg.conn_clients).log_responses();
    let serve = ServeSim::new(cfg.serve_config(policy)).run_source(&mut door);
    let result = door.finish(serve);
    let response = response_frames(&result);
    Ok((result, response))
}

/// Builds the server's reply stream for a finished run.
pub fn response_frames(result: &FrontResult) -> Vec<Frame> {
    let mut frames = Vec::new();
    if let Some(log) = &result.responses {
        for r in log {
            frames.push(Frame::Response {
                seq: r.seq,
                verdict: r.verdict,
                cycle: r.cycle,
                total_cycles: r.total_cycles,
            });
        }
    }
    for c in &result.classes {
        frames.push(Frame::ClassSummary {
            class: c.class,
            tenants: c.tenants,
            admitted: c.admitted,
            shed: c.shed,
            deferred: c.deferred,
            completed: c.completed,
            p50: c.latency.p50,
            p95: c.latency.p95,
            p99: c.latency.p99,
        });
    }
    frames.push(Frame::Summary {
        cycles: result.serve.cycles,
        admitted: result.admitted(),
        shed: result.shed(),
        deferred: result.deferred(),
        completed: result.completed(),
        fairness_bits: result.fairness_ratio().to_bits(),
    });
    frames.push(Frame::Fin);
    frames
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::door::run_front;
    use crate::proto::{decode_all, encode_all, Loopback, Verdict};
    use rtm_obs::Obs;
    use std::io::Write;

    fn cfg() -> FrontConfig {
        FrontConfig::new(150).with_offered(5_000)
    }

    #[test]
    fn wire_replay_matches_internal_run_exactly() {
        let cfg = cfg();
        let internal = run_front(&cfg, SchedPolicy::ShiftAware, Obs::default());
        // Record, push through an in-memory byte stream, decode, serve.
        let mut chan = Loopback::new();
        chan.write_all(&encode_all(&record_frames(&cfg))).unwrap();
        let frames = crate::proto::read_frames(&mut chan).unwrap();
        let (replayed, response) = serve_frames(&frames, SchedPolicy::ShiftAware).unwrap();
        assert_eq!(replayed.classes, internal.classes);
        assert_eq!(replayed.serve, internal.serve);
        // The response stream covers every arrival plus summaries.
        let responses = response
            .iter()
            .filter(|f| matches!(f, Frame::Response { .. }))
            .count() as u64;
        assert_eq!(responses, cfg.offered);
        let done = response
            .iter()
            .filter(|f| {
                matches!(
                    f,
                    Frame::Response {
                        verdict: Verdict::Done,
                        ..
                    }
                )
            })
            .count() as u64;
        assert_eq!(done, internal.completed());
        match response[response.len() - 2] {
            Frame::Summary { fairness_bits, .. } => {
                assert_eq!(f64::from_bits(fairness_bits), internal.fairness_ratio());
            }
            ref other => panic!("expected Summary before Fin, got {other:?}"),
        }
        assert_eq!(response.last(), Some(&Frame::Fin));
        // And the response stream survives its own byte round trip.
        assert_eq!(decode_all(&encode_all(&response)).unwrap(), response);
    }

    #[test]
    fn hello_config_round_trip() {
        let mut cfg = cfg();
        cfg.classes = ClassSpec::parse("latency:3,besteffort:2").unwrap();
        cfg.think_scale = 77;
        let back = config_of_hello(&hello_frame(&cfg)).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn malformed_streams_are_rejected() {
        assert_eq!(
            serve_frames(&[], SchedPolicy::Fcfs),
            Err(WireError::MissingHello)
        );
        assert_eq!(
            serve_frames(&[Frame::Fin], SchedPolicy::Fcfs),
            Err(WireError::MissingHello)
        );
        let mut frames = record_frames(&cfg());
        frames.pop();
        frames.pop(); // drop a request and the fin
        match serve_frames(&frames, SchedPolicy::Fcfs) {
            Err(WireError::WrongRequestCount { expected, got }) => {
                assert_eq!(expected, cfg().offered);
                assert_eq!(got, cfg().offered - 1);
            }
            other => panic!("expected WrongRequestCount, got {other:?}"),
        }
        let mut with_resp = record_frames(&cfg());
        with_resp.insert(
            1,
            Frame::Response {
                seq: 0,
                verdict: Verdict::Done,
                cycle: 0,
                total_cycles: 0,
            },
        );
        assert_eq!(
            serve_frames(&with_resp, SchedPolicy::Fcfs),
            Err(WireError::UnexpectedFrame("Response"))
        );
    }
    #[test]
    fn oversized_tenant_count_is_rejected_before_allocation() {
        let with_tenants = |n: u32| {
            let mut frames = record_frames(&cfg());
            if let Frame::Hello { tenants, .. } = &mut frames[0] {
                *tenants = n;
            }
            frames
        };
        // u32::MAX tenants would ask the session table for ~4G entries.
        match serve_frames(&with_tenants(u32::MAX), SchedPolicy::Fcfs) {
            Err(WireError::BadHello(why)) => assert!(why.contains("limit"), "{why}"),
            other => panic!("expected BadHello, got {other:?}"),
        }
        assert!(matches!(
            config_of_hello(&with_tenants(MAX_HELLO_TENANTS + 1)[0]),
            Err(WireError::BadHello(_))
        ));
        assert_eq!(
            config_of_hello(&with_tenants(MAX_HELLO_TENANTS)[0])
                .unwrap()
                .tenants,
            MAX_HELLO_TENANTS
        );
    }
}
