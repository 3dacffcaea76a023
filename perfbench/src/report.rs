//! What a run reports: the op tally, the metrics, diagnostics, the span
//! tree, and the output checks shared by every workload.

use std::fmt::{self, Debug, Write as _};
use std::hint::black_box;
use std::time::Instant;

use crate::ledger::Spans;

/// Reference digests of each workload's full model output, by seed.
const REFERENCES: &str = include_str!("../references.tsv");

/// FNV-1a over the `Debug` text of a model output. Every output type
/// derives `Debug` over plain fields (no hash maps), so the text — and
/// the digest — is a pure function of the output.
pub fn digest<T: Debug>(value: &T) -> u64 {
    struct Fnv(u64);
    impl fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").expect("hashing cannot fail");
    h.0
}

/// The stored digest for `(workload, seed)`, if the table has one.
pub fn reference(workload: &str, seed: u64) -> Option<u64> {
    REFERENCES
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            Some((f.next()?, f.next()?.parse::<u64>().ok()?, f.next()?))
        })
        .find(|&(w, s, _)| w == workload && s == seed)
        .and_then(|(_, _, d)| u64::from_str_radix(d, 16).ok())
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of integer samples.
pub fn percentile(values: &[u64], p: f64) -> u64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Host speed probe: a fixed integer loop, best of five (ms). Recorded
/// beside every run so a slow host can be told from a slow program; no
/// metric is divided by it.
pub fn host_probe_ms() -> f64 {
    (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..4_000_000u64 {
                x = rtm_util::rng::splitmix64(x ^ i);
            }
            black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::MAX, f64::min)
}

/// Memory-side host probe: ns per dependent load through a 32 MiB table
/// (an LCG cycle, so every load waits for the previous one), best of
/// three. Noisy neighbours slow memory-bound simulation without slowing
/// [`host_probe_ms`]; this one sees it. Diagnostic only, like that one.
pub fn host_probe_mem_ns() -> f64 {
    const SLOTS: u32 = 1 << 23;
    const STEPS: u32 = 1 << 19;
    let next: Vec<u32> = (0..SLOTS)
        .map(|i| i.wrapping_mul(2_654_435_769).wrapping_add(40_503) & (SLOTS - 1))
        .collect();
    (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut p = 0u32;
            for _ in 0..STEPS {
                p = next[p as usize];
            }
            black_box(p);
            t.elapsed().as_nanos() as f64 / f64::from(STEPS)
        })
        .fold(f64::MAX, f64::min)
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Report {
    workload: String,
    seed: u64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    diagnostics: Vec<(String, String)>,
    pub spans: Spans,
}

impl Report {
    pub fn new(workload: &str, seed: u64) -> Self {
        Self {
            workload: workload.to_string(),
            seed,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
            diagnostics: Vec::new(),
            spans: Spans::new(),
        }
    }

    /// Books `n` attempted cells or requests; all of them fail when
    /// their output check did.
    pub fn ops(&mut self, n: u64, ok: bool, what: &str) {
        self.attempted += n;
        if !ok {
            self.failed += n;
            self.problems.push(format!("{n} ops failed: {what}"));
        }
    }

    /// Checks a run-level invariant that is not tied to a count of ops.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.problems.push(what.to_string());
        }
    }

    /// Checks an output digest against the stored reference, when the
    /// table holds one for this seed.
    pub fn matches_reference(&mut self, digest: u64) -> bool {
        match reference(&self.workload, self.seed) {
            Some(want) if want != digest => {
                self.problems
                    .push(format!("digest {digest:016x} != reference {want:016x}"));
                false
            }
            _ => true,
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name, value, unit));
    }

    pub fn diagnostic(&mut self, name: &str, json: String) {
        self.diagnostics.push((name.to_string(), json));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// The diagnostics line: everything that is not a metric.
    pub fn diagnostics_json(&self) -> String {
        let mut out = String::from("{\"diagnostics\": {");
        let mut first = true;
        for (k, v) in &self.diagnostics {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(out, "\"{k}\": {v}");
        }
        let problems: Vec<String> = self
            .problems
            .iter()
            .map(|p| format!("\"{}\"", p.replace('"', "'")))
            .collect();
        let _ = write!(
            out,
            "{}\"problems\": [{}]}}}}",
            if first { "" } else { ", " },
            problems.join(", ")
        );
        out
    }

    /// The result line the benchmark contract asks for.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
