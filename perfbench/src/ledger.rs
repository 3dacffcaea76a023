//! Host-time bookkeeping: the cost of the timer itself, per-layer busy
//! time and call counts, and the coarse span tree a run writes out when
//! it ends.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// What one timestamp pair costs on this host.
#[derive(Debug, Clone, Copy)]
pub struct TimerCost {
    /// Wall time one pair adds around a wrapped call (ns).
    pub pair_ns: f64,
    /// The part of that pair which lands inside the measured window:
    /// what an empty timed region reads (ns). Subtracted from every
    /// per-call reading.
    pub bias_ns: f64,
}

impl TimerCost {
    /// Best of five batches of 200k empty timed regions.
    pub fn calibrate() -> Self {
        const PAIRS: u32 = 200_000;
        let mut pair_ns = f64::MAX;
        let mut bias_ns = f64::MAX;
        for _ in 0..5 {
            let start = Instant::now();
            let mut inside = 0u128;
            for _ in 0..PAIRS {
                let t = Instant::now();
                inside += black_box(t.elapsed()).as_nanos();
            }
            let wall = start.elapsed().as_nanos() as f64;
            pair_ns = pair_ns.min(wall / PAIRS as f64);
            bias_ns = bias_ns.min(inside as f64 / PAIRS as f64);
        }
        Self { pair_ns, bias_ns }
    }
}

/// Busy time and call count of one layer call-site.
#[derive(Debug, Clone, Copy, Default)]
pub struct Busy {
    /// Sum of the raw per-call readings (ns).
    pub raw_ns: u64,
    /// Calls timed.
    pub calls: u64,
    first: Option<Instant>,
    last: Option<Instant>,
}

impl Busy {
    /// Runs `f` between a timestamp pair and books the reading.
    #[inline]
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let e = Instant::now();
        self.raw_ns += e.duration_since(t).as_nanos() as u64;
        self.calls += 1;
        if self.first.is_none() {
            self.first = Some(t);
        }
        self.last = Some(e);
        out
    }

    /// Books one batch-timed region that covered `calls` calls (used by
    /// isolated replays, which time a whole loop rather than each call).
    /// Report it with [`batch_per_call`]: one pair covers the batch, so
    /// no per-call bias applies.
    pub fn batch<T>(&mut self, calls: u64, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let e = Instant::now();
        self.raw_ns += e.duration_since(t).as_nanos() as u64;
        self.calls += calls;
        self.first.get_or_insert(t);
        self.last = Some(e);
        out
    }

    /// Adds another call-site's totals to this one.
    pub fn absorb(&mut self, other: &Busy) {
        self.raw_ns += other.raw_ns;
        self.calls += other.calls;
        if self.first.is_none() {
            self.first = other.first;
        }
        if other.last.is_some() {
            self.last = other.last;
        }
    }

    /// Busy time with the per-call timer bias removed (ns).
    pub fn net_ns(&self, timer: &TimerCost) -> f64 {
        (self.raw_ns as f64 - self.calls as f64 * timer.bias_ns).max(0.0)
    }

    /// Net busy time per call (ns); 0 when the call-site never ran.
    pub fn per_call(&self, timer: &TimerCost) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.net_ns(timer) / self.calls as f64
        }
    }

    /// Host time these calls took from the caller's point of view,
    /// timer pairs included: what an enclosing layer subtracts to get
    /// its self time (ns).
    pub fn wall_ns(&self, timer: &TimerCost) -> f64 {
        self.raw_ns as f64 + self.calls as f64 * (timer.pair_ns - timer.bias_ns)
    }
}

/// Raw reading of a batch-timed region: one pair, so no per-call bias.
pub fn batch_per_call(busy: &Busy) -> f64 {
    if busy.calls == 0 {
        0.0
    } else {
        busy.raw_ns as f64 / busy.calls as f64
    }
}

/// One span: a workload, a phase or cell inside it, or a layer
/// call-site inside a phase.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Call-site spans only: aggregated busy time and calls.
    busy: Option<(u64, u64)>,
}

/// The run's span tree, held in memory until the run ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty tree whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.offset(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns: now,
            end_ns: now,
            busy: None,
        });
        self.spans.len() - 1
    }

    /// Ends a span opened with [`Spans::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.offset(Instant::now());
    }

    /// Records a layer call-site under `parent`: from its first call's
    /// start to its last call's end, with busy time and call count.
    pub fn call_site(&mut self, parent: usize, name: &str, busy: &Busy) {
        let (Some(first), Some(last)) = (busy.first, busy.last) else {
            return;
        };
        self.spans.push(Span {
            name: name.to_string(),
            parent: Some(parent),
            start_ns: self.offset(first),
            end_ns: self.offset(last),
            busy: Some((busy.raw_ns, busy.calls)),
        });
    }

    /// The tree as JSON: `{"spans": [{id, name, parent, start_ns,
    /// end_ns, busy_ns?, calls?}]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}",
                s.name, s.start_ns, s.end_ns
            );
            if let Some((busy, calls)) = s.busy {
                let _ = write!(out, ", \"busy_ns\": {busy}, \"calls\": {calls}");
            }
            out.push('}');
            if id + 1 < self.spans.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }
}
