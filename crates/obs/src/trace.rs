//! The trace store: hierarchical, cycle-stamped spans plus instant
//! shift-transaction events.
//!
//! A span is one named interval of simulated time with an optional
//! parent, so a serving-layer request unfolds into the tree
//!
//! ```text
//! request
//! ├── queue
//! ├── dispatch
//! │   └── plan_shift
//! │       ├── sts_pulse
//! │       ├── pecc_verify
//! │       └── ...
//! └── mem_fill
//! ```
//!
//! An instant is one point in simulated time with a typed payload
//! ([`ShiftEvent`]): the controller plans a shift
//! ([`ShiftEvent::ShiftPlanned`]), splits it at the safe distance
//! ([`ShiftEvent::SafeDistanceSplit`]), issues shift-then-stop pulses
//! ([`ShiftEvent::StsPulse`]) and checks the landing position
//! ([`ShiftEvent::PeccVerdict`]); the serving layer enqueues,
//! dispatches and completes requests.
//!
//! Both are kept in bounded windows of `capacity` records: once full,
//! the oldest record is evicted and a drop counter advances, so peak
//! memory is independent of run length and truncation is always
//! detectable. Spans and instants have separate windows and separate
//! numbering, so a dense instant stream never evicts the spans a
//! flamegraph is built from. Because the simulators are
//! discrete-event, every span's extent is known when it is created, so
//! the API records *complete* spans — there is no open/close pairing
//! to get wrong.
//!
//! Span ids are handed out monotonically, starting at 1 (`0` means "no
//! parent"); instant sequence numbers start at 0. Within one simulation
//! thread both streams are deterministic; when several sweep workers
//! share one trace their records interleave in scheduling order, which
//! is why the determinism gates compare attribution *tables* (built
//! from per-cell accounting) rather than raw streams.
//!
//! Parent linkage across crate boundaries uses a thread-local current
//! parent: the serving layer opens a `dispatch` span and enters it with
//! [`ParentScope`], and the shift controller — which knows nothing
//! about scheduling — parents its `plan_shift` span on
//! [`current_parent`].

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Mutex;

use crate::json::Json;

/// Default capacity of each window (spans, instants).
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// Outcome of one p-ECC position check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeccOutcome {
    /// The code saw no position error.
    Clean,
    /// The code corrected an offset of `k` domains.
    Corrected(u32),
    /// The code detected an error it cannot correct (a DUE).
    DetectedUncorrectable,
}

/// The payload of one instant event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShiftEvent {
    /// The controller planned a shift transaction.
    ShiftPlanned {
        /// Requested shift distance in domains (absolute value).
        distance: u32,
        /// Number of sub-shifts the plan was split into.
        parts: u32,
        /// Total planned latency in memory cycles.
        latency_cycles: u64,
    },
    /// A shift-then-stop pulse sequence moving `distance` domains.
    StsPulse {
        /// Domains moved by this pulse sequence.
        distance: u32,
        /// Cycles the pulse sequence occupies.
        cycles: u64,
    },
    /// A p-ECC position check completed.
    PeccVerdict {
        /// What the code concluded.
        outcome: PeccOutcome,
    },
    /// A requested distance exceeded the safe cap and was split.
    SafeDistanceSplit {
        /// Requested distance in domains.
        distance: u32,
        /// Safe-distance cap applied.
        cap: u32,
        /// Sub-shifts produced.
        parts: u32,
    },
    /// A request entered a stripe-group queue in the serving layer.
    ReqEnqueued {
        /// Scheduler-assigned request id (monotonic per run).
        id: u64,
        /// Stripe group the request targets.
        group: u32,
    },
    /// A queued request was dispatched to its bank for service.
    ReqDispatched {
        /// Scheduler-assigned request id.
        id: u64,
        /// Stripe group the request targets.
        group: u32,
        /// Cycles the request waited in its queue before dispatch.
        queue_delay: u64,
    },
    /// A dispatched request finished (LLC service plus any memory
    /// fill).
    ReqCompleted {
        /// Scheduler-assigned request id.
        id: u64,
        /// Cycles between dispatch and completion.
        service_cycles: u64,
    },
    /// Admission stalled because a stripe-group queue was full.
    ReqBackpressure {
        /// Stripe group whose queue rejected the request.
        group: u32,
    },
}

impl ShiftEvent {
    /// Stable kind tag used in exports.
    pub fn kind(&self) -> &'static str {
        match self {
            ShiftEvent::ShiftPlanned { .. } => "ShiftPlanned",
            ShiftEvent::StsPulse { .. } => "StsPulse",
            ShiftEvent::PeccVerdict { .. } => "PeccVerdict",
            ShiftEvent::SafeDistanceSplit { .. } => "SafeDistanceSplit",
            ShiftEvent::ReqEnqueued { .. } => "ReqEnqueued",
            ShiftEvent::ReqDispatched { .. } => "ReqDispatched",
            ShiftEvent::ReqCompleted { .. } => "ReqCompleted",
            ShiftEvent::ReqBackpressure { .. } => "ReqBackpressure",
        }
    }

    /// The payload's fields as `(name, value)` pairs, in export order.
    /// A p-ECC outcome is a string field; every other field is a number.
    pub(crate) fn fields(&self) -> Vec<(&'static str, Json)> {
        let n = |v: u64| Json::Num(v as f64);
        match *self {
            ShiftEvent::ShiftPlanned {
                distance,
                parts,
                latency_cycles,
            } => vec![
                ("distance", n(distance.into())),
                ("parts", n(parts.into())),
                ("latency_cycles", n(latency_cycles)),
            ],
            ShiftEvent::StsPulse { distance, cycles } => {
                vec![("distance", n(distance.into())), ("cycles", n(cycles))]
            }
            ShiftEvent::PeccVerdict { outcome } => match outcome {
                PeccOutcome::Clean => vec![("outcome", Json::Str("clean".into()))],
                PeccOutcome::Corrected(k) => vec![
                    ("outcome", Json::Str("corrected".into())),
                    ("k", n(k.into())),
                ],
                PeccOutcome::DetectedUncorrectable => {
                    vec![("outcome", Json::Str("detected_uncorrectable".into()))]
                }
            },
            ShiftEvent::SafeDistanceSplit {
                distance,
                cap,
                parts,
            } => vec![
                ("distance", n(distance.into())),
                ("cap", n(cap.into())),
                ("parts", n(parts.into())),
            ],
            ShiftEvent::ReqEnqueued { id, group } => {
                vec![("id", n(id)), ("group", n(group.into()))]
            }
            ShiftEvent::ReqDispatched {
                id,
                group,
                queue_delay,
            } => vec![
                ("id", n(id)),
                ("group", n(group.into())),
                ("queue_delay", n(queue_delay)),
            ],
            ShiftEvent::ReqCompleted { id, service_cycles } => {
                vec![("id", n(id)), ("service_cycles", n(service_cycles))]
            }
            ShiftEvent::ReqBackpressure { group } => vec![("group", n(group.into()))],
        }
    }

    /// Whether this is a serving-layer queue event (as opposed to a
    /// shift-transaction event).
    pub fn is_queue_event(&self) -> bool {
        matches!(
            self,
            ShiftEvent::ReqEnqueued { .. }
                | ShiftEvent::ReqDispatched { .. }
                | ShiftEvent::ReqCompleted { .. }
                | ShiftEvent::ReqBackpressure { .. }
        )
    }
}

/// One instant record: an event plus its trace metadata.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracedEvent {
    /// Sequence number, starting at 0, never reused. Gaps in a
    /// snapshot indicate dropped (overwritten) events.
    pub seq: u64,
    /// Simulation cycle at which the event was recorded.
    pub cycle: u64,
    /// The event payload.
    pub event: ShiftEvent,
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Monotonic id, starting at 1; never reused. Gaps in a snapshot
    /// indicate dropped (overwritten) spans.
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root span.
    pub parent: u64,
    /// Stage name (`"request"`, `"plan_shift"`, `"sts_pulse"`, ...).
    pub name: String,
    /// First cycle covered by the span.
    pub start_cycle: u64,
    /// First cycle past the span (`end_cycle >= start_cycle`).
    pub end_cycle: u64,
}

impl SpanRecord {
    /// Cycles covered by the span.
    pub fn duration(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
    }
}

thread_local! {
    static CURRENT_PARENT: Cell<u64> = const { Cell::new(0) };
}

/// The span id new spans on this thread parent under (0 = root).
pub fn current_parent() -> u64 {
    CURRENT_PARENT.with(|c| c.get())
}

/// Makes `id` the current parent for the scope's lifetime; the previous
/// parent is restored on drop. Instrumentation layers that cannot pass
/// ids explicitly (the shift controller under the serving layer) read
/// [`current_parent`] instead.
#[derive(Debug)]
pub struct ParentScope {
    prev: u64,
}

impl ParentScope {
    /// Enters `id` as the current parent.
    pub fn enter(id: u64) -> Self {
        let prev = CURRENT_PARENT.with(|c| c.replace(id));
        Self { prev }
    }
}

impl Drop for ParentScope {
    fn drop(&mut self) {
        CURRENT_PARENT.with(|c| c.set(self.prev));
    }
}

/// One bounded window: at most `capacity` records, oldest evicted
/// first, with a never-reused sequence counter and a drop counter.
#[derive(Debug)]
struct Window<T> {
    buf: VecDeque<T>,
    /// Next sequence number to hand out.
    next: u64,
    dropped: u64,
}

impl<T> Window<T> {
    fn new() -> Self {
        Self {
            buf: VecDeque::new(),
            next: 0,
            dropped: 0,
        }
    }

    fn take_seq(&mut self) -> u64 {
        self.next += 1;
        self.next - 1
    }

    fn push(&mut self, capacity: usize, item: T) {
        if self.buf.len() == capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(item);
    }
}

#[derive(Debug)]
struct Windows {
    spans: Window<SpanRecord>,
    events: Window<TracedEvent>,
}

/// The trace store: a span window and an instant window behind one
/// lock (see the module docs).
#[derive(Debug)]
pub struct Trace {
    capacity: usize,
    inner: Mutex<Windows>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl Trace {
    /// Creates a trace with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a trace holding at most `capacity` spans and `capacity`
    /// instants (a zero capacity is clamped to one).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(Windows {
                spans: Window::new(),
                events: Window::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Windows> {
        self.inner.lock().expect("trace poisoned")
    }

    /// Records an instant event at the given simulation cycle.
    pub fn record_event(&self, cycle: u64, event: ShiftEvent) {
        let mut inner = self.lock();
        let seq = inner.events.take_seq();
        inner
            .events
            .push(self.capacity, TracedEvent { seq, cycle, event });
    }

    /// Records a completed span covering `[start_cycle, end_cycle)`
    /// under `parent` (0 = root) and returns its id. `end_cycle` is
    /// clamped up to `start_cycle`.
    pub fn record_span(&self, parent: u64, name: &str, start_cycle: u64, end_cycle: u64) -> u64 {
        let id = self.reserve_span();
        self.record_reserved(id, parent, name, start_cycle, end_cycle);
        id
    }

    /// Reserves a span id without recording anything, for spans whose
    /// extent is not yet known but whose children record first — the
    /// serving layer reserves its `dispatch` span, enters it as the
    /// current parent around the LLC access (whose `plan_shift` spans
    /// nest under it), and records the reserved span afterwards via
    /// [`Self::record_reserved`].
    ///
    /// A reserved id counts towards a snapshot's `total` immediately;
    /// until its record lands the snapshot simply has a gap at that id
    /// (children recorded in between may precede their parent in window
    /// order, which the ancestry walk handles).
    pub fn reserve_span(&self) -> u64 {
        self.lock().spans.take_seq() + 1
    }

    /// Records the span for a previously [`Self::reserve_span`]ed id.
    pub fn record_reserved(
        &self,
        id: u64,
        parent: u64,
        name: &str,
        start_cycle: u64,
        end_cycle: u64,
    ) {
        let span = SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_cycle,
            end_cycle: end_cycle.max(start_cycle),
        };
        self.lock().spans.push(self.capacity, span);
    }

    /// A point-in-time copy of both windows.
    pub fn snapshot(&self) -> TraceSnapshot {
        let inner = self.lock();
        TraceSnapshot {
            events: inner.events.buf.iter().copied().collect(),
            total: inner.events.next,
            dropped: inner.events.dropped,
            spans: SpanSnapshot {
                spans: inner.spans.buf.iter().cloned().collect(),
                total: inner.spans.next,
                dropped: inner.spans.dropped,
            },
        }
    }
}

/// A copy of a trace at snapshot time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSnapshot {
    /// Retained instant events, in sequence order.
    pub events: Vec<TracedEvent>,
    /// Instant events ever recorded (`= dropped + events.len()`).
    pub total: u64,
    /// Instant events evicted by the window bound.
    pub dropped: u64,
    /// The span window.
    pub spans: SpanSnapshot,
}

/// A copy of a trace's span window at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanSnapshot {
    /// Retained spans, in recording order (id order, except that a
    /// reserved span lands where its record was filled in).
    pub spans: Vec<SpanRecord>,
    /// Span ids ever handed out (`>= dropped + spans.len()`; reserved
    /// ids count immediately).
    pub total: u64,
    /// Spans evicted by the window bound.
    pub dropped: u64,
}

impl TraceSnapshot {
    /// Number of retained events of the given kind tag.
    pub fn count_kind(&self, kind: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.event.kind() == kind)
            .count()
    }

    /// Encodes the snapshot as a JSON object: the instant stream at the
    /// top level, the span window nested under `"spans"`.
    pub fn to_json(&self) -> Json {
        let event = |e: &TracedEvent| {
            let mut pairs = vec![
                ("seq", Json::Num(e.seq as f64)),
                ("cycle", Json::Num(e.cycle as f64)),
                ("kind", Json::Str(e.event.kind().to_string())),
            ];
            pairs.extend(e.event.fields());
            Json::obj(pairs)
        };
        Json::obj(vec![
            ("total", Json::Num(self.total as f64)),
            ("dropped", Json::Num(self.dropped as f64)),
            ("events", Json::Arr(self.events.iter().map(event).collect())),
            ("spans", self.spans.to_json()),
        ])
    }
}

impl SpanSnapshot {
    /// Looks a retained span up by id.
    pub fn get(&self, id: u64) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// The retained children of span `id`, in window order.
    pub fn children_of(&self, id: u64) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent == id).collect()
    }

    /// Cycles of `span` not covered by any retained child — the value a
    /// flamegraph assigns to the frame itself.
    pub fn self_cycles(&self, span: &SpanRecord) -> u64 {
        let child_sum: u64 = self.children_of(span.id).iter().map(|c| c.duration()).sum();
        span.duration().saturating_sub(child_sum)
    }

    /// The `;`-joined ancestor path of a span, root first. A span whose
    /// parent fell out of the window is treated as a root.
    pub fn path_of(&self, span: &SpanRecord) -> String {
        let mut names = vec![span.name.as_str()];
        let mut cursor = span.parent;
        // Reserved spans may carry a parent recorded after them, so id
        // order says nothing about ancestry; bound the walk by the
        // snapshot size so malformed (cyclic) input still terminates.
        while cursor != 0 && names.len() <= self.spans.len() {
            match self.get(cursor) {
                Some(p) => {
                    names.push(p.name.as_str());
                    cursor = p.parent;
                }
                None => break,
            }
        }
        names.reverse();
        names.join(";")
    }

    /// Encodes the span window as a JSON object with an ordered span
    /// stream.
    pub fn to_json(&self) -> Json {
        let span = |s: &SpanRecord| {
            Json::obj(vec![
                ("id", Json::Num(s.id as f64)),
                ("parent", Json::Num(s.parent as f64)),
                ("name", Json::Str(s.name.clone())),
                ("start", Json::Num(s.start_cycle as f64)),
                ("end", Json::Num(s.end_cycle as f64)),
            ])
        };
        Json::obj(vec![
            ("total", Json::Num(self.total as f64)),
            ("dropped", Json::Num(self.dropped as f64)),
            ("spans", Json::Arr(self.spans.iter().map(span).collect())),
        ])
    }

    /// Decodes a span window previously produced by [`Self::to_json`].
    pub fn from_json(doc: &Json) -> Option<SpanSnapshot> {
        let span = |s: &Json| {
            Some(SpanRecord {
                id: s.get("id")?.as_u64()?,
                parent: s.get("parent")?.as_u64()?,
                name: s.get("name")?.as_str()?.to_string(),
                start_cycle: s.get("start")?.as_u64()?,
                end_cycle: s.get("end")?.as_u64()?,
            })
        };
        Some(SpanSnapshot {
            total: doc.get("total")?.as_u64()?,
            dropped: doc.get("dropped")?.as_u64()?,
            spans: doc
                .get("spans")?
                .as_arr()?
                .iter()
                .map(span)
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ids_start_at_one_and_parents_link() {
        let t = Trace::new();
        let req = t.record_span(0, "request", 0, 100);
        assert_eq!(req, 1);
        let q = t.record_span(req, "queue", 0, 30);
        let d = t.record_span(req, "dispatch", 30, 90);
        let snap = t.snapshot().spans;
        assert_eq!(snap.spans.len(), 3);
        assert_eq!(snap.get(q).unwrap().parent, req);
        assert_eq!(snap.children_of(req).len(), 2);
        assert_eq!(snap.path_of(snap.get(d).unwrap()), "request;dispatch");
        assert_eq!(snap.self_cycles(snap.get(req).unwrap()), 10);
    }

    #[test]
    fn windows_are_bounded_and_independent() {
        let t = Trace::with_capacity(4);
        for i in 0..10u64 {
            t.record_span(0, "s", i, i + 1);
        }
        for i in 0..100u32 {
            t.record_event(i.into(), ShiftEvent::ReqBackpressure { group: i });
        }
        let snap = t.snapshot();
        // The instant flood never evicts spans: each window keeps its
        // own most recent records, in order.
        assert_eq!((snap.spans.spans.len(), snap.spans.total), (4, 10));
        assert_eq!(snap.spans.dropped, 6);
        assert_eq!(snap.spans.spans[0].id, 7);
        assert_eq!((snap.events.len(), snap.total, snap.dropped), (4, 100, 96));
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [96, 97, 98, 99]);
        assert_eq!(snap.count_kind("ReqBackpressure"), 4);
        assert_eq!(snap.count_kind("StsPulse"), 0);
    }

    #[test]
    fn dropped_parent_degrades_to_root_path() {
        let t = Trace::with_capacity(1);
        let req = t.record_span(0, "request", 0, 100);
        t.record_span(req, "dispatch", 10, 90); // evicts "request"
        let snap = t.snapshot().spans;
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.path_of(&snap.spans[0]), "dispatch");
    }

    #[test]
    fn inverted_extent_is_clamped() {
        let t = Trace::new();
        let id = t.record_span(0, "odd", 50, 20);
        assert_eq!(t.snapshot().spans.get(id).unwrap().duration(), 0);
    }

    #[test]
    fn parent_scope_nests_and_restores() {
        assert_eq!(current_parent(), 0);
        {
            let _outer = ParentScope::enter(7);
            assert_eq!(current_parent(), 7);
            {
                let _inner = ParentScope::enter(9);
                assert_eq!(current_parent(), 9);
            }
            assert_eq!(current_parent(), 7);
        }
        assert_eq!(current_parent(), 0);
    }

    #[test]
    fn reserved_spans_parent_children_recorded_first() {
        let t = Trace::new();
        // The serving-layer shape: dispatch id exists first, its
        // children record during the access, the request/dispatch
        // records land last.
        let dispatch = t.reserve_span();
        assert_eq!(dispatch, 1);
        let plan = t.record_span(dispatch, "plan_shift", 30, 70);
        t.record_span(plan, "sts_pulse", 30, 60);
        let req = t.record_span(0, "request", 0, 100);
        t.record_span(req, "queue", 0, 30);
        t.record_reserved(dispatch, req, "dispatch", 30, 90);
        let snap = t.snapshot().spans;
        // Five ids handed out: the reservation plus four records
        // (record_reserved reuses the reserved id).
        assert_eq!(snap.total, 5);
        assert_eq!(snap.spans.len(), 5);
        let d = snap.get(dispatch).unwrap();
        assert_eq!((d.name.as_str(), d.parent), ("dispatch", req));
        let p = snap.get(plan).unwrap();
        assert_eq!(snap.path_of(p), "request;dispatch;plan_shift");
        assert_eq!(snap.self_cycles(d), 90 - 30 - 40);
    }

    #[test]
    fn json_export_covers_every_kind() {
        let t = Trace::new();
        let events = [
            ShiftEvent::ShiftPlanned {
                distance: 32,
                parts: 2,
                latency_cycles: 18,
            },
            ShiftEvent::SafeDistanceSplit {
                distance: 32,
                cap: 16,
                parts: 2,
            },
            ShiftEvent::StsPulse {
                distance: 16,
                cycles: 9,
            },
            ShiftEvent::PeccVerdict {
                outcome: PeccOutcome::Clean,
            },
            ShiftEvent::PeccVerdict {
                outcome: PeccOutcome::Corrected(2),
            },
            ShiftEvent::PeccVerdict {
                outcome: PeccOutcome::DetectedUncorrectable,
            },
            ShiftEvent::ReqEnqueued { id: 42, group: 7 },
            ShiftEvent::ReqDispatched {
                id: 42,
                group: 7,
                queue_delay: 15,
            },
            ShiftEvent::ReqCompleted {
                id: 42,
                service_cycles: 33,
            },
            ShiftEvent::ReqBackpressure { group: 7 },
        ];
        for (i, e) in events.into_iter().enumerate() {
            t.record_event(i as u64 + 1, e);
        }
        let req = t.record_span(0, "request", 5, 105);
        t.record_span(req, "dispatch", 20, 100);
        // The export schema, pinned per kind: metadata first, then the
        // payload's fields in declaration order.
        let doc = t.snapshot().to_json();
        let events: Vec<String> = doc
            .get("events")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(Json::to_string)
            .collect();
        assert_eq!(
            events,
            [
                r#"{"seq":0,"cycle":1,"kind":"ShiftPlanned","distance":32,"parts":2,"latency_cycles":18}"#,
                r#"{"seq":1,"cycle":2,"kind":"SafeDistanceSplit","distance":32,"cap":16,"parts":2}"#,
                r#"{"seq":2,"cycle":3,"kind":"StsPulse","distance":16,"cycles":9}"#,
                r#"{"seq":3,"cycle":4,"kind":"PeccVerdict","outcome":"clean"}"#,
                r#"{"seq":4,"cycle":5,"kind":"PeccVerdict","outcome":"corrected","k":2}"#,
                r#"{"seq":5,"cycle":6,"kind":"PeccVerdict","outcome":"detected_uncorrectable"}"#,
                r#"{"seq":6,"cycle":7,"kind":"ReqEnqueued","id":42,"group":7}"#,
                r#"{"seq":7,"cycle":8,"kind":"ReqDispatched","id":42,"group":7,"queue_delay":15}"#,
                r#"{"seq":8,"cycle":9,"kind":"ReqCompleted","id":42,"service_cycles":33}"#,
                r#"{"seq":9,"cycle":10,"kind":"ReqBackpressure","group":7}"#,
            ]
        );
        let spans = doc.get("spans").unwrap();
        assert_eq!(
            spans.to_string(),
            r#"{"total":2,"dropped":0,"spans":[{"id":1,"parent":0,"name":"request","start":5,"end":105},{"id":2,"parent":1,"name":"dispatch","start":20,"end":100}]}"#
        );
        assert_eq!(SpanSnapshot::from_json(spans), Some(t.snapshot().spans));
    }

    #[test]
    fn queue_events_are_distinguished() {
        assert!(ShiftEvent::ReqEnqueued { id: 0, group: 0 }.is_queue_event());
        assert!(ShiftEvent::ReqBackpressure { group: 0 }.is_queue_event());
        assert!(!ShiftEvent::PeccVerdict {
            outcome: PeccOutcome::Clean
        }
        .is_queue_event());
    }
}
