//! CSV and file exporters for snapshots.
//!
//! [`to_csv`] is the single CSV serialiser for the whole workspace;
//! `rtm_core::experiments::to_csv` re-exports it so experiment drivers
//! and the observability exporters cannot drift apart. Span snapshots
//! additionally export as [`folded_stacks`] (the flamegraph collapsed
//! format: one `path value` line per stack) and as [`chrome_trace`]
//! (Chrome/Perfetto `trace_event` JSON, loadable in `about:tracing`).

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use crate::json::Json;
use crate::metrics::{LabeledSnapshot, MetricValue, RegistrySnapshot};
use crate::trace::{SpanSnapshot, TraceSnapshot};

/// Serialises rows of cells as RFC-4180-style CSV (quotes doubled,
/// cells containing commas/quotes/newlines quoted).
pub fn to_csv(rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .map(|cell| {
                if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                    format!("\"{}\"", cell.replace('"', "\"\""))
                } else {
                    cell.clone()
                }
            })
            .collect();
        out.push_str(&line.join(","));
        out.push('\n');
    }
    out
}

fn num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:?}")
    }
}

impl RegistrySnapshot {
    /// Rows for CSV export: `name,type,count,sum|value,min,max,p50,p95,p99`,
    /// header included.
    pub fn rows(&self) -> Vec<Vec<String>> {
        let mut rows = vec![vec![
            "name".to_string(),
            "type".to_string(),
            "count".to_string(),
            "value".to_string(),
            "min".to_string(),
            "max".to_string(),
            "p50".to_string(),
            "p95".to_string(),
            "p99".to_string(),
        ]];
        for m in &self.metrics {
            let row = match &m.value {
                MetricValue::Counter(v) => vec![
                    m.name.clone(),
                    "counter".into(),
                    String::new(),
                    v.to_string(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                ],
                MetricValue::Gauge(v) => vec![
                    m.name.clone(),
                    "gauge".into(),
                    String::new(),
                    num(*v),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                ],
                MetricValue::Histogram(h) => vec![
                    m.name.clone(),
                    "histogram".into(),
                    h.count.to_string(),
                    num(h.sum),
                    num(h.min),
                    num(h.max),
                    num(h.p50),
                    num(h.p95),
                    num(h.p99),
                ],
            };
            rows.push(row);
        }
        rows
    }

    /// CSV rendering of [`Self::rows`].
    pub fn to_csv(&self) -> String {
        to_csv(&self.rows())
    }
}

impl TraceSnapshot {
    /// The serving-layer queue events as CSV (header included):
    /// enqueue/dispatch/complete/backpressure, with blanks where a kind
    /// has no such field.
    pub fn queue_csv(&self) -> String {
        const FIELDS: [&str; 4] = ["id", "group", "queue_delay", "service_cycles"];
        let mut rows = vec![["seq", "cycle", "kind"]
            .iter()
            .chain(&FIELDS)
            .map(|s| s.to_string())
            .collect::<Vec<_>>()];
        for e in self.events.iter().filter(|e| e.event.is_queue_event()) {
            let fields = e.event.fields();
            let mut row = vec![
                e.seq.to_string(),
                e.cycle.to_string(),
                e.event.kind().to_string(),
            ];
            row.extend(FIELDS.iter().map(|&f| {
                fields
                    .iter()
                    .find(|(name, _)| *name == f)
                    .and_then(|(_, v)| v.as_u64())
                    .map_or(String::new(), |v| v.to_string())
            }));
            rows.push(row);
        }
        to_csv(&rows)
    }
}

impl LabeledSnapshot {
    /// Rows for CSV export:
    /// `name,labels,type,count,value,min,max,p50,p95,p99` with labels
    /// rendered as `k=v;k=v`, header included.
    pub fn rows(&self) -> Vec<Vec<String>> {
        let mut rows = vec![vec![
            "name".to_string(),
            "labels".to_string(),
            "type".to_string(),
            "count".to_string(),
            "value".to_string(),
            "min".to_string(),
            "max".to_string(),
            "p50".to_string(),
            "p95".to_string(),
            "p99".to_string(),
        ]];
        for e in &self.entries {
            let mut row = vec![e.name.clone(), e.label_string()];
            match &e.value {
                MetricValue::Counter(v) => {
                    row.extend(["counter".into(), String::new(), v.to_string()]);
                    row.resize(10, String::new());
                }
                MetricValue::Gauge(v) => {
                    row.extend(["gauge".into(), String::new(), num(*v)]);
                    row.resize(10, String::new());
                }
                MetricValue::Histogram(h) => {
                    row.extend([
                        "histogram".into(),
                        h.count.to_string(),
                        num(h.sum),
                        num(h.min),
                        num(h.max),
                        num(h.p50),
                        num(h.p95),
                        num(h.p99),
                    ]);
                }
            }
            rows.push(row);
        }
        rows
    }

    /// CSV rendering of [`Self::rows`].
    pub fn to_csv(&self) -> String {
        to_csv(&self.rows())
    }
}

/// Renders a span snapshot in the flamegraph *collapsed stack* format:
/// one `root;child;leaf value` line per distinct stack, where the value
/// is the stack's total *self* cycles (time not covered by retained
/// children). Lines are sorted by path and zero-valued stacks are
/// omitted, so equal snapshots render byte-identically and the output
/// feeds `flamegraph.pl` / speedscope / `inferno` unchanged.
pub fn folded_stacks(snap: &SpanSnapshot) -> String {
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for span in &snap.spans {
        let cycles = snap.self_cycles(span);
        if cycles > 0 {
            *stacks.entry(snap.path_of(span)).or_insert(0) += cycles;
        }
    }
    let mut out = String::new();
    for (path, cycles) in stacks {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&cycles.to_string());
        out.push('\n');
    }
    out
}

/// Renders a span snapshot as Chrome `trace_event` JSON (complete `X`
/// events; 1 simulated cycle = 1 µs), loadable in `about:tracing` or
/// Perfetto. Span ids and parents ride along in `args`.
pub fn chrome_trace(snap: &SpanSnapshot) -> Json {
    Json::obj(vec![
        ("displayTimeUnit", Json::Str("ns".to_string())),
        (
            "traceEvents",
            Json::Arr(
                snap.spans
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("name", Json::Str(s.name.clone())),
                            ("ph", Json::Str("X".to_string())),
                            ("ts", Json::Num(s.start_cycle as f64)),
                            ("dur", Json::Num(s.duration() as f64)),
                            ("pid", Json::Num(0.0)),
                            ("tid", Json::Num(0.0)),
                            (
                                "args",
                                Json::obj(vec![
                                    ("id", Json::Num(s.id as f64)),
                                    ("parent", Json::Num(s.parent as f64)),
                                ]),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Writes a JSON document to `path` in pretty form. `.csv` paths are
/// not special-cased here; callers pick the representation.
pub fn write_json(path: &Path, doc: &Json) -> io::Result<()> {
    std::fs::write(path, doc.pretty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::trace::{ShiftEvent, Trace};

    #[test]
    fn csv_quotes_special_cells() {
        let rows = vec![
            vec!["a".into(), "b,c".into()],
            vec!["say \"hi\"".into(), "plain".into()],
        ];
        assert_eq!(to_csv(&rows), "a,\"b,c\"\n\"say \"\"hi\"\"\",plain\n");
    }

    #[test]
    fn snapshot_csv_has_header_and_all_metrics() {
        let r = MetricsRegistry::new();
        r.counter_add("shift.count", 9);
        r.gauge_set("energy.pj", 1.25);
        r.observe("lat", 3.0);
        let csv = r.snapshot().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name,type,count"));
        assert!(csv.contains("shift.count,counter,,9"));
        assert!(csv.contains("energy.pj,gauge,,1.25"));
        assert!(csv.contains("lat,histogram,1,3"));
    }

    #[test]
    fn queue_csv_filters_to_queue_events() {
        let t = Trace::new();
        t.record_event(
            1,
            ShiftEvent::StsPulse {
                distance: 2,
                cycles: 9,
            },
        );
        t.record_event(5, ShiftEvent::ReqEnqueued { id: 9, group: 3 });
        t.record_event(
            8,
            ShiftEvent::ReqDispatched {
                id: 9,
                group: 3,
                queue_delay: 3,
            },
        );
        t.record_event(
            20,
            ShiftEvent::ReqCompleted {
                id: 9,
                service_cycles: 12,
            },
        );
        t.record_event(21, ShiftEvent::ReqBackpressure { group: 3 });
        let csv = t.snapshot().queue_csv();
        let lines: Vec<&str> = csv.lines().collect();
        // Header + the four queue events; the StsPulse is filtered.
        assert_eq!(
            lines,
            [
                "seq,cycle,kind,id,group,queue_delay,service_cycles",
                "1,5,ReqEnqueued,9,3,,",
                "2,8,ReqDispatched,9,3,3,",
                "3,20,ReqCompleted,9,,,12",
                "4,21,ReqBackpressure,,3,,",
            ]
        );
    }

    fn sample_spans() -> SpanSnapshot {
        let t = Trace::new();
        let req = t.record_span(0, "request", 0, 100);
        t.record_span(req, "queue", 0, 30);
        let d = t.record_span(req, "dispatch", 30, 95);
        t.record_span(d, "plan_shift", 30, 70);
        // Second request hitting the same stack shapes.
        let req2 = t.record_span(0, "request", 100, 140);
        t.record_span(req2, "queue", 100, 110);
        t.snapshot().spans
    }

    #[test]
    fn folded_stacks_aggregate_self_cycles_by_path() {
        let folded = folded_stacks(&sample_spans());
        let lines: Vec<&str> = folded.lines().collect();
        // Sorted by path; "request" self = (100-30-65) + (40-10).
        assert_eq!(
            lines,
            vec![
                "request 35",
                "request;dispatch 25",
                "request;dispatch;plan_shift 40",
                "request;queue 40",
            ]
        );
    }

    #[test]
    fn folded_stacks_omit_zero_frames() {
        let t = Trace::new();
        let a = t.record_span(0, "outer", 0, 10);
        t.record_span(a, "inner", 0, 10); // covers outer fully
        assert_eq!(folded_stacks(&t.snapshot().spans), "outer;inner 10\n");
    }

    #[test]
    fn chrome_trace_emits_complete_events() {
        let doc = chrome_trace(&sample_spans());
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 6);
        let first = &events[0];
        assert_eq!(first.get("name").unwrap().as_str(), Some("request"));
        assert_eq!(first.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(first.get("ts").unwrap().as_u64(), Some(0));
        assert_eq!(first.get("dur").unwrap().as_u64(), Some(100));
        assert_eq!(
            first.get("args").unwrap().get("parent").unwrap().as_u64(),
            Some(0)
        );
        // Parseable by our own JSON reader (and thus well-formed).
        assert!(Json::parse(&doc.pretty()).is_ok());
    }

    #[test]
    fn labeled_csv_has_labels_column() {
        let m = MetricsRegistry::new();
        m.counter_add_labeled("serve.requests", &[("tenant", "0"), ("bank", "2")], 7);
        m.observe_labeled("serve.latency", &[("tenant", "0")], 4.0);
        let csv = m.labeled_snapshot().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("name,labels,type"));
        assert_eq!(lines[1], "serve.latency,tenant=0,histogram,1,4,4,4,4,4,4");
        assert_eq!(lines[2], "serve.requests,bank=2;tenant=0,counter,,7,,,,,");
    }
}
