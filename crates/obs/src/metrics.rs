//! The metric store: counters, gauges and fixed-bucket histograms keyed
//! on `(name, label set)`.
//!
//! A flat metric (`"shift.latency_cycles"`) is the empty label set; a
//! dimensioned one carries explicit labels — `tenant`, `bank`,
//! `scheme`, `policy`, `workload` — and every combination is kept
//! separately, so reports can slice along any dimension. Label sets
//! are canonical: pairs sorted by key, duplicates dropped, so the
//! order a caller lists them in does not matter.
//!
//! Flat metrics take the lock-free path: their name index is an
//! [`RcuCell`] snapshot (a sorted `Vec` of `(name, Arc<cell>)` pairs,
//! binary-searched per call) and every metric cell is plain atomics,
//! so recording an existing metric takes one atomic pointer load, a
//! short binary search, and one atomic RMW — no mutex, no allocation.
//! Only *creating* a flat metric serialises on a writer mutex, which
//! copies the index, inserts, and atomically swaps the new snapshot
//! in; each retired copy is kept until the registry drops, which is
//! cheap because flat names number in the tens.
//!
//! Labeled metrics are per-run summaries, not per-event
//! instrumentation, and a run can create thousands of label sets
//! (one per tenant, bank and cell). They live in a mutex-guarded
//! ordered map beside the flat index: a recording call canonicalises
//! its labels and takes the mutex, and creating a key is one map
//! insertion, so memory stays linear in the number of keys.
//!
//! # Orderings audit (multi-worker case)
//!
//! The index is published with `Release` and read with `Acquire` (the
//! `RcuCell` contract), so a reader that finds a cell always sees its
//! fully initialised state. Cell *updates* are `Relaxed` atomic RMWs:
//! RMWs cannot lose increments regardless of ordering, and snapshot
//! visibility is provided by the caller's join edge (the sweep drivers
//! snapshot after joining their workers). Gauge/histogram `f64` state
//! is stored as bit patterns in `AtomicU64` and combined with
//! compare-exchange loops, so concurrent `observe` calls are lossless
//! too.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rtm_par::rcu::RcuCell;

use crate::json::Json;

/// Default histogram bucket upper bounds: a 1–2–5 ladder covering
/// nine decades, suitable for cycle counts and latencies.
pub const DEFAULT_BUCKETS: [f64; 28] = [
    1.0, 2.0, 5.0, 1.0e1, 2.0e1, 5.0e1, 1.0e2, 2.0e2, 5.0e2, 1.0e3, 2.0e3, 5.0e3, 1.0e4, 2.0e4,
    5.0e4, 1.0e5, 2.0e5, 5.0e5, 1.0e6, 2.0e6, 5.0e6, 1.0e7, 2.0e7, 5.0e7, 1.0e8, 2.0e8, 5.0e8,
    1.0e9,
];

/// A canonical label set: `(key, value)` pairs sorted, no duplicates.
type Labels = Vec<(String, String)>;

fn canonical(labels: &[(&str, &str)]) -> Labels {
    let mut pairs: Labels = labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    pairs.sort();
    pairs.dedup();
    pairs
}

/// Adds `delta` to an `f64` stored as bits in an `AtomicU64`, losslessly
/// under concurrency via a compare-exchange loop.
fn atomic_f64_add(cell: &AtomicU64, delta: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + delta).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Folds `value` into an `f64` min-or-max cell (bits in an `AtomicU64`)
/// with a compare-exchange loop that only writes when `value` improves
/// on the current extreme.
fn atomic_f64_extreme(cell: &AtomicU64, value: f64, take: impl Fn(f64, f64) -> bool) {
    let mut cur = cell.load(Ordering::Relaxed);
    while take(value, f64::from_bits(cur)) {
        match cell.compare_exchange_weak(cur, value.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// One live metric cell: plain atomics, shared across index snapshots
/// through an `Arc` so every snapshot generation observes the same
/// state.
#[derive(Debug)]
enum Cell {
    Counter(AtomicU64),
    /// `f64` bits.
    Gauge(AtomicU64),
    Histogram(AtomicHist),
}

impl Cell {
    fn value(&self) -> MetricValue {
        match self {
            Cell::Counter(v) => MetricValue::Counter(v.load(Ordering::Relaxed)),
            Cell::Gauge(v) => MetricValue::Gauge(f64::from_bits(v.load(Ordering::Relaxed))),
            Cell::Histogram(h) => MetricValue::Histogram(h.summary()),
        }
    }
}

/// Lock-free histogram state: `counts[i]` tallies observations with
/// `value <= bounds[i]`, the final slot is the overflow bucket, and the
/// `f64` moments are bit patterns.
#[derive(Debug)]
struct AtomicHist {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl AtomicHist {
    fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0.0f64.to_bits()),
            min: AtomicU64::new(f64::INFINITY.to_bits()),
            max: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Records `value` `n` times. The sum grows by `value * n` in one
    /// addition, which equals `n` single additions whenever every
    /// partial sum is exact (integer values below 2^53).
    fn observe_n(&self, value: f64, n: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(n, Ordering::Relaxed);
        atomic_f64_add(&self.sum, value * n as f64);
        atomic_f64_extreme(&self.min, value, |v, cur| v < cur);
        atomic_f64_extreme(&self.max, value, |v, cur| v > cur);
    }

    fn summary(&self) -> HistogramSummary {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        summarise(
            &self.bounds,
            &self.counts.iter().map(load).collect::<Vec<_>>(),
            f64::from_bits(load(&self.sum)),
            f64::from_bits(load(&self.min)),
            f64::from_bits(load(&self.max)),
        )
    }
}

/// The flat-metric index: `(name, cell)` pairs sorted by name, so
/// lookups are a binary search and snapshots need no extra sort.
type MetricIndex = Vec<(String, Arc<Cell>)>;

/// The metric store (see the module docs for keys and cost model).
///
/// Names are free-form dotted strings (`"shift.latency_cycles"`). A key
/// keeps the kind of its first recording; recording a different kind
/// under the same key is ignored rather than panicking, so
/// instrumentation can never take a simulation down.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Read-mostly snapshot of the flat-metric index; recording threads
    /// read it lock-free, creation swaps in a copy under `writer`.
    index: RcuCell<MetricIndex>,
    /// Serialises flat-metric creation (never held on the recording
    /// fast path).
    writer: Mutex<()>,
    /// Labeled metrics keyed on `(name, canonical label set)`.
    labeled: Mutex<BTreeMap<(String, Labels), Cell>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self {
            index: RcuCell::new(Vec::new()),
            writer: Mutex::new(()),
            labeled: Mutex::new(BTreeMap::new()),
        }
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `op` on the cell registered under `(name, labels)`,
    /// creating it with `make` first if absent. A flat metric (no
    /// labels) is found lock-free: one index load plus a binary search.
    /// Its miss path takes the writer mutex, re-checks (another thread
    /// may have created the metric meanwhile), then publishes a copied
    /// index with the new entry. A labeled metric is found or inserted
    /// under the labeled map's mutex.
    fn with_cell(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Cell,
        op: impl Fn(&Cell),
    ) {
        if !labels.is_empty() {
            let mut labeled = self.labeled.lock().expect("metrics registry poisoned");
            op(labeled
                .entry((name.to_string(), canonical(labels)))
                .or_insert_with(make));
            return;
        }
        let find = |index: &MetricIndex| index.binary_search_by(|(n, _)| n.as_str().cmp(name));
        {
            let index = self.index.read();
            if let Ok(i) = find(index) {
                op(&index[i].1);
                return;
            }
        }
        let _writer = self.writer.lock().expect("metrics registry poisoned");
        let index = self.index.read();
        match find(index) {
            Ok(i) => op(&index[i].1),
            Err(pos) => {
                let cell = Arc::new(make());
                let mut next = index.clone();
                next.insert(pos, (name.to_string(), Arc::clone(&cell)));
                self.index.replace(next);
                op(&cell);
            }
        }
    }

    fn count(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        self.with_cell(
            name,
            labels,
            || Cell::Counter(AtomicU64::new(0)),
            |cell| match cell {
                Cell::Counter(v) => {
                    v.fetch_add(delta, Ordering::Relaxed);
                }
                _ => debug_assert!(false, "metric {name} is not a counter"),
            },
        );
    }

    fn set(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.with_cell(
            name,
            labels,
            || Cell::Gauge(AtomicU64::new(0.0f64.to_bits())),
            |cell| match cell {
                Cell::Gauge(v) => v.store(value.to_bits(), Ordering::Relaxed),
                _ => debug_assert!(false, "metric {name} is not a gauge"),
            },
        );
    }

    fn record(&self, name: &str, labels: &[(&str, &str)], value: f64, bounds: &[f64], n: u64) {
        self.with_cell(
            name,
            labels,
            || Cell::Histogram(AtomicHist::new(bounds)),
            |cell| match cell {
                Cell::Histogram(h) => h.observe_n(value, n),
                _ => debug_assert!(false, "metric {name} is not a histogram"),
            },
        );
    }

    /// Adds `delta` to the counter `name`, creating it at zero first.
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.count(name, &[], delta);
    }

    /// Folds a per-run count into counter `name`: adds `n` when it is
    /// non-zero, so the counter exists only if the run counted
    /// something — the same registry per-event counting would leave.
    pub fn fold_count(&self, name: &str, n: u64) {
        if n > 0 {
            self.counter_add(name, n);
        }
    }

    /// Sets the gauge `name` to `value`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.set(name, &[], value);
    }

    /// Records `value` into the histogram `name` with the
    /// [`DEFAULT_BUCKETS`] layout.
    pub fn observe(&self, name: &str, value: f64) {
        self.record(name, &[], value, &DEFAULT_BUCKETS, 1);
    }

    /// Records `value` `n` times into the histogram `name` with the
    /// [`DEFAULT_BUCKETS`] layout, as `n` calls of [`Self::observe`]
    /// would for integer values; does nothing when `n` is 0.
    pub fn observe_n(&self, name: &str, value: f64, n: u64) {
        if n > 0 {
            self.record(name, &[], value, &DEFAULT_BUCKETS, n);
        }
    }

    /// Records `value` into the histogram `name`, creating it with the
    /// given strictly increasing bucket upper bounds on first use.
    /// Later calls reuse the existing layout.
    pub fn observe_with(&self, name: &str, value: f64, bounds: &[f64]) {
        self.record(name, &[], value, bounds, 1);
    }

    /// Adds `delta` to counter `name` under a label set.
    pub fn counter_add_labeled(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        self.count(name, labels, delta);
    }

    /// Sets gauge `name` under a label set.
    pub fn gauge_set_labeled(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.set(name, labels, value);
    }

    /// Records `value` into histogram `name` under a label set, with the
    /// [`DEFAULT_BUCKETS`] layout.
    pub fn observe_labeled(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.record(name, labels, value, &DEFAULT_BUCKETS, 1);
    }

    /// A copy of every flat metric, sorted by name. Cell values are
    /// read with relaxed loads — take snapshots when no workers are
    /// recording if the copy must be one consistent cut.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let metrics = self
            .index
            .read()
            .iter()
            .map(|(name, cell)| MetricSnapshot {
                name: name.clone(),
                value: cell.value(),
            })
            .collect();
        RegistrySnapshot { metrics }
    }

    /// A copy of every labeled metric, sorted by `(name, labels)`.
    pub fn labeled_snapshot(&self) -> LabeledSnapshot {
        let entries = self
            .labeled
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|((name, labels), cell)| LabeledMetricSnapshot {
                name: name.clone(),
                labels: labels.clone(),
                value: cell.value(),
            })
            .collect();
        LabeledSnapshot { entries }
    }
}

fn summarise(bounds: &[f64], counts: &[u64], sum: f64, min: f64, max: f64) -> HistogramSummary {
    let count: u64 = counts.iter().sum();
    let (min, max) = if count == 0 { (0.0, 0.0) } else { (min, max) };
    let q = |q| bucket_quantile(bounds, counts, count, min, max, q);
    HistogramSummary {
        count,
        sum,
        min,
        max,
        p50: q(0.50),
        p95: q(0.95),
        p99: q(0.99),
        buckets: bounds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(counts.iter().copied())
            .collect(),
    }
}

/// Quantile estimate by linear interpolation inside the bucket that
/// contains the target rank; exact at bucket edges and clamped to the
/// observed `[min, max]`.
///
/// # Edge cases (pinned by unit tests)
///
/// * **Empty histogram**: every quantile is `0.0` (not NaN), matching
///   `min`/`max`, which are reported as `0.0` when `count == 0`.
/// * **Single sample `v`**: every quantile is exactly `v` — the clamp
///   to `[min, max] = [v, v]` collapses the in-bucket interpolation.
/// * **Point mass** (all samples equal): same collapse, exact value.
///
/// These match the *nearest-rank* convention used for exact sample
/// vectors (see [`nearest_rank`]): both report an actually observed
/// value for degenerate inputs rather than an interpolated one.
fn bucket_quantile(bounds: &[f64], counts: &[u64], count: u64, min: f64, max: f64, q: f64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let rank = q * count as f64;
    let mut cumulative = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let next = cumulative + c;
        if next as f64 >= rank {
            let lower = if i == 0 { min.min(0.0) } else { bounds[i - 1] };
            let upper = if i < bounds.len() { bounds[i] } else { max };
            let frac = (rank - cumulative as f64) / c as f64;
            let est = lower + frac * (upper - lower);
            return est.clamp(min, max);
        }
        cumulative = next;
    }
    max
}

/// Exact nearest-rank percentile over a **sorted** sample slice:
/// `sorted[(n - 1) * pct / 100]` with integer arithmetic, so results
/// are bit-identical across platforms and thread counts.
///
/// # Edge cases (pinned by unit tests)
///
/// * **Empty slice**: returns `0` (there is no sample to report; the
///   zero matches the empty [`HistogramSummary`], whose `min`/`max`/
///   quantiles all read `0`).
/// * **Single sample**: every percentile — p0 through p100 — returns
///   that sample: the only observed value *is* every quantile.
/// * The index `(n - 1) * pct / 100` rounds the rank *down*, so p50 of
///   `[1, 2]` is `1` (the lower of the two), and p99 of 100 samples is
///   the 99th (index 98), not the maximum.
///
/// # Panics
///
/// Debug-asserts that `sorted` is non-decreasing and `pct <= 100`.
pub fn nearest_rank(sorted: &[u64], pct: usize) -> u64 {
    debug_assert!(pct <= 100, "percentile out of range: {pct}");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "nearest_rank needs sorted input"
    );
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * pct / 100]
}

/// A point-in-time copy of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// The metric's registered name.
    pub name: String,
    /// Its value at snapshot time.
    pub value: MetricValue,
}

/// The value of a snapshotted metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic event count.
    Counter(u64),
    /// Last-set (or accumulated) level.
    Gauge(f64),
    /// Distribution summary.
    Histogram(HistogramSummary),
}

/// Summary of a histogram at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Median estimate.
    pub p50: f64,
    /// 95th-percentile estimate.
    pub p95: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
    /// `(upper_bound, count)` per bucket; the last bound is
    /// `f64::INFINITY` (the overflow bucket).
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSummary {
    /// Mean of observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A point-in-time copy of a registry's flat metrics, sorted by name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegistrySnapshot {
    /// All metrics, sorted by name.
    pub metrics: Vec<MetricSnapshot>,
}

impl RegistrySnapshot {
    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| &m.value)
    }

    /// The value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The value of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The summary of histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        match self.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Encodes the snapshot as a JSON object keyed by metric name.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| (m.name.clone(), metric_to_json(&m.value)))
                .collect(),
        )
    }

    /// Decodes a snapshot previously produced by [`Self::to_json`].
    ///
    /// Returns `None` when the document does not have the snapshot
    /// shape.
    pub fn from_json(doc: &Json) -> Option<RegistrySnapshot> {
        let Json::Obj(pairs) = doc else { return None };
        let mut metrics = Vec::with_capacity(pairs.len());
        for (name, value) in pairs {
            metrics.push(MetricSnapshot {
                name: name.clone(),
                value: metric_from_json(value)?,
            });
        }
        Some(RegistrySnapshot { metrics })
    }
}

/// A point-in-time copy of one labeled metric.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledMetricSnapshot {
    /// The metric's registered name.
    pub name: String,
    /// Sorted `(key, value)` label pairs.
    pub labels: Vec<(String, String)>,
    /// Its value at snapshot time.
    pub value: MetricValue,
}

impl LabeledMetricSnapshot {
    /// The labels as a compact `k=v;k=v` string (CSV-friendly).
    pub fn label_string(&self) -> String {
        self.labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(";")
    }
}

/// A copy of a registry's labeled metrics, sorted by `(name, labels)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LabeledSnapshot {
    /// All labeled metrics, sorted by `(name, labels)`.
    pub entries: Vec<LabeledMetricSnapshot>,
}

impl LabeledSnapshot {
    /// Looks up a metric by name and label set (any pair order).
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        let labels = canonical(labels);
        self.entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
            .map(|e| &e.value)
    }

    /// The value of counter `name` under `labels`, if present.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.get(name, labels) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Every entry of metric `name`, in label order.
    pub fn series(&self, name: &str) -> Vec<&LabeledMetricSnapshot> {
        self.entries.iter().filter(|e| e.name == name).collect()
    }

    /// Encodes the snapshot as a JSON array of labeled metrics.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.entries
                .iter()
                .map(|e| {
                    let labels = e
                        .labels
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect();
                    Json::obj(vec![
                        ("name", Json::Str(e.name.clone())),
                        ("labels", Json::Obj(labels)),
                        ("value", metric_to_json(&e.value)),
                    ])
                })
                .collect(),
        )
    }
}

fn bound_to_json(b: f64) -> Json {
    if b.is_infinite() {
        Json::Str("inf".to_string())
    } else {
        Json::Num(b)
    }
}

fn bound_from_json(j: &Json) -> Option<f64> {
    match j {
        Json::Str(s) if s == "inf" => Some(f64::INFINITY),
        Json::Num(v) => Some(*v),
        _ => None,
    }
}

fn metric_to_json(value: &MetricValue) -> Json {
    match value {
        MetricValue::Counter(v) => Json::obj(vec![
            ("type", Json::Str("counter".into())),
            ("value", Json::Num(*v as f64)),
        ]),
        MetricValue::Gauge(v) => Json::obj(vec![
            ("type", Json::Str("gauge".into())),
            ("value", Json::Num(*v)),
        ]),
        MetricValue::Histogram(h) => Json::obj(vec![
            ("type", Json::Str("histogram".into())),
            ("count", Json::Num(h.count as f64)),
            ("sum", Json::Num(h.sum)),
            ("min", Json::Num(h.min)),
            ("max", Json::Num(h.max)),
            ("p50", Json::Num(h.p50)),
            ("p95", Json::Num(h.p95)),
            ("p99", Json::Num(h.p99)),
            (
                "buckets",
                Json::Arr(
                    h.buckets
                        .iter()
                        .map(|&(le, count)| {
                            Json::obj(vec![
                                ("le", bound_to_json(le)),
                                ("count", Json::Num(count as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

fn metric_from_json(doc: &Json) -> Option<MetricValue> {
    match doc.get("type")?.as_str()? {
        "counter" => Some(MetricValue::Counter(doc.get("value")?.as_u64()?)),
        "gauge" => Some(MetricValue::Gauge(doc.get("value")?.as_f64()?)),
        "histogram" => {
            let buckets = doc
                .get("buckets")?
                .as_arr()?
                .iter()
                .map(|b| Some((bound_from_json(b.get("le")?)?, b.get("count")?.as_u64()?)))
                .collect::<Option<Vec<_>>>()?;
            Some(MetricValue::Histogram(HistogramSummary {
                count: doc.get("count")?.as_u64()?,
                sum: doc.get("sum")?.as_f64()?,
                min: doc.get("min")?.as_f64()?,
                max: doc.get("max")?.as_f64()?,
                p50: doc.get("p50")?.as_f64()?,
                p95: doc.get("p95")?.as_f64()?,
                p99: doc.get("p99")?.as_f64()?,
                buckets,
            }))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = MetricsRegistry::new();
        r.counter_add("shift.count", 3);
        r.counter_add("shift.count", 4);
        r.gauge_set("energy.pj", 10.0);
        r.gauge_set("energy.pj", 4.0);
        r.fold_count("shift.count", 2);
        r.fold_count("llc.misses", 0);
        let snap = r.snapshot();
        assert_eq!(snap.counter("shift.count"), Some(9));
        assert_eq!(snap.gauge("energy.pj"), Some(4.0));
        assert_eq!(
            snap.counter("llc.misses"),
            None,
            "a zero fold creates nothing"
        );
    }

    #[test]
    fn histogram_counts_and_moments() {
        let r = MetricsRegistry::new();
        for v in [1.0, 2.0, 3.0, 100.0] {
            r.observe("lat", v);
        }
        let snap = r.snapshot();
        let h = snap.histogram("lat").expect("histogram");
        assert_eq!(h.count, 4);
        assert!((h.sum - 106.0).abs() < 1e-12);
        assert_eq!((h.min, h.max), (1.0, 100.0));
        assert!((h.mean() - 26.5).abs() < 1e-12);
        let total: u64 = h.buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 4);
        assert!(h.buckets.last().expect("overflow").0.is_infinite());
    }

    #[test]
    fn quantiles_are_ordered_and_within_range() {
        let r = MetricsRegistry::new();
        for i in 0..1000 {
            r.observe("lat", (i % 97) as f64 + 1.0);
        }
        let snap = r.snapshot();
        let h = snap.histogram("lat").expect("histogram");
        assert!(h.min <= h.p50 && h.p50 <= h.p95 && h.p95 <= h.p99 && h.p99 <= h.max);
        // Uniform-ish over [1, 97]: p50 should sit near the middle.
        assert!(h.p50 > 20.0 && h.p50 < 80.0, "p50 {}", h.p50);
    }

    #[test]
    fn quantiles_of_empty_histogram_are_zero() {
        // Pinned edge case: an empty histogram reports 0.0 for every
        // summary field rather than NaN or an interpolation artefact.
        let h = AtomicHist::new(&DEFAULT_BUCKETS).summary();
        assert_eq!(h.count, 0);
        assert_eq!((h.min, h.max), (0.0, 0.0));
        assert_eq!((h.p50, h.p95, h.p99), (0.0, 0.0, 0.0));
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn quantiles_of_single_sample_and_point_mass_are_exact() {
        // Pinned edge case: with one observation (or many equal ones),
        // every quantile is that value — the [min, max] clamp collapses
        // the in-bucket interpolation to the exact value.
        for v in [0.0, 1.0, 3.7, 42.0, 1.5e8, 9.9e9] {
            for n in [1, 50] {
                let hist = AtomicHist::new(&DEFAULT_BUCKETS);
                for _ in 0..n {
                    hist.observe_n(v, 1);
                }
                let h = hist.summary();
                assert_eq!(h.count, n);
                assert_eq!((h.min, h.max), (v, v));
                assert_eq!((h.p50, h.p95, h.p99), (v, v, v), "value {v}");
            }
        }
    }

    #[test]
    fn observe_n_equals_repeated_observes_for_integer_values() {
        let (one_by_one, batched) = (MetricsRegistry::new(), MetricsRegistry::new());
        for (v, n) in [(1.0, 7u64), (8.0, 0), (108.0, 3), (1.0, 2), (2.5e6, 11)] {
            for _ in 0..n {
                one_by_one.observe("lat", v);
            }
            batched.observe_n("lat", v, n);
        }
        assert_eq!(one_by_one.snapshot(), batched.snapshot());
        // n = 0 creates nothing.
        let empty = MetricsRegistry::new();
        empty.observe_n("lat", 1.0, 0);
        assert!(empty.snapshot().metrics.is_empty());
    }

    #[test]
    fn nearest_rank_pins_edge_cases() {
        // Empty: no sample to report, so 0 (matching the empty
        // histogram summary).
        assert_eq!(nearest_rank(&[], 50), 0);
        assert_eq!(nearest_rank(&[], 99), 0);
        // Single sample: every percentile is that sample.
        for pct in [0, 1, 50, 95, 99, 100] {
            assert_eq!(nearest_rank(&[7], pct), 7, "p{pct}");
        }
        // Two samples: the floor rank picks the lower one at p50.
        assert_eq!(nearest_rank(&[1, 2], 50), 1);
        assert_eq!(nearest_rank(&[1, 2], 100), 2);
        // 100 samples 1..=100: p99 is the 99th, not the max.
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 50), 50);
        assert_eq!(nearest_rank(&v, 95), 95);
        assert_eq!(nearest_rank(&v, 99), 99);
        assert_eq!(nearest_rank(&v, 100), 100);
    }

    #[test]
    fn custom_buckets_are_kept() {
        let r = MetricsRegistry::new();
        r.observe_with("d", 3.0, &[1.0, 4.0, 9.0]);
        r.observe_with("d", 100.0, &[1.0, 4.0, 9.0]);
        let snap = r.snapshot();
        let h = snap.histogram("d").expect("histogram");
        assert_eq!(h.buckets.len(), 4);
        assert_eq!(h.buckets[1], (4.0, 1));
        assert_eq!(h.buckets[3].1, 1, "overflow bucket holds 100.0");
    }

    #[test]
    fn concurrent_updates_are_lossless() {
        let r = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let r = &r;
                scope.spawn(move || {
                    let tenant = t.to_string();
                    for i in 0..1_000u64 {
                        r.counter_add("shared.count", 1);
                        r.counter_add(&format!("worker{t}.count"), 1);
                        r.observe("shared.hist", (i % 10) as f64);
                        r.counter_add_labeled("req", &[("tenant", &tenant)], 1);
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.counter("shared.count"), Some(8_000));
        for t in 0..8 {
            assert_eq!(snap.counter(&format!("worker{t}.count")), Some(1_000));
        }
        assert_eq!(snap.histogram("shared.hist").expect("hist").count, 8_000);
        let labeled = r.labeled_snapshot();
        for t in 0..8 {
            let tenant = t.to_string();
            assert_eq!(labeled.counter("req", &[("tenant", &tenant)]), Some(1_000));
        }
    }

    #[test]
    fn snapshot_is_sorted() {
        let r = MetricsRegistry::new();
        for i in (0..100).rev() {
            r.counter_add(&format!("m{i:03}"), i);
        }
        let snap = r.snapshot();
        assert_eq!(snap.metrics.len(), 100);
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn flat_and_labeled_metrics_share_the_store_but_not_the_views() {
        let r = MetricsRegistry::new();
        r.counter_add("serve.requests", 1);
        r.counter_add_labeled("serve.requests", &[("tenant", "0")], 3);
        assert_eq!(r.snapshot().metrics.len(), 1);
        assert_eq!(r.snapshot().counter("serve.requests"), Some(1));
        let labeled = r.labeled_snapshot();
        assert_eq!(labeled.entries.len(), 1);
        assert_eq!(
            labeled.counter("serve.requests", &[("tenant", "0")]),
            Some(3)
        );
    }

    #[test]
    fn labeled_keys_stay_out_of_the_flat_index() {
        // The flat index retains one copy per flat creation until the
        // registry drops; labeled keys must not add to it, or a run
        // with thousands of label sets retains a quadratic number of
        // entries.
        let r = MetricsRegistry::new();
        r.counter_add("serve.requests", 1);
        for tenant in 0..4_000 {
            let t = tenant.to_string();
            r.counter_add_labeled("serve.requests", &[("tenant", &t)], 1);
            r.gauge_set_labeled("serve.p99", &[("tenant", &t)], 1.0);
        }
        assert_eq!(r.index.read().len(), 1);
        assert_eq!(r.labeled.lock().unwrap().len(), 8_000);
        assert_eq!(r.labeled_snapshot().entries.len(), 8_000);
    }

    #[test]
    fn label_sets_are_canonical() {
        let r = MetricsRegistry::new();
        r.counter_add_labeled("c", &[("tenant", "0"), ("bank", "3")], 1);
        r.counter_add_labeled("c", &[("bank", "3"), ("tenant", "0"), ("bank", "3")], 1);
        // "ab"+"c" must not collide with "a"+"bc".
        r.counter_add_labeled("c", &[("ab", "c")], 1);
        r.counter_add_labeled("c", &[("a", "bc")], 1);
        let snap = r.labeled_snapshot();
        assert_eq!(snap.entries.len(), 3);
        assert_eq!(
            snap.counter("c", &[("bank", "3"), ("tenant", "0")]),
            Some(2)
        );
        assert_eq!(
            snap.counter("c", &[("tenant", "0"), ("bank", "3")]),
            Some(2)
        );
        assert_eq!(snap.series("c").len(), 3);
        let keys: Vec<String> = snap.entries.iter().map(|e| e.label_string()).collect();
        assert_eq!(keys, ["a=bc", "ab=c", "bank=3;tenant=0"]);
    }

    #[test]
    fn snapshot_json_round_trip_and_labeled_export() {
        let r = MetricsRegistry::new();
        r.counter_add("a.count", 12);
        r.gauge_set("b.level", -2.5);
        for v in [1.0, 7.0, 7.0, 30.0] {
            r.observe("c.hist", v);
        }
        r.gauge_set_labeled("bank.busy_frac", &[("bank", "5")], 0.25);
        r.observe_labeled("serve.latency", &[("tenant", "1")], 33.0);
        let snap = r.snapshot();
        let parsed = Json::parse(&snap.to_json().pretty()).expect("parse");
        assert_eq!(RegistrySnapshot::from_json(&parsed), Some(snap));
        let labeled = r.labeled_snapshot().to_json().to_string();
        let expected = concat!(
            r#"[{"name":"bank.busy_frac","labels":{"bank":"5"},"value":{"type":"gauge","value":0.25}},"#,
            r#"{"name":"serve.latency","labels":{"tenant":"1"},"value":{"type":"histogram","count":1,"#,
        );
        assert!(labeled.starts_with(expected), "{labeled}");
    }
}
