//! Unified observability for the `hifi-rtm` workspace.
//!
//! Observability is scoped to a run. The owner of a run — a binary, a
//! sweep, a serving simulation — creates an [`Obs`] handle and hands
//! clones of it to the objects it builds (the hierarchy, the LLC, the
//! shift controllers). The handle holds at most:
//!
//! * one [`metrics::MetricsRegistry`] of counters, gauges and
//!   fixed-bucket histograms keyed on `(name, label set)` — a flat
//!   metric is the empty label set — with p50/p95/p99 summaries;
//! * one [`trace::Trace`] — bounded windows of hierarchical,
//!   cycle-stamped spans (`request → dispatch → plan_shift →
//!   sts_pulse`) and of instant shift-transaction events
//!   ([`trace::ShiftEvent`]), exportable as folded stacks and Chrome
//!   `trace_event` JSON;
//! * a switch for [`progress::Progress`] heartbeats.
//!
//! Flat and labeled metrics share the one registry, but each has its
//! own switch ([`Obs::with_metrics`], [`Obs::with_labels`]), so a run
//! that only wants the labeled per-cell summaries pays nothing for
//! per-event flat metrics, and the reverse.
//!
//! [`attrib::AttributionTable`] adds exact per-cell cycle attribution
//! (components sum to the measured total within one cycle).
//!
//! The default handle records nothing, and checking it is a branch on
//! a null pointer, so uninstrumented runs pay essentially nothing. Two
//! runs with different handles never see each other's records, so
//! concurrent runs and tests are isolated. Counts a run's result
//! already carries (cache misses, shift steps, p-ECC checks, ...) are
//! folded into the registry once per run from that result rather than
//! counted again per event. Reports are written via [`json::Json`] and
//! [`export::to_csv`] — both implemented here because offline builds
//! cannot depend on external serialisation crates.
//!
//! # Examples
//!
//! ```
//! use rtm_obs::trace::{PeccOutcome, ShiftEvent};
//! use rtm_obs::Obs;
//!
//! let obs = Obs::default().with_metrics(true).with_trace(true);
//! obs.counter_add("shift.count", 1);
//! obs.observe("shift.latency_cycles", 18.0);
//! obs.record_event(7, ShiftEvent::PeccVerdict { outcome: PeccOutcome::Clean });
//!
//! let snap = obs.metrics().unwrap().snapshot();
//! assert_eq!(snap.counter("shift.count"), Some(1));
//! assert_eq!(obs.trace().unwrap().snapshot().events.len(), 1);
//!
//! // The default handle records nothing.
//! let off = Obs::default();
//! off.counter_add("shift.count", 1);
//! assert!(off.metrics().is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrib;
pub mod export;
pub mod json;
pub mod metrics;
pub mod progress;
pub mod trace;

use std::sync::Arc;

use metrics::MetricsRegistry;
use progress::Progress;
use trace::{ShiftEvent, Trace};

/// The stores one run records into.
#[derive(Debug, Default)]
struct Observer {
    metrics: Option<MetricsRegistry>,
    /// Whether flat metrics are recorded into `metrics`.
    flat: bool,
    /// Whether labeled metrics are recorded into `metrics`.
    labeled: bool,
    trace: Option<Trace>,
    progress: bool,
}

/// A cheaply cloned handle to a run's observer.
///
/// Clones share the same stores. The default handle records nothing.
/// Configure a handle with the `with_*` methods before cloning it.
#[derive(Debug, Clone, Default)]
pub struct Obs(Option<Arc<Observer>>);

impl Obs {
    fn configure(self, on: bool, f: impl FnOnce(&mut Observer)) -> Self {
        if !on {
            return self;
        }
        let mut observer = match self.0 {
            None => Observer::default(),
            Some(shared) => Arc::try_unwrap(shared).expect("configure an Obs before cloning it"),
        };
        f(&mut observer);
        Obs(Some(Arc::new(observer)))
    }

    /// This handle with a metrics registry when `on`.
    ///
    /// # Panics
    ///
    /// Panics if `on` and the handle has already been cloned.
    pub fn with_metrics(self, on: bool) -> Self {
        self.configure(on, |o| {
            o.metrics.get_or_insert_with(MetricsRegistry::new);
            o.flat = true;
        })
    }

    /// This handle with labeled metrics in its registry when `on`.
    ///
    /// # Panics
    ///
    /// Panics if `on` and the handle has already been cloned.
    pub fn with_labels(self, on: bool) -> Self {
        self.configure(on, |o| {
            o.metrics.get_or_insert_with(MetricsRegistry::new);
            o.labeled = true;
        })
    }

    /// This handle with a span and event trace when `on`.
    ///
    /// # Panics
    ///
    /// Panics if `on` and the handle has already been cloned.
    pub fn with_trace(self, on: bool) -> Self {
        self.configure(on, |o| o.trace = Some(Trace::new()))
    }

    /// This handle with progress heartbeats on stderr when `on`.
    ///
    /// # Panics
    ///
    /// Panics if `on` and the handle has already been cloned.
    pub fn with_progress(self, on: bool) -> Self {
        self.configure(on, |o| o.progress = true)
    }

    /// The run's metrics registry, if it records flat metrics.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        let observer = self.0.as_ref()?;
        observer.metrics.as_ref().filter(|_| observer.flat)
    }

    /// The run's metrics registry, if it records labeled metrics.
    pub fn labels(&self) -> Option<&MetricsRegistry> {
        let observer = self.0.as_ref()?;
        observer.metrics.as_ref().filter(|_| observer.labeled)
    }

    /// The run's trace, if it records spans and events.
    pub fn trace(&self) -> Option<&Trace> {
        self.0.as_ref()?.trace.as_ref()
    }

    /// A progress reporter for `total` units of work; it prints only
    /// when this handle has progress heartbeats on.
    pub fn progress(&self, label: impl Into<String>, total: u64, unit: &'static str) -> Progress {
        let active = self.0.as_ref().is_some_and(|o| o.progress);
        Progress::new(label, total, unit, active)
    }

    /// Adds to a flat counter (no-op without a registry).
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(reg) = self.metrics() {
            reg.counter_add(name, delta);
        }
    }

    /// Records into a default-bucket flat histogram (no-op without a
    /// registry).
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(reg) = self.metrics() {
            reg.observe(name, value);
        }
    }

    /// Records `value` `n` times into a default-bucket flat histogram
    /// (no-op without a registry, or when `n` is 0).
    pub fn observe_n(&self, name: &str, value: f64, n: u64) {
        if let Some(reg) = self.metrics() {
            reg.observe_n(name, value, n);
        }
    }

    /// Records an instant event (no-op without a trace).
    pub fn record_event(&self, cycle: u64, event: ShiftEvent) {
        if let Some(trace) = self.trace() {
            trace.record_event(cycle, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_handle_records_nothing() {
        let obs = Obs::default();
        obs.counter_add("t.count", 1);
        obs.observe("t.hist", 1.0);
        obs.record_event(0, ShiftEvent::ReqBackpressure { group: 1 });
        assert!(obs.metrics().is_none());
        assert!(obs.labels().is_none());
        assert!(obs.trace().is_none());
    }

    #[test]
    fn flat_and_labeled_switches_share_one_registry() {
        let labels_only = Obs::default().with_labels(true);
        assert!(labels_only.metrics().is_none());
        assert!(labels_only.labels().is_some());
        let both = Obs::default().with_metrics(true).with_labels(true);
        both.counter_add("t.count", 1);
        let reg = both.labels().unwrap();
        reg.counter_add_labeled("t.count", &[("tenant", "0")], 2);
        assert!(std::ptr::eq(reg, both.metrics().unwrap()));
        assert_eq!(reg.snapshot().counter("t.count"), Some(1));
        assert_eq!(reg.labeled_snapshot().entries.len(), 1);
    }

    #[test]
    fn clones_share_stores_and_handles_are_isolated() {
        let a = Obs::default().with_metrics(true);
        let b = Obs::default().with_metrics(true);
        let a2 = a.clone();
        a2.counter_add("t.count", 2);
        assert_eq!(a.metrics().unwrap().snapshot().counter("t.count"), Some(2));
        assert_eq!(b.metrics().unwrap().snapshot().counter("t.count"), None);
    }

    #[test]
    #[should_panic(expected = "before cloning")]
    fn configuring_a_shared_handle_panics() {
        let a = Obs::default().with_metrics(true);
        let _keep = a.clone();
        let _ = a.with_trace(true);
    }
}
