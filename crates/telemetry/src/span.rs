//! Lightweight timing spans.
//!
//! A [`Span`] measures the wall-clock time between its creation and its
//! drop and records the elapsed nanoseconds into the histogram named at
//! creation. By convention span names end in `.ns` — the marker
//! [`Snapshot::deterministic_view`](crate::Snapshot::deterministic_view)
//! uses to exclude wall-clock metrics from parallel-vs-serial equality.
//!
//! When telemetry is [disabled](crate::enabled) a span holds no
//! timestamp and its drop is a no-op branch, so leaving spans in hot
//! code costs one atomic load per scope.

use std::time::Instant;

/// A drop-guard that records its own lifetime into a histogram.
///
/// ```
/// let ((), snap) = milback_telemetry::capture(|| {
///     let _span = milback_telemetry::span("doc.span.work.ns");
///     // ... the timed region ...
/// }); // drop records the elapsed nanoseconds
/// assert_eq!(snap.histograms["doc.span.work.ns"].count, 1);
/// ```
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// Ends the span early, recording its duration now instead of at
    /// scope exit.
    pub fn end(mut self) {
        self.record();
    }

    fn record(&mut self) {
        if let Some(start) = self.start.take() {
            let ns = start.elapsed().as_nanos();
            crate::observe(self.name, ns.min(u64::MAX as u128) as u64);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record();
    }
}

/// Starts a [`Span`] that records into the histogram `name` when
/// dropped. Name the histogram with a `.ns` suffix.
#[inline]
pub fn span(name: &'static str) -> Span {
    let start = if crate::enabled() {
        Some(Instant::now())
    } else {
        None
    };
    Span { name, start }
}

/// Runs `f`, recording its wall-clock duration into the histogram
/// `name`.
///
/// ```
/// let (out, snap) =
///     milback_telemetry::capture(|| milback_telemetry::time("doc.time.calc.ns", || 6 * 7));
/// assert_eq!(out, 42);
/// assert_eq!(snap.histograms["doc.time.calc.ns"].count, 1);
/// ```
#[inline]
pub fn time<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = span(name);
    f()
}
