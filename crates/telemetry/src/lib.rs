//! # milback-telemetry
//!
//! Dependency-free observability for the MilBack reproduction: counters,
//! histograms, gauges and lightweight [`Span`]s, aggregated in a
//! thread-safe registry and exported as JSON snapshots. The hot pipeline
//! (`milback-dsp` FFT plans, `milback-ap` localization stages,
//! `milback-node` demodulation, `milback-proto` CRC/FEC/ARQ and the
//! `milback::batch` parallel engine) reports into this crate; the
//! `bench_engine` binary embeds the snapshot in its `BENCH_*.json`
//! output. See DESIGN.md §11 for the data model and overhead budget.
//!
//! ## Recording
//!
//! ```
//! // A run-scoped capture: everything `f` records, and nothing else.
//! let ((), snap) = milback_telemetry::capture(|| {
//!     // Counters accumulate monotonically (saturating at u64::MAX).
//!     milback_telemetry::counter_add("doc.frames", 3);
//!     // Histograms bucket u64 values by power of two.
//!     milback_telemetry::observe("doc.bit_errors", 2);
//!     // Gauges hold a float; shards merge by maximum.
//!     milback_telemetry::gauge_set("doc.threads", 4.0);
//! });
//! assert_eq!(snap.counters["doc.frames"], 3);
//! assert_eq!(snap.histograms["doc.bit_errors"].count, 1);
//! ```
//!
//! ## Scopes and the default registry
//!
//! [`capture`] records into a [`Scope`] of its own, installed on the
//! calling thread for the run (restored on exit or panic) and inherited
//! by the `milback::batch` workers it spawns. Inside a scope telemetry is
//! always on, and two runs in one process never see each other's metrics.
//!
//! Outside any scope, metrics go to the process-wide *default registry*
//! that [`snapshot()`] and [`reset`] act on. It is **off by default** and
//! turns on when `MILBACK_TELEMETRY` is `1`, `true`, `on` or `yes`
//! (case-insensitive), or via [`set_enabled`]. When off and outside a
//! scope, every recording call is one relaxed atomic load, one
//! thread-local read and a branch — no locks, no allocation, no
//! time-stamping (the when-off guarantee the batch engine relies on).
//!
//! ## Aggregation model
//!
//! Each thread records into its own *shard* (a mutex-protected map
//! registered with its scope or with the default registry), so recording
//! never contends across worker threads. A snapshot drains by summing
//! every shard — counters and histogram buckets add, gauges take the
//! maximum — and because every merge operator is commutative and
//! associative over integers, **parallel and serial runs of the same
//! work produce identical totals** (the `milback::batch` determinism
//! contract extends to telemetry). Wall-clock metrics are the exception;
//! see below.
//!
//! ## Naming convention
//!
//! Metric names are dot-separated, prefixed by the crate stage they
//! instrument (`dsp.`, `ap.`, `node.`, `proto.`, `core.`). Two suffixes
//! mark metrics that are *not* thread-count-invariant:
//!
//! * `.ns` — wall-clock durations recorded by [`Span`]s; their counts are
//!   invariant but their sums depend on scheduling,
//! * `.local` — per-thread cache state (e.g. FFT plan-cache misses: each
//!   worker thread builds its own plans, so more threads → more misses).
//!
//! [`Snapshot::deterministic_view`] strips both classes (and all gauges),
//! leaving exactly the metrics for which parallel == serial equality
//! holds; the integration tests assert on that view.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod hist;
pub mod registry;
pub mod snapshot;
pub mod span;

pub use hist::{bucket_index, bucket_upper_bound, Histogram};
pub use registry::{capture, counter_add, gauge_set, observe, reset, snapshot, Scope};
pub use snapshot::{HistogramSnapshot, Snapshot};
pub use span::{span, time, Span};

use std::sync::atomic::{AtomicU8, Ordering};

/// 0 = uninitialized, 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether telemetry is currently recording on this thread: always
/// inside a [`Scope`] of its own, otherwise when the global flag is on.
///
/// The first call reads the `MILBACK_TELEMETRY` environment variable;
/// later calls are a relaxed atomic load, plus a thread-local read when
/// the flag is off. [`set_enabled`] overrides the environment either way.
///
/// ```
/// // Off unless MILBACK_TELEMETRY is set in the environment...
/// milback_telemetry::set_enabled(false);
/// assert!(!milback_telemetry::enabled());
/// // ...but always on inside a scope.
/// let (on, _) = milback_telemetry::capture(milback_telemetry::enabled);
/// assert!(on);
/// ```
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        0 => init_from_env() || registry::in_scope(),
        1 => registry::in_scope(),
        _ => true,
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var("MILBACK_TELEMETRY")
        .map(|v| {
            let v = v.trim().to_ascii_lowercase();
            v == "1" || v == "true" || v == "on" || v == "yes"
        })
        .unwrap_or(false);
    // Racing initializers agree: the env var does not change underneath.
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Forces the default registry's recording on or off, overriding
/// `MILBACK_TELEMETRY`; takes effect immediately on all threads. Runs
/// inside a [`Scope`] record either way, so a binary that reports its
/// whole process uses this, and a test or bench leg uses [`capture`].
///
/// ```
/// milback_telemetry::set_enabled(true);
/// assert!(milback_telemetry::enabled());
/// milback_telemetry::set_enabled(false);
/// assert!(!milback_telemetry::enabled());
/// ```
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}
