//! The sharded metric registry and its run-scoped recorders.
//!
//! Every thread that records a metric lazily creates a *shard* — a
//! mutex-protected triple of counter/gauge/histogram maps — and registers
//! it in a shard list. Recording locks only the calling thread's own
//! shard (uncontended in the batch engine's one-shard-per-worker
//! pattern); a snapshot walks the list. Shards outlive their threads (the
//! list holds an `Arc`), so metrics recorded by `milback::batch` workers
//! remain visible after the scoped threads join — which is exactly when
//! the driver snapshots.
//!
//! Each [`Scope`] owns a shard list; the process-wide default registry
//! owns another and collects what is recorded outside any scope.

use crate::hist::Histogram;
use crate::snapshot::{HistogramSnapshot, Snapshot};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// One thread's private metric store.
#[derive(Debug, Default)]
struct Shard {
    counters: HashMap<&'static str, u64>,
    gauges: HashMap<&'static str, f64>,
    hists: HashMap<&'static str, Histogram>,
}

/// Every shard ever created for one registry (shards persist after their
/// thread exits so late snapshots lose nothing).
type ShardList = Mutex<Vec<Arc<Mutex<Shard>>>>;

/// The default registry's shard list.
fn all_shards() -> &'static ShardList {
    static SHARDS: OnceLock<ShardList> = OnceLock::new();
    SHARDS.get_or_init(|| Mutex::new(Vec::new()))
}

/// A fresh shard, registered in `list`.
fn new_shard(list: &ShardList) -> Arc<Mutex<Shard>> {
    let shard = Arc::new(Mutex::new(Shard::default()));
    list.lock().unwrap().push(shard.clone());
    shard
}

/// The scope installed on a thread by [`Scope::run`], with the thread's
/// shard of it.
type Installed = Option<(Scope, Arc<Mutex<Shard>>)>;

thread_local! {
    static LOCAL: Arc<Mutex<Shard>> = new_shard(all_shards());
    static CURRENT: RefCell<Installed> = const { RefCell::new(None) };
}

/// Whether the calling thread is inside a run of a scope of its own.
#[inline]
pub(crate) fn in_scope() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Runs `f` on the calling thread's shard: the current scope's when one
/// is installed, the default registry's otherwise.
#[inline]
fn with_local(f: impl FnOnce(&mut Shard)) {
    CURRENT.with(|c| match &*c.borrow() {
        Some((_, shard)) => f(&mut shard.lock().unwrap()),
        None => LOCAL.with(|s| f(&mut s.lock().unwrap())),
    });
}

/// A run-scoped recorder: the metrics recorded by the threads running
/// inside its [`run`](Scope::run)s, kept apart from every other scope and
/// from the default registry. `Scope::default()` *is* the default
/// registry, which [`snapshot()`](crate::snapshot()) and [`reset`] act on
/// and which records only while the global flag is on.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    /// `None` for the default registry.
    shards: Option<Arc<ShardList>>,
}

impl Scope {
    /// A new, empty scope.
    pub fn new() -> Self {
        Scope {
            shards: Some(Arc::default()),
        }
    }

    /// The calling thread's current scope: the one whose [`run`](Self::run)
    /// it is inside, or the default registry. Pass it to worker threads
    /// (`scope.run(work)`) so their metrics land where the caller's do.
    pub fn current() -> Self {
        CURRENT.with(|c| {
            c.borrow()
                .as_ref()
                .map_or_else(Scope::default, |(scope, _)| scope.clone())
        })
    }

    /// Runs `f` with this scope installed as the calling thread's current
    /// scope, restoring the previous one when `f` returns or unwinds.
    /// Inside a scope of its own, [`enabled`](crate::enabled) is true and
    /// every metric goes to this scope.
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        /// Puts the previous scope back on drop, so a panic restores it too.
        struct Restore(Installed);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0.take();
                CURRENT.with(|c| *c.borrow_mut() = prev);
            }
        }
        let installed = self
            .shards
            .as_ref()
            .map(|list| (self.clone(), new_shard(list)));
        let _restore = Restore(CURRENT.with(|c| c.replace(installed)));
        f()
    }

    /// Merges every shard of this scope into one [`Snapshot`]: counters
    /// and histograms add, gauges take the maximum.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        let shards = self.shards.as_deref().unwrap_or_else(|| all_shards());
        for shard in shards.lock().unwrap().iter() {
            let shard = shard.lock().unwrap();
            for (&name, &v) in &shard.counters {
                let c = snap.counters.entry(name.to_string()).or_insert(0);
                *c = c.saturating_add(v);
            }
            for (&name, &v) in &shard.gauges {
                let g = snap.gauges.entry(name.to_string()).or_insert(f64::MIN);
                *g = g.max(v);
            }
            for (&name, h) in &shard.hists {
                snap.histograms
                    .entry(name.to_string())
                    .or_insert_with(HistogramSnapshot::empty)
                    .merge_from(h);
            }
        }
        snap
    }
}

/// Runs `f` in a new [`Scope`] and returns its result with everything
/// it recorded — on the calling thread and on the `milback::batch`
/// workers it spawns — and nothing recorded anywhere else.
///
/// ```
/// let (out, snap) = milback_telemetry::capture(|| {
///     milback_telemetry::counter_add("doc.capture.frames", 3);
///     6 * 7
/// });
/// assert_eq!(out, 42);
/// assert_eq!(snap.counters["doc.capture.frames"], 3);
/// ```
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Snapshot) {
    let scope = Scope::new();
    let out = scope.run(f);
    (out, scope.snapshot())
}

/// Adds `delta` to the named counter (saturating at `u64::MAX`). A no-op
/// branch when telemetry is [disabled](crate::enabled).
///
/// ```
/// let ((), snap) = milback_telemetry::capture(|| {
///     milback_telemetry::counter_add("doc.registry.hits", 2);
///     milback_telemetry::counter_add("doc.registry.hits", 1);
/// });
/// assert_eq!(snap.counters["doc.registry.hits"], 3);
/// ```
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !crate::enabled() {
        return;
    }
    with_local(|s| {
        let c = s.counters.entry(name).or_insert(0);
        *c = c.saturating_add(delta);
    });
}

/// Sets the named gauge to `value` on this thread's shard. Shards merge
/// gauges by **maximum** — the only order-free combination of last-value
/// semantics — so gauges are best set from a single driver thread, and
/// [`Snapshot::deterministic_view`] excludes them.
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if !crate::enabled() {
        return;
    }
    with_local(|s| {
        s.gauges.insert(name, value);
    });
}

/// Records `value` into the named histogram. A no-op branch when
/// telemetry is [disabled](crate::enabled).
///
/// ```
/// let ((), snap) = milback_telemetry::capture(|| milback_telemetry::observe("doc.registry.sizes", 4096));
/// let h = &snap.histograms["doc.registry.sizes"];
/// assert_eq!((h.count, h.sum), (1, 4096));
/// ```
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if !crate::enabled() {
        return;
    }
    with_local(|s| {
        s.hists.entry(name).or_default().record(value);
    });
}

/// Merges every shard of the default registry into one [`Snapshot`]:
/// counters and histograms add, gauges take the maximum. Safe to call
/// while telemetry is off (it reads whatever has been recorded so far).
pub fn snapshot() -> Snapshot {
    Scope::default().snapshot()
}

/// Clears every shard of the default registry (all threads' recorded
/// metrics outside any [`Scope`]). `bench_engine` calls this after
/// warm-up so its exported snapshot covers only the measured region.
pub fn reset() {
    let shards = all_shards().lock().unwrap();
    for shard in shards.iter() {
        let mut shard = shard.lock().unwrap();
        shard.counters.clear();
        shard.gauges.clear();
        shard.hists.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{span, time};

    fn counters(scope: &Scope) -> Vec<(String, u64)> {
        scope.snapshot().counters.into_iter().collect()
    }

    #[test]
    fn counter_saturates_at_max() {
        let ((), snap) = capture(|| {
            counter_add("test.overflow", u64::MAX - 1);
            counter_add("test.overflow", 10);
        });
        assert_eq!(snap.counters["test.overflow"], u64::MAX);
    }

    #[test]
    fn gauges_merge_by_max() {
        let scope = Scope::new();
        scope.run(|| gauge_set("test.gauge", 2.5));
        std::thread::scope(|s| {
            s.spawn(|| scope.run(|| gauge_set("test.gauge", 7.0)));
        });
        assert_eq!(scope.snapshot().gauges["test.gauge"], 7.0);
    }

    /// Two captures at once, each over four workers that inherit it, each
    /// merge exactly their own workers' shards.
    #[test]
    fn concurrent_scopes_see_only_their_own_workers() {
        let both_started = std::sync::Barrier::new(2);
        let record = |per_call: u64| {
            let ((), snap) = capture(|| {
                both_started.wait();
                let inherited = Scope::current();
                std::thread::scope(|s| {
                    for _ in 0..4 {
                        s.spawn(|| {
                            inherited.run(|| {
                                for i in 0..100 {
                                    counter_add("test.scoped", per_call);
                                    observe("test.scoped.vals", i);
                                }
                            })
                        });
                    }
                });
            });
            snap
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| record(1));
            let b = record(2);
            (a.join().unwrap(), b)
        });
        assert_eq!(a.counters["test.scoped"], 400);
        assert_eq!(b.counters["test.scoped"], 800);
        for snap in [a, b] {
            let h = &snap.histograms["test.scoped.vals"];
            assert_eq!((h.count, h.sum), (400, 4 * (0..100u128).sum::<u128>()));
        }
    }

    #[test]
    fn nested_run_restores_the_outer_scope() {
        let (outer, inner) = (Scope::new(), Scope::new());
        outer.run(|| {
            inner.run(|| counter_add("test.inner", 1));
            counter_add("test.outer", 1);
        });
        assert!(!in_scope(), "a scope leaked past its run");
        assert_eq!(counters(&outer), [("test.outer".into(), 1)]);
        assert_eq!(counters(&inner), [("test.inner".into(), 1)]);
    }

    #[test]
    fn panic_inside_run_restores_the_previous_scope() {
        let (outer, inner) = (Scope::new(), Scope::new());
        outer.run(|| {
            let caught = std::panic::catch_unwind(|| {
                inner.run(|| {
                    counter_add("test.inner", 1);
                    panic!("unwinds out of the inner run");
                })
            });
            assert!(caught.is_err());
            counter_add("test.outer", 1);
        });
        assert!(!in_scope(), "a scope leaked past its run");
        assert_eq!(counters(&outer), [("test.outer".into(), 1)]);
        assert_eq!(counters(&inner), [("test.inner".into(), 1)]);
    }

    #[test]
    fn spans_record_once_into_the_scope() {
        let ((), snap) = capture(|| {
            drop(span("test.span.ns"));
            span("test.span.early.ns").end();
            time("test.span.time.ns", || ());
        });
        for name in ["test.span.ns", "test.span.early.ns", "test.span.time.ns"] {
            assert_eq!(snap.histograms[name].count, 1, "{name}");
        }
    }

    /// The only test that touches the global flag (so none can race it):
    /// with the flag off, recording outside any scope reaches no registry.
    #[test]
    fn default_registry_follows_the_global_flag() {
        let was = crate::enabled();
        crate::set_enabled(true);
        counter_add("test.default", 5);
        std::thread::scope(|s| {
            s.spawn(|| counter_add("test.default", 5));
        });
        assert_eq!(snapshot().counters["test.default"], 10);
        reset();
        assert!(!snapshot().counters.contains_key("test.default"));

        crate::set_enabled(false);
        let bystander = Scope::new();
        counter_add("test.off", 1);
        observe("test.off.h", 1);
        gauge_set("test.off.g", 1.0);
        drop(span("test.off.ns"));
        time("test.off.ns", || ());
        crate::set_enabled(was);
        for snap in [snapshot(), bystander.snapshot()] {
            assert!(!snap.counters.contains_key("test.off"));
            assert!(!snap.gauges.contains_key("test.off.g"));
            assert!(snap.histograms.keys().all(|k| !k.starts_with("test.off")));
        }
    }
}
