//! Telemetry aggregation invariants under the parallel batch engine.
//!
//! The registry shards per worker thread and merges shards with
//! commutative, order-independent integer arithmetic, so the
//! deterministic subset of a snapshot (everything except `.ns` wall-clock
//! spans, `.local` per-thread caches, and gauges) must come out identical
//! whether a batch ran with one worker (`MILBACK_THREADS=1` equivalent)
//! or many. This file is the acceptance test for that contract. Each
//! snapshot is a `telemetry::capture` of its own batch, so the tests run
//! concurrently without a lock.

use milback::batch::run_trials_with_threads;
use milback::{batch, Fidelity, Network};
use milback_rf::geometry::{deg_to_rad, Pose};
use milback_telemetry as telemetry;

/// One full-stack trial: localization, then a downlink and an uplink
/// transfer, so the snapshot covers dsp, ap, node, proto and core.
fn full_stack_trial(t: batch::Trial) -> u64 {
    let phi = deg_to_rad((t.index as f64 % 13.0) - 6.0);
    let pose = Pose::facing_ap(2.5, phi, deg_to_rad(8.0));
    let mut net = Network::new(pose, Fidelity::Fast, t.seed);
    let fix = net.localize().map(|f| f.range.to_bits()).unwrap_or(0);
    let payload: Vec<u8> = (0..6u8).map(|i| i * 37 + t.index as u8).collect();
    let dl = net.downlink(&payload, 1e6, true);
    let ul = net.uplink(&payload, 5e6, true);
    fix ^ dl.map(|r| r.bit_errors as u64).unwrap_or(u64::MAX)
        ^ ul.map(|r| r.bit_errors as u64).unwrap_or(u64::MAX)
}

/// Runs the same batch with `threads` workers and returns the
/// deterministic view of what it recorded.
fn run_and_snapshot(threads: usize) -> telemetry::Snapshot {
    let (results, snap) =
        telemetry::capture(|| run_trials_with_threads(6, 0xDECAF, threads, full_stack_trial));
    assert_eq!(results.len(), 6);
    snap.deterministic_view()
}

#[test]
fn parallel_and_serial_telemetry_totals_agree() {
    let serial = run_and_snapshot(1);

    // The serial baseline must actually have seen the pipeline: every
    // instrumented layer contributes at least one counter.
    for prefix in ["dsp.", "ap.", "node.", "proto.", "core."] {
        assert!(
            serial
                .counters
                .keys()
                .chain(serial.histograms.keys())
                .any(|k| k.starts_with(prefix)),
            "serial snapshot has no metrics from the `{prefix}` layer"
        );
    }

    for threads in [2, 4] {
        let parallel = run_and_snapshot(threads);
        assert_eq!(
            serial.counters, parallel.counters,
            "counter totals differ between 1 and {threads} worker threads"
        );
        assert_eq!(
            serial.histograms, parallel.histograms,
            "histogram totals differ between 1 and {threads} worker threads"
        );
    }
}

/// Outside any scope with the global flag off, the pipeline reaches no
/// registry. The only test here that touches the flag; it restores it.
#[test]
fn disabled_pipeline_records_nothing() {
    let was = telemetry::enabled();
    telemetry::set_enabled(false);
    telemetry::reset();
    let pose = Pose::facing_ap(2.0, 0.0, 0.0);
    let mut net = Network::new(pose, Fidelity::Fast, 7);
    let _ = net.localize();
    let snap = telemetry::snapshot();
    telemetry::set_enabled(was);
    assert!(snap.counters.is_empty(), "disabled run recorded counters");
    assert!(
        snap.histograms.is_empty(),
        "disabled run recorded histograms"
    );
}
