//! Bitwise equivalence of the workspace/template fast paths against the
//! allocating reference paths, exercised at the network level
//! (DESIGN.md §12). The per-kernel equivalences live next to each
//! kernel's unit tests; this file pins the end-to-end compositions the
//! pipeline actually runs.

use milback::session::with_session_ctx;
use milback::{Fidelity, Network};
use milback_ap::background;
use milback_ap::orientation::ApOrientationEstimator;
use milback_dsp::signal::Signal;
use milback_dsp::template;
use milback_rf::fsa::Port;
use milback_rf::geometry::{deg_to_rad, Pose};

/// `Network::localize` (which routes through the thread's `SessionCtx`
/// and `Localizer::process_with`) must reproduce the allocating
/// `Localizer::process` bit for bit on identically-seeded captures.
#[test]
fn network_localize_matches_allocating_process() {
    let pose = Pose::facing_ap(3.0, deg_to_rad(6.0), 0.0);
    for seed in [1u64, 9, 42] {
        let mut reference = Network::new(pose, Fidelity::Fast, seed);
        let (tx, captures) = reference.field2_captures();
        let expect = reference.localizer().process(&tx, &captures);

        let mut fast = Network::new(pose, Fidelity::Fast, seed);
        assert_eq!(fast.localize(), expect, "seed {seed}");
        // A second network on the same thread reuses the now-warmed
        // workspace — still bitwise identical.
        let mut again = Network::new(pose, Fidelity::Fast, seed);
        assert_eq!(again.localize(), expect, "seed {seed} (warmed)");
    }
}

/// AP-side orientation sensing through the workspace must match a
/// replica of the historical allocating flow (profile diffs → detection
/// spectrum → node bin → gated estimate).
#[test]
fn sense_orientation_matches_allocating_flow() {
    let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(10.0));
    let seed = 3;
    let mut fast = Network::new(pose, Fidelity::Fast, seed);
    let got = fast.sense_orientation_at_ap();

    let mut reference = Network::new(pose, Fidelity::Fast, seed);
    let (tx, captures) = reference.field2_captures();
    let localizer = reference.localizer();
    let (d0, d1) = localizer.profile_diffs(&tx, &captures);
    let det0 = background::detection_spectrum(&d0);
    let det1 = background::detection_spectrum(&d1);
    let det: Vec<f64> = det0.iter().zip(&det1).map(|(a, b)| a + b).collect();
    let node_bin = localizer.find_node_bin(&det, tx.fs).expect("no node bin");
    let best = (0..d0.len())
        .max_by(|&i, &j| {
            let e = |k: usize| -> f64 {
                let lo = node_bin.saturating_sub(2);
                let hi = (node_bin + 3).min(d0[k].len());
                d0[k][lo..hi].iter().map(|c| c.norm_sq()).sum()
            };
            e(i).partial_cmp(&e(j)).unwrap()
        })
        .expect("no difference pairs");
    let est = ApOrientationEstimator::new(Fidelity::Fast.sawtooth());
    let half = (localizer.proc.fft_len / 100).max(16);
    let expect = est.estimate_gated(
        &d0[best],
        node_bin,
        half,
        tx.fs,
        tx.len(),
        &reference.node.fsa,
        Port::A,
    );

    assert_eq!(got, expect);
}

/// Template fetches are bitwise identical to fresh synthesis for every
/// cached waveform family (Field-2 sawtooth, Field-1 triangular, uplink
/// query tone).
#[test]
fn templates_match_fresh_synthesis_bitwise() {
    let saw_cfg = Fidelity::Fast.sawtooth();
    let fresh = saw_cfg.sawtooth();
    let cached = template::sawtooth(&saw_cfg);
    assert_eq!(fresh.samples, cached.samples);
    assert_eq!((fresh.fs, fresh.fc), (cached.fs, cached.fc));

    let tri_cfg = Fidelity::Fast.triangular();
    let fresh = tri_cfg.triangular();
    let cached = template::triangular(&tri_cfg);
    assert_eq!(fresh.samples, cached.samples);

    let (fs, fc, f_off, amp, n) = (4e9, 27.9e9, 220e6, 0.7, 10_000);
    let fresh = Signal::tone(fs, fc, f_off, amp, n);
    let cached = template::tone(fs, fc, f_off, amp, n);
    assert_eq!(fresh.samples, cached.samples);
    assert_eq!((fresh.fs, fresh.fc), (cached.fs, cached.fc));
}

/// The nested-checkout fallback of the thread's session context stays
/// bitwise equivalent: a convenience `localize` inside an outer checkout
/// lands on a fresh temporary `SessionCtx` and must produce the same fix.
#[test]
fn nested_workspace_checkout_is_equivalent() {
    let pose = Pose::facing_ap(2.5, 0.0, 0.0);
    let mut reference = Network::new(pose, Fidelity::Fast, 7);
    let (tx, captures) = reference.field2_captures();
    let expect = reference.localizer().process(&tx, &captures);
    let mut net = Network::new(pose, Fidelity::Fast, 7);
    let got = with_session_ctx(|_outer| {
        // `localize` checks the context out again while the outer
        // checkout is held.
        net.localize()
    });
    assert_eq!(got, expect);
}
