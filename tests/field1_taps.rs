//! The Field-1 tap render against the full-rate receive path it replaces
//! (DESIGN.md §13.6).
//!
//! The node's receive path computes the detector video and its noise only
//! at the analog samples the 1 MHz ADC reads, and memoizes each port's
//! noiseless taps per pose. The oracle below is the full-rate
//! composition: scale a copy of the port signal, run the detector over
//! every sample, add noise to every sample, then sample with the ADC. The
//! tap path must reproduce its ADC codes, its `signal_mode` captures and
//! decisions, and the RNG state after each call, bit for bit, over a
//! pose × seed × fault sweep.

use milback::session::with_session_ctx;
use milback::{Fidelity, Network};
use milback_dsp::signal::Signal;
use milback_node::mode_detect::ModeDetector;
use milback_node::node::BackscatterNode;
use milback_proto::packet::{LinkMode, PacketConfig, Slot};
use milback_rf::channel::{FreqProfile, Reflector, TxComponent};
use milback_rf::faults::FaultPlan;
use milback_rf::fsa::Port;
use milback_rf::geometry::{deg_to_rad, Point, Pose};
use rand::rngs::StdRng;

/// `(range m, azimuth deg, rotation deg)` from 1 m to 40 m.
const POSES: [(f64, f64, f64); 8] = [
    (1.0, 0.0, 0.0),
    (2.0, 5.0, -10.0),
    (2.5, 0.0, 12.0),
    (4.0, -10.0, 15.0),
    (7.0, 8.0, -5.0),
    (12.0, 0.0, 20.0),
    (20.0, -6.0, 0.0),
    (40.0, 3.0, 8.0),
];
const SEEDS: [u64; 6] = [1, 2, 3, 17, 4242, 0xF1E1D];
const INTENSITIES: [f64; 3] = [0.0, 0.3, 0.6];

fn pose(i: usize) -> Pose {
    let (d, az, rot) = POSES[i];
    Pose::facing_ap(d, deg_to_rad(az), deg_to_rad(rot))
}

/// A fault plan whose events land inside Field 1 (150 µs horizon).
fn faults(seed: u64, intensity: f64) -> FaultPlan {
    FaultPlan::chaos(seed ^ 0xC4A0_5F1E, intensity, 150e-6)
}

/// The full-rate receive path: every sample detected and noised, then
/// the ADC's interpolating capture.
fn receive_full_rate(node: &BackscatterNode, at_port: &Signal, rng: &mut StdRng) -> Vec<f64> {
    let mut sig = at_port.clone();
    let impl_loss_amp = 10f64.powf(-node.impl_loss_db / 20.0);
    sig.scale(node.switch.through_gain().sqrt() * impl_loss_amp);
    let video = node.detector.detect(&sig, rng);
    node.adc.capture(&video, at_port.fs)
}

/// Both ports' Field-1 signals from a freshly synthesized chirp.
fn port_signals(net: &Network) -> [Signal; 2] {
    let mut cfg = net.fidelity.triangular();
    cfg.amplitude = net.ap.tx.amplitude();
    let comp = TxComponent {
        signal: cfg.triangular(),
        profile: FreqProfile::Triangular(cfg),
    };
    Port::BOTH.map(|p| {
        net.scene
            .to_node_port(&comp, &net.node.pose, &net.node.fsa, p)
    })
}

/// Full-rate `signal_mode` before faults: the summed capture of the
/// three slots, drawn from a fork of the network RNG.
fn mode_capture_full_rate(net: &mut Network, mode: LinkMode, ports: &[Signal; 2]) -> Vec<f64> {
    let mut rng: StdRng = net.fork_rng();
    let node = net.node.clone();
    let silent = Signal::zeros(ports[0].fs, ports[0].fc, ports[0].len());
    let mut combined = Vec::new();
    for slot in PacketConfig::field1_slots(mode) {
        let [a, b] = match slot {
            Slot::Chirp => [&ports[0], &ports[1]],
            Slot::Gap => [&silent, &silent],
        };
        let a = receive_full_rate(&node, a, &mut rng);
        let b = receive_full_rate(&node, b, &mut rng);
        combined.extend(a.iter().zip(&b).map(|(a, b)| a + b));
    }
    combined
}

/// `signal_mode`'s decision on a pre-fault capture under `net`'s faults.
fn decide(net: &Network, mut capture: Vec<f64>) -> (Option<LinkMode>, Vec<f64>) {
    let adc_fs = net.node.adc.sample_rate;
    net.faults.apply_to_video(net.clock_s, adc_fs, &mut capture);
    let det = ModeDetector {
        slot_duration: net.fidelity.triangular().duration,
        sample_rate: adc_fs,
    };
    let sigma = 2f64.sqrt() * net.node.detector.output_noise_rms();
    (det.detect_with_floor(&capture, 0.0, sigma), capture)
}

/// Full-rate `field1_node_captures`, with `net`'s faults applied.
fn captures_full_rate(net: &mut Network, ports: &[Signal; 2]) -> [Vec<f64>; 2] {
    let node = net.node.clone();
    let mut caps = [
        receive_full_rate(&node, &ports[0], net.rng()),
        receive_full_rate(&node, &ports[1], net.rng()),
    ];
    for cap in &mut caps {
        net.faults
            .apply_to_video(net.clock_s, node.adc.sample_rate, cap);
    }
    caps
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One pose of the sweep: every seed and fault intensity.
fn sweep_pose(p: usize) {
    let ports = port_signals(&Network::new(pose(p), Fidelity::Fast, 0));
    for seed in SEEDS {
        // Faults act after the ADC, so one full-rate pass per seed serves
        // every intensity.
        let mut oracle = Network::new(pose(p), Fidelity::Fast, seed);
        let up = mode_capture_full_rate(&mut oracle, LinkMode::Uplink, &ports);
        let rng_up = oracle.rng().clone();
        let down = mode_capture_full_rate(&mut oracle, LinkMode::Downlink, &ports);
        let rng_down = oracle.rng().clone();
        let caps = captures_full_rate(&mut oracle, &ports);
        let rng_caps = oracle.rng().clone();

        for intensity in INTENSITIES {
            let ctx = format!("pose {p}, seed {seed}, intensity {intensity}");
            let mut net = Network::new(pose(p), Fidelity::Fast, seed);
            net.faults = faults(seed, intensity);
            for (mode, raw, rng_after) in [
                (LinkMode::Uplink, &up, &rng_up),
                (LinkMode::Downlink, &down, &rng_down),
            ] {
                let (decision, capture) = decide(&net, raw.clone());
                assert_eq!(net.signal_mode(mode), decision, "{ctx}: {mode:?}");
                let got = with_session_ctx(|ctx| bits(ctx.mode_capture()));
                assert_eq!(got, bits(&capture), "{ctx}: {mode:?} capture");
                assert!(net.rng() == rng_after, "{ctx}: rng after {mode:?}");
            }
            let (a, b) = net.field1_node_captures();
            for (port, (got, raw)) in [a, b].iter().zip(&caps).enumerate() {
                let mut expect = raw.clone();
                let adc_fs = net.node.adc.sample_rate;
                net.faults.apply_to_video(net.clock_s, adc_fs, &mut expect);
                assert_eq!(bits(got), bits(&expect), "{ctx}: port {port} capture");
            }
            assert!(net.rng() == &rng_caps, "{ctx}: rng after captures");
        }
    }
}

#[test]
fn tap_render_matches_full_rate_at_1_to_2_5_m() {
    (0..3).for_each(sweep_pose);
}

#[test]
fn tap_render_matches_full_rate_at_4_to_12_m() {
    (3..6).for_each(sweep_pose);
}

#[test]
fn tap_render_matches_full_rate_at_20_to_40_m() {
    (6..8).for_each(sweep_pose);
}

/// `receive_port` on its own (no memo, no network) against the oracle,
/// including a silent port and the Paper preset's 4 GS/s chirp.
#[test]
fn receive_port_matches_full_rate_oracle() {
    for fidelity in [Fidelity::Fast, Fidelity::Paper] {
        let net = Network::new(pose(2), fidelity, 0);
        let [at_a, at_b] = port_signals(&net);
        let silent = Signal::zeros(at_a.fs, at_a.fc, at_a.len());
        for (i, sig) in [at_a, at_b, silent].iter().enumerate() {
            for seed in [5, 6] {
                let mut rng_tap: StdRng = rand::SeedableRng::seed_from_u64(seed);
                let mut rng_full = rng_tap.clone();
                let got = net.node.receive_port(sig, &mut rng_tap);
                let expect = receive_full_rate(&net.node, sig, &mut rng_full);
                assert_eq!(bits(&got), bits(&expect), "{fidelity:?} signal {i}");
                assert!(rng_tap == rng_full, "{fidelity:?} signal {i}: rng");
            }
        }
    }
}

/// Runs the Field-1 captures and checks them against the oracle on a
/// clone; returns how many port renders the call performed (the lane's
/// memo misses).
fn renders_and_check(net: &mut Network, what: &str) -> u64 {
    let mut oracle = net.clone();
    let before = net.field1_port_renders();
    let (a, b) = net.field1_node_captures();
    let after = net.field1_port_renders();
    let ports = port_signals(&oracle);
    let [ea, eb] = captures_full_rate(&mut oracle, &ports);
    assert_eq!(bits(&a), bits(&ea), "{what}: port A");
    assert_eq!(bits(&b), bits(&eb), "{what}: port B");
    assert!(net.rng() == oracle.rng(), "{what}: rng");
    after - before
}

/// The per-pose memo re-renders exactly when an input of the taps
/// changes, and every result equals a fresh full-rate render.
#[test]
fn memo_recomputes_on_every_tap_input() {
    let mut net = Network::new(pose(2), Fidelity::Fast, 9);
    assert_eq!(renders_and_check(&mut net, "cold"), 2);
    assert_eq!(renders_and_check(&mut net, "warm"), 0);
    net.faults = faults(9, 0.6);
    assert_eq!(renders_and_check(&mut net, "faults only"), 0);

    net.set_node_pose(pose(3));
    assert_eq!(renders_and_check(&mut net, "pose"), 2);
    net.scene.clutter.push(Reflector {
        position: Point::new(1.5, 0.4),
        rcs: 0.3,
    });
    assert_eq!(renders_and_check(&mut net, "clutter"), 2);
    net.node.detector.slope *= 1.5;
    assert_eq!(renders_and_check(&mut net, "slope"), 2);
    net.node.detector.video_bandwidth *= 0.5;
    assert_eq!(renders_and_check(&mut net, "video bandwidth"), 2);
    net.node.impl_loss_db += 1.0;
    assert_eq!(renders_and_check(&mut net, "impl loss"), 2);
    assert_eq!(renders_and_check(&mut net, "settled"), 0);

    // signal_mode shares the memo: a warm pose renders nothing more.
    let before = net.field1_port_renders();
    net.signal_mode(LinkMode::Uplink);
    net.signal_mode(LinkMode::Downlink);
    assert_eq!(net.field1_port_renders(), before);
}

/// The memo belongs to the lane's pose, not to the worker's scratch: two
/// networks at different poses alternating `signal_mode` through one
/// `SessionCtx` (this thread's) render each port once, on their first
/// call, and never again — and every capture, decision and RNG state
/// still equals the full-rate oracle.
#[test]
fn alternating_lanes_keep_their_memos_on_one_ctx() {
    let mut lanes = [
        Network::new(pose(1), Fidelity::Fast, 21),
        Network::new(pose(4), Fidelity::Fast, 22),
    ];
    let ports: Vec<[Signal; 2]> = lanes.iter().map(port_signals).collect();
    for round in 0..3 {
        for (lane, net) in lanes.iter_mut().enumerate() {
            for mode in [LinkMode::Uplink, LinkMode::Downlink] {
                let what = format!("round {round}, lane {lane}, {mode:?}");
                let mut oracle = net.clone();
                let raw = mode_capture_full_rate(&mut oracle, mode, &ports[lane]);
                let (decision, expect) = decide(&oracle, raw);

                let before = net.field1_port_renders();
                assert_eq!(net.signal_mode(mode), decision, "{what}");
                let renders = net.field1_port_renders() - before;
                let got = with_session_ctx(|ctx| bits(ctx.mode_capture()));
                assert_eq!(got, bits(&expect), "{what}: capture");
                assert!(net.rng() == oracle.rng(), "{what}: rng");
                let cold = round == 0 && mode == LinkMode::Uplink;
                assert_eq!(renders, if cold { 2 } else { 0 }, "{what}: port renders");
            }
        }
    }
}
