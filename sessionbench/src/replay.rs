//! Stage replay: times each public stage function of a session from
//! outside, in session order, on a workload's own poses and seeds.
//!
//! Each replayed request runs the clean path of a full exchange —
//! Field 1 (`signal_mode`, `field1_node_captures`, the node orientation
//! estimate), Field 2 (`field2_captures_into`, `Localizer::process_with`,
//! `sense_orientation_at_ap`), tone planning, and a 16 B downlink and
//! uplink at 1 Msym/s on true tones — so every stage has a figure on
//! every workload. A second pass times whole sessions per class through
//! `Session::localize_in` / `Session::run_in`, which gives the share of a
//! session the replayed stages account for.

use milback::serve::Workload;
use milback::session::{Session, SessionConfig, SessionCtx};
use milback::{Fidelity, Network};
use milback_ap::DspWorkspace;
use milback_node::orientation::NodeOrientationEstimator;
use milback_proto::packet::{LinkMode, Packet};
use milback_rf::geometry::Pose;
use milback_rf::ChannelWorkspace;
use std::time::{Duration, Instant};

use crate::host::{median, ratio};

/// Payload bytes per replayed transfer.
const PAYLOAD_LEN: usize = 16;
/// Symbol rate of the replayed transfers, symbols/s.
const SYMBOL_RATE: f64 = 1e6;

/// The replayed stages, in session order.
pub const STAGES: [&str; 9] = [
    "protocol.signal_mode_ms",
    "network.field1_render_ms",
    "node.orient_estimate_ms",
    "network.field2_render_ms",
    "ap.localize_dsp_ms",
    "network.orient_ap_ms",
    "link.plan_tones_ms",
    "link.downlink_ms",
    "link.uplink_ms",
];

/// Stages a `Localize` session runs (render + DSP of one burst).
const LOCALIZE_STAGES: [usize; 2] = [3, 4];
/// Stages of a downlink exchange (uplink swaps the last one).
const DOWNLINK_STAGES: [usize; 8] = [0, 1, 2, 3, 4, 5, 6, 7];
const UPLINK_STAGES: [usize; 8] = [0, 1, 2, 3, 4, 5, 6, 8];

/// One request to replay: which node, its session seed, its class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayItem {
    pub node: usize,
    pub seed: u64,
    pub workload: Workload,
}

/// Result of a stage replay.
#[derive(Debug, Clone, Default)]
pub struct ReplayResult {
    /// Median wall time per stage, ms, in [`STAGES`] order.
    pub stage_ms: [f64; 9],
    /// Median whole-session wall time per class, ms:
    /// localize, downlink, uplink.
    pub session_ms: [f64; 3],
    /// Σ replayed stage medians ÷ session median, per class.
    pub coverage: [f64; 3],
    /// Requests replayed.
    pub replayed: u64,
    /// Transfers whose CRC passed, and how many of those returned bytes
    /// other than the ones sent.
    pub crc_passed: u64,
    pub payload_mismatches: u64,
}

/// The payload a replayed transfer carries.
fn payload(seed: u64) -> [u8; PAYLOAD_LEN] {
    let mut p = [0u8; PAYLOAD_LEN];
    for (i, b) in p.iter_mut().enumerate() {
        *b = (seed.rotate_left((i * 8) as u32) as u8) ^ (i as u8);
    }
    p
}

/// Replays `items` on networks at `poses` (the AP at the origin),
/// stopping early once `budget` is spent (at least one item runs).
pub fn replay(poses: &[Pose], items: &[ReplayItem], budget: Duration) -> ReplayResult {
    let fidelity = Fidelity::Fast;
    let mut nets: Vec<Network> = poses
        .iter()
        .map(|&p| Network::new(p, fidelity, 0))
        .collect();
    let mut cw = ChannelWorkspace::new();
    let mut ws = DspWorkspace::new();
    let mut burst = milback::network::Field2Burst::default();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
    let mut out = ReplayResult::default();
    let t_start = Instant::now();

    // Stage pass.
    for item in items {
        if out.replayed > 0 && t_start.elapsed() >= budget / 2 {
            break;
        }
        let net = &mut nets[item.node];
        net.reseed(item.seed);
        let data = payload(item.seed);
        let mode = if item.workload == Workload::Uplink {
            LinkMode::Uplink
        } else {
            LinkMode::Downlink
        };
        let mut lap = Instant::now();
        let mut mark = |k: usize, lap: &mut Instant| {
            samples[k].push(lap.elapsed().as_secs_f64() * 1e3);
            *lap = Instant::now();
        };
        std::hint::black_box(net.signal_mode(mode));
        mark(0, &mut lap);
        let (cap_a, cap_b) = net.field1_node_captures();
        mark(1, &mut lap);
        let mut est = NodeOrientationEstimator::milback();
        est.chirp = net.fidelity.triangular();
        est.sample_rate = net.node.adc.sample_rate;
        std::hint::black_box(est.estimate(&net.node.fsa, &cap_a, &cap_b));
        mark(2, &mut lap);
        net.field2_captures_into(&mut cw, 5, &mut burst);
        mark(3, &mut lap);
        let localizer = net.localizer();
        std::hint::black_box(localizer.process_with(&mut ws, &burst.tx, &burst.captures));
        mark(4, &mut lap);
        std::hint::black_box(net.sense_orientation_at_ap());
        mark(5, &mut lap);
        std::hint::black_box(net.plan_tones(false));
        mark(6, &mut lap);
        let down = net.downlink(&data, SYMBOL_RATE, true);
        mark(7, &mut lap);
        let up = net.uplink(&data, SYMBOL_RATE, true);
        mark(8, &mut lap);
        for received in [down.map(|r| r.payload), up.map(|r| r.payload)]
            .into_iter()
            .flatten()
            .flatten()
        {
            out.crc_passed += 1;
            out.payload_mismatches += (received[..] != data[..]) as u64;
        }
        out.replayed += 1;
    }
    for (k, s) in samples.iter_mut().enumerate() {
        out.stage_ms[k] = median(s);
    }

    // Whole-session pass, one class at a time, on the same requests.
    let session = Session::new(SessionConfig::milback());
    let mut ctx = SessionCtx::new();
    let mut packet = Packet {
        mode: LinkMode::Downlink,
        payload: Vec::with_capacity(PAYLOAD_LEN),
    };
    let mut per_class: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let n_items = (out.replayed as usize).max(1);
    for (class, times) in per_class.iter_mut().enumerate() {
        for item in items.iter().take(n_items) {
            if !times.is_empty()
                && t_start.elapsed() >= budget.mul_f64(0.5 + 0.5 * (class + 1) as f64 / 3.0)
            {
                break;
            }
            let net = &mut nets[item.node];
            net.reseed(item.seed);
            net.clock_s = 0.0;
            let t0 = Instant::now();
            match class {
                0 => {
                    std::hint::black_box(session.localize_in(&mut ctx, net));
                }
                _ => {
                    packet.mode = if class == 1 {
                        LinkMode::Downlink
                    } else {
                        LinkMode::Uplink
                    };
                    packet.payload.clear();
                    packet.payload.extend_from_slice(&payload(item.seed));
                    std::hint::black_box(session.run_in(&mut ctx, net, &packet, false).is_ok());
                }
            }
            times.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    let classes: [&[usize]; 3] = [&LOCALIZE_STAGES, &DOWNLINK_STAGES, &UPLINK_STAGES];
    for c in 0..3 {
        out.session_ms[c] = median(&mut per_class[c]);
        let covered: f64 = classes[c].iter().map(|&k| out.stage_ms[k]).sum();
        out.coverage[c] = ratio(covered, out.session_ms[c]);
    }
    out
}
