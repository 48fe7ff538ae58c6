//! Absolute golden pin of simulated link results.
//!
//! The cached-vs-uncached equivalence tests only compare two render
//! paths with each other, so an arithmetic drift that both share would
//! pass them. This file pins literal values instead: the uplink SNR
//! bits, raw bit errors and decoded bytes of `Network::uplink` at three
//! poses and three symbol rates, one Field-2 localization fix, and the
//! Field-1 node captures and mode decisions with the RNG stream position
//! after each.
//! Hot-loop optimizations of the render and demodulation paths must
//! keep every one of these bitwise (DESIGN.md §13.5); a deliberate model
//! change re-records them and says why in CHANGES.md.

use milback::{Fidelity, Network};
use milback_proto::packet::LinkMode;
use milback_rf::faults::FaultPlan;
use milback_rf::geometry::{deg_to_rad, Pose};
use rand::RngCore;

const PAYLOAD: &[u8; 8] = b"golden!!";

/// `(range m, azimuth deg, rotation deg)`: a boresight node (single-tone
/// OOK plan), a rotated one (dual-tone OAQFM) and a far rotated one
/// whose 20 Msym/s transfer takes a bit error and fails its CRC.
const POSES: [(f64, f64, f64); 3] = [(2.0, 0.0, 0.0), (2.5, 6.0, 12.0), (9.0, -8.0, -15.0)];

/// `(pose index, symbol rate, snr bits, bit errors, payload decoded)`.
const UPLINK_GOLDEN: [(usize, f64, u64, usize, bool); 9] = [
    (0, 1e6, 0x40ce7c446868cfda, 0, true),
    (0, 5e6, 0x40f51b78c4b0151f, 0, true),
    (0, 20e6, 0x40f43982db139d4e, 0, true),
    (1, 1e6, 0x40a84435d0587c99, 0, true),
    (1, 5e6, 0x40a5231a88a6682d, 0, true),
    (1, 20e6, 0x409186e4ba697558, 0, true),
    (2, 1e6, 0x4057183aa504ad09, 0, true),
    (2, 5e6, 0x4031af408a2e05d7, 0, true),
    (2, 20e6, 0x401cc5af1bbec59e, 1, false),
];

fn pose(i: usize) -> Pose {
    let (d, az, rot) = POSES[i];
    Pose::facing_ap(d, deg_to_rad(az), deg_to_rad(rot))
}

#[test]
fn uplink_reports_match_golden_bits() {
    for (p, rate, snr_bits, errors, decoded) in UPLINK_GOLDEN {
        let mut net = Network::new(pose(p), Fidelity::Fast, 4242 + p as u64);
        let r = net.uplink(PAYLOAD, rate, true).expect("uplink planned");
        let ctx = format!("pose {p} at {rate:e} sym/s (snr {})", r.snr);
        assert_eq!(r.snr.to_bits(), snr_bits, "{ctx}");
        assert_eq!(r.bit_errors, errors, "{ctx}");
        match r.payload {
            Ok(bytes) => {
                assert!(decoded, "{ctx}: decoded but golden says CRC failure");
                assert_eq!(bytes, PAYLOAD, "{ctx}");
            }
            Err(e) => assert!(!decoded, "{ctx}: {e:?}"),
        }
    }
}

#[test]
fn localize_fix_matches_golden_bits() {
    let mut net = Network::new(pose(1), Fidelity::Fast, 77);
    let fix = net.localize().expect("fix");
    assert_eq!(
        fix.range.to_bits(),
        0x40040af5a8d01dd3,
        "range {}",
        fix.range
    );
    assert_eq!(
        fix.peak_power.to_bits(),
        0x3f2f144119623892,
        "peak {}",
        fix.peak_power
    );
}

/// One Field-1 golden case: `(pose index, network seed, chaos seed,
/// uplink decision, next_u64 after it, downlink decision, next_u64 after
/// it, capture fold, next_u64 after the captures)`. The chaos case runs
/// under `FaultPlan::chaos(seed, 1.0, 150 µs)`, whose blockages and
/// droop land inside Field 1.
type Field1Golden = (
    usize,
    u64,
    Option<u64>,
    Option<LinkMode>,
    u64,
    Option<LinkMode>,
    u64,
    u64,
    u64,
);

const FIELD1_GOLDEN: [Field1Golden; 3] = [
    (
        0,
        11,
        None,
        Some(LinkMode::Uplink),
        0xce74a193b8e6ac95,
        Some(LinkMode::Downlink),
        0x9a6c78b8852dc00d,
        0x2cd503681815bb6e,
        0x37bb904043b8b384,
    ),
    (
        1,
        12,
        Some(3),
        Some(LinkMode::Uplink),
        0xe199463ab7beaaec,
        None,
        0x42819ba95da26e3a,
        0xa8b0065d1811049a,
        0xe526d5d4de473f8d,
    ),
    (
        2,
        13,
        None,
        Some(LinkMode::Uplink),
        0x18a2186e157ab8f5,
        None,
        0xf2d1177a6481806a,
        0x7029ed0a10a8dddb,
        0xf9cd46db3c3aa1ee,
    ),
];

/// Order-sensitive fold of every sample's bit pattern.
fn fold_bits(h: u64, v: &[f64]) -> u64 {
    v.iter().fold(h, |h, x| {
        let h = (h ^ x.to_bits()).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^ (h >> 29)
    })
}

#[test]
fn field1_captures_and_modes_match_golden_bits() {
    for (p, seed, chaos, up, r_up, down, r_down, caps, r_caps) in FIELD1_GOLDEN {
        let mut net = Network::new(pose(p), Fidelity::Fast, seed);
        if let Some(chaos_seed) = chaos {
            net.faults = FaultPlan::chaos(chaos_seed, 1.0, 150e-6);
        }
        let ctx = format!("pose {p}, seed {seed}, chaos {chaos:?}");
        assert_eq!(net.signal_mode(LinkMode::Uplink), up, "{ctx}");
        assert_eq!(net.rng().next_u64(), r_up, "{ctx}: rng after uplink mode");
        assert_eq!(net.signal_mode(LinkMode::Downlink), down, "{ctx}");
        assert_eq!(
            net.rng().next_u64(),
            r_down,
            "{ctx}: rng after downlink mode"
        );
        let (a, b) = net.field1_node_captures();
        assert_eq!((a.len(), b.len()), (45, 45), "{ctx}");
        assert_eq!(
            fold_bits(fold_bits(0xcbf2_9ce4_8422_2325, &a), &b),
            caps,
            "{ctx}: capture bits"
        );
        assert_eq!(net.rng().next_u64(), r_caps, "{ctx}: rng after captures");
    }
}
