//! Absolute golden pin of simulated link results.
//!
//! The cached-vs-uncached equivalence tests only compare two render
//! paths with each other, so an arithmetic drift that both share would
//! pass them. This file pins literal values instead: the uplink SNR
//! bits, raw bit errors and decoded bytes of `Network::uplink` at three
//! poses and three symbol rates, plus one Field-2 localization fix.
//! Hot-loop optimizations of the render and demodulation paths must
//! keep every one of these bitwise (DESIGN.md §13.5); a deliberate model
//! change re-records them and says why in CHANGES.md.

use milback::{Fidelity, Network};
use milback_rf::geometry::{deg_to_rad, Pose};

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
