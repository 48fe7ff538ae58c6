//! The full MilBack packet protocol (paper §7): Field 1 (mode signalling
//! plus node-side orientation), Field 2 (localization plus AP-side
//! orientation), then the payload in whichever direction Field 1
//! announced.

use crate::link::{DownlinkReport, UplinkReport};
use crate::network::{with_field1_render, Network};
use milback_ap::ranging::LocalizationResult;

use milback_node::mode_detect::ModeDetector;
use milback_proto::packet::{LinkMode, Packet, PacketConfig, Slot};

/// Everything that happened during one packet exchange.
#[derive(Debug, Clone)]
pub struct PacketOutcome {
    /// The mode the node decoded from Field 1 (`None` = detection failed).
    pub mode_detected: Option<LinkMode>,
    /// The node's own orientation estimate from Field 1, radians.
    pub node_orientation: Option<f64>,
    /// The AP's localization fix from Field 2.
    pub fix: Option<LocalizationResult>,
    /// The AP's orientation estimate from Field 2, radians.
    pub ap_orientation: Option<f64>,
    /// Downlink result (when the packet was downlink).
    pub downlink: Option<DownlinkReport>,
    /// Uplink result (when the packet was uplink).
    pub uplink: Option<UplinkReport>,
}

impl Network {
    /// Transmits Field 1 for `mode` and lets the node detect the mode by
    /// counting chirps with its energy detector (paper §7).
    pub fn signal_mode(&mut self, mode: LinkMode) -> Option<LinkMode> {
        let chirp_cfg = self.field1_chirp();
        let mut rng = self.fork_rng();
        with_field1_render(|r| {
            r.combined.clear();
            for slot in PacketConfig::field1_slots(mode) {
                match slot {
                    // Every chirp slot carries the same triangular chirp
                    // in slot-local time, so the ports' clean taps are
                    // shared; each slot draws its own detector noise.
                    Slot::Chirp => r.chirp_captures(chirp_cfg, &self.scene, &self.node, &mut rng),
                    // Silence: the detectors see only their own noise.
                    Slot::Gap => {
                        r.silent_captures(&self.node, chirp_cfg.n_samples(), chirp_cfg.fs, &mut rng)
                    }
                }
                r.push_combined();
            }
            let det = ModeDetector {
                slot_duration: chirp_cfg.duration,
                sample_rate: self.node.adc.sample_rate,
            };
            // Scheduled impairments hit the node's detector stream before
            // the decision (no-op when the fault plan is empty) — a
            // blockage window over Field 1 erases chirps the counter
            // needed.
            self.faults
                .apply_to_video(self.clock_s, self.node.adc.sample_rate, &mut r.combined);
            // The node knows its detector noise (it can measure a quiet
            // window any time); the combined capture sums two ports.
            let sigma = 2f64.sqrt() * self.node.detector.output_noise_rms();
            det.detect_with_floor(&r.combined, 0.0, sigma)
        })
    }

    /// Runs a complete packet exchange:
    ///
    /// 1. Field 1 — the AP announces the mode; the node counts chirps and
    ///    estimates its own orientation from the first chirp.
    /// 2. Field 2 — five sawtooth chirps; the AP localizes the node and
    ///    estimates its orientation.
    /// 3. Payload — downlink or uplink per the packet's mode, with OAQFM
    ///    carriers chosen from the AP's orientation estimate.
    pub fn run_packet(&mut self, packet: &Packet, symbol_rate: f64) -> PacketOutcome {
        let _span = milback_telemetry::span("core.protocol.packet.ns");
        // --- Field 1 ---------------------------------------------------
        let mode_detected = self.signal_mode(packet.mode);
        let node_orientation = self.sense_orientation_at_node();

        // --- Field 2 ---------------------------------------------------
        let fix = self.localize();
        let ap_orientation = self.sense_orientation_at_ap();

        // --- Payload ---------------------------------------------------
        let mut outcome = PacketOutcome {
            mode_detected,
            node_orientation,
            fix,
            ap_orientation,
            downlink: None,
            uplink: None,
        };
        // The payload proceeds only if the node heard the right mode.
        if mode_detected != Some(packet.mode) {
            milback_telemetry::counter_add("core.protocol.mode_mismatch", 1);
            return outcome;
        }
        milback_telemetry::counter_add("core.protocol.mode_ok", 1);
        match packet.mode {
            LinkMode::Downlink => {
                outcome.downlink = self.downlink(&packet.payload, symbol_rate, false);
            }
            LinkMode::Uplink => {
                outcome.uplink = self.uplink(&packet.payload, symbol_rate, false);
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Fidelity;
    use milback_rf::geometry::{deg_to_rad, Pose};

    #[test]
    fn mode_signalling_through_channel() {
        let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(10.0));
        let mut net = Network::new(pose, Fidelity::Fast, 21);
        assert_eq!(net.signal_mode(LinkMode::Uplink), Some(LinkMode::Uplink));
        assert_eq!(
            net.signal_mode(LinkMode::Downlink),
            Some(LinkMode::Downlink)
        );
    }

    #[test]
    fn full_downlink_packet() {
        let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(12.0));
        let mut net = Network::new(pose, Fidelity::Fast, 22);
        let packet = Packet::downlink((0..16).collect());
        let outcome = net.run_packet(&packet, 1e6);
        assert_eq!(outcome.mode_detected, Some(LinkMode::Downlink));
        assert!(outcome.fix.is_some());
        assert!(outcome.node_orientation.is_some());
        assert!(outcome.ap_orientation.is_some());
        let dl = outcome.downlink.expect("downlink did not run");
        assert_eq!(dl.payload.as_deref().unwrap(), &packet.payload[..]);
    }

    #[test]
    fn full_uplink_packet() {
        let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(12.0));
        let mut net = Network::new(pose, Fidelity::Fast, 23);
        let packet = Packet::uplink(vec![0xC3; 16]);
        let outcome = net.run_packet(&packet, 5e6);
        assert_eq!(outcome.mode_detected, Some(LinkMode::Uplink));
        let ul = outcome.uplink.expect("uplink did not run");
        assert_eq!(ul.payload.as_deref().unwrap(), &packet.payload[..]);
    }

    #[test]
    fn mode_mismatch_skips_payload() {
        // A node too far away to hear Field 1 must not attempt the payload.
        let pose = Pose::facing_ap(40.0, 0.0, 0.0);
        let mut net = Network::new(pose, Fidelity::Fast, 24);
        // Out of localizer range too — everything degrades gracefully.
        let packet = Packet::downlink(vec![1, 2, 3]);
        let outcome = net.run_packet(&packet, 1e6);
        if outcome.mode_detected != Some(LinkMode::Downlink) {
            assert!(outcome.downlink.is_none());
        }
    }
}
