//! The MilBack backscatter node (paper §4, Figure 4).
//!
//! A node is a dual-port FSA whose ports are connected through SPDT
//! switches to either the FSA ground plane (reflective) or an envelope
//! detector (absorptive), plus an MCU ADC sampling the detector outputs.
//! There are **no** mmWave active components — no amplifier, mixer,
//! oscillator or phased array.
//!
//! The struct here owns the hardware models and exposes the two things the
//! rest of the system needs:
//!
//! * a reflection-coefficient schedule `Γ(t)` for the channel, derived
//!   from per-port [`SwitchSchedule`]s, and
//! * the receive path: FSA port → switch through-loss → envelope
//!   detector → ADC, computed only at the analog samples the ADC reads
//!   ([`PortTaps`]).

use milback_dsp::noise::add_real_noise_at;
use milback_dsp::num::Cpx;
use milback_dsp::signal::Signal;
use milback_hw::adc::Adc;
use milback_hw::envelope::EnvelopeDetector;
use milback_hw::power::PowerModel;
use milback_hw::switch::{SpdtSwitch, SwitchSchedule, SwitchState};
use milback_rf::fsa::{DualPortFsa, Port};
use milback_rf::geometry::Pose;
use rand::Rng;

/// The noiseless detector video of one FSA port at the analog samples the
/// MCU ADC reads: everything [`BackscatterNode::receive_port`] computes
/// before the detector-noise draw. The port signal's other samples only
/// advance the video filter and the noise stream, so a pose's taps can be
/// rendered once and captured under fresh noise any number of times
/// ([`BackscatterNode::capture_taps_into`]). Pooled: the render methods
/// clear and refill it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PortTaps {
    /// Length of the port signal, samples.
    len: usize,
    /// Its sample rate, Hz.
    fs: f64,
    /// The analog sample indices the ADC reads, strictly increasing
    /// ([`Adc::taps_into`]).
    idx: Vec<usize>,
    /// Noiseless detector video at `idx`.
    video: Vec<f64>,
}

/// A complete MilBack backscatter node.
#[derive(Debug, Clone)]
pub struct BackscatterNode {
    /// Where the node is and which way its FSA faces.
    pub pose: Pose,
    /// The dual-port FSA.
    pub fsa: DualPortFsa,
    /// The SPDT switch on each port (identical parts).
    pub switch: SpdtSwitch,
    /// The envelope detector on each port (identical parts).
    pub detector: EnvelopeDetector,
    /// The MCU ADC.
    pub adc: Adc,
    /// Power/energy accounting.
    pub power: PowerModel,
    /// One-way implementation loss, dB: polarization mismatch, connector
    /// and evaluation-board cabling losses of the prototype (paper Fig. 9
    /// wires evaluation boards together). Applied once on the receive path
    /// and twice on backscatter.
    pub impl_loss_db: f64,
}

impl BackscatterNode {
    /// Builds the paper's prototype node at the given pose.
    pub fn milback(pose: Pose) -> Self {
        Self {
            pose,
            fsa: DualPortFsa::milback(),
            switch: SpdtSwitch::adrf5020(),
            // ADL6010 silicon plus the MCU ADC input chain: the effective
            // output-referred noise density of the prototype's detector
            // path, calibrated against Fig. 14's SINR-vs-distance curve.
            detector: EnvelopeDetector {
                noise_density: 400e-9,
                ..EnvelopeDetector::adl6010()
            },
            adc: Adc::msp430(),
            power: PowerModel::milback(),
            impl_loss_db: 6.0,
        }
    }

    /// One-way implementation-loss amplitude factor.
    fn impl_loss_amp(&self) -> f64 {
        10f64.powf(-self.impl_loss_db / 20.0)
    }

    /// Reflection coefficient of one port in a switch state.
    pub fn port_gamma(&self, state: SwitchState) -> Cpx {
        self.switch.gamma(state)
    }

    /// The node's constant port reflection coefficients while *parked*
    /// (not scheduled on the MAC): both SPDT switches rest on the
    /// absorptive throw, so only the residual switch mismatch — through
    /// the two-way implementation loss — reflects. This is the Γ the
    /// dense-network fabric feeds the channel for every unscheduled
    /// neighbor whose leftover reflection clutters a scheduled node's
    /// capture.
    pub fn parked_gamma(&self) -> [Cpx; 2] {
        let two_way = self.impl_loss_amp() * self.impl_loss_amp();
        let g = self.switch.gamma(SwitchState::Absorptive) * two_way;
        [g, g]
    }

    /// Builds the channel-facing `Γ(t)` closure from per-port schedules.
    /// Both throws' Γ are computed once here, and each port's schedule is
    /// read through a [`SwitchSchedule::cursor`], so a per-sample call is
    /// two state lookups and two selects.
    pub fn gamma_schedule<'a>(
        &'a self,
        port_a: &'a SwitchSchedule,
        port_b: &'a SwitchSchedule,
    ) -> impl Fn(f64) -> [Cpx; 2] + 'a {
        // Backscatter passes the implementation loss twice (in and out).
        let two_way = self.impl_loss_amp() * self.impl_loss_amp();
        let gammas = self.switch.port_gammas(two_way);
        let (a, b) = (port_a.cursor(), port_b.cursor());
        move |t| [gammas.of(a.state_at(t)), gammas.of(b.state_at(t))]
    }

    /// Amplitude factor from the FSA port to the detector input: the
    /// switch's absorptive through-loss and the one-way implementation
    /// loss.
    fn rx_gain(&self) -> f64 {
        self.switch.through_gain().sqrt() * self.impl_loss_amp()
    }

    /// The node's receive path for one port: the RF signal at the FSA port
    /// (as produced by `Scene::to_node_port`) through the switch's
    /// absorptive through-loss and the envelope detector, sampled by the
    /// MCU ADC. Returns ADC samples (volts at `adc.sample_rate`).
    ///
    /// Computes only what the ADC reads ([`Self::port_taps_into`] then
    /// [`Self::capture_taps_into`]); the codes and the RNG state after
    /// the call are bitwise those of detecting, noising and capturing
    /// every sample (DESIGN.md §13.6).
    pub fn receive_port<R: Rng + ?Sized>(&self, at_port: &Signal, rng: &mut R) -> Vec<f64> {
        let mut taps = PortTaps::default();
        self.port_taps_into(at_port, &mut taps);
        let mut out = Vec::new();
        self.capture_taps_into(&taps, rng, &mut Vec::new(), &mut out);
        out
    }

    /// The noiseless half of [`Self::receive_port`]: renders the
    /// detector video of `at_port` at the ADC's read positions into
    /// `taps`. Deterministic in the port signal and the node's switch,
    /// implementation loss, detector slope and video bandwidth and ADC
    /// rate.
    pub fn port_taps_into(&self, at_port: &Signal, taps: &mut PortTaps) {
        taps.len = at_port.len();
        taps.fs = at_port.fs;
        self.adc.taps_into(taps.len, taps.fs, &mut taps.idx);
        self.detector
            .detect_clean_taps_into(at_port, self.rx_gain(), &taps.idx, &mut taps.video);
    }

    /// [`Self::port_taps_into`] for a silent port of `len` zero samples
    /// at `fs` without stepping the filter: the video filter starts at
    /// zero and a zero sample at a finite gain steps it by exactly zero,
    /// so every tap is `0.0`.
    pub fn silent_taps_into(&self, len: usize, fs: f64, taps: &mut PortTaps) {
        taps.len = len;
        taps.fs = fs;
        self.adc.taps_into(len, fs, &mut taps.idx);
        taps.video.clear();
        taps.video.resize(taps.idx.len(), 0.0);
    }

    /// The noisy half of [`Self::receive_port`]: adds the detector's
    /// output noise at the taps — drawing the full-rate stream's variates
    /// there and skipping the rest — and samples the result with the ADC
    /// into `out`. `noisy` is scratch; both buffers reuse their capacity.
    pub fn capture_taps_into<R: Rng + ?Sized>(
        &self,
        taps: &PortTaps,
        rng: &mut R,
        noisy: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        noisy.clear();
        noisy.extend_from_slice(&taps.video);
        let sigma = self.detector.output_noise_rms();
        add_real_noise_at(noisy, &taps.idx, taps.len, sigma, rng);
        self.adc
            .capture_taps_into(taps.len, taps.fs, &taps.idx, noisy, out);
    }

    /// Like [`Self::receive_port`] but keeps the detector's full video
    /// rate (no ADC) — used for payload demodulation where the MCU samples
    /// at the symbol rate via a comparator rather than the slow ADC.
    pub fn receive_port_video<R: Rng + ?Sized>(&self, at_port: &Signal, rng: &mut R) -> Vec<f64> {
        let mut out = Vec::new();
        self.receive_port_video_into(
            at_port,
            rng,
            &mut Signal::new(at_port.fs, 0.0, Vec::new()),
            &mut out,
        );
        out
    }

    /// Allocation-free [`Self::receive_port_video`]: the scaled RF copy
    /// lands in `rf_scratch` (a pooled `Signal`; the scale must apply to
    /// the complex samples *before* envelope detection to stay bitwise
    /// identical) and the video stream in `out`, both reusing capacity.
    pub fn receive_port_video_into<R: Rng + ?Sized>(
        &self,
        at_port: &Signal,
        rng: &mut R,
        rf_scratch: &mut Signal,
        out: &mut Vec<f64>,
    ) {
        rf_scratch.copy_from(at_port);
        rf_scratch.scale(self.rx_gain());
        self.detector.detect_into(rf_scratch, rng, out);
    }

    /// Convenience: the constant absorptive schedule (both ports
    /// listening).
    pub fn listening() -> (SwitchSchedule, SwitchSchedule) {
        (
            SwitchSchedule::Constant(SwitchState::Absorptive),
            SwitchSchedule::Constant(SwitchState::Absorptive),
        )
    }

    /// The localization schedule of §5.1: port A toggling at 10 kHz, port
    /// B parked absorptive (as in §5.2's orientation variant, which keeps
    /// one port absorptive so the AP can background-subtract).
    pub fn localization_schedule() -> (SwitchSchedule, SwitchSchedule) {
        (
            SwitchSchedule::milback_localization(),
            SwitchSchedule::Constant(SwitchState::Absorptive),
        )
    }

    /// OAQFM carrier frequencies for this node's current orientation as
    /// seen from `ap_pos`: `(f_A, f_B)`. Returns `None` if either beam
    /// cannot be steered to the AP.
    pub fn oaqfm_tones(&self, ap_pos: &milback_rf::geometry::Point) -> Option<(f64, f64)> {
        let inc = self.pose.incidence_from(ap_pos);
        let fa = self.fsa.frequency_for_angle(Port::A, inc)?;
        let fb = self.fsa.frequency_for_angle(Port::B, inc)?;
        Some((fa, fb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milback_rf::geometry::{deg_to_rad, Point};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn node() -> BackscatterNode {
        BackscatterNode::milback(Pose::facing_ap(2.0, 0.0, 0.0))
    }

    #[test]
    fn gamma_schedule_tracks_states() {
        let n = node();
        let a = SwitchSchedule::Constant(SwitchState::Reflective);
        let b = SwitchSchedule::Constant(SwitchState::Absorptive);
        let g = n.gamma_schedule(&a, &b);
        let [ga, gb] = g(0.0);
        // Two-way implementation loss scales both, but the reflective
        // port must stay far stronger than the absorptive one.
        let two_way = 10f64.powf(-2.0 * n.impl_loss_db / 20.0);
        assert!((ga.re - n.switch.gamma(SwitchState::Reflective).re * two_way).abs() < 1e-12);
        assert!(ga.abs() / gb.abs() > 5.0, "contrast lost: {ga:?} vs {gb:?}");
    }

    #[test]
    fn gamma_schedule_follows_square_wave() {
        let n = node();
        let a = SwitchSchedule::milback_localization();
        let b = SwitchSchedule::Constant(SwitchState::Absorptive);
        let g = n.gamma_schedule(&a, &b);
        let [g0, _] = g(0.0);
        let [g1, _] = g(60e-6); // past the 50 µs half-period
        assert!(
            g0.abs() / g1.abs() > 5.0,
            "square wave lost: {g0:?} vs {g1:?}"
        );
    }

    #[test]
    fn receive_port_produces_adc_rate_samples() {
        let n = node();
        let mut rng = StdRng::seed_from_u64(3);
        // 100 µs of signal at 100 MHz → 100 samples at the 1 MHz ADC.
        let sig = Signal::tone(1e8, 28e9, 0.0, 1e-3, 10_000);
        let out = n.receive_port(&sig, &mut rng);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn receive_strong_tone_is_visible() {
        let n = node();
        let mut rng = StdRng::seed_from_u64(4);
        let p_in = 1e-6; // −30 dBm at the port
        let amp = (p_in * n.detector.input_impedance).sqrt();
        let sig = Signal::tone(1e8, 28e9, 0.0, amp, 20_000);
        let out = n.receive_port(&sig, &mut rng);
        let settled = &out[50..];
        let mean = settled.iter().sum::<f64>() / settled.len() as f64;
        let one_way = 10f64.powf(-n.impl_loss_db / 10.0);
        let expected = n
            .detector
            .ideal_output(p_in * n.switch.through_gain() * one_way);
        assert!(
            (mean / expected - 1.0).abs() < 0.1,
            "mean {mean} vs {expected}"
        );
    }

    #[test]
    fn oaqfm_tones_reflect_orientation() {
        let ap = Point::origin();
        // Node facing the AP: both tones equal (normal incidence).
        let n = BackscatterNode::milback(Pose::facing_ap(2.0, 0.0, 0.0));
        let (fa, fb) = n.oaqfm_tones(&ap).unwrap();
        assert!((fa - fb).abs() < 1.0);
        // Rotated node: distinct tones, mirrored around the normal freq.
        let n = BackscatterNode::milback(Pose::facing_ap(2.0, 0.0, deg_to_rad(12.0)));
        let (fa2, fb2) = n.oaqfm_tones(&ap).unwrap();
        assert!((fa2 - fb2).abs() > 100e6);
        assert!(
            (fa2 - fa) * (fb2 - fb) < 0.0,
            "tones move in opposite directions"
        );
    }

    #[test]
    fn localization_schedule_shape() {
        let (a, b) = BackscatterNode::localization_schedule();
        assert_eq!(a.transitions_in(1e-3), 20); // 10 kHz over 1 ms
        assert_eq!(b.transitions_in(1e-3), 0);
    }
}
