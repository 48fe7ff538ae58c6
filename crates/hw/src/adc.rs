//! MCU ADC model (MSP430-class).
//!
//! The node's microcontroller samples the two envelope-detector outputs —
//! at 1 MHz for orientation sensing (paper §9.3) and at the symbol rate
//! for downlink data. The model captures sample-rate conversion,
//! quantization and clipping.

use milback_dsp::resample::sample_at;

/// A successive-approximation ADC as found on a low-power MCU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adc {
    /// Sample rate, Hz.
    pub sample_rate: f64,
    /// Resolution in bits.
    pub bits: u32,
    /// Full-scale input voltage (inputs are clipped to `[0, v_ref]`).
    pub v_ref: f64,
}

impl Adc {
    /// The MSP430FR6989-class 12-bit ADC sampling at 1 MHz used for
    /// node-side orientation sensing.
    pub fn msp430() -> Self {
        Self {
            sample_rate: 1e6,
            bits: 12,
            v_ref: 2.5,
        }
    }

    /// Number of quantization levels.
    pub fn levels(&self) -> u64 {
        1u64 << self.bits
    }

    /// Quantization step size, volts.
    pub fn lsb(&self) -> f64 {
        self.v_ref / self.levels() as f64
    }

    /// Quantizes a single voltage to the nearest code's voltage, clipping
    /// to the input range.
    pub fn quantize(&self, v: f64) -> f64 {
        let clipped = v.clamp(0.0, self.v_ref);
        let code = (clipped / self.lsb())
            .round()
            .min((self.levels() - 1) as f64);
        code * self.lsb()
    }

    /// Samples an analog waveform given at rate `fs_in`, producing
    /// quantized samples at the ADC's own rate.
    ///
    /// This is the reference definition: output `k` linearly interpolates
    /// the waveform at `t = k / sample_rate` ([`sample_at`]), so it reads
    /// at most two analog samples. [`Adc::taps_into`] and
    /// [`Adc::capture_taps_into`] compute the same codes from just those
    /// samples.
    pub fn capture(&self, analog: &[f64], fs_in: f64) -> Vec<f64> {
        assert!(fs_in > 0.0, "input rate must be positive");
        if analog.is_empty() {
            return Vec::new();
        }
        let duration = analog.len() as f64 / fs_in;
        let n = (duration * self.sample_rate).floor() as usize;
        (0..n)
            .map(|i| self.quantize(sample_at(analog, fs_in, i as f64 / self.sample_rate)))
            .collect()
    }

    /// Number of samples a capture of `len` analog samples at `fs_in`
    /// produces (0 for an empty input), as [`Adc::capture`] counts them.
    fn capture_len(&self, len: usize, fs_in: f64) -> usize {
        assert!(fs_in > 0.0, "input rate must be positive");
        if len == 0 {
            return 0;
        }
        let duration = len as f64 / fs_in;
        (duration * self.sample_rate).floor() as usize
    }

    /// Analog read position of output `k`: `x = t·fs_in` at
    /// `t = k / sample_rate`, the expression [`sample_at`] evaluates.
    fn read_pos(&self, k: usize, fs_in: f64) -> f64 {
        k as f64 / self.sample_rate * fs_in
    }

    /// The analog sample indices a capture of `len` samples at `fs_in`
    /// reads, strictly increasing: `⌊x_k⌋` and `⌊x_k⌋ + 1` for every
    /// output `k`, minus those at or past `len`. Clears and refills `taps`.
    pub fn taps_into(&self, len: usize, fs_in: f64, taps: &mut Vec<usize>) {
        taps.clear();
        for k in 0..self.capture_len(len, fs_in) {
            let i = self.read_pos(k, fs_in).floor() as usize;
            for j in [i, i + 1] {
                if j < len && taps.last().is_none_or(|&last| last < j) {
                    taps.push(j);
                }
            }
        }
    }

    /// [`Adc::capture`] of a `len`-sample waveform at `fs_in` given only
    /// its values at the read positions: `values[j]` is analog sample
    /// `taps[j]`, with `taps` from [`Adc::taps_into`] for the same `len`
    /// and `fs_in`. Same interpolation arithmetic and `i + 1 ≥ len` edge
    /// as [`sample_at`], so the codes are bitwise those of `capture`.
    /// Clears and refills `out`.
    pub fn capture_taps_into(
        &self,
        len: usize,
        fs_in: f64,
        taps: &[usize],
        values: &[f64],
        out: &mut Vec<f64>,
    ) {
        out.clear();
        let mut pos = 0;
        for k in 0..self.capture_len(len, fs_in) {
            let x = self.read_pos(k, fs_in);
            let i = x.floor() as usize;
            let v = if i + 1 >= len {
                if i < len {
                    // The last sample is always a tap.
                    values[taps.len() - 1]
                } else {
                    0.0
                }
            } else {
                while taps[pos] < i {
                    pos += 1;
                }
                let frac = x - i as f64;
                values[pos] * (1.0 - frac) + values[pos + 1] * frac
            };
            out.push(self.quantize(v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_and_lsb() {
        let adc = Adc::msp430();
        assert_eq!(adc.levels(), 4096);
        assert!((adc.lsb() - 2.5 / 4096.0).abs() < 1e-15);
    }

    #[test]
    fn quantize_rounds_and_clips() {
        let adc = Adc::msp430();
        assert_eq!(adc.quantize(-1.0), 0.0);
        assert_eq!(adc.quantize(5.0), (adc.levels() - 1) as f64 * adc.lsb());
        let v = 1.2345;
        let q = adc.quantize(v);
        assert!((q - v).abs() <= adc.lsb() / 2.0 + 1e-15);
    }

    #[test]
    fn capture_rate_conversion() {
        let adc = Adc::msp430();
        // 10 ms of a 100 MHz-sampled ramp → 10_000 ADC samples.
        let fs_in = 100e6;
        let n_in = (0.01 * fs_in) as usize;
        let analog: Vec<f64> = (0..n_in).map(|i| i as f64 / n_in as f64 * 2.0).collect();
        let out = adc.capture(&analog, fs_in);
        assert_eq!(out.len(), 10_000);
        // Mid-capture value ≈ 1.0 V.
        assert!((out[5000] - 1.0).abs() < 0.01);
    }

    #[test]
    fn capture_empty() {
        let adc = Adc::msp430();
        assert!(adc.capture(&[], 1e6).is_empty());
    }

    /// `taps_into` + `capture_taps_into` over the tap values reproduce
    /// `capture` of the whole waveform bit for bit.
    fn assert_tap_capture_matches(adc: &Adc, len: usize, fs_in: f64) {
        let analog: Vec<f64> = (0..len)
            .map(|i| (i as f64 * 0.37).sin().abs() * 1.3 + 1e-3 * i as f64)
            .collect();
        let expect = adc.capture(&analog, fs_in);
        let mut taps = Vec::new();
        adc.taps_into(len, fs_in, &mut taps);
        assert!(taps.windows(2).all(|w| w[0] < w[1]), "taps not increasing");
        assert!(taps.iter().all(|&i| i < len), "tap past the end");
        let values: Vec<f64> = taps.iter().map(|&i| analog[i]).collect();
        let mut got = vec![9.0; 3];
        adc.capture_taps_into(len, fs_in, &taps, &values, &mut got);
        assert_eq!(got.len(), expect.len(), "len {len} at {fs_in}");
        for (k, (g, e)) in got.iter().zip(&expect).enumerate() {
            assert_eq!(g.to_bits(), e.to_bits(), "sample {k}, len {len} at {fs_in}");
        }
    }

    #[test]
    fn tap_capture_matches_full_capture_bitwise() {
        let adc = Adc::msp430();
        // Empty and single-sample inputs (the latter reads nothing at
        // 1 MHz unless the input rate is at most the ADC rate).
        for fs_in in [1e6, 3.2e9] {
            assert_tap_capture_matches(&adc, 0, fs_in);
            assert_tap_capture_matches(&adc, 1, fs_in);
        }
        // Input at the ADC rate: the last output reads sample len−1 alone
        // (the `i + 1 ≥ len` edge).
        let mut taps = Vec::new();
        adc.taps_into(5, 1e6, &mut taps);
        assert_eq!(taps, vec![0, 1, 2, 3, 4]);
        assert_tap_capture_matches(&adc, 5, 1e6);
        // Field-1 rates: the Fast preset's 3.2 GS/s and the Paper
        // preset's 4 GS/s over one 45 µs chirp, plus a ragged tail.
        for fs_in in [3.2e9f64, 4e9] {
            let n = (45e-6 * fs_in).round() as usize;
            assert_tap_capture_matches(&adc, n, fs_in);
            assert_tap_capture_matches(&adc, n + 1234, fs_in);
        }
        // Non-integer rate ratios, including reads that share a sample
        // with the previous output's right neighbour.
        for fs_in in [2.7e6, 1.5e6, 3.3333e9, 999_999.0] {
            for len in [2, 3, 17, 4000] {
                assert_tap_capture_matches(&adc, len, fs_in);
            }
        }
    }

    #[test]
    fn quantization_error_bounded_by_half_lsb() {
        let adc = Adc::msp430();
        for i in 0..1000 {
            let v = i as f64 * 0.0025;
            let q = adc.quantize(v);
            assert!((q - v).abs() <= adc.lsb() / 2.0 + 1e-12, "v={v}");
        }
    }
}
