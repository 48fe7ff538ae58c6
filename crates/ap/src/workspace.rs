//! Reusable DSP workspaces for the AP's hot loops (DESIGN.md §12).
//!
//! A five-chirp localization burst runs dechirp → window/zero-pad →
//! range FFT → background subtraction → detection → noise floor ten
//! times over (five chirps × two antennas). The allocating pipeline
//! churns a fresh set of `Vec` buffers per stage per chirp; a
//! [`DspWorkspace`] owns one set of buffers that every stage writes
//! into through the `_into` variants, so a warmed burst performs zero
//! heap allocations (pinned by `tests/zero_alloc.rs`).
//!
//! ## Ownership rules
//!
//! * A workspace is plain mutable state owned by its caller
//!   ([`DspWorkspace::new`]) and threaded through
//!   [`crate::ranging::Localizer::process_with`] and friends. In the
//!   `milback` stack that owner is the per-worker `SessionCtx`.
//! * Buffers only ever grow (to the largest capture processed in that
//!   workspace); nothing shrinks or frees until the owner drops it.
//!
//! ## Telemetry
//!
//! * `dsp.workspace.grow.local` — one count per buffer reallocation
//!   (reported by the fill sites via `milback_dsp::buffer`). Growth
//!   depends on per-thread warm-up order, hence `.local`.

use milback_dsp::num::Cpx;

/// Caller-owned buffer set for the dechirp → FFT → background →
/// detection chain. Index `[0]`/`[1]` of the per-antenna arrays is the
/// RX antenna.
#[derive(Debug, Default)]
pub struct DspWorkspace {
    /// Dechirped samples of the chirp currently being processed.
    pub dechirp: Vec<Cpx>,
    /// Windowed, zero-padded FFT buffer (the range spectrum).
    pub fft: Vec<Cpx>,
    /// Per-antenna complex range profiles, one inner buffer per chirp.
    pub profiles: [Vec<Vec<Cpx>>; 2],
    /// Per-antenna background-subtraction differences (the history of
    /// consecutive-chirp subtractions).
    pub diffs: [Vec<Vec<Cpx>>; 2],
    /// Per-antenna detection spectra (range-spectrum magnitudes).
    pub det: [Vec<f64>; 2],
    /// Antenna-summed detection spectrum.
    pub det_sum: Vec<f64>,
    /// Sort scratch for the noise-floor estimate.
    pub floor_scratch: Vec<f64>,
    /// CFAR local-floor estimates.
    pub cfar_floors: Vec<f64>,
    /// CFAR hit indices.
    pub cfar_hits: Vec<usize>,
}

impl DspWorkspace {
    /// An empty workspace; buffers grow to working size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resizes a buffer pool (outer vector of per-chirp buffers) to `n`
    /// entries, keeping the already-grown inner buffers.
    pub fn ensure_pool(pool: &mut Vec<Vec<Cpx>>, n: usize) {
        milback_dsp::buffer::track_growth(pool, n);
        pool.truncate(n);
        while pool.len() < n {
            pool.push(Vec::new());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_keeps_inner_buffers() {
        let mut pool = vec![vec![Cpx::new(1.0, 0.0); 64], vec![Cpx::new(2.0, 0.0); 64]];
        let caps: Vec<usize> = pool.iter().map(Vec::capacity).collect();
        DspWorkspace::ensure_pool(&mut pool, 5);
        assert_eq!(pool.len(), 5);
        assert_eq!(pool[0].capacity(), caps[0]);
        assert_eq!(pool[1].capacity(), caps[1]);
        DspWorkspace::ensure_pool(&mut pool, 1);
        assert_eq!(pool.len(), 1);
    }
}
