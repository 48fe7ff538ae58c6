//! Host-side instruments: a counting global allocator, the process's
//! peak resident set, and a fixed pure-FP calibration loop.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A pass-through allocator that counts heap acquisitions: `alloc`,
/// `alloc_zeroed` and `realloc` count one each, `dealloc` is free (the
/// accounting of `tests/zero_alloc.rs`). The binary installs it with
/// `#[global_allocator]`; without it [`allocs`] stays at 0.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed counter increment, which touches no allocator-managed memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Heap acquisitions so far, all threads.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Peak resident set of this process (`VmHWM` in `/proc/self/status`),
/// MiB. `None` where the file is missing or unreadable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Fixed pure-FP calibration workload, min of 5 passes, µs: a
/// recurrence swept over a 64 Ki buffer, independent of every library
/// kernel (the DESIGN.md §17.4 host-speed reference). Sampled before and
/// after each workload so a reader can tell a slow host from slow code.
pub fn calib_us() -> f64 {
    const N: usize = 1 << 16;
    const SWEEPS: usize = 16;
    let mut buf: Vec<f64> = (0..N).map(|i| (i as f64 * 0.001).sin()).collect();
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..SWEEPS {
            let mut acc = 0.0f64;
            for v in buf.iter_mut() {
                *v = *v * 0.999 + 0.0007;
                acc += *v * *v;
            }
            black_box(acc);
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e6);
        black_box(&mut buf);
    }
    best
}

/// Nearest-rank quantile of `v` (sorted in place); `0.0` when empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `v` (mean of the middle pair for even lengths); `0.0` when
/// empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// `num / den`, or `0.0` when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(quantile(&mut v, 0.95), 5.0);
        assert_eq!(quantile(&mut v, 0.5), 3.0);
        assert_eq!(median(&mut [1.0, 2.0]), 1.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}
