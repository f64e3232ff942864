//! Measurement primitives: the process CPU clock, a timed phase, order
//! statistics over repetitions, and the seeded generator for index streams.

use std::time::Instant;

use crate::alloc::{self, AllocSnapshot};

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` in `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process user+system CPU time in nanoseconds, all threads, exited ones
/// included. `/proc/self/stat` carries the same total but in 10 ms ticks,
/// which makes a half-second repetition read in 2 % steps and lets two runs
/// read exactly alike; the C library's clock has the scheduler's own
/// nanosecond accounting.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec`-layout value for the whole
    // call, and the clock id is a constant the C library defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// What one timed region cost the host.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phase {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub allocs: u64,
}

/// An open timed region; [`PhaseTimer::stop`] closes it.
pub struct PhaseTimer {
    start: Instant,
    cpu0: u64,
    alloc0: AllocSnapshot,
}

impl PhaseTimer {
    pub fn start() -> Self {
        let cpu0 = process_cpu_ns();
        let alloc0 = alloc::snapshot();
        Self {
            start: Instant::now(),
            cpu0,
            alloc0,
        }
    }

    pub fn stop(self) -> Phase {
        let wall_ns = self.start.elapsed().as_nanos() as u64;
        let a = alloc::snapshot();
        Phase {
            wall_ns,
            cpu_ns: process_cpu_ns() - self.cpu0,
            allocs: a.calls - self.alloc0.calls,
        }
    }
}

/// Wall nanoseconds of one call of `f`.
pub fn time_ns<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_nanos() as u64)
}

/// Order statistics of one metric over the repetitions of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Quartiles by linear interpolation between closest ranks.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or a NaN.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "summary of no repetitions");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are not NaN"));
        let at = |q: f64| {
            let pos = q * (v.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        };
        Self {
            n: v.len(),
            min: v[0],
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
            max: v[v.len() - 1],
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// SplitMix64: the harness's own generator, so index streams depend on
/// `--seed` and nothing else.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; bias below 2⁻³² for the sizes used).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Threads the machine can run at once; every client count derives from it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_under_a_busy_loop() {
        let before = process_cpu_ns();
        let start = Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 200 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let spent = process_cpu_ns() - before;
        // Other test threads only add CPU time and this one may be preempted,
        // so only a floor is safe to assert.
        assert!(spent >= 100_000_000, "busy loop registered {spent} ns");
    }

    #[test]
    fn summary_interpolates_quartiles() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 2.0, 3.0, 4.0, 5.0)
        );
        assert_eq!(s.n, 5);
        assert!((s.spread() - 2.0 / 3.0).abs() < 1e-12);
        let one = Summary::of(&[7.5]);
        assert_eq!((one.q1, one.median, one.q3), (7.5, 7.5, 7.5));
    }

    #[test]
    fn rng_is_seeded_and_in_range() {
        let mut a = Rng::new(9);
        let mut b = Rng::new(9);
        let mut c = Rng::new(10);
        let xs: Vec<u64> = (0..64).map(|_| a.below(1000)).collect();
        assert!(xs.iter().all(|&x| x < 1000));
        assert_eq!(xs, (0..64).map(|_| b.below(1000)).collect::<Vec<_>>());
        assert_ne!(xs, (0..64).map(|_| c.below(1000)).collect::<Vec<_>>());
    }
}
