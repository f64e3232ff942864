//! Seedable latency distributions.
//!
//! Service times in the engine are drawn from one of three families: `Fixed`
//! (deterministic pipelines, Little's-law validation), `Uniform` (bounded
//! jitter), and `LogNormal` (the heavy-tailed shape real SSD media exhibits —
//! NAND reads colliding with erases produce exactly the long right tail a
//! lognormal models). All sampling goes through the workspace `rand` shim's
//! SplitMix64 `StdRng`, so a run is fully determined by its seed.

use rand::rngs::StdRng;
use rand::Rng;

use crate::engine::SimError;

/// A latency distribution over non-negative nanosecond durations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyDist {
    /// Always exactly `ns` nanoseconds.
    Fixed {
        /// The constant duration in nanoseconds.
        ns: u64,
    },
    /// Uniform on `[lo_ns, hi_ns]`.
    Uniform {
        /// Inclusive lower bound in nanoseconds.
        lo_ns: u64,
        /// Inclusive upper bound in nanoseconds.
        hi_ns: u64,
    },
    /// Lognormal: `exp(mu + sigma * Z)` with `Z ~ N(0, 1)`.
    LogNormal {
        /// Location parameter (`mu`), i.e. `ln(median_ns)`.
        mu: f64,
        /// Shape parameter (`sigma`); larger values mean heavier tails.
        sigma: f64,
    },
}

impl LatencyDist {
    /// A fixed duration of `us` microseconds.
    pub fn fixed_us(us: f64) -> Self {
        Self::Fixed {
            ns: (us * 1e3).round().max(0.0) as u64,
        }
    }

    /// A lognormal with the given *mean* (`mean_us` microseconds) and shape
    /// `sigma`. The location parameter is derived so that
    /// `E[X] = exp(mu + sigma^2 / 2) = mean`.
    pub fn lognormal_mean_us(mean_us: f64, sigma: f64) -> Self {
        assert!(mean_us > 0.0, "lognormal mean must be positive");
        assert!(sigma >= 0.0, "lognormal sigma must be non-negative");
        Self::LogNormal {
            mu: (mean_us * 1e3).ln() - sigma * sigma / 2.0,
            sigma,
        }
    }

    /// The distribution's mean, in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        match *self {
            Self::Fixed { ns } => ns as f64,
            Self::Uniform { lo_ns, hi_ns } => (lo_ns + hi_ns) as f64 / 2.0,
            Self::LogNormal { mu, sigma } => (mu + sigma * sigma / 2.0).exp(),
        }
    }

    /// Draws one duration in nanoseconds.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        match *self {
            Self::Fixed { ns } => ns,
            Self::Uniform { lo_ns, hi_ns } => {
                if lo_ns == hi_ns {
                    lo_ns
                } else {
                    rng.gen_range(lo_ns..hi_ns + 1)
                }
            }
            Self::LogNormal { mu, sigma } => {
                // Box-Muller; `1 - gen::<f64>()` maps [0,1) to (0,1] so the
                // logarithm is always finite.
                let u1: f64 = 1.0 - rng.gen::<f64>();
                let u2: f64 = rng.gen();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (mu + sigma * z).exp().round().max(0.0) as u64
            }
        }
    }
}

/// Draws an exponential interarrival gap for a Poisson process of
/// `rate_per_s`, in (fractional) nanoseconds.
pub(crate) fn exp_gap_ns(rate_per_s: f64, rng: &mut StdRng) -> f64 {
    debug_assert!(rate_per_s > 0.0);
    // `1 - gen::<f64>()` maps [0,1) to (0,1] so the logarithm is finite.
    let u: f64 = 1.0 - rng.gen::<f64>();
    -u.ln() / rate_per_s * 1e9
}

/// A 2-state Markov-modulated Poisson process: arrivals are Poisson at
/// `calm_rate_per_s` or `burst_rate_per_s` depending on a background
/// continuous-time Markov chain whose state dwell times are exponential with
/// means `mean_calm_s` and `mean_burst_s`. The canonical bursty-tenant model:
/// long quiet stretches punctuated by short, intense bursts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mmpp2 {
    /// Arrival rate while calm, in requests per second.
    pub calm_rate_per_s: f64,
    /// Arrival rate while bursting, in requests per second.
    pub burst_rate_per_s: f64,
    /// Mean dwell time in the calm state, in seconds.
    pub mean_calm_s: f64,
    /// Mean dwell time in the burst state, in seconds.
    pub mean_burst_s: f64,
}

/// Completed-dwell statistics of one generated MMPP path, for validating the
/// modulating chain against its configured transition rates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MmppDwellStats {
    /// Nanoseconds spent in completed calm dwells.
    pub calm_ns: u128,
    /// Nanoseconds spent in completed burst dwells.
    pub burst_ns: u128,
    /// Completed calm dwells.
    pub calm_visits: u64,
    /// Completed burst dwells.
    pub burst_visits: u64,
}

impl MmppDwellStats {
    /// Mean observed calm dwell, in seconds.
    pub fn mean_calm_s(&self) -> f64 {
        if self.calm_visits == 0 {
            return 0.0;
        }
        self.calm_ns as f64 / self.calm_visits as f64 / 1e9
    }

    /// Mean observed burst dwell, in seconds.
    pub fn mean_burst_s(&self) -> f64 {
        if self.burst_visits == 0 {
            return 0.0;
        }
        self.burst_ns as f64 / self.burst_visits as f64 / 1e9
    }
}

impl Mmpp2 {
    /// Checks the parameters: both rates non-negative with at least one
    /// positive, both mean dwells positive (NaN is neither).
    pub fn validate(&self) -> Result<(), SimError> {
        let rates_ok = self.calm_rate_per_s >= 0.0
            && self.burst_rate_per_s >= 0.0
            && (self.calm_rate_per_s > 0.0 || self.burst_rate_per_s > 0.0);
        if !rates_ok {
            return Err(SimError::InvalidMmppRates);
        }
        if self.mean_calm_s > 0.0 && self.mean_burst_s > 0.0 {
            Ok(())
        } else {
            Err(SimError::NonPositiveMmppDwell)
        }
    }

    /// The long-run mean arrival rate: each state's rate weighted by the
    /// fraction of time the chain spends there.
    pub fn mean_rate_per_s(&self) -> f64 {
        let total = self.mean_calm_s + self.mean_burst_s;
        (self.calm_rate_per_s * self.mean_calm_s + self.burst_rate_per_s * self.mean_burst_s)
            / total
    }

    /// Generates the first `n` arrival instants (nanoseconds, non-decreasing)
    /// of one path starting in the calm state, plus the completed-dwell
    /// statistics of the modulating chain over the generated span.
    ///
    /// # Panics
    ///
    /// Panics on parameters that fail [`Mmpp2::validate`].
    pub fn arrival_times(&self, n: u64, rng: &mut StdRng) -> (Vec<u64>, MmppDwellStats) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        let mut path = MmppPath::new(*self, rng);
        let arrivals = (0..n).map(|_| path.next_arrival_ns(rng)).collect();
        (arrivals, path.stats)
    }
}

/// One MMPP sample path, generated an arrival at a time: the modulating
/// chain's state plus the running clock. The caller owns the RNG, so the
/// draw order is exactly that of a loop over [`MmppPath::next_arrival_ns`].
#[derive(Debug, Clone)]
pub(crate) struct MmppPath {
    params: Mmpp2,
    burst: bool,
    t_ns: f64,
    dwell_start: f64,
    switch_at: f64,
    /// Latest arrival handed out (rounding can produce equal neighbours but
    /// never out-of-order ones; the running max enforces monotonicity anyway
    /// so downstream code may rely on it).
    last_ns: u64,
    stats: MmppDwellStats,
}

impl MmppPath {
    /// A path of validated `params` ([`Mmpp2::validate`]) starting in the
    /// calm state at time zero (draws the first calm dwell).
    pub(crate) fn new(params: Mmpp2, rng: &mut StdRng) -> Self {
        debug_assert_eq!(params.validate(), Ok(()));
        Self {
            params,
            burst: false,
            t_ns: 0.0,
            dwell_start: 0.0,
            switch_at: exp_gap_ns(1.0 / params.mean_calm_s, rng),
            last_ns: 0,
            stats: MmppDwellStats::default(),
        }
    }

    /// The path's next arrival instant in nanoseconds (never below the
    /// previous one).
    pub(crate) fn next_arrival_ns(&mut self, rng: &mut StdRng) -> u64 {
        loop {
            let rate = if self.burst {
                self.params.burst_rate_per_s
            } else {
                self.params.calm_rate_per_s
            };
            let next_arrival = if rate > 0.0 {
                self.t_ns + exp_gap_ns(rate, rng)
            } else {
                f64::INFINITY
            };
            if next_arrival < self.switch_at {
                self.t_ns = next_arrival;
                self.last_ns = self.last_ns.max(next_arrival.round() as u64);
                return self.last_ns;
            }
            // The chain switches state before the candidate arrival; the
            // candidate is discarded (memorylessness makes a fresh draw at
            // the new rate equivalent).
            let dwell = ((self.switch_at - self.dwell_start).round().max(0.0)) as u128;
            if self.burst {
                self.stats.burst_ns += dwell;
                self.stats.burst_visits += 1;
            } else {
                self.stats.calm_ns += dwell;
                self.stats.calm_visits += 1;
            }
            self.t_ns = self.switch_at;
            self.dwell_start = self.switch_at;
            self.burst = !self.burst;
            let mean = if self.burst {
                self.params.mean_burst_s
            } else {
                self.params.mean_calm_s
            };
            self.switch_at = self.t_ns + exp_gap_ns(1.0 / mean, rng);
        }
    }
}

/// The eager MMPP generator [`MmppPath`] replaced, kept verbatim as the
/// oracle the lazy path (and `tenant::eager_generate`) is checked against.
#[cfg(test)]
pub(crate) fn eager_arrival_times(
    m: &Mmpp2,
    n: u64,
    rng: &mut StdRng,
) -> (Vec<u64>, MmppDwellStats) {
    let mut arrivals = Vec::with_capacity(n as usize);
    let mut stats = MmppDwellStats::default();
    let mut burst = false;
    let mut t_ns = 0.0f64;
    let mut dwell_start = 0.0f64;
    let mut switch_at = exp_gap_ns(1.0 / m.mean_calm_s, rng);
    while (arrivals.len() as u64) < n {
        let rate = if burst {
            m.burst_rate_per_s
        } else {
            m.calm_rate_per_s
        };
        let next_arrival = if rate > 0.0 {
            t_ns + exp_gap_ns(rate, rng)
        } else {
            f64::INFINITY
        };
        if next_arrival < switch_at {
            t_ns = next_arrival;
            arrivals.push(next_arrival.round() as u64);
        } else {
            let dwell = ((switch_at - dwell_start).round().max(0.0)) as u128;
            if burst {
                stats.burst_ns += dwell;
                stats.burst_visits += 1;
            } else {
                stats.calm_ns += dwell;
                stats.calm_visits += 1;
            }
            t_ns = switch_at;
            dwell_start = switch_at;
            burst = !burst;
            let mean = if burst { m.mean_burst_s } else { m.mean_calm_s };
            switch_at = t_ns + exp_gap_ns(1.0 / mean, rng);
        }
    }
    for i in 1..arrivals.len() {
        if arrivals[i] < arrivals[i - 1] {
            arrivals[i] = arrivals[i - 1];
        }
    }
    (arrivals, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn mean_of(dist: LatencyDist, seed: u64, n: usize) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| dist.sample(&mut rng) as f64).sum::<f64>() / n as f64
    }

    #[test]
    fn fixed_is_constant() {
        let d = LatencyDist::fixed_us(11.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert!((0..100).all(|_| d.sample(&mut rng) == 11_000));
        assert_eq!(d.mean_ns(), 11_000.0);
    }

    #[test]
    fn uniform_stays_in_bounds_and_centers() {
        let d = LatencyDist::Uniform {
            lo_ns: 10_000,
            hi_ns: 20_000,
        };
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let v = d.sample(&mut rng);
            assert!((10_000..=20_000).contains(&v));
        }
        let m = mean_of(d, 3, 20_000);
        assert!((m / 15_000.0 - 1.0).abs() < 0.02, "mean {m}");
    }

    #[test]
    fn lognormal_hits_requested_mean_and_is_skewed() {
        let d = LatencyDist::lognormal_mean_us(324.0, 0.4);
        let m = mean_of(d, 4, 50_000);
        assert!((m / 324_000.0 - 1.0).abs() < 0.03, "mean {m}");
        // Right-skew: the median sits below the mean.
        let mut rng = StdRng::seed_from_u64(4);
        let mut xs: Vec<u64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        xs.sort_unstable();
        assert!((xs[25_000] as f64) < m);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let d = LatencyDist::lognormal_mean_us(11.0, 0.1);
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let xs: Vec<u64> = (0..64).map(|_| d.sample(&mut a)).collect();
        let ys: Vec<u64> = (0..64).map(|_| d.sample(&mut b)).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn exponential_gaps_average_to_the_reciprocal_rate() {
        let mut rng = StdRng::seed_from_u64(8);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| exp_gap_ns(1.0e6, &mut rng)).sum();
        // 1M/s → 1000ns mean gap.
        assert!((sum / n as f64 / 1000.0 - 1.0).abs() < 0.02);
    }

    #[test]
    fn mmpp_arrivals_are_monotone_and_deterministic() {
        let m = Mmpp2 {
            calm_rate_per_s: 50.0e3,
            burst_rate_per_s: 1.6e6,
            mean_calm_s: 4.0e-3,
            mean_burst_s: 1.0e-3,
        };
        let (a, _) = m.arrival_times(5_000, &mut StdRng::seed_from_u64(9));
        let (b, _) = m.arrival_times(5_000, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(a.len(), 5_000);
    }

    #[test]
    fn lazy_mmpp_path_matches_the_eager_generator() {
        let m = Mmpp2 {
            calm_rate_per_s: 50.0e3,
            burst_rate_per_s: 1.6e6,
            mean_calm_s: 4.0e-3,
            mean_burst_s: 1.0e-3,
        };
        let silent_calm = Mmpp2 {
            calm_rate_per_s: 0.0,
            ..m
        };
        for (seed, params, n) in [(9, m, 20_000), (10, silent_calm, 5_000), (11, m, 0)] {
            let lazy = params.arrival_times(n, &mut StdRng::seed_from_u64(seed));
            let eager = eager_arrival_times(&params, n, &mut StdRng::seed_from_u64(seed));
            assert_eq!(lazy, eager, "seed {seed}");
        }
    }

    #[test]
    fn mmpp_mean_rate_weights_states_by_dwell() {
        let m = Mmpp2 {
            calm_rate_per_s: 50.0e3,
            burst_rate_per_s: 1.6e6,
            mean_calm_s: 4.0e-3,
            mean_burst_s: 1.0e-3,
        };
        // (50K*4 + 1600K*1) / 5 = 360K.
        assert!((m.mean_rate_per_s() / 360.0e3 - 1.0).abs() < 1e-12);
        // The generated path's empirical rate agrees over a long horizon.
        let (a, _) = m.arrival_times(200_000, &mut StdRng::seed_from_u64(10));
        let span_s = *a.last().unwrap() as f64 / 1e9;
        let empirical = a.len() as f64 / span_s;
        assert!(
            (empirical / m.mean_rate_per_s() - 1.0).abs() < 0.05,
            "empirical rate {empirical}"
        );
    }

    #[test]
    fn mmpp_bursts_pack_arrivals_closer_than_calm() {
        let m = Mmpp2 {
            calm_rate_per_s: 10.0e3,
            burst_rate_per_s: 2.0e6,
            mean_calm_s: 2.0e-3,
            mean_burst_s: 0.5e-3,
        };
        let (a, stats) = m.arrival_times(50_000, &mut StdRng::seed_from_u64(11));
        assert!(stats.calm_visits > 10 && stats.burst_visits > 10);
        // Bimodal gaps: many tiny (burst) gaps, some large (calm) ones.
        let gaps: Vec<u64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let tiny = gaps.iter().filter(|&&g| g < 5_000).count();
        let large = gaps.iter().filter(|&&g| g > 20_000).count();
        assert!(tiny > gaps.len() / 2, "bursts dominate arrival counts");
        assert!(large > 100, "calm stretches exist");
    }
}
