//! Per-class SLO admission control in the arrival path.

use crate::clock::SimTime;
use crate::tenant::AdmissionSpec;

/// `ln(100)`: the p99-to-mean ratio of an exponential sojourn tail
/// (`P[T > t] = e^(-t/mean)` crosses 1% at `t = mean·ln 100`). Hardcoded so
/// controller thresholds never depend on the platform's `ln`.
const LN_100: f64 = 4.605_170_185_988_092;

/// The admission controller of one tenant class, actuating its SLO in the
/// arrival path.
///
/// The control law inverts Little's law: with offered rate λ and an
/// exponential-tail projection, the class's p99 stays under `target_p99_us`
/// while its in-flight population stays under
/// `steady_state_in_flight(λ, target_p99_us / ln 100)`. Below that depth
/// every request is admitted. Above it, admissions draw from a token bucket
/// (so transient bursts ride through); an empty bucket defers the request by
/// `defer_ns`, and a request that exhausts `max_defers` is rejected.
///
/// All decisions run on the sequential timing spine over virtual time, so
/// they are deterministic and invariant under the engine's worker count.
#[derive(Debug)]
pub(crate) struct AdmissionCtl {
    /// In-flight depth below which admission is unconditional.
    depth_limit: u64,
    /// The class's currently admitted-but-incomplete requests.
    in_flight: u64,
    /// Token bucket: current fill, capacity, and virtual-time refill rate.
    tokens: f64,
    burst: f64,
    refill_per_s: f64,
    last_refill: SimTime,
    /// Deferral backoff and per-request deferral budget.
    defer_ns: u64,
    max_defers: u32,
}

/// What the admission controller decided for one offered request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Enter the pipeline now.
    Admit,
    /// Re-offer after the class's deferral backoff.
    Defer { until_ns: u64 },
    /// Drop the request; it never enters the pipeline.
    Reject,
}

impl AdmissionCtl {
    pub(super) fn new(spec: &AdmissionSpec, offered_rate_per_s: f64, target_p99_us: f64) -> Self {
        assert!(
            offered_rate_per_s > 0.0,
            "admission control needs a positive offered rate"
        );
        assert!(target_p99_us > 0.0, "admission control needs a p99 budget");
        let depth_limit =
            bam_timing::steady_state_in_flight(offered_rate_per_s, target_p99_us / LN_100).floor()
                as u64;
        Self {
            depth_limit: depth_limit.max(1),
            in_flight: 0,
            tokens: f64::from(spec.burst),
            burst: f64::from(spec.burst),
            refill_per_s: spec.refill_per_s,
            last_refill: SimTime::ZERO,
            defer_ns: spec.defer_ns,
            max_defers: spec.max_defers,
        }
    }

    fn decide(&mut self, now: SimTime, defers_so_far: u32) -> Admission {
        let elapsed_ns = now - self.last_refill;
        self.tokens = (self.tokens + elapsed_ns as f64 * self.refill_per_s / 1e9).min(self.burst);
        self.last_refill = now;
        if self.in_flight < self.depth_limit {
            self.in_flight += 1;
            return Admission::Admit;
        }
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            self.in_flight += 1;
            return Admission::Admit;
        }
        if defers_so_far < self.max_defers {
            Admission::Defer {
                until_ns: now.as_ns() + self.defer_ns,
            }
        } else {
            Admission::Reject
        }
    }
}

/// Per-run admission state: one optional controller per stream (a request's
/// deferral count lives in its slot). A stream without a controller is a
/// zero-cost pass-through — with none armed the spine's event schedule is
/// byte-identical to the pre-admission engine's.
pub(crate) struct AdmissionState {
    ctls: Vec<Option<AdmissionCtl>>,
}

impl AdmissionState {
    pub(super) fn new(ctls: Vec<Option<AdmissionCtl>>) -> Self {
        Self { ctls }
    }

    /// The depth threshold `stream`'s control law derived from its SLO (0 when
    /// the stream is uncontrolled).
    pub(super) fn depth_limit(&self, stream: usize) -> u64 {
        let ctl = self.ctls.get(stream).and_then(Option::as_ref);
        ctl.map_or(0, |ctl| ctl.depth_limit)
    }

    /// Runs `stream`'s controller (if armed) on an offer of a request that
    /// has absorbed `defers` deferrals so far, counting a new one.
    pub(super) fn offer(&mut self, stream: u32, defers: &mut u32, now: SimTime) -> Admission {
        let Some(ctl) = self.ctls.get_mut(stream as usize).and_then(Option::as_mut) else {
            return Admission::Admit;
        };
        let decision = ctl.decide(now, *defers);
        if let Admission::Defer { .. } = decision {
            *defers += 1;
        }
        decision
    }

    /// Releases one in-flight unit of `stream`'s controller on completion.
    pub(super) fn complete(&mut self, stream: u32) {
        if let Some(ctl) = self.ctls.get_mut(stream as usize).and_then(Option::as_mut) {
            ctl.in_flight -= 1;
        }
    }
}
