//! Engine-level streams: which requests a scenario's sources emit, where
//! they route, and how the queue-pair space is divided among them. Every
//! per-request fact is a closed form of the stream's own arrival counter.

use super::{RequestDesc, SimConfig, SimError};
use crate::pipeline::{fair_shares, QueuePairPolicy};
use crate::shard::RequestInfo;
use crate::tenant::ArrivalProcess;

/// `k mod m` as a `u32` (lossless: the remainder is below `m`).
fn rem_u32(k: u64, m: u32) -> u32 {
    (k % u64::from(m)) as u32
}

/// The legacy spread of a stream's `k`-th request over the whole array, as
/// `(device, local queue)`: devices first, local queues second.
fn spread(config: &SimConfig, k: u64) -> (u32, u32) {
    (
        rem_u32(k, config.num_ssds),
        rem_u32(k / u64::from(config.num_ssds), config.queue_pairs_per_ssd),
    )
}

/// Where a stream's requests are routed, as a closed form of the stream's
/// own arrival counter.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Route {
    /// [`spread`] over the whole array ([`QueuePairPolicy::Shared`]).
    Spread,
    /// Round-robin within the stream's partition of the global queue-pair
    /// space ([`QueuePairPolicy::WeightedFair`]).
    Partition { base: u32, share: u32 },
}

/// What a stream's `k`-th request looks like.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Shape<'a> {
    /// The caller's own descriptors (`Run::single`): explicit device/queue
    /// overrides win, everything else spreads.
    Explicit(&'a [RequestDesc]),
    /// `writes` Bresenham-interleaved writes among the stream's requests,
    /// all of `bytes` (the pipeline's access size), routed by `route`.
    Mixed {
        writes: u64,
        bytes: u64,
        route: Route,
    },
}

/// Spine-side state of one engine-level stream (an explicit tenant, a
/// merged class, or the single workload of `Run::single`): which requests
/// exist, how closed-loop completions refill them, and the closed forms
/// every per-request fact is derived from when the request arrives.
/// Accounting state lives in `shard::TenantAcc`.
#[derive(Debug)]
pub(crate) struct Stream<'a> {
    /// Global index of the stream's first request (its block is
    /// contiguous).
    base: u64,
    /// Requests in the block.
    pub(super) count: u64,
    /// Requests whose first offer has been scheduled so far: everything
    /// pre-scheduled, plus closed-loop refills.
    issued: u64,
    /// Requests first-offered so far — the stream's own arrival counter.
    arrived: u64,
    /// Closed-loop stream: completions launch the next request.
    closed_loop: bool,
    shape: Shape<'a>,
    /// Accounting tenant of the stream's requests.
    tenant: u32,
}

impl<'a> Stream<'a> {
    pub(crate) fn new(
        base: u64,
        count: u64,
        arrival: ArrivalProcess,
        shape: Shape<'a>,
        tenant: u32,
    ) -> Self {
        Self {
            base,
            count,
            issued: arrival.prescheduled(count),
            arrived: 0,
            closed_loop: matches!(arrival, ArrivalProcess::ClosedLoop { .. }),
            shape,
            tenant,
        }
    }

    /// Closed-loop refill on a completion: whether the stream launches its
    /// next request now (counting it as issued).
    pub(super) fn refill(&mut self) -> bool {
        let launch = self.closed_loop && self.issued < self.count;
        if launch {
            self.issued += 1;
        }
        launch
    }

    /// The static facts of the stream's next request, advancing its arrival
    /// counter.
    pub(super) fn next_request(&mut self, config: &SimConfig) -> RequestInfo {
        let k = self.arrived;
        self.arrived += 1;
        let (write, bytes, qp) = match self.shape {
            Shape::Explicit(requests) => {
                let index = usize::try_from(k).expect("explicit requests are indexable");
                let desc = &requests[index];
                let (device, local) = spread(config, k);
                let device = desc.device.map_or(device, |d| d % config.num_ssds);
                let local = desc.queue.map_or(local, |q| q % config.queue_pairs_per_ssd);
                (
                    desc.write,
                    desc.bytes,
                    device * config.queue_pairs_per_ssd + local,
                )
            }
            Shape::Mixed {
                writes,
                bytes,
                route,
            } => {
                let qp = match route {
                    Route::Spread => {
                        let (device, local) = spread(config, k);
                        device * config.queue_pairs_per_ssd + local
                    }
                    Route::Partition { base, share } => base + rem_u32(k, share),
                };
                (is_mixed_write(k, self.count, writes), bytes, qp)
            }
        };
        RequestInfo {
            req: self.base + k,
            bytes,
            qp,
            tenant: self.tenant,
            write,
        }
    }
}

/// Queue-pair shares and partition bases of `weights` under `policy`, or why
/// the array cannot be split that way.
pub(super) fn queue_pair_shares(
    config: &SimConfig,
    policy: QueuePairPolicy,
    weights: &[u32],
) -> Result<(Vec<u32>, Vec<Route>), SimError> {
    let total_qps = config.total_queue_pairs();
    Ok(match policy {
        QueuePairPolicy::Shared => (
            vec![total_qps; weights.len()],
            vec![Route::Spread; weights.len()],
        ),
        QueuePairPolicy::WeightedFair => {
            let shares = fair_shares(total_qps, weights)?;
            let routes = shares
                .iter()
                .scan(0u32, |base, &share| {
                    let route = Route::Partition { base: *base, share };
                    *base += share;
                    Some(route)
                })
                .collect();
            (shares, routes)
        }
    })
}

/// First global request index of each block of `counts` requests.
///
/// # Panics
///
/// Panics if the run's total overflows a `u64` — request indices are 64-bit
/// end to end, so any smaller run is addressable.
pub(super) fn block_bases(counts: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut total = 0u64;
    counts
        .map(|count| {
            let base = total;
            total = total
                .checked_add(count)
                .unwrap_or_else(|| panic!("run of {base} + {count} requests overflows u64"));
            base
        })
        .collect()
}

/// Whether request `i` of `n` is one of its `writes` evenly interleaved
/// writes (deterministic Bresenham spread; `writes <= n`).
pub(super) fn is_mixed_write(i: u64, n: u64, writes: u64) -> bool {
    (i + 1) * writes / n != i * writes / n
}
