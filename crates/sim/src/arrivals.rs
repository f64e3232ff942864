//! Arrival generation: each stream's pre-scheduled arrival instants, drawn a
//! chunk at a time from the stream's own RNG ([`ArrivalTimes`]), and their
//! lazy k-way merge into one time-ordered schedule ([`ArrivalMerge`]) — what
//! the engine pulls from as virtual time advances, and what
//! [`crate::tenant::Superposition`] collects.

use rand::rngs::StdRng;

use crate::clock::SimTime;
use crate::dist::{exp_gap_ns, MmppPath};
use crate::tenant::{ArrivalProcess, TenantSpec};

/// One tenant's pre-scheduled arrival instants (nanoseconds, non-decreasing),
/// generated a chunk at a time from the tenant's own RNG: everything for open
/// streams, the time-zero initial window for closed loops.
#[derive(Debug)]
pub(crate) struct ArrivalTimes {
    rng: StdRng,
    /// Arrivals not yet generated.
    left: u64,
    process: Process,
}

/// Per-process generator state of an [`ArrivalTimes`].
#[derive(Debug)]
enum Process {
    /// The `i`-th arrival sits at `i / rate` exactly (no accumulated drift).
    FixedRate {
        rate_per_s: f64,
        i: u64,
    },
    /// Running sum of exponential gaps; `last_ns` keeps rounding monotone.
    Poisson {
        rate_per_s: f64,
        t_ns: f64,
        last_ns: u64,
    },
    /// The initial in-flight window, all at time zero.
    ClosedLoop,
    Mmpp(MmppPath),
}

/// One pending arrival: `(instant in ns, tenant index)`.
type Arrival = (u64, u32);

/// Arrivals generated or merged per refill. A chunk is the unit of laziness:
/// each node of an [`ArrivalMerge`] runs at most one chunk ahead of its
/// consumer, and a chunk is long enough for the generators' `ln` calls and
/// the merges' selects to run as tight loops.
const CHUNK: usize = 64;

impl ArrivalTimes {
    /// The first `arrival.prescheduled(requests)` arrivals of `arrival`
    /// (already checked by [`ArrivalProcess::validate`]), drawing from `rng`.
    pub(crate) fn new(arrival: ArrivalProcess, requests: u64, mut rng: StdRng) -> Self {
        debug_assert_eq!(arrival.validate(), Ok(()));
        let process = match arrival {
            ArrivalProcess::FixedRate { rate_per_s } => Process::FixedRate { rate_per_s, i: 0 },
            ArrivalProcess::Poisson { rate_per_s } => Process::Poisson {
                rate_per_s,
                t_ns: 0.0,
                last_ns: 0,
            },
            ArrivalProcess::ClosedLoop { .. } => Process::ClosedLoop,
            ArrivalProcess::Mmpp(m) => Process::Mmpp(MmppPath::new(m, &mut rng)),
        };
        Self {
            rng,
            left: arrival.prescheduled(requests),
            process,
        }
    }

    /// Appends the next (up to) [`CHUNK`] arrivals, tagged `tenant`, to `out`.
    fn generate(&mut self, tenant: u32, out: &mut Vec<Arrival>) {
        let n = self.left.min(CHUNK as u64);
        self.left -= n;
        let rng = &mut self.rng;
        match &mut self.process {
            Process::FixedRate { rate_per_s, i } => {
                out.extend(
                    (*i..*i + n).map(|i| ((i as f64 * 1e9 / *rate_per_s).round() as u64, tenant)),
                );
                *i += n;
            }
            Process::Poisson {
                rate_per_s,
                t_ns,
                last_ns,
            } => out.extend((0..n).map(|_| {
                *t_ns += exp_gap_ns(*rate_per_s, rng);
                *last_ns = (*last_ns).max(t_ns.round() as u64);
                (*last_ns, tenant)
            })),
            Process::ClosedLoop => out.extend((0..n).map(|_| (0, tenant))),
            Process::Mmpp(path) => {
                out.extend((0..n).map(|_| (path.next_arrival_ns(rng), tenant)));
            }
        }
    }
}

/// One node of an [`ArrivalMerge`]: a chunk of ready arrivals in
/// `(instant, tenant)` order, refilled from a tenant's generator (leaf) or by
/// merging two child nodes.
#[derive(Debug)]
struct MergeNode {
    ready: Vec<Arrival>,
    /// Next unread element of `ready`.
    pos: usize,
    source: Source,
}

#[derive(Debug)]
enum Source {
    Leaf {
        times: ArrivalTimes,
        tenant: u32,
    },
    /// Left holds the lower tenant indices, so taking left on equal instants
    /// keeps declaration order.
    Pair(Box<MergeNode>, Box<MergeNode>),
}

impl MergeNode {
    fn new(source: Source) -> Self {
        Self {
            ready: Vec::with_capacity(CHUNK),
            pos: 0,
            source,
        }
    }

    /// A balanced merge tree over `leaves` (non-empty, in tenant order).
    fn tree(mut leaves: Vec<MergeNode>) -> MergeNode {
        if leaves.len() == 1 {
            return leaves.pop().expect("one leaf");
        }
        let right = leaves.split_off(leaves.len() / 2);
        Self::new(Source::Pair(
            Box::new(Self::tree(leaves)),
            Box::new(Self::tree(right)),
        ))
    }

    /// Ready arrivals not yet read.
    fn pending(&self) -> &[Arrival] {
        &self.ready[self.pos..]
    }

    /// Makes at least one arrival pending if any is left; `false` once the
    /// node is exhausted.
    fn fill(&mut self) -> bool {
        if self.pos < self.ready.len() {
            return true;
        }
        self.ready.clear();
        self.pos = 0;
        match &mut self.source {
            Source::Leaf { times, tenant } => times.generate(*tenant, &mut self.ready),
            Source::Pair(left, right) => merge_chunk(left, right, &mut self.ready),
        }
        !self.ready.is_empty()
    }

    /// Arrivals this subtree has not handed out yet.
    fn remaining(&self) -> u64 {
        self.pending().len() as u64
            + match &self.source {
                Source::Leaf { times, .. } => times.left,
                Source::Pair(left, right) => left.remaining().saturating_add(right.remaining()),
            }
    }
}

/// Merges the next (up to) [`CHUNK`] arrivals of `left` and `right` into
/// `out`. While both sides have arrivals pending the merge is a select per
/// element with no data-dependent branch — the shape of the stable sort's
/// merges this replaces; a per-element heap sift mispredicts about once per
/// arrival, which costs more than the comparison it saves.
fn merge_chunk(left: &mut MergeNode, right: &mut MergeNode, out: &mut Vec<Arrival>) {
    while out.len() < CHUNK {
        let room = CHUNK - out.len();
        match (left.fill(), right.fill()) {
            (false, false) => break,
            (true, true) => {
                let (l, r) = (left.pending(), right.pending());
                let (mut i, mut j) = (0, 0);
                // Neither side can run dry within `steps` takes.
                let steps = room.min(l.len()).min(r.len());
                for _ in 0..steps {
                    let take_right = r[j].0 < l[i].0;
                    out.push(if take_right { r[j] } else { l[i] });
                    j += usize::from(take_right);
                    i += usize::from(!take_right);
                }
                left.pos += i;
                right.pos += j;
            }
            (left_live, _) => {
                let side = if left_live { &mut *left } else { &mut *right };
                let take = room.min(side.pending().len());
                out.extend_from_slice(&side.pending()[..take]);
                side.pos += take;
            }
        }
    }
}

/// The lazy k-way merge of per-tenant [`ArrivalTimes`]: yields
/// `(instant, tenant index)` in time order. The merge is a balanced tree of
/// two-way merges over the tenants in declaration order, each node running at
/// most one [`CHUNK`] ahead of its consumer; a two-way merge takes its left
/// (lower-indexed) side on equal instants, so same-instant arrivals keep
/// tenant declaration order (and, within one tenant, generation order) —
/// exactly the order a stable sort of the concatenated streams produces.
#[derive(Debug)]
pub(crate) struct ArrivalMerge {
    /// `None` when there are no streams at all. Otherwise the root has an
    /// arrival pending whenever any is left.
    root: Option<MergeNode>,
}

impl ArrivalMerge {
    /// Merges `streams`; a stream's position is the tenant index it yields.
    pub(crate) fn new(streams: Vec<ArrivalTimes>) -> Self {
        let leaves: Vec<MergeNode> = streams
            .into_iter()
            .enumerate()
            .map(|(t, times)| {
                let tenant = u32::try_from(t).expect("tenant index fits u32");
                MergeNode::new(Source::Leaf { times, tenant })
            })
            .collect();
        let mut root = (!leaves.is_empty()).then(|| MergeNode::tree(leaves));
        if let Some(root) = &mut root {
            root.fill();
        }
        Self { root }
    }

    /// The merged pre-scheduled streams of `tenants`, each drawing from its
    /// own [`TenantSpec::rng`].
    pub(crate) fn of_tenants(run_seed: u64, tenants: &[TenantSpec]) -> Self {
        Self::new(
            tenants
                .iter()
                .map(|t| ArrivalTimes::new(t.arrival, t.requests, t.rng(run_seed)))
                .collect(),
        )
    }

    /// Instant of the next arrival, if any is left.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        let &(ns, _) = self.root.as_ref()?.pending().first()?;
        Some(SimTime::from_ns(ns))
    }
}

impl Iterator for ArrivalMerge {
    type Item = (SimTime, u32);

    fn next(&mut self) -> Option<(SimTime, u32)> {
        let root = self.root.as_mut()?;
        let &(ns, tenant) = root.pending().first()?;
        root.pos += 1;
        root.fill();
        Some((SimTime::from_ns(ns), tenant))
    }

    /// Exact, so collecting the merge allocates once.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let pending = self.root.as_ref().map_or(0, MergeNode::remaining);
        let pending = usize::try_from(pending).ok();
        (pending.unwrap_or(usize::MAX), pending)
    }
}

/// The eager generate-then-stable-sort body `Superposition::generate` had
/// before the lazy merge, kept verbatim (only the request index is widened
/// and the MMPP call points at its own eager oracle) as the reference the
/// merge is checked against.
#[cfg(test)]
pub(crate) fn eager_generate(
    run_seed: u64,
    tenants: &[TenantSpec],
    bases: &[u64],
) -> Vec<(SimTime, u64)> {
    let mut arrivals: Vec<(SimTime, u64)> = Vec::new();
    for (tenant, &base) in tenants.iter().zip(bases) {
        let mut rng = tenant.rng(run_seed);
        let n = tenant.requests;
        let times_ns: Vec<u64> = match tenant.arrival {
            ArrivalProcess::FixedRate { rate_per_s } => {
                assert!(rate_per_s > 0.0, "fixed rate must be positive");
                (0..n)
                    .map(|i| (i as f64 * 1e9 / rate_per_s).round() as u64)
                    .collect()
            }
            ArrivalProcess::Poisson { rate_per_s } => {
                assert!(rate_per_s > 0.0, "Poisson rate must be positive");
                let mut t = 0.0f64;
                let mut out = Vec::with_capacity(n as usize);
                let mut last = 0u64;
                for _ in 0..n {
                    t += crate::dist::exp_gap_ns(rate_per_s, &mut rng);
                    last = last.max(t.round() as u64);
                    out.push(last);
                }
                out
            }
            ArrivalProcess::ClosedLoop { in_flight } => {
                assert!(in_flight > 0, "closed loop needs at least one request");
                vec![0; tenant.arrival.prescheduled(n) as usize]
            }
            ArrivalProcess::Mmpp(m) => crate::dist::eager_arrival_times(&m, n, &mut rng).0,
        };
        arrivals.extend(
            times_ns
                .into_iter()
                .enumerate()
                .map(|(i, ns)| (SimTime::from_ns(ns), base + i as u64)),
        );
    }
    // Stable sort: same-instant arrivals keep tenant declaration order.
    arrivals.sort_by_key(|&(at, _)| at);
    arrivals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Mmpp2;
    use crate::tenant::Superposition;
    use proptest::prelude::*;

    /// One of the four arrival processes, picked and parameterised from
    /// two sampled words. FixedRate rates come from a three-value comb
    /// set (and Poisson/MMPP rates are high enough to collide after
    /// rounding), so same-instant ties across tenants are the norm.
    fn process(kind: u8, knob: u32) -> ArrivalProcess {
        match kind % 4 {
            0 => ArrivalProcess::FixedRate {
                rate_per_s: [1.0e6, 2.0e6, 1.0e9][knob as usize % 3],
            },
            1 => ArrivalProcess::Poisson {
                rate_per_s: 1.0e5 + f64::from(knob % 1000) * 1.0e6,
            },
            2 => ArrivalProcess::ClosedLoop {
                in_flight: 1 + knob % 50,
            },
            _ => ArrivalProcess::Mmpp(Mmpp2 {
                calm_rate_per_s: f64::from(knob % 3) * 40.0e3,
                burst_rate_per_s: 1.0e6 + f64::from(knob % 7) * 1.0e8,
                mean_calm_s: 1.0e-4,
                mean_burst_s: 5.0e-5,
            }),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

        /// The lazy merge yields exactly the sequence of the eager
        /// generate-then-stable-sort it replaced, for any mix of
        /// processes, sizes and seeds.
        #[test]
        fn lazy_merge_equals_eager_generate_then_stable_sort(
            seed in any::<u64>(),
            shapes in prop::collection::vec((any::<u8>(), any::<u32>(), 0u64..400), 1..7),
        ) {
            let tenants: Vec<TenantSpec> = shapes
                .iter()
                .enumerate()
                .map(|(i, &(kind, knob, requests))| {
                    TenantSpec::new(i as u32 * 3, "t", process(kind, knob), requests)
                })
                .collect();
            let bases: Vec<u64> = tenants
                .iter()
                .scan(0, |next, t| {
                    let base = *next;
                    *next += t.requests;
                    Some(base)
                })
                .collect();
            let lazy = Superposition::generate(seed, &tenants, &bases);
            prop_assert_eq!(lazy.arrivals, eager_generate(seed, &tenants, &bases));
        }
    }

    #[test]
    fn equal_fixed_rate_combs_tie_in_declaration_order() {
        // Three identical combs: every instant is a three-way tie, and
        // the merge must emit tenants 0, 1, 2 at each one.
        let comb = |id| {
            TenantSpec::new(
                id,
                "comb",
                ArrivalProcess::FixedRate { rate_per_s: 1.0e6 },
                50,
            )
        };
        let tenants = [comb(0), comb(1), comb(2)];
        let bases = [0, 50, 100];
        let lazy = Superposition::generate(3, &tenants, &bases);
        assert_eq!(lazy.arrivals, eager_generate(3, &tenants, &bases));
        for (i, tie) in lazy.arrivals.chunks(3).enumerate() {
            let i = i as u64;
            assert_eq!(
                tie.iter().map(|&(_, r)| r).collect::<Vec<_>>(),
                [i, 50 + i, 100 + i]
            );
        }
    }
}
