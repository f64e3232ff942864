//! Per-resource blame decomposition: which resource's queueing produced
//! the tail.
//!
//! The engines stamp every request with one [`BlameMark`] per closed
//! pipeline stage: the closing instant plus the stage's *service*
//! nanoseconds — the time the resource actively worked on the request
//! (the drawn media sample, the link occupancy, the fixed forwarding
//! cost). Everything else in the stage's dwell is *wait*: time queued
//! behind the resource. Because consecutive marks tile a request's life
//! exactly (the same invariant the stage breakdown asserts), service plus
//! wait across all stages reproduces the end-to-end latency to the
//! nanosecond — blame attributes 100% of every request.
//!
//! A [`BlameAccumulator`] aggregates rows, one at a time, into per-stage
//! service/wait totals for the whole population and separately for the
//! tail slice (requests above the population p99), and keeps a
//! deterministic top-k exemplar list of the slowest requests with their
//! full span waterfalls. It holds a row only while the row can still land
//! in the tail or among the exemplars, so its footprint follows the tail,
//! not the run. Every output is a pure function of the row *set*: an
//! accumulator fed the rows in any order finishes into the same report.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use crate::histo::{bucket_index, LatencyHisto};
use crate::span::{Stage, STAGE_COUNT};

/// One closed stage of one request: when it closed and how much of its
/// dwell was active service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlameMark {
    /// The stage that closed.
    pub stage: Stage,
    /// Closing instant in virtual nanoseconds.
    pub end_ns: u64,
    /// Active service nanoseconds inside the stage's dwell; the remainder
    /// is wait (queueing behind the resource).
    pub service_ns: u64,
}

/// The marks of one retained request, held inline: a request closes each of
/// the [`STAGE_COUNT`] stages at most once, so a fixed array always has room
/// and retaining a row never allocates for its marks.
#[derive(Debug, Clone, Copy)]
struct StageMarks {
    len: u8,
    marks: [BlameMark; STAGE_COUNT],
}

impl StageMarks {
    /// Copies `marks`.
    ///
    /// # Panics
    ///
    /// Panics on more than [`STAGE_COUNT`] marks: some stage closed twice.
    fn new(marks: &[BlameMark]) -> Self {
        assert!(
            marks.len() <= STAGE_COUNT,
            "a request closes each of the {STAGE_COUNT} stages at most once"
        );
        // The filler is never read: `as_slice` stops at `len`.
        let unused = BlameMark {
            stage: Stage::CacheProbe,
            end_ns: 0,
            service_ns: 0,
        };
        let mut held = [unused; STAGE_COUNT];
        held[..marks.len()].copy_from_slice(marks);
        Self {
            len: marks.len() as u8,
            marks: held,
        }
    }

    /// The marks in closing order.
    fn as_slice(&self) -> &[BlameMark] {
        &self.marks[..usize::from(self.len)]
    }
}

/// One request's complete blame record: arrival plus every stage mark in
/// pipeline order. The marks tile `[arrive_ns, last mark]` exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlameRow {
    /// Global request index.
    pub id: u64,
    /// Arrival instant in virtual nanoseconds.
    pub arrive_ns: u64,
    /// Stage marks in closing order.
    pub marks: Vec<BlameMark>,
}

impl BlameRow {
    /// End-to-end latency: last stage close minus arrival (0 with no
    /// marks).
    pub fn latency_ns(&self) -> u64 {
        self.marks
            .last()
            .map_or(0, |m| m.end_ns.saturating_sub(self.arrive_ns))
    }
}

/// Per-stage service and wait totals: where requests spent their time, split
/// by whether the resource was working or they were queued.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlameBreakdown {
    /// Closed stages recorded, per stage: a stage is active once it has one,
    /// even if its service and wait were both zero.
    count: [u64; STAGE_COUNT],
    service: [u64; STAGE_COUNT],
    wait: [u64; STAGE_COUNT],
}

impl BlameBreakdown {
    /// A breakdown with nothing recorded.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one closed stage's service/wait split.
    pub fn record(&mut self, stage: Stage, service_ns: u64, wait_ns: u64) {
        let i = stage.index();
        self.count[i] += 1;
        self.service[i] = self.service[i].saturating_add(service_ns);
        self.wait[i] = self.wait[i].saturating_add(wait_ns);
    }

    /// Total service nanoseconds attributed to one stage.
    pub fn service_ns(&self, stage: Stage) -> u64 {
        self.service[stage.index()]
    }

    /// Total wait nanoseconds attributed to one stage.
    pub fn wait_ns(&self, stage: Stage) -> u64 {
        self.wait[stage.index()]
    }

    /// Total wait nanoseconds across all stages.
    pub fn total_wait_ns(&self) -> u64 {
        self.wait.iter().sum()
    }

    /// Total attributed nanoseconds (service + wait) across all stages —
    /// equals the summed end-to-end latency of the recorded requests.
    pub fn total_ns(&self) -> u64 {
        self.service.iter().sum::<u64>() + self.total_wait_ns()
    }

    /// True when no stage has any samples.
    pub fn is_empty(&self) -> bool {
        self.count.iter().all(|&n| n == 0)
    }

    /// Stages that recorded at least one sample, in pipeline order.
    pub fn active_stages(&self) -> impl Iterator<Item = Stage> + '_ {
        Stage::ALL.into_iter().filter(|s| self.count[s.index()] > 0)
    }
}

/// One step of an exemplar's span waterfall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaterfallStep {
    /// The stage.
    pub stage: Stage,
    /// Stage start (previous boundary) in nanoseconds.
    pub start_ns: u64,
    /// Stage end in nanoseconds.
    pub end_ns: u64,
    /// Active service inside the stage.
    pub service_ns: u64,
    /// Queueing wait inside the stage.
    pub wait_ns: u64,
}

/// One of the slowest requests, with its full per-stage waterfall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// Global request index.
    pub id: u64,
    /// Arrival instant in nanoseconds.
    pub arrive_ns: u64,
    /// End-to-end latency in nanoseconds.
    pub latency_ns: u64,
    /// The request's stages in closing order; steps tile
    /// `[arrive_ns, arrive_ns + latency_ns]` exactly.
    pub waterfall: Vec<WaterfallStep>,
}

/// The aggregated blame decomposition of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlameReport {
    /// Requests decomposed.
    pub requests: u64,
    /// The population p99 latency the tail slice is cut at.
    pub p99_cut_ns: u64,
    /// Requests strictly above the p99 cut.
    pub tail_requests: u64,
    /// Service/wait breakdown over every request.
    pub overall: BlameBreakdown,
    /// Service/wait breakdown over the tail slice alone.
    pub tail: BlameBreakdown,
    /// The slowest requests (latency descending, id ascending on ties),
    /// at most the builder's `top_k`.
    pub exemplars: Vec<Exemplar>,
}

/// Splits one row's marks into waterfall steps: each dwell is measured
/// boundary-to-boundary, service is clamped to the dwell, and the remainder
/// is wait — service + wait tiles the row's latency exactly.
fn waterfall(arrive_ns: u64, marks: &[BlameMark]) -> impl Iterator<Item = WaterfallStep> + '_ {
    let mut prev = arrive_ns;
    marks.iter().map(move |mark| {
        let dwell = mark.end_ns.saturating_sub(prev);
        let service_ns = mark.service_ns.min(dwell);
        let step = WaterfallStep {
            stage: mark.stage,
            start_ns: prev,
            end_ns: mark.end_ns,
            service_ns,
            wait_ns: dwell - service_ns,
        };
        prev = mark.end_ns;
        step
    })
}

/// A row the accumulator still holds, marks inline so that holding it
/// takes no allocation of its own.
#[derive(Debug, Clone, Copy)]
struct Kept {
    latency_ns: u64,
    id: u64,
    arrive_ns: u64,
    marks: StageMarks,
}

impl Kept {
    /// Slowness rank: the exemplar order is latency descending, id ascending
    /// on ties, so the greater key is the slower (more exemplary) row.
    fn rank(&self) -> (u64, Reverse<u64>) {
        (self.latency_ns, Reverse(self.id))
    }
}

/// One-pass builder of a [`BlameReport`] over a run whose row count is
/// bounded up front.
///
/// Every pushed row lands in the population latency histogram and the
/// `overall` breakdown at once; the row itself is retained only while it can
/// still matter. The tail slice is cut at the population p99, which is known
/// only at the end — but with `expected` ≥ the rows the run will push, at
/// most `⌊expected / 100⌋` rows can end up in buckets above the final p99
/// bucket. So once more than `budget = ⌊expected / 100⌋ + 1` rows have been
/// seen in buckets `≥ b`, the final p99 bucket cannot lie below `b`, and no
/// row below `b` can be in the tail. That highest such `b` is the *floor*; it
/// only rises, rows are held per bucket from the floor up, and a bucket the
/// floor passes is dropped whole. The `top_k` slowest rows seen are held
/// beside them, wherever the floor is. The result is exact —
/// [`finish`](Self::finish) equals materialising, sorting and scanning every
/// row.
///
/// Retained rows are bounded by `budget + top_k +` the population of the
/// floor bucket ([`retained_bound`](Self::retained_bound)). The last term is
/// the degenerate case stated, not hidden: when every latency shares one
/// histogram bucket (all rows identical, say) that bucket is the floor and
/// every row is retained — O(n), as the materialised build always was.
#[derive(Debug, Clone)]
pub struct BlameAccumulator {
    expected: u64,
    top_k: usize,
    /// Latency of every pushed row.
    latency: LatencyHisto,
    overall: BlameBreakdown,
    /// The rows of every histogram bucket `>= floor`, by bucket.
    tail: BTreeMap<usize, Vec<Kept>>,
    /// The `top_k` slowest rows seen, slowest first (the exemplar order).
    slowest: Vec<Kept>,
    /// Lowest histogram bucket a row can still reach the tail from.
    floor: usize,
    /// Rows seen in buckets `>= floor`.
    at_or_above: u64,
}

impl BlameAccumulator {
    /// An accumulator for a run that settles at most `expected` rows,
    /// keeping `top_k` exemplars.
    pub fn new(expected: u64, top_k: usize) -> Self {
        Self {
            expected,
            top_k,
            latency: LatencyHisto::new(),
            overall: BlameBreakdown::new(),
            tail: BTreeMap::new(),
            slowest: Vec::new(),
            floor: 0,
            at_or_above: 0,
        }
    }

    /// Rows that may end above the final p99 bucket, plus one of slack.
    fn budget(&self) -> u64 {
        self.expected / 100 + 1
    }

    /// Raises the floor as far as the rows seen so far prove safe, dropping
    /// the buckets it passes.
    fn raise_floor(&mut self) {
        loop {
            let here = self.latency.bucket_count(self.floor);
            if self.at_or_above - here <= self.budget() {
                return;
            }
            self.at_or_above -= here;
            self.tail.remove(&self.floor);
            self.floor += 1;
        }
    }

    /// Whether a row of `rank` is one of the `top_k` slowest seen so far.
    fn is_exemplary(&self, rank: (u64, Reverse<u64>)) -> bool {
        self.slowest.len() < self.top_k
            || self.slowest.last().is_some_and(|least| rank > least.rank())
    }

    /// Holds `row` among the `top_k` slowest if it is one of them (`top_k`
    /// is an exemplar count: small enough that a sorted insert is the whole
    /// data structure).
    fn offer_exemplar(&mut self, row: Kept) {
        if self.is_exemplary(row.rank()) {
            let at = self
                .slowest
                .partition_point(|held| held.rank() > row.rank());
            self.slowest.insert(at, row);
            self.slowest.truncate(self.top_k);
        }
    }

    /// Adds one settled request: its arrival plus every stage mark in
    /// closing order (none for a request that never entered the pipeline —
    /// its latency is 0). A row is copied, never boxed: pushing allocates
    /// only when a histogram or a bucket's row list grows.
    ///
    /// # Panics
    ///
    /// Panics when the row exceeds the `expected` count the accumulator was
    /// sized for (the floor argument would no longer hold), or — if it has
    /// to be retained — carries more than [`STAGE_COUNT`] marks (some stage
    /// closed twice).
    pub fn push(&mut self, id: u64, arrive_ns: u64, marks: &[BlameMark]) {
        assert!(
            self.latency.count() < self.expected,
            "more blame rows than the {} expected",
            self.expected
        );
        let latency_ns = marks
            .last()
            .map_or(0, |m| m.end_ns.saturating_sub(arrive_ns));
        self.latency.record(latency_ns);
        for step in waterfall(arrive_ns, marks) {
            self.overall
                .record(step.stage, step.service_ns, step.wait_ns);
        }

        let bucket = bucket_index(latency_ns);
        let reaches_tail = bucket >= self.floor;
        if !(reaches_tail || self.is_exemplary((latency_ns, Reverse(id)))) {
            return;
        }
        let row = Kept {
            latency_ns,
            id,
            arrive_ns,
            marks: StageMarks::new(marks),
        };
        self.offer_exemplar(row);
        if reaches_tail {
            self.tail.entry(bucket).or_default().push(row);
            self.at_or_above += 1;
            self.raise_floor();
        }
    }

    /// Rows currently held (one that is both in the tail buckets and among
    /// the slowest counts twice — it is held twice).
    pub fn retained(&self) -> usize {
        self.tail.values().map(Vec::len).sum::<usize>() + self.slowest.len()
    }

    /// The bound [`retained`](Self::retained) never exceeds: the rows that
    /// may still sit above the floor bucket, the exemplars, and the floor
    /// bucket's own population (see the type docs for why the last term
    /// cannot be dropped).
    pub fn retained_bound(&self) -> usize {
        let rows = self.budget() + self.latency.bucket_count(self.floor);
        usize::try_from(rows).map_or(usize::MAX, |rows| rows.saturating_add(self.top_k))
    }

    /// Cuts the tail at the population p99 and builds the report.
    pub fn finish(self) -> BlameReport {
        let p99_cut_ns = self.latency.value_at_quantile(0.99);
        let mut tail = BlameBreakdown::new();
        let mut tail_requests = 0u64;
        for row in self.tail.values().flatten() {
            if row.latency_ns > p99_cut_ns {
                tail_requests += 1;
                for step in waterfall(row.arrive_ns, row.marks.as_slice()) {
                    tail.record(step.stage, step.service_ns, step.wait_ns);
                }
            }
        }
        let exemplars = self
            .slowest
            .iter()
            .map(|row| Exemplar {
                id: row.id,
                arrive_ns: row.arrive_ns,
                latency_ns: row.latency_ns,
                waterfall: waterfall(row.arrive_ns, row.marks.as_slice()).collect(),
            })
            .collect();
        BlameReport {
            requests: self.latency.count(),
            p99_cut_ns,
            tail_requests,
            overall: self.overall,
            tail,
            exemplars,
        }
    }
}

impl BlameReport {
    /// Builds the canonical report from per-request rows, in any order: one
    /// [`BlameAccumulator`] sized for `rows.len()`, fed in a loop.
    ///
    /// # Panics
    ///
    /// Panics when a row that has to be retained carries more than
    /// [`STAGE_COUNT`] marks (see [`BlameAccumulator::push`]).
    pub fn build(rows: Vec<BlameRow>, top_k: usize) -> Self {
        let mut acc = BlameAccumulator::new(rows.len() as u64, top_k);
        for row in &rows {
            acc.push(row.id, row.arrive_ns, &row.marks);
        }
        let report = acc.finish();
        #[cfg(test)]
        assert_eq!(report, Self::materialised(rows, top_k));
        report
    }

    /// The reference builder the accumulator is checked against: hold every
    /// row, sort, take the p99 of the whole population, then scan.
    #[cfg(test)]
    fn materialised(mut rows: Vec<BlameRow>, top_k: usize) -> Self {
        rows.sort_unstable_by_key(|r| r.id);
        let histo = LatencyHisto::from_samples(rows.iter().map(BlameRow::latency_ns));
        let p99_cut_ns = histo.value_at_quantile(0.99);

        let mut overall = BlameBreakdown::new();
        let mut tail = BlameBreakdown::new();
        let mut tail_requests = 0u64;
        for row in &rows {
            let in_tail = row.latency_ns() > p99_cut_ns;
            if in_tail {
                tail_requests += 1;
            }
            let mut prev = row.arrive_ns;
            for mark in &row.marks {
                let dwell = mark.end_ns.saturating_sub(prev);
                let service = mark.service_ns.min(dwell);
                let wait = dwell - service;
                overall.record(mark.stage, service, wait);
                if in_tail {
                    tail.record(mark.stage, service, wait);
                }
                prev = mark.end_ns;
            }
        }

        // Top-k slowest: latency descending, id ascending on ties — a total
        // order, so the exemplar list is deterministic for any input order.
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_unstable_by(|&a, &b| {
            rows[b]
                .latency_ns()
                .cmp(&rows[a].latency_ns())
                .then(rows[a].id.cmp(&rows[b].id))
        });
        let exemplars = order
            .into_iter()
            .take(top_k)
            .map(|i| {
                let row = &rows[i];
                let mut prev = row.arrive_ns;
                let waterfall = row
                    .marks
                    .iter()
                    .map(|mark| {
                        let dwell = mark.end_ns.saturating_sub(prev);
                        let service = mark.service_ns.min(dwell);
                        let step = WaterfallStep {
                            stage: mark.stage,
                            start_ns: prev,
                            end_ns: mark.end_ns,
                            service_ns: service,
                            wait_ns: dwell - service,
                        };
                        prev = mark.end_ns;
                        step
                    })
                    .collect();
                Exemplar {
                    id: row.id,
                    arrive_ns: row.arrive_ns,
                    latency_ns: row.latency_ns(),
                    waterfall,
                }
            })
            .collect();

        Self {
            requests: rows.len() as u64,
            p99_cut_ns,
            tail_requests,
            overall,
            tail,
            exemplars,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn row(id: u64, arrive: u64, marks: &[(Stage, u64, u64)]) -> BlameRow {
        BlameRow {
            id,
            arrive_ns: arrive,
            marks: marks
                .iter()
                .map(|&(stage, end_ns, service_ns)| BlameMark {
                    stage,
                    end_ns,
                    service_ns,
                })
                .collect(),
        }
    }

    #[test]
    fn service_plus_wait_tiles_latency_exactly() {
        let r = row(
            0,
            100,
            &[
                (Stage::QueuePair, 400, 50),
                (Stage::Media, 1_400, 700),
                (Stage::Completion, 1_450, 50),
            ],
        );
        assert_eq!(r.latency_ns(), 1_350);
        let report = BlameReport::build(vec![r], 4);
        assert_eq!(report.overall.total_ns(), 1_350);
        assert_eq!(report.overall.service_ns(Stage::QueuePair), 50);
        assert_eq!(report.overall.wait_ns(Stage::QueuePair), 250);
        assert_eq!(report.overall.service_ns(Stage::Media), 700);
        assert_eq!(report.overall.wait_ns(Stage::Media), 300);
        assert_eq!(report.overall.wait_ns(Stage::Completion), 0);
        // The exemplar waterfall tiles the same interval.
        let ex = &report.exemplars[0];
        assert_eq!(ex.latency_ns, 1_350);
        assert_eq!(ex.waterfall[0].start_ns, 100);
        assert_eq!(ex.waterfall.last().unwrap().end_ns, 1_450);
        for w in ex.waterfall.windows(2) {
            assert_eq!(w[0].end_ns, w[1].start_ns);
        }
    }

    #[test]
    fn service_clamps_to_dwell() {
        // A declared service larger than the dwell cannot go negative.
        let r = row(0, 0, &[(Stage::Media, 100, 500)]);
        let report = BlameReport::build(vec![r], 1);
        assert_eq!(report.overall.service_ns(Stage::Media), 100);
        assert_eq!(report.overall.wait_ns(Stage::Media), 0);
        assert_eq!(report.overall.total_ns(), 100);
    }

    #[test]
    fn a_zero_length_stage_is_still_active() {
        let mut b = BlameBreakdown::new();
        assert!(b.is_empty());
        assert_eq!(b.active_stages().count(), 0);
        b.record(Stage::Completion, 0, 0);
        assert!(!b.is_empty());
        assert_eq!(b.active_stages().collect::<Vec<_>>(), [Stage::Completion]);
        assert_eq!(b.total_ns(), 0);
    }

    #[test]
    fn build_is_invariant_under_row_order() {
        let rows: Vec<BlameRow> = (0..50u64)
            .map(|i| {
                row(
                    i,
                    i * 10,
                    &[
                        (Stage::QueuePair, i * 10 + 100 + i, 40),
                        (Stage::Media, i * 10 + 1_000 + 7 * i, 600),
                    ],
                )
            })
            .collect();
        let forward = BlameReport::build(rows.clone(), 8);
        let mut reversed = rows.clone();
        reversed.reverse();
        assert_eq!(forward, BlameReport::build(reversed, 8));
        // An interleaved two-way split, concatenated backwards.
        let (even, odd): (Vec<_>, Vec<_>) = rows.into_iter().partition(|r| r.id % 2 == 0);
        let concat: Vec<BlameRow> = odd.into_iter().chain(even).collect();
        assert_eq!(forward, BlameReport::build(concat, 8));
    }

    #[test]
    fn tail_slice_cuts_at_the_population_p99() {
        // 99 fast requests and one slow one: the slow request alone is the
        // tail, and its wait dominates the tail breakdown.
        let mut rows: Vec<BlameRow> = (0..99u64)
            .map(|i| row(i, 0, &[(Stage::Media, 1_000, 900)]))
            .collect();
        rows.push(row(99, 0, &[(Stage::Media, 50_000, 900)]));
        let report = BlameReport::build(rows, 2);
        assert_eq!(report.requests, 100);
        assert_eq!(report.tail_requests, 1);
        assert_eq!(report.tail.wait_ns(Stage::Media), 49_100);
        assert_eq!(report.exemplars[0].id, 99);
        assert_eq!(report.exemplars[0].latency_ns, 50_000);
        assert_eq!(report.exemplars.len(), 2);
        assert_eq!(report.exemplars[1].latency_ns, 1_000);
    }

    #[test]
    fn exemplar_ties_break_by_ascending_id() {
        let rows: Vec<BlameRow> = (0..10u64)
            .map(|i| row(9 - i, 0, &[(Stage::Media, 1_000, 1_000)]))
            .collect();
        let report = BlameReport::build(rows, 3);
        let ids: Vec<u64> = report.exemplars.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    /// Streams `rows` through one accumulator sized for `rows.len() +
    /// slack`, checking its retention bound after every push, and returns
    /// the finished report — checked against the oracle — with the most rows
    /// the accumulator held at its end.
    fn streamed(rows: &[BlameRow], slack: u64, top_k: usize) -> (BlameReport, usize) {
        let mut acc = BlameAccumulator::new(rows.len() as u64 + slack, top_k);
        for row in rows {
            acc.push(row.id, row.arrive_ns, &row.marks);
            assert!(acc.retained() <= acc.retained_bound());
        }
        let most = acc.retained();
        let report = acc.finish();
        assert_eq!(report, BlameReport::materialised(rows.to_vec(), top_k));
        (report, most)
    }

    /// One Media stage ending `latency` after arrival.
    fn flat(id: u64, latency: u64) -> BlameRow {
        row(id, id * 3, &[(Stage::Media, id * 3 + latency, latency / 2)])
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

        /// Any rows, streamed through an accumulator sized for at least the
        /// row count, finish into exactly the report the
        /// materialise-sort-scan oracle builds.
        #[test]
        fn streaming_equals_the_materialised_oracle(
            raw in prop::collection::vec(
                (
                    0u64..1_000_000,
                    prop::collection::vec(
                        (0u64..3_000_000, 0u64..60_000, 0u64..STAGE_COUNT as u64),
                        0usize..6,
                    ),
                ),
                0usize..400,
            ),
            knobs in (0u64..300, 0usize..12, any::<u64>()),
        ) {
            let (slack, top_k, seed) = knobs;
            // Coarse quanta make equal latencies and shared buckets the
            // norm; the occasional row has no marks at all (a rejection).
            let quantum = [1u64, 4_096, 262_144][(seed % 3) as usize];
            let rows: Vec<BlameRow> = raw
                .iter()
                .enumerate()
                .map(|(i, (arrive, steps))| {
                    let mut end = *arrive;
                    let marks = steps
                        .iter()
                        .map(|&(dwell, service, stage)| {
                            end += dwell / quantum * quantum;
                            BlameMark {
                                stage: Stage::ALL[stage as usize],
                                end_ns: end,
                                service_ns: service,
                            }
                        })
                        .collect();
                    BlameRow { id: i as u64, arrive_ns: *arrive, marks }
                })
                .collect();
            streamed(&rows, slack, top_k);
        }
    }

    #[test]
    fn identical_latencies_are_the_stated_degenerate_case() {
        // One bucket holds everything, so it is the floor bucket and every
        // row stays: O(n), inside the bound because the bound says so.
        let rows: Vec<BlameRow> = (0..250).map(|i| flat(i, 40_000)).collect();
        let (report, most) = streamed(&rows, 0, 4);
        assert_eq!(most, 250 + 4);
        assert_eq!(report.tail_requests, 0);
        assert_eq!(
            report.exemplars.iter().map(|e| e.id).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
    }

    #[test]
    fn the_p99_bucket_straddles_its_own_midpoint() {
        // 150 fast rows, then 50 spread across the one bucket
        // [999 424, 1 007 616) the p99 falls in: the cut is that bucket's
        // midpoint, so the bucket is half tail and half not.
        let mut rows: Vec<BlameRow> = (0..150).map(|i| flat(i, 1_000)).collect();
        rows.extend((0..50).map(|i| flat(150 + i, 999_424 + i * 160)));
        let (report, _) = streamed(&rows, 0, 3);
        assert_eq!(report.p99_cut_ns, 999_424 + 4_096);
        assert_eq!(report.tail_requests, 24);
    }

    #[test]
    fn fewer_rows_than_exemplars() {
        let rows: Vec<BlameRow> = (0..3).map(|i| flat(i, 1_000 * (i + 1))).collect();
        let (report, _) = streamed(&rows, 0, 8);
        assert_eq!(
            report.exemplars.iter().map(|e| e.id).collect::<Vec<_>>(),
            [2, 1, 0]
        );
        // No exemplars at all is legal too.
        let (none, _) = streamed(&rows, 5, 0);
        assert!(none.exemplars.is_empty());
        assert_eq!(none.requests, 3);
    }

    #[test]
    fn rejected_rows_count_with_latency_zero() {
        // A rejection has no marks: it is a request of latency 0 that
        // attributes nothing.
        let mut rows: Vec<BlameRow> = (0..198).map(|i| row(i, i * 5, &[])).collect();
        rows.push(flat(198, 70_000));
        rows.push(flat(199, 90_000));
        let (report, _) = streamed(&rows, 0, 4);
        assert_eq!(report.requests, 200);
        assert_eq!(report.p99_cut_ns, 0);
        assert_eq!(report.tail_requests, 2);
        assert_eq!(report.overall.total_ns(), 160_000);
        assert_eq!(report.exemplars[2].latency_ns, 0);
        assert!(report.exemplars[2].waterfall.is_empty());
        // Nothing but rejections.
        let (report, _) = streamed(&rows[..198], 2, 4);
        assert_eq!(report.requests, 198);
        assert!(report.overall.is_empty());
        assert_eq!(report.tail_requests, 0);
    }

    #[test]
    fn an_exact_multiple_of_a_hundred_with_no_slack() {
        // `expected = n = 100k`: the p99 rank is exactly `99k`, the tightest
        // the budget gets.
        for n in [100u64, 200, 1_000] {
            let rows: Vec<BlameRow> = (0..n).map(|i| flat(i, 1_000 + i * 997)).collect();
            let (report, most) = streamed(&rows, 0, 2);
            assert_eq!(report.requests, n);
            assert_eq!(report.tail_requests, n / 100, "n={n}");
            assert!(most < 20, "n={n}: {most} rows retained");
        }
    }

    #[test]
    fn a_late_burst_raises_the_floor_after_a_quiet_start() {
        // 5 000 fast rows settle the floor among themselves; the slow burst
        // that follows has to lift it clear of them.
        let mut rows: Vec<BlameRow> = (0..5_000).map(|i| flat(i, 1_000 + i % 700)).collect();
        rows.extend((0..200).map(|i| flat(5_000 + i, 1_000_000 + i * 9_000)));
        let mut acc = BlameAccumulator::new(rows.len() as u64, 4);
        let mut floors = Vec::new();
        for r in &rows {
            acc.push(r.id, r.arrive_ns, &r.marks);
            assert!(acc.retained() <= acc.retained_bound());
            floors.push(acc.floor);
        }
        assert!(
            floors.windows(2).all(|w| w[0] <= w[1]),
            "the floor only rises"
        );
        assert!(floors[4_999] <= bucket_index(1_700));
        assert!(floors[5_199] >= bucket_index(1_000_000));
        // Only the burst's top is still held.
        assert!(acc.retained() < 70, "{} rows retained", acc.retained());
        assert_eq!(acc.finish(), BlameReport::materialised(rows.clone(), 4));
        // The burst first, the quiet rows after: the same report.
        rows.rotate_left(5_000);
        streamed(&rows, 0, 4);
    }

    #[test]
    #[should_panic(expected = "more blame rows than the 2 expected")]
    fn pushing_past_the_expected_count_panics() {
        let mut acc = BlameAccumulator::new(2, 1);
        for i in 0..3 {
            let r = flat(i, 1_000);
            acc.push(r.id, r.arrive_ns, &r.marks);
        }
    }

    #[test]
    #[should_panic(expected = "stages at most once")]
    fn a_retained_row_with_a_stage_closed_twice_panics() {
        let marks = [(Stage::Media, 1_000, 10); STAGE_COUNT + 1];
        let r = row(0, 0, &marks);
        BlameAccumulator::new(1, 1).push(r.id, r.arrive_ns, &r.marks);
    }

    #[test]
    fn empty_input_builds_an_empty_report() {
        let report = BlameReport::build(Vec::new(), 4);
        assert_eq!(report.requests, 0);
        assert_eq!(report.tail_requests, 0);
        assert_eq!(report.p99_cut_ns, 0);
        assert!(report.overall.is_empty());
        assert!(report.tail.is_empty());
        assert!(report.exemplars.is_empty());
    }
}
