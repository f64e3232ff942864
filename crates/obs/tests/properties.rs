//! Property tests of the telemetry invariants the parallel engine leans
//! on: windowed-series merging must equal single-recorder concatenation
//! for any split and any fold order, and blame decomposition must tile
//! every request's latency exactly regardless of input order.

use proptest::prelude::*;

use bam_obs::{BlameMark, BlameReport, BlameRow, Stage, WindowedSeries, STAGE_COUNT};

const WINDOW_NS: u64 = 1_000;
const SHARDS: usize = 4;

/// One recorded telemetry event, driven by a `(kind, at, value)` sample.
fn apply(series: &mut WindowedSeries, ev: &(u8, u64, u64)) {
    let (kind, at, v) = *ev;
    match kind % 7 {
        0 => series.record_arrival(at),
        1 => series.record_completion(at, v),
        2 => series.record_stage(at, Stage::ALL[(v % STAGE_COUNT as u64) as usize], v, v / 3),
        3 => series.record_occupancy(at, v % 1_000),
        4 => series.record_depth(at, (v % 10_000) as u32),
        5 => series.record_deferral(at),
        _ => series.record_rejection(at),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Splitting an event stream across shards and folding the shard
    /// series in any order reproduces the single-recorder series exactly
    /// — the property the sharded engine's timeline merge rests on.
    #[test]
    fn windowed_merge_equals_concatenation(
        events in prop::collection::vec(
            (any::<u8>(), 0u64..100_000, 0u64..1_000_000_000),
            0usize..200,
        ),
        splits in prop::collection::vec(0usize..SHARDS, 1usize..200),
        order_seed in any::<u64>(),
    ) {
        let mut reference = WindowedSeries::new(WINDOW_NS);
        for ev in &events {
            apply(&mut reference, ev);
        }

        // Deal the same events across shards by the sampled assignment.
        let mut shards: Vec<WindowedSeries> =
            (0..SHARDS).map(|_| WindowedSeries::new(WINDOW_NS)).collect();
        for (i, ev) in events.iter().enumerate() {
            apply(&mut shards[splits[i % splits.len()]], ev);
        }

        // Fold in a seed-derived permutation of the shard order.
        let mut order: Vec<usize> = (0..SHARDS).collect();
        for i in (1..SHARDS).rev() {
            let j = ((order_seed >> (i * 8)) as usize) % (i + 1);
            order.swap(i, j);
        }
        let mut merged = WindowedSeries::new(WINDOW_NS);
        for &s in &order {
            merged.merge(&shards[s]);
        }
        prop_assert_eq!(&merged, &reference);
    }

    /// Blame decomposition attributes 100% of every request's latency:
    /// per-stage service + wait sums equal the end-to-end total exactly,
    /// and the report is a pure function of the row set (any input order).
    #[test]
    fn blame_decomposition_tiles_each_request_exactly(
        raw in prop::collection::vec(
            (
                0u64..1_000_000,
                prop::collection::vec(
                    (0u64..50_000, 0u64..60_000, 0u64..STAGE_COUNT as u64),
                    1usize..8,
                ),
            ),
            1usize..40,
        ),
        order_seed in any::<u64>(),
    ) {
        // Materialize rows with monotone mark instants; service values may
        // exceed the dwell (the builder clamps).
        let rows: Vec<BlameRow> = raw
            .iter()
            .enumerate()
            .map(|(i, (arrive, steps))| {
                let mut end = *arrive;
                let marks = steps
                    .iter()
                    .map(|&(dwell, service, stage)| {
                        end += dwell;
                        BlameMark {
                            stage: Stage::ALL[stage as usize],
                            end_ns: end,
                            service_ns: service,
                        }
                    })
                    .collect();
                BlameRow {
                    id: i as u64,
                    arrive_ns: *arrive,
                    marks,
                }
            })
            .collect();

        let total: u64 = rows.iter().map(BlameRow::latency_ns).sum();
        let report = BlameReport::build(rows.clone(), 5);
        prop_assert_eq!(report.requests, rows.len() as u64);
        prop_assert_eq!(report.overall.total_ns(), total, "overall must tile the population");

        // The tail slice tiles its own latencies exactly too.
        let tail_total: u64 = rows
            .iter()
            .filter(|r| r.latency_ns() > report.p99_cut_ns)
            .map(BlameRow::latency_ns)
            .sum();
        prop_assert_eq!(report.tail.total_ns(), tail_total, "tail must tile its slice");

        // Every exemplar's waterfall tiles its request's life exactly.
        for ex in &report.exemplars {
            let attributed: u64 = ex.waterfall.iter().map(|w| w.service_ns + w.wait_ns).sum();
            prop_assert_eq!(attributed, ex.latency_ns);
            for w in ex.waterfall.windows(2) {
                prop_assert_eq!(w[0].end_ns, w[1].start_ns, "waterfall must be gapless");
            }
        }

        // Order invariance: a seed-derived shuffle builds the same report.
        let mut shuffled = rows;
        for i in (1..shuffled.len()).rev() {
            let j = (order_seed.rotate_left(i as u32) as usize) % (i + 1);
            shuffled.swap(i, j);
        }
        prop_assert_eq!(BlameReport::build(shuffled, 5), report);
    }
}
