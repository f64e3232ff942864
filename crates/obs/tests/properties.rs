//! Property tests of the telemetry invariants: a windowed series must not
//! depend on the order its events were recorded in, and blame decomposition
//! must tile every request's latency exactly regardless of input order.

use proptest::prelude::*;

use bam_obs::{BlameMark, BlameReport, BlameRow, Stage, WindowedSeries, STAGE_COUNT};

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

    /// Recording events in a shuffled order builds the same series as
    /// recording them in time order — the in-order append and the
    /// out-of-order insert land every event in the same window. At a 1 ns
    /// window every distinct timestamp is exactly one window.
    #[test]
    fn windowed_series_is_independent_of_record_order(
        events in prop::collection::vec(
            (any::<u8>(), 0u64..100_000, 0u64..1_000_000_000),
            0usize..200,
        ),
        order_seed in any::<u64>(),
    ) {
        let mut sorted = events.clone();
        sorted.sort_by_key(|&(_, at, _)| at);
        let mut distinct: Vec<u64> = sorted.iter().map(|&(_, at, _)| at).collect();
        distinct.dedup();
        let mut shuffled = events;
        for i in (1..shuffled.len()).rev() {
            let j = (order_seed.rotate_left(i as u32) as usize) % (i + 1);
            shuffled.swap(i, j);
        }
        for window_ns in [1, 1_000, 1 << 40] {
            let mut in_order = WindowedSeries::new(window_ns);
            let mut any_order = WindowedSeries::new(window_ns);
            for ev in &sorted {
                apply(&mut in_order, ev);
            }
            for ev in &shuffled {
                apply(&mut any_order, ev);
            }
            prop_assert_eq!(&any_order, &in_order, "window_ns={}", window_ns);
            if window_ns == 1 {
                prop_assert_eq!(any_order.len(), distinct.len());
            }
        }
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
