//! Coordinator for the sharded engine: a worker pool of per-SSD accounting
//! shards fed by the timing spine.
//!
//! The spine (`spine::drive_events`) stays sequential — the global RNG draw
//! order is part of the determinism contract — while each shard applies its
//! own device's accounting records concurrently. Records are batched and
//! flushed under conservative lookahead: a shard may lag the spine by at
//! most [`BATCH_RECORDS`] records or one [`lookahead_epsilon`] of virtual
//! time, whichever trips first. The epsilon is derived from the pipeline's
//! forwarding latencies — the soonest any cross-shard effect (a completion
//! refilling an arrival, the shared GPU link draining) can propagate — so
//! flushing on that horizon keeps every shard's view causally complete
//! without per-record synchronization.
//!
//! Determinism does not depend on the flush schedule: each shard receives
//! its records in global `(time, seq)` order regardless of batch boundaries,
//! and every merged aggregate is order-independent (see [`crate::shard`]).
//! The flush policy only bounds shard lag and channel traffic.

use std::sync::mpsc;

use bam_obs::{
    merge_indexed_spans, BlameAccumulator, LatencyHisto, SpanEvent, SpanRecorder, WindowedSeries,
};

use crate::arrivals::ArrivalMerge;
use crate::clock::SimTime;
use crate::engine::admission::AdmissionState;
use crate::engine::run::EngineOutput;
use crate::engine::spine::drive_events;
use crate::engine::stream::Stream;
use crate::engine::SimConfig;
use crate::pipeline::PipelineParams;
use crate::shard::{
    merge_tenants, occupancy_stats, Accounting, ObsPlan, OccupancyMeter, Rec, ShardMap, SpanOut,
};

/// Records a shard batch may accumulate before it is flushed regardless of
/// virtual time.
const BATCH_RECORDS: usize = 4096;

/// Outstanding batches per shard channel before the spine blocks
/// (backpressure, so a slow shard bounds memory instead of growing it).
const CHANNEL_DEPTH: usize = 4;

/// The conservative-lookahead flush stride in virtual nanoseconds: the
/// pipeline's forwarding path (doorbell forward → controller fetch →
/// completion post) is the soonest any cross-shard effect can propagate, so
/// one epsilon is a safe horizon; the stride factor amortizes channel
/// traffic over many horizons without affecting results (see module docs).
fn lookahead_epsilon(p: &PipelineParams) -> u64 {
    (p.qp_forward_ns + p.ctrl_fetch_ns + p.completion_ns).max(1) * 64
}

/// The spine's end of one shard: the batch being filled, the channel it is
/// flushed into, and the channel the worker hands applied (emptied) batches
/// back through. A shard therefore cycles a fixed set of at most
/// `CHANNEL_DEPTH + 2` [`BATCH_RECORDS`]-sized buffers — one filling, up to
/// `CHANNEL_DEPTH` queued, one being applied — instead of allocating one per
/// flush.
struct ShardLink {
    filling: Vec<Rec>,
    batches: mpsc::SyncSender<Vec<Rec>>,
    spares: mpsc::Receiver<Vec<Rec>>,
}

impl ShardLink {
    /// Sends the filling batch (if non-empty) and starts a recycled one.
    fn flush(&mut self) {
        if self.filling.is_empty() {
            return;
        }
        let spare = self
            .spares
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(BATCH_RECORDS));
        let batch = std::mem::replace(&mut self.filling, spare);
        self.batches.send(batch).expect("shard worker exited early");
    }
}

/// Runs the spine with `min(workers, num_ssds)` accounting shards and merges
/// their results into the same [`EngineOutput`] inline accounting produces.
pub(crate) fn run_sharded_core(
    config: &SimConfig,
    streams: &mut [Stream<'_>],
    arrivals: &mut ArrivalMerge,
    admission: &mut AdmissionState,
    recorder: Option<&SpanRecorder>,
    workers: usize,
    plan: &ObsPlan<'_>,
) -> EngineOutput {
    let mut map = ShardMap::new(workers, config.num_ssds, config.queue_pairs_per_ssd);
    let shards = map.shards;
    let total_qps = config.total_queue_pairs();
    let traced = recorder.is_some();
    let epsilon = lookahead_epsilon(&config.pipeline);

    let (spine, mut accts) = std::thread::scope(|scope| {
        let mut links = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (batches, inbox) = mpsc::sync_channel::<Vec<Rec>>(CHANNEL_DEPTH);
            let (outbox, spares) = mpsc::channel::<Vec<Rec>>();
            links.push(ShardLink {
                filling: Vec::with_capacity(BATCH_RECORDS),
                batches,
                spares,
            });
            let mut acct = Accounting::new(
                0,
                total_qps,
                plan,
                if traced {
                    SpanOut::Buffered(Vec::new())
                } else {
                    SpanOut::None
                },
            );
            handles.push(scope.spawn(move || {
                for mut batch in inbox {
                    for rec in batch.drain(..) {
                        acct.apply(rec);
                    }
                    // The spine drops its receiver once the run is over;
                    // the last few buffers are then simply freed.
                    let _ = outbox.send(batch);
                }
                acct
            }));
        }

        let mut next_flush = SimTime::ZERO;
        let spine = drive_events(config, streams, arrivals, admission, &mut |rec| {
            let at = rec.at();
            let link = &mut links[map.route(&rec)];
            link.filling.push(rec);
            if link.filling.len() >= BATCH_RECORDS {
                link.flush();
            }
            if at >= next_flush {
                next_flush = at + epsilon;
                links.iter_mut().for_each(ShardLink::flush);
            }
        });
        links.iter_mut().for_each(ShardLink::flush);
        drop(links);
        let accts: Vec<Accounting> = handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect();
        (spine, accts)
    });

    // Merge in global queue-pair order, so the f64 occupancy fold matches
    // the inline engine's bit for bit.
    let meters: Vec<OccupancyMeter> = (0..total_qps)
        .map(|qp| accts[map.of_qp(qp)].meters[qp as usize])
        .collect();
    let (occupancy_mean, occupancy_max) = occupancy_stats(&meters, spine.end);

    // Histograms merge exactly; the exact-sample vectors concatenate in
    // shard order (the report builder sorts them). The first shard's vector
    // is grown in place to the exact total and each other part is freed as
    // soon as it is copied, so at most one part is live beside the whole.
    let mut read_latency = LatencyHisto::new();
    let mut write_latency = LatencyHisto::new();
    let total: usize = accts.iter().map(|a| a.latencies.len()).sum();
    let mut latencies = std::mem::take(&mut accts[0].latencies);
    latencies.reserve_exact(total - latencies.len());
    for acct in &mut accts {
        read_latency.merge(&acct.read_latency);
        write_latency.merge(&acct.write_latency);
        latencies.extend_from_slice(&std::mem::take(&mut acct.latencies));
    }

    // Replay the merged span stream into the caller's recorder in global
    // emission order — the same sequence of `record` calls the inline engine
    // makes, so ring-buffer wrap and drop counts match exactly too.
    if let Some(rec) = recorder {
        let parts: Vec<Vec<(u64, SpanEvent)>> = accts.iter_mut().map(|a| a.take_spans()).collect();
        for event in merge_indexed_spans(parts) {
            rec.record(event);
        }
    }

    // Fold the shard series and blame accumulators. Both merges are
    // commutative and a finished accumulator is a pure function of the row
    // set, so both outputs are bit-identical to the inline engine's at any
    // shard count.
    let mut series = WindowedSeries::new(plan.telemetry.window_ns);
    let mut blame: Option<BlameAccumulator> = None;
    for acct in &mut accts {
        series.merge(&acct.series);
        if let Some(part) = acct.take_blame() {
            match &mut blame {
                Some(merged) => merged.merge(part),
                None => blame = Some(part),
            }
        }
    }

    let tenants = merge_tenants(accts.into_iter().map(|a| a.tenants).collect());

    EngineOutput {
        end: spine.end,
        depth: spine.depth,
        events: spine.events,
        peak_queued: spine.peak_queued,
        peak_slots: spine.peak_slots,
        occupancy_mean,
        occupancy_max,
        latencies,
        read_latency,
        write_latency,
        tenants,
        series,
        blame,
    }
}
