//! Layer rows: single-purpose loops that price one layer with the layers
//! below it stubbed or bare, so a layer's cost is the difference between the
//! row that contains it and the rows beneath (`MemoryBacking` under
//! `BamCache`; a bare `BamQueuePair` over one `SsdDevice`;
//! `NvmeController::process_once` driven inline with no service thread).
//!
//! Every timing row is the median of [`SAMPLES`] samples after one discarded
//! warm-up sample. `_t1`/`_tN` rows use 1 / `nproc` client threads.

use std::sync::Arc;
use std::time::Instant;

use bam_core::{
    chrome_trace_json, decode_records, recover, BamArray, BamCache, BamConfig, BamMetrics,
    BamQueuePair, BamSystem, CacheJournal, IoStack, LatencyHisto, MemoryBacking, SpanEvent,
    SpanRecorder, Stage,
};
use bam_gpu_sim::exec::WarpCtx;
use bam_gpu_sim::{GpuExecutor, GpuSpec};
use bam_mem::{BumpAllocator, ByteRegion};
use bam_nvme_sim::{
    BlockStore, DataLayout, NvmeCommand, NvmeController, QueueId, QueuePair, SsdArray, SsdDevice,
    SsdSpec,
};
use bam_sim::{engine, QueuePairPolicy, Superposition, TelemetrySpec, Workload as Arrival};
use bam_workloads::graph::{bfs_bam, bfs_reference, cc_bam};

use crate::alloc;
use crate::functional::{identity_array, new_system, stack_config, Graph};
use crate::measure::{nproc, time_ns, Rng, Summary};
use crate::report::LAYER_ROWS;
use crate::simload::{first_request_indices, sim_config, tenants};
use crate::trace::Tracer;

/// Samples per timing row.
const SAMPLES: usize = 5;
const LINE: u64 = 512;

/// One measured per-layer value.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Row {
    name: &'static str,
    value: f64,
}

/// Median over [`SAMPLES`] samples of `sample()`, after one warm-up call.
fn median(sample: impl FnMut() -> f64) -> f64 {
    median_of(SAMPLES, sample)
}

fn median_of(samples: usize, mut sample: impl FnMut() -> f64) -> f64 {
    sample();
    let values: Vec<f64> = (0..samples).map(|_| sample()).collect();
    Summary::of(&values).median
}

/// Median nanoseconds per call of `op(i)` over samples of `iters` calls.
fn ns_per_call(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    median(|| {
        let start = Instant::now();
        for i in 0..iters {
            op(i);
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    })
}

/// Runs `client(c)` for `c` in `0..n` at once, one thread each, and returns
/// their results in client order. A single client runs on the calling
/// thread, as one BaM kernel thread would: no spawn inside a timed region.
pub fn on_clients<R: Send>(n: usize, client: impl Fn(usize) -> R + Sync) -> Vec<R> {
    if n == 1 {
        return vec![client(0)];
    }
    std::thread::scope(|scope| {
        let client = &client;
        let handles: Vec<_> = (0..n).map(|c| scope.spawn(move || client(c))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    })
}

/// `(ns per op seen by one client, ops/s of all clients)` for `iters` calls
/// of `op(client, i)` on each of `n` clients.
fn closed_loop(n: usize, iters: u64, op: impl Fn(usize, u64) + Sync) -> (f64, f64) {
    let ns = median(|| {
        let run = || {
            on_clients(n, |c| {
                for i in 0..iters {
                    op(c, i);
                }
            })
        };
        time_ns(run).1 as f64
    });
    (ns / iters as f64, (n as u64 * iters) as f64 / (ns / 1e9))
}

/// Measures every layer row and returns the values in
/// [`crate::report::LAYER_ROWS`] order. Takes a few seconds.
pub fn measure(seed: u64) -> Vec<f64> {
    let mut rows = Vec::new();
    let mut put = |name: &'static str, value: f64| rows.push(Row { name, value });
    let n = nproc();

    // bench: what the harness's own clock costs, so it can be subtracted.
    put(
        "bench.timer_ns",
        ns_per_call(200_000, |_| {
            std::hint::black_box(Instant::now());
        }),
    );

    mem_and_nvme(&mut put);
    put("gpu.exec.launch_ns_per_warp", {
        let exec = GpuExecutor::with_workers(GpuSpec::a100_80gb(), n);
        let warps = 16_384;
        median(|| {
            time_ns(|| {
                exec.launch(warps * 32, |w| {
                    std::hint::black_box(w.warp_id);
                })
            })
            .1 as f64
                / warps as f64
        })
    });
    queue_and_iostack(&mut put, n);
    cache(&mut put, n, seed);
    journal(&mut put);
    array_and_system(&mut put, n, seed);
    graph_kernels(&mut put, seed);
    sim(&mut put, seed);
    obs(&mut put);
    let (residual_ns, explained) = residual(&rows);
    rows.push(Row {
        name: "core.array.read_miss_residual_ns",
        value: residual_ns,
    });
    rows.push(Row {
        name: "core.array.read_miss_explained",
        value: explained,
    });
    assert!(
        rows.iter()
            .map(|r| r.name)
            .eq(LAYER_ROWS.iter().map(|r| r.0)),
        "rows are measured in table order"
    );
    rows.iter().map(|r| r.value).collect()
}

/// How much of a miss the layer rows explain: `read_miss_ns` against
/// `miss_evict_ns + read_line_ns` (which itself contains the queue, the
/// controller and the copy). Returns `(residual_ns, explained_share)`.
fn residual(rows: &[Row]) -> (f64, f64) {
    let get = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .map_or(f64::NAN, |r| r.value)
    };
    let whole = get("core.array.read_miss_ns");
    let parts = get("core.cache.miss_evict_ns") + get("core.iostack.read_line_ns");
    (whole - parts, parts / whole)
}

fn mem_and_nvme(put: &mut impl FnMut(&'static str, f64)) {
    // mem: the DMA copy both directions of a miss pay — one line into the
    // region, one line out.
    let region = ByteRegion::new(1 << 20);
    let mut buf = vec![7u8; LINE as usize];
    let per_pair = ns_per_call(100_000, |i| {
        let addr = (i * LINE) % (1 << 20);
        region.write_bytes(addr, &buf);
        region.read_bytes(addr, &mut buf);
    });
    put(
        "mem.region.copy_ns_per_kib",
        per_pair / (2.0 * LINE as f64 / 1024.0),
    );

    // nvme: the controller alone, fed raw submission entries, no BaM
    // protocol and no service thread.
    const ENTRIES: u32 = 64;
    const BURST: u32 = 32;
    let region = Arc::new(ByteRegion::new(4 << 20));
    let alloc = BumpAllocator::new(region.len() as u64);
    let store = Arc::new(BlockStore::new(LINE as usize, 1 << 12));
    let ctrl = NvmeController::new(store, region.clone());
    let qp = Arc::new(
        QueuePair::allocate(region, &alloc, QueueId(1), ENTRIES, 1024).expect("ring fits"),
    );
    ctrl.register_queue(qp.clone());
    let dst = alloc.alloc(LINE, LINE).expect("buffer fits");
    let mut tail = 0u32;
    put(
        "nvme.controller.process_ns_per_cmd",
        median(|| {
            let mut busy_ns = 0;
            for round in 0..500u64 {
                for k in 0..BURST {
                    let slot = (tail + k) % ENTRIES;
                    let lba = (round * u64::from(BURST) + u64::from(k)) % (1 << 12);
                    qp.write_sq_entry(slot, &NvmeCommand::read(slot as u16, lba, 1, dst));
                }
                tail = (tail + BURST) % ENTRIES;
                qp.ring_sq_tail(tail);
                let (done, ns) = time_ns(|| ctrl.process_once());
                assert_eq!(done, BURST as usize, "the controller drains the burst");
                busy_ns += ns;
                // The completion ring's consumer is the same position.
                qp.ring_cq_head(tail);
            }
            busy_ns as f64 / (500 * BURST) as f64
        }),
    );
}

fn queue_and_iostack(put: &mut impl FnMut(&'static str, f64), n: usize) {
    // core.queue: the BaM protocol over one started device, nothing above.
    let region = Arc::new(ByteRegion::new(16 << 20));
    let alloc = BumpAllocator::new(region.len() as u64);
    let mut ssd = SsdDevice::new(SsdSpec::intel_optane_p5800x(), region.clone(), 8 << 20);
    let qp = BamQueuePair::new(ssd.create_queue_pair(&alloc, 64).expect("ring fits"));
    ssd.start();
    let bufs: Vec<u64> = (0..n)
        .map(|_| alloc.alloc(LINE, LINE).expect("buffer fits"))
        .collect();
    let submit = |c: usize, i: u64| {
        qp.read_and_wait(i % 8192, 1, bufs[c])
            .expect("read completes");
    };
    let (ns_t1, rate_t1) = closed_loop(1, 10_000, submit);
    let (subs0, bells0) = (qp.submissions(), qp.sq_doorbell_writes());
    let (ns_tn, rate_tn) = closed_loop(n, 5_000, submit);
    put("core.queue.submit_wait_ns_t1", ns_t1);
    put("core.queue.submit_wait_ns_tN", ns_tn);
    put(
        "core.queue.parallel_efficiency",
        rate_tn / (n as f64 * rate_t1),
    );
    put(
        "core.queue.submissions_per_doorbell_tN",
        (qp.submissions() - subs0) as f64 / (qp.sq_doorbell_writes() - bells0) as f64,
    );
    drop(ssd);

    // core.iostack: routing and metrics on top of the queue, one device.
    let region = Arc::new(ByteRegion::new(16 << 20));
    let alloc = BumpAllocator::new(region.len() as u64);
    let mut array = SsdArray::new(
        SsdSpec::intel_optane_p5800x(),
        1,
        region,
        8 << 20,
        DataLayout::Replicated,
    );
    array.start();
    let array = Arc::new(array);
    let queues = array
        .create_queues(&alloc, 4, 64)
        .expect("rings fit")
        .into_iter()
        .map(|dev| {
            dev.into_iter()
                .map(|q| Arc::new(BamQueuePair::new(q)))
                .collect()
        })
        .collect();
    let stack = IoStack::new(array, queues, LINE, 8192, Arc::new(BamMetrics::new()));
    let buf = alloc.alloc(LINE, LINE).expect("buffer fits");
    put(
        "core.iostack.read_line_ns",
        ns_per_call(10_000, |i| {
            stack.read_line(i % 8192, buf).expect("read completes");
        }),
    );
    put(
        "core.iostack.write_line_ns",
        ns_per_call(10_000, |i| {
            stack.write_line(i % 8192, buf).expect("write completes");
        }),
    );
}

/// A cache of `slots` lines over `lines` lines of memory-backed "storage".
fn memory_cache(slots: u64, lines: u64) -> (Arc<ByteRegion>, Arc<MemoryBacking>, BamCache) {
    let data = Arc::new(ByteRegion::new((lines * LINE) as usize));
    let gpu = Arc::new(ByteRegion::new(((slots + 1) * LINE) as usize));
    let backing = Arc::new(MemoryBacking::new(data, 0, gpu.clone(), LINE, lines));
    let cache = BamCache::new(backing.clone(), Arc::new(BamMetrics::new()), 0, slots);
    (gpu, backing, cache)
}

fn cache(put: &mut impl FnMut(&'static str, f64), n: usize, seed: u64) {
    // Hits: every line resident (256 lines in 512 slots, as in hot_reads).
    let (_gpu, _backing, hot) = memory_cache(512, 256);
    let lines: Vec<Vec<u64>> = (0..n as u64)
        .map(|c| {
            let mut rng = Rng::new(seed ^ (c + 11));
            (0..4096).map(|_| rng.below(256)).collect()
        })
        .collect();
    for line in 0..256 {
        drop(hot.acquire(line).expect("line fits"));
    }
    let hit = |c: usize, i: u64| {
        drop(hot.acquire(lines[c][i as usize % 4096]).expect("hit"));
    };
    let (ns_t1, rate_t1) = closed_loop(1, 400_000, hit);
    let (ns_tn, rate_tn) = closed_loop(n, 200_000, hit);
    put("core.cache.acquire_hit_ns_t1", ns_t1);
    put("core.cache.acquire_hit_ns_tN", ns_tn);
    put(
        "core.cache.hit_parallel_efficiency",
        rate_tn / (n as f64 * rate_t1),
    );

    // Misses: 128 slots over 16 Ki lines, walked with a stride so that every
    // acquire evicts; clean first, then with every line dirtied.
    let (_gpu, _backing, cold) = memory_cache(128, 16 << 10);
    put(
        "core.cache.miss_evict_ns",
        ns_per_call(50_000, |i| {
            drop(
                cold.acquire((i * 129) % (16 << 10))
                    .expect("miss is served"),
            );
        }),
    );
    put(
        "core.cache.miss_evict_dirty_ns",
        ns_per_call(50_000, |i| {
            cold.acquire((i * 129) % (16 << 10))
                .expect("miss is served")
                .mark_dirty();
        }),
    );
    put(
        "core.cache.flush_ns_per_dirty_line",
        median(|| {
            for line in 0..128 {
                cold.acquire(line).expect("miss is served").mark_dirty();
            }
            let (flushed, ns) = time_ns(|| cold.flush().expect("flush succeeds"));
            ns as f64 / flushed.max(1) as f64
        }),
    );
}

fn journal(put: &mut impl FnMut(&'static str, f64)) {
    const RECORDS: u64 = 50_000;
    let payload = 7u64.to_le_bytes();
    let fill = || {
        let j = CacheJournal::new();
        let (_, ns) = time_ns(|| {
            for i in 0..RECORDS {
                j.append_write(i % 512, (i % 64) * 8, &payload)
                    .expect("append succeeds");
            }
        });
        (j, ns)
    };
    put(
        "core.journal.append_ns",
        median(|| fill().1 as f64 / RECORDS as f64),
    );
    let (j, _) = fill();
    put("core.journal.bytes_per_user_byte", j.write_amplification());
    let image = j.snapshot();
    put(
        "core.journal.decode_ns_per_record",
        median(|| {
            let (decoded, ns) = time_ns(|| decode_records(&image).expect("journal decodes"));
            ns as f64 / decoded.records.len() as f64
        }),
    );
    // Recovery replays every write (none was committed) into memory-backed
    // storage: decode + scan + one fetch/patch/write-back per line.
    let (gpu, backing, _cache) = memory_cache(1, 512);
    put(
        "core.journal.recover_ns_per_record",
        median(|| {
            let (report, ns) = time_ns(|| recover(&image, &*backing, &gpu, LINE).expect("replays"));
            ns as f64 / report.records_scanned as f64
        }),
    );
}

/// A system with `0..len` preloaded, built as the workloads build theirs.
fn identity_system(config: &BamConfig, len: u64) -> (BamSystem, BamArray<u64>) {
    let off = Tracer::off();
    let sys = new_system(off.root(), config);
    let arr = identity_array(off.root(), &sys, len);
    (sys, arr)
}

fn array_and_system(put: &mut impl FnMut(&'static str, f64), n: usize, seed: u64) {
    // Hit rows: the hot_reads configuration.
    const HOT: u64 = 16 << 10;
    let (_sys, arr) = identity_system(&stack_config(256 << 10, HOT * 8, false), HOT);
    for i in 0..HOT {
        arr.read(i).expect("warming read");
    }
    let idx: Vec<Vec<u64>> = (0..n as u64)
        .map(|c| {
            let mut rng = Rng::new(seed ^ (c + 23));
            (0..4096).map(|_| rng.below(HOT - 256)).collect()
        })
        .collect();
    let read = |c: usize, i: u64| {
        std::hint::black_box(arr.read(idx[c][i as usize % 4096]).expect("hit"));
    };
    put("core.array.read_hit_ns_t1", closed_loop(1, 200_000, read).0);
    put("core.array.read_hit_ns_tN", closed_loop(n, 100_000, read).0);
    put(
        "core.array.read_run64_hit_ns_per_elem",
        ns_per_call(10_000, |i| {
            std::hint::black_box(arr.read_run(idx[0][i as usize % 4096], 64).expect("hit"));
        }) / 64.0,
    );
    // 32 lanes on 4 lines: 8 lanes share each probe.
    let warp = WarpCtx {
        warp_id: 0,
        base_thread: 0,
        active: u32::MAX,
    };
    put(
        "core.array.gather_warp_ns_per_lane",
        ns_per_call(20_000, |i| {
            let base = idx[0][i as usize % 4096] & !63;
            let lanes = std::array::from_fn(|l| Some(base + (l as u64 % 4) * 64 + l as u64 / 4));
            std::hint::black_box(arr.gather_warp(&warp, &lanes).expect("hit"));
        }) / 32.0,
    );
    put(
        "core.array.write_hit_ns",
        ns_per_call(200_000, |i| {
            let at = idx[0][i as usize % 4096];
            arr.write(at, at).expect("hit");
        }),
    );

    // Miss rows: the miss_stream configuration. The mean comes from a plain
    // loop; the percentiles from a second loop that times every call.
    const COLD: u64 = 1 << 20;
    let cold_config = stack_config(64 << 10, COLD * 8, false);
    let (_sys, arr) = identity_system(&cold_config, COLD);
    let mut rng = Rng::new(seed ^ 31);
    let cold_idx: Vec<u64> = (0..20_000).map(|_| rng.below(COLD)).collect();
    put(
        "core.array.read_miss_ns",
        ns_per_call(20_000, |i| {
            std::hint::black_box(arr.read(cold_idx[i as usize]).expect("miss is served"));
        }),
    );
    let mut histo = LatencyHisto::new();
    for &i in &cold_idx {
        histo.record(time_ns(|| arr.read(i).expect("miss is served")).1);
    }
    put(
        "core.array.read_miss_p50_ns",
        histo.value_at_quantile(0.5) as f64,
    );
    put(
        "core.array.read_miss_p99_ns",
        histo.value_at_quantile(0.99) as f64,
    );
    put("core.array.read_miss_samples", histo.count() as f64);

    // core.system: what set-up is made of.
    put(
        "core.system.new_ms",
        median(|| time_ns(|| BamSystem::new(cold_config.clone()).expect("valid")).1 as f64 / 1e6),
    );
    let values: Vec<u64> = (0..COLD / 8).collect();
    put(
        "core.system.preload_ns_per_kib",
        median(|| {
            time_ns(|| arr.preload(&values).expect("preload")).1 as f64
                / (values.len() * 8 / 1024) as f64
        }),
    );
}

fn graph_kernels(put: &mut impl FnMut(&'static str, f64), seed: u64) {
    // The graph_bfs_cc workload's own set-up at a fifth of the size
    // (10 000 nodes).
    let off = Tracer::off();
    let Graph {
        graph, edges, exec, ..
    } = &Graph::new(seed, 5, off.root());
    let per_s = |edges: u64, ns: u64| edges as f64 / (ns as f64 / 1e9);
    put(
        "workloads.bfs_edges_per_s",
        median(|| {
            let (r, ns) = time_ns(|| bfs_bam(&graph.offsets, edges, 0, exec).expect("bfs runs"));
            per_s(r.edges_traversed, ns)
        }),
    );
    put(
        "workloads.cc_edges_per_s",
        median(|| {
            let (r, ns) = time_ns(|| cc_bam(&graph.offsets, edges, exec).expect("cc runs"));
            per_s(r.edges_traversed, ns)
        }),
    );
    put(
        "workloads.bfs_reference_edges_per_s",
        median(|| {
            let (r, ns) = time_ns(|| bfs_reference(graph, 0));
            per_s(r.edges_traversed, ns)
        }),
    );
}

fn sim(put: &mut impl FnMut(&'static str, f64), seed: u64) {
    // The sim_tenants scenario at a tenth of the size (~64 K requests).
    let config = sim_config(seed);
    let plain = tenants(6_000, false);
    let with_slo = tenants(6_000, true);
    let policy = QueuePairPolicy::Shared;
    let requests: u64 = plain.iter().map(|t| t.requests).sum();
    let bases = first_request_indices(&plain);
    put(
        "sim.tenant.generate_ns_per_req",
        median(|| {
            time_ns(|| Superposition::generate(seed, &plain, &bases)).1 as f64 / requests as f64
        }),
    );

    // Wall seconds of one run (dropping the report is not the engine's
    // cost). A run is ~50 ms of work, already an average over 500 K events,
    // so three samples do.
    let secs = |run: &dyn Fn() -> bam_sim::MultiTenantReport| {
        median_of(3, || {
            let (report, ns) = time_ns(run);
            drop(report);
            ns as f64 / 1e9
        })
    };
    let events = engine::run_tenants(&config, &plain, policy).overall.events as f64;
    let inline_s = secs(&|| engine::run_tenants(&config, &plain, policy));
    let sharded_s =
        [1, 2, 4].map(|w| secs(&|| engine::run_tenants_sharded(&config, &plain, policy, w)));
    put("sim.engine.events_per_s_inline", events / inline_s);
    put("sim.engine.events_per_s_w1", events / sharded_s[0]);
    put("sim.engine.events_per_s_w2", events / sharded_s[1]);
    put("sim.engine.events_per_s_w4", events / sharded_s[2]);
    put(
        "sim.engine.parallel_efficiency_w2",
        sharded_s[0] / (2.0 * sharded_s[1]),
    );
    put(
        "sim.engine.parallel_efficiency_w4",
        sharded_s[0] / (4.0 * sharded_s[2]),
    );

    let single = engine::uniform_reads(&config, 50_000);
    let open_loop = Arrival::OpenLoop {
        rate_per_s: 800.0e3,
    };
    put(
        "sim.engine.ns_per_event_single",
        median(|| {
            let (report, ns) = time_ns(|| engine::run(&config, open_loop, &single));
            ns as f64 / report.events as f64
        }),
    );

    let recorder = SpanRecorder::new();
    let traced_s = secs(&|| {
        recorder.clear();
        engine::run_tenants_traced(&config, &plain, policy, &recorder)
    });
    put("sim.engine.traced_cost_ratio", traced_s / inline_s);
    let full = TelemetrySpec::full(1_000_000, 8);
    let observed_s = secs(&|| engine::run_tenants_observed(&config, &with_slo, policy, 1, full).0);
    put("sim.engine.observed_cost_ratio", observed_s / inline_s);

    // Memory of one run: peak live bytes above the starting level, and
    // allocation calls, per simulated request.
    let before = alloc::snapshot();
    alloc::reset_peak();
    let report = engine::run_tenants(&config, &plain, policy);
    let grown = alloc::peak().saturating_sub(before.live.max(0) as u64);
    let calls = alloc::snapshot().calls - before.calls;
    put(
        "sim.engine.bytes_per_request",
        grown as f64 / requests as f64,
    );
    put(
        "sim.engine.allocs_per_request",
        calls as f64 / requests as f64,
    );
    drop(report);

    let (report, _) = engine::run_tenants_observed(&config, &with_slo, policy, 1, full);
    put(
        "sim.report.prom_export_ns",
        median(|| time_ns(|| std::hint::black_box(report.prom_export())).1 as f64),
    );
}

fn obs(put: &mut impl FnMut(&'static str, f64)) {
    let mut rng = Rng::new(5);
    let samples: Vec<u64> = (0..4096).map(|_| 1_000 + rng.below(10_000_000)).collect();
    let mut histo = LatencyHisto::new();
    put(
        "obs.histo.record_ns",
        ns_per_call(1_000_000, |i| {
            histo.record(samples[i as usize % 4096]);
        }),
    );
    let other = histo.clone();
    put(
        "obs.histo.merge_ns",
        ns_per_call(2_000, |_| histo.merge(&other)),
    );
    put(
        "obs.histo.quantile_ns",
        ns_per_call(20_000, |i| {
            std::hint::black_box(histo.value_at_quantile(0.5 + (i % 50) as f64 / 100.0));
        }),
    );

    let recorder = SpanRecorder::new();
    put(
        "obs.span.record_ns",
        ns_per_call(200_000, |i| {
            recorder.record(SpanEvent {
                span: bam_core::SpanId(i),
                stage: Stage::CacheProbe,
                start_ns: i,
                end_ns: i + 100,
                track: (i % 8) as u32,
                arg: i,
            });
        }),
    );
    let events = recorder.events();
    put(
        "obs.export.chrome_trace_ns_per_span",
        median(|| {
            time_ns(|| std::hint::black_box(chrome_trace_json(&events))).1 as f64
                / events.len() as f64
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_is_whole_minus_parts() {
        let row = |name, value| Row { name, value };
        let rows = [
            row("core.array.read_miss_ns", 2000.0),
            row("core.cache.miss_evict_ns", 300.0),
            row("core.iostack.read_line_ns", 1500.0),
        ];
        assert_eq!(residual(&rows), (200.0, 0.9));
    }
}
