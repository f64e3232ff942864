//! The batched miss path (`BamCache::acquire_each` over
//! `IoStack::read_lines`) under contention, device faults and crashes: it
//! must complete, and leave no line BUSY, no slot claimed and no command in
//! flight behind it — whatever happens to the commands of a batch. A batch
//! adds its counts to `BamMetrics` once, when it returns, so they must also
//! come out exact when it fails and when threads share the counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bam_core::{
    recover, BamArray, BamCache, BamConfig, BamError, BamMetrics, BamQueuePair, BamSystem,
    CacheBacking, CacheJournal, CrashBacking, CrashPoint, IoStack,
};
use bam_gpu_sim::exec::WarpCtx;
use bam_gpu_sim::warp::{LaneMask, WARP_SIZE};
use bam_mem::{BumpAllocator, ByteRegion};
use bam_nvme_sim::{DataLayout, NvmeCommand, NvmeStatus, SsdArray, SsdSpec};

const LINE: u64 = 512;
const LINES: u64 = 1024;
const STATE_INVALID: u8 = 0;
const STATE_VALID: u8 = 2;

/// One SSD holding `LINES` lines (line `l` filled with byte `l % 251`) behind
/// `queue_pairs` queue pairs of `queue_depth` entries.
struct Rig {
    region: Arc<ByteRegion>,
    alloc: BumpAllocator,
    array: Arc<SsdArray>,
    metrics: Arc<BamMetrics>,
    stack: Arc<IoStack>,
}

fn line_byte(line: u64) -> u8 {
    (line % 251) as u8
}

fn rig(queue_pairs: usize, queue_depth: u32, fetch_retries: u32) -> Rig {
    let region = Arc::new(ByteRegion::new(8 << 20));
    let alloc = BumpAllocator::new(region.len() as u64);
    let array = SsdArray::new(
        SsdSpec::intel_optane_p5800x(),
        1,
        region.clone(),
        LINES * LINE,
        DataLayout::Replicated,
    );
    let array = Arc::new(array);
    for line in 0..LINES {
        array
            .preload(line * LINE, &[line_byte(line); LINE as usize])
            .unwrap();
    }
    let queues = array
        .create_queues(&alloc, queue_pairs, queue_depth)
        .unwrap()
        .into_iter()
        .map(|dev| {
            dev.into_iter()
                .map(|q| Arc::new(BamQueuePair::new(q)))
                .collect()
        })
        .collect();
    let metrics = Arc::new(BamMetrics::new());
    let stack = Arc::new(
        IoStack::new(array.clone(), queues, LINE, LINES, metrics.clone())
            .with_fetch_retry(fetch_retries, 1),
    );
    Rig {
        region,
        alloc,
        array,
        metrics,
        stack,
    }
}

impl Rig {
    fn cache(&self, backing: Arc<dyn CacheBacking>, slots: u64) -> BamCache {
        let slots_base = self.alloc.alloc(slots * LINE, LINE).unwrap();
        BamCache::new(backing, self.metrics.clone(), slots_base, slots)
    }

    /// Fails the first command for `line` (one block per line), once.
    fn fail_line_once(&self, line: u64) {
        let strikes = AtomicU64::new(1);
        self.array
            .device(0)
            .controller()
            .set_fault_injector(Some(Arc::new(move |cmd: &NvmeCommand| {
                (cmd.slba == line
                    && strikes
                        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |s| s.checked_sub(1))
                        .is_ok())
                .then_some(NvmeStatus::InternalError)
            })));
    }

    fn heal(&self) {
        self.array.device(0).controller().set_fault_injector(None);
    }

    /// Asserts `addr` holds line `line`'s pattern.
    fn assert_line_at(&self, line: u64, addr: u64) {
        let mut buf = [0u8; LINE as usize];
        self.region.read_bytes(addr, &mut buf);
        assert!(
            buf.iter().all(|&b| b == line_byte(line)),
            "line {line} holds the wrong bytes"
        );
    }
}

/// No line is BUSY or pinned, and every one of the `slots` slots can still
/// be claimed (none is stuck claimed by a fetch that never finished).
fn assert_quiescent(cache: &BamCache, slots: u64) {
    for line in 0..LINES {
        let (state, refs, _) = cache.line_debug(line);
        assert!(
            state == STATE_INVALID || state == STATE_VALID,
            "line {line} left BUSY"
        );
        assert_eq!(refs, 0, "line {line} left pinned");
    }
    let resident: Vec<u64> = (0..LINES)
        .filter(|&l| cache.line_debug(l).0 == STATE_VALID)
        .collect();
    assert!(resident.len() as u64 <= slots);
    // Pin what is resident, then fill every remaining slot with a new line.
    let mut guards: Vec<_> = resident
        .iter()
        .map(|&l| cache.acquire(l).unwrap())
        .collect();
    for line in (0..LINES).filter(|l| !resident.contains(l)) {
        if guards.len() as u64 == slots {
            break;
        }
        guards.push(cache.acquire(line).expect("a slot was leaked"));
    }
    assert_eq!(guards.len() as u64, slots);
}

#[test]
fn four_threads_of_32_line_batches_share_a_4_entry_queue_and_a_16_slot_cache() {
    // Three credits for 4 × 32 wanted commands, and a cache half the size of
    // one batch: every thread keeps running out of credit and of victims.
    const SLOTS: u64 = 16;
    let r = rig(1, 4, 0);
    let cache = r.cache(r.stack.clone(), SLOTS);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let (cache, r) = (&cache, &r);
            s.spawn(move || {
                for round in 0..40u64 {
                    // Overlapping windows, so threads also meet on lines.
                    let first = (t * 37 + round * 29) % (LINES - 32);
                    let mut visited = 0u32;
                    cache
                        .acquire_each((first..first + 32).map(|l| (l, l)), |line, addr| {
                            r.assert_line_at(line, addr);
                            visited += 1;
                        })
                        .unwrap();
                    assert_eq!(visited, 32, "every request is visited exactly once");
                }
            });
        }
    });
    let m = r.metrics.snapshot();
    assert_eq!(m.cache_hits + m.cache_misses, 4 * 40 * 32);
    assert_eq!(m.read_requests, m.cache_misses);
    assert_quiescent(&cache, SLOTS);
}

#[test]
fn four_threads_of_warp_run_reads_share_one_4_entry_queue_pair() {
    // More threads than queue pairs: all four homes land on the one pair,
    // and every batch wants ten times its three credits, so the threads
    // share the ring through the ticket/turn protocol throughout.
    const ELEMS: u64 = 1 << 15;
    const RUN: u64 = 8;
    let system = BamSystem::new(BamConfig {
        num_ssds: 1,
        queue_pairs_per_ssd: 1,
        queue_depth: 4,
        cache_bytes: 64 * 512,
        ..BamConfig::test_scale()
    })
    .unwrap();
    let arr = system.create_array::<u64>(ELEMS).unwrap();
    arr.preload(&(0..ELEMS).collect::<Vec<_>>()).unwrap();
    let warp = WarpCtx {
        warp_id: 0,
        base_thread: 0,
        active: LaneMask::MAX,
    };
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let (arr, warp) = (&arr, &warp);
            s.spawn(move || {
                for round in 0..20u64 {
                    // 32 runs on 32 different lines; threads meet on lines.
                    let runs = std::array::from_fn(|lane| {
                        let line = (t * 131 + round * 37 + lane as u64 * 16) % (ELEMS / 64);
                        Some((line * 64 + (lane as u64 % 7) * RUN, RUN))
                    });
                    let mut visited = 0;
                    arr.read_runs_warp(warp, &runs, |lane, elements| {
                        let (start, _) = runs[lane].unwrap();
                        assert!(
                            elements.iter().copied().eq(start..start + RUN),
                            "lane {lane}"
                        );
                        visited += 1;
                    })
                    .unwrap();
                    assert_eq!(visited, WARP_SIZE, "every lane is visited once");
                }
            });
        }
    });
    let m = system.metrics();
    assert!(
        m.read_requests > 4 * 3,
        "the threads missed past the credits"
    );
    assert_eq!(system.total_submissions(), m.read_requests);
    assert_eq!(m.write_requests, 0);
}

#[test]
fn repeated_lines_in_one_batch_are_fetched_once_and_visited_every_time() {
    let r = rig(2, 64, 0);
    let cache = r.cache(r.stack.clone(), 64);
    // 40 requests for line 7 overflow the batch's waiter list, too.
    let lines: Vec<u64> = [3, 7, 3, 9]
        .into_iter()
        .chain(std::iter::repeat_n(7, 40))
        .collect();
    let mut visits = vec![0u32; lines.len()];
    let fetched = cache
        .acquire_each(lines.iter().copied().zip(0usize..), |i, addr| {
            r.assert_line_at(lines[i], addr);
            visits[i] += 1;
        })
        .unwrap();
    assert_eq!(fetched, 3);
    assert!(visits.iter().all(|&v| v == 1));
    let m = r.metrics.snapshot();
    assert_eq!((m.cache_misses, m.cache_hits), (3, lines.len() as u64 - 3));
    assert_eq!(m.probe_attempts, lines.len() as u64);
    assert_quiescent(&cache, 64);
}

#[test]
fn a_failed_command_with_no_retry_budget_fails_the_call_and_only_its_own_line() {
    const SLOTS: u64 = 64;
    let r = rig(2, 64, 0);
    let cache = r.cache(r.stack.clone(), SLOTS);
    r.fail_line_once(105);
    let mut visited = Vec::new();
    let err = cache
        .acquire_each((100..116).map(|l| (l, l)), |line, addr| {
            r.assert_line_at(line, addr);
            visited.push(line);
        })
        .unwrap_err();
    assert!(matches!(err, BamError::Storage(_)), "{err:?}");
    // Line 105 alone is rolled back.
    assert_eq!(visited.len(), 15);
    assert!(!visited.contains(&105));
    for line in 100..116 {
        let want = if line == 105 {
            STATE_INVALID
        } else {
            STATE_VALID
        };
        assert_eq!(cache.line_debug(line).0, want, "line {line}");
    }
    assert_eq!(r.metrics.snapshot().storage_retries, 0);
    assert_quiescent(&cache, SLOTS);
    // The device has healed (the fault was one-shot): the line is served.
    let guard = cache.acquire(105).unwrap();
    r.assert_line_at(105, guard.addr());
}

#[test]
fn a_failed_command_is_retried_alone_within_the_budget() {
    const SLOTS: u64 = 64;
    let r = rig(2, 64, 2);
    let cache = r.cache(r.stack.clone(), SLOTS);
    r.fail_line_once(105);
    let mut visited = 0;
    let fetched = cache
        .acquire_each((100..116).map(|l| (l, l)), |line, addr| {
            r.assert_line_at(line, addr);
            visited += 1;
        })
        .unwrap();
    assert_eq!((fetched, visited), (16, 16));
    let m = r.metrics.snapshot();
    // One retry, and it is not a second miss or a second read request.
    assert_eq!(m.storage_retries, 1);
    assert_eq!((m.cache_misses, m.read_requests), (16, 16));
    assert_quiescent(&cache, SLOTS);
    r.heal();
}

#[test]
fn a_crash_at_a_dirty_victims_writeback_inside_a_batch_is_clean_and_recoverable() {
    const SLOTS: u64 = 16;
    let r = rig(2, 64, 0);
    let cp = Arc::new(CrashPoint::new());
    let journal = Arc::new(CacheJournal::with_crash_point(cp.clone()));
    let backing = Arc::new(CrashBacking::new(r.stack.clone(), cp.clone()));
    let cache = r.cache(backing, SLOTS).with_journal(journal.clone());

    // Fill the cache with dirty lines 0..16 (acknowledged, journalled writes).
    for line in 0..SLOTS {
        let guard = cache.acquire(line).unwrap();
        let addr = guard.addr();
        cache
            .journalled_write(line, 0, &[0xEE; 8], || {
                r.region.write_bytes(addr, &[0xEE; 8])
            })
            .unwrap();
    }
    // A batch of new lines must evict them. Let the first victim go (intent,
    // media write, commit = 3 durable steps), the second's intent land, and
    // crash the second's media write — with one read already claimed.
    cp.arm(cp.steps_taken() + 4, 0);
    let mut visited = Vec::new();
    let err = cache
        .acquire_each((500..508).map(|l| (l, l)), |line, addr| {
            r.assert_line_at(line, addr);
            visited.push(line);
        })
        .unwrap_err();
    assert_eq!(err, BamError::Crashed);
    assert_eq!(
        visited,
        [500],
        "the claimed line completed before the crash"
    );
    // Down, the whole batch fails cleanly.
    assert_eq!(
        cache
            .acquire_each((600..632).map(|l| (l, ())), |(), _| ())
            .unwrap_err(),
        BamError::Crashed
    );
    for line in 0..LINES {
        let (state, refs, _) = cache.line_debug(line);
        assert_ne!(state, 1, "line {line} left BUSY by the crash");
        assert_eq!(refs, 0);
    }
    // The victim whose write-back crashed is still resident and dirty.
    assert_eq!(cache.line_debug(1), (STATE_VALID, 0, true));

    // Reboot: every acknowledged write is redone from the journal.
    cp.reset();
    let scratch = r.alloc.alloc(LINE, LINE).unwrap();
    let report = recover(&journal.snapshot(), r.stack.as_ref(), &r.region, scratch).unwrap();
    assert_eq!(report.replayed_lines, SLOTS - 1, "line 0 was committed");
    cache.reset_after_crash();
    for line in 0..SLOTS {
        let guard = cache.acquire(line).unwrap();
        let mut head = [0u8; 8];
        r.region.read_bytes(guard.addr(), &mut head);
        assert_eq!(head, [0xEE; 8], "acknowledged write to line {line} lost");
    }
}

#[test]
fn a_batch_stopped_by_an_out_of_range_request_counts_the_lines_it_walked() {
    let (batched, serial) = (rig(2, 64, 0), rig(2, 64, 0));
    let cache = batched.cache(batched.stack.clone(), 64);
    // Line 3 twice: a miss, then a hit waiting on the batch's own fill.
    let walked = [3, 7, 3, 9];
    let mut visited = 0;
    let err = cache
        .acquire_each(
            walked.into_iter().chain([LINES, 11, 12]).map(|l| (l, l)),
            |line, addr| {
                batched.assert_line_at(line, addr);
                visited += 1;
            },
        )
        .unwrap_err();
    assert_eq!(
        err,
        BamError::IndexOutOfBounds {
            index: LINES,
            len: LINES
        }
    );
    assert_eq!(
        visited,
        walked.len(),
        "the claimed lines are still completed"
    );
    let serial_cache = serial.cache(serial.stack.clone(), 64);
    for line in walked {
        drop(serial_cache.acquire(line).unwrap());
    }
    let m = batched.metrics.snapshot();
    assert_eq!(
        (
            m.cache_hits,
            m.cache_misses,
            m.probe_attempts,
            m.read_requests
        ),
        (1, 3, 4, 3)
    );
    assert_eq!(m, serial.metrics.snapshot());
    assert_quiescent(&cache, 64);
}

/// `u64` elements per line in the system-level tests' arrays.
const PER_LINE: u64 = LINE / 8;

/// A test-scale system with no retry budget whose devices fail the first
/// read of line `failed` (one block per line), once, whichever replica
/// serves it; and an array of `lines` lines over it.
fn failing_system(lines: u64, failed: u64) -> (BamSystem, BamArray<u64>) {
    let system = BamSystem::new(BamConfig {
        fetch_retries: 0,
        ..BamConfig::test_scale()
    })
    .unwrap();
    let arr = system.create_array::<u64>(lines * PER_LINE).unwrap();
    arr.preload(&(0..lines * PER_LINE).collect::<Vec<_>>())
        .unwrap();
    let strikes = Arc::new(AtomicU64::new(1));
    for device in 0..system.config().num_ssds {
        let strikes = strikes.clone();
        system.set_fault_injector(
            device,
            Some(Arc::new(move |cmd: &NvmeCommand| {
                (cmd.slba == failed
                    && strikes
                        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |s| s.checked_sub(1))
                        .is_ok())
                .then_some(NvmeStatus::InternalError)
            })),
        );
    }
    (system, arr)
}

#[test]
fn a_batch_with_a_failed_fetch_counts_what_acquiring_its_lines_one_by_one_does() {
    const LINES: u64 = 16;
    const FAILED: u64 = 5;
    // Line 2 is resident first, so the run holds a hit too.
    let (batched, arr) = failing_system(LINES, FAILED);
    arr.read(2 * PER_LINE).unwrap();
    let err = arr.read_run(0, LINES * PER_LINE).unwrap_err();
    assert!(matches!(err, BamError::Storage(_)), "{err:?}");

    let (serial, arr) = failing_system(LINES, FAILED);
    arr.read(2 * PER_LINE).unwrap();
    for line in 0..LINES {
        let read = arr.read_run(line * PER_LINE, PER_LINE);
        assert_eq!(read.is_err(), line == FAILED, "line {line}");
    }

    let m = batched.metrics();
    assert_eq!(
        (
            m.cache_hits,
            m.cache_misses,
            m.probe_attempts,
            m.read_requests,
            m.reused_references
        ),
        (1, 16, 17, 15, 15)
    );
    assert_eq!(m, serial.metrics());
}

/// The element count of each cache-line piece of the run
/// `[start, start + count)`, `count > 0`.
fn piece_sizes(start: u64, count: u64) -> impl Iterator<Item = u64> {
    let end = start + count;
    (start / PER_LINE..=(end - 1) / PER_LINE)
        .map(move |line| end.min((line + 1) * PER_LINE) - start.max(line * PER_LINE))
}

/// `threads` threads share one array four times the cache through
/// `read_runs_warp`, `gather_warp` and `read`; every count the calls added
/// must still match what the host computes from the requests.
fn counts_stay_exact_under(threads: u64) {
    const ELEMS: u64 = 1 << 15;
    const ROUNDS: usize = 30;
    let system = BamSystem::new(BamConfig::test_scale()).unwrap();
    let arr = system.create_array::<u64>(ELEMS).unwrap();
    arr.preload(&(0..ELEMS).collect::<Vec<_>>()).unwrap();
    let commands = || {
        system
            .ssd_stats()
            .iter()
            .map(|s| s.total_commands())
            .sum::<u64>()
    };
    let commands_before = commands();
    let warp = WarpCtx {
        warp_id: 0,
        base_thread: 0,
        active: LaneMask::MAX,
    };
    // Each thread returns its accesses and its runs' multi-element pieces.
    let (accesses, reuses) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (arr, warp) = (&arr, &warp);
                s.spawn(move || {
                    let mut state = 0x9E37_79B9_7F4A_7C15 ^ t;
                    let mut next = move || {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state
                    };
                    let (mut accesses, mut reuses) = (0u64, 0u64);
                    for _ in 0..ROUNDS {
                        // Runs of up to three lines, from anywhere in a line.
                        let runs: [Option<(u64, u64)>; WARP_SIZE] = std::array::from_fn(|_| {
                            let count = 1 + next() % (3 * PER_LINE);
                            Some((next() % (ELEMS - count), count))
                        });
                        arr.read_runs_warp(warp, &runs, |lane, elements| {
                            let (start, count) = runs[lane].unwrap();
                            assert!(elements.iter().copied().eq(start..start + count));
                        })
                        .unwrap();
                        for &(start, count) in runs.iter().flatten() {
                            for elems in piece_sizes(start, count) {
                                accesses += 1;
                                reuses += u64::from(elems > 1);
                            }
                        }
                        // Three of four lanes gather from a four-line window,
                        // so lanes share lines and coalesce.
                        let window = next() % (ELEMS - 4 * PER_LINE);
                        let indices: [Option<u64>; WARP_SIZE] = std::array::from_fn(|_| {
                            let idx = window + next() % (4 * PER_LINE);
                            (next() % 4 != 0).then_some(idx)
                        });
                        let out = arr.gather_warp(warp, &indices).unwrap();
                        assert_eq!(out, indices);
                        accesses += indices.iter().flatten().count() as u64;
                        let idx = next() % ELEMS;
                        assert_eq!(arr.read(idx).unwrap(), idx);
                        accesses += 1;
                    }
                    (accesses, reuses)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap())
            .fold((0, 0), |(a, r), (wa, wr)| (a + wa, r + wr))
    });
    let m = system.metrics();
    assert_eq!(m.probe_attempts, m.cache_hits + m.cache_misses);
    assert_eq!(
        m.cache_hits + m.cache_misses + m.coalesced_accesses,
        accesses
    );
    assert_eq!(m.reused_references, reuses);
    assert_eq!(m.read_requests, commands() - commands_before);
    assert!(m.cache_misses > 0 && m.cache_evictions > 0 && m.coalesced_accesses > 0);
}

#[test]
fn counts_stay_exact_with_two_threads() {
    counts_stay_exact_under(2);
}

#[test]
fn counts_stay_exact_with_four_threads() {
    counts_stay_exact_under(4);
}
