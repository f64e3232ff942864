//! Failure-injection tests: the stack must surface device errors cleanly to
//! the application instead of hanging, corrupting data, or poisoning shared
//! state.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bam::core::BamQueuePair;
use bam::core::{BamConfig, BamError, BamSystem};
use bam::gpu::{GpuExecutor, GpuSpec};
use bam::mem::{BumpAllocator, ByteRegion};
use bam::nvme::{NvmeCommand, NvmeStatus, SsdDevice, SsdSpec};

/// A command that fails on the device comes back to exactly the submitting
/// thread as an error, and the queue remains fully usable afterwards.
#[test]
fn injected_device_errors_are_delivered_to_the_right_thread() {
    let region = Arc::new(ByteRegion::new(8 << 20));
    let alloc = BumpAllocator::new(region.len() as u64);
    let ssd = SsdDevice::new(SsdSpec::intel_optane_p5800x(), region.clone(), 4 << 20);
    // Fail every command whose LBA is in the "poisoned" range.
    ssd.controller()
        .set_fault_injector(Some(Arc::new(|cmd: &NvmeCommand| {
            (cmd.slba >= 1000 && cmd.slba < 1100).then_some(NvmeStatus::InternalError)
        })));
    let qp = Arc::new(BamQueuePair::new(
        ssd.create_queue_pair(&alloc, 32).unwrap(),
    ));

    let failures = AtomicU64::new(0);
    let successes = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..6u64 {
            let qp = qp.clone();
            let dst = alloc.alloc(512, 512).unwrap();
            let failures = &failures;
            let successes = &successes;
            s.spawn(move || {
                for i in 0..60u64 {
                    let lba = t * 300 + i * 5; // some land in [1000, 1100)
                    match qp.read_and_wait(lba, 1, dst) {
                        Ok(_) => {
                            successes.fetch_add(1, Ordering::Relaxed);
                            assert!(!(1000..1100).contains(&lba), "poisoned lba {lba} succeeded");
                        }
                        Err(BamError::Storage(_)) => {
                            failures.fetch_add(1, Ordering::Relaxed);
                            assert!((1000..1100).contains(&lba), "healthy lba {lba} failed");
                        }
                        Err(other) => panic!("unexpected error {other:?}"),
                    }
                }
            });
        }
    });
    assert_eq!(
        failures.load(Ordering::Relaxed) + successes.load(Ordering::Relaxed),
        360
    );
    assert!(
        failures.load(Ordering::Relaxed) > 0,
        "the poisoned range must have been hit"
    );
}

/// A cache-miss fetch that fails on the device propagates the error, leaves
/// the line unlocked (not stuck busy), and lets a later retry succeed once
/// the fault clears — all through the public `BamSystem` stack.
#[test]
fn cache_miss_errors_do_not_wedge_the_line() {
    let system = BamSystem::new(BamConfig::test_scale()).unwrap();
    let arr = system.create_array::<u64>(4_096).unwrap();
    arr.preload(&(0..4_096u64).collect::<Vec<_>>()).unwrap();

    // Warm one line, then poison every device through the public hook: all
    // fetches (including their bounded backoff retries) now fail.
    assert_eq!(arr.read(0).unwrap(), 0);
    let flag = Arc::new(std::sync::atomic::AtomicBool::new(true));
    for d in 0..system.config().num_ssds {
        let flag = flag.clone();
        system.set_fault_injector(
            d,
            Some(Arc::new(move |_cmd: &NvmeCommand| {
                flag.load(Ordering::Relaxed)
                    .then_some(NvmeStatus::InternalError)
            })),
        );
    }

    // A miss exhausts its retry budget and surfaces a typed storage error.
    let retries_before = system.metrics().storage_retries;
    assert!(matches!(arr.read(1_000), Err(BamError::Storage(_))));
    assert_eq!(
        system.metrics().storage_retries,
        retries_before + u64::from(system.config().fetch_retries),
        "every configured retry must be spent before giving up"
    );
    // The already-cached line keeps serving hits while the devices are down.
    assert_eq!(arr.read(0).unwrap(), 0);

    // Clearing the fault proves the missed line was left unlocked, not
    // wedged busy: the very same access now completes.
    flag.store(false, Ordering::Relaxed);
    assert_eq!(arr.read(1_000).unwrap(), 1_000);
    for d in 0..system.config().num_ssds {
        system.set_fault_injector(d, None);
    }
}

/// Exhausting GPU memory or the storage namespace is reported as a typed
/// error, not a panic.
#[test]
fn resource_exhaustion_is_reported_cleanly() {
    let mut cfg = BamConfig::test_scale();
    cfg.ssd_capacity_bytes = 1 << 20;
    let system = BamSystem::new(cfg).unwrap();
    // Namespace exhaustion.
    let err = system.create_array::<u64>(10 << 20).unwrap_err();
    assert!(matches!(err, BamError::OutOfStorageCapacity { .. }));
    // GPU memory exhaustion: a cache bigger than GPU memory.
    let mut cfg = BamConfig::test_scale();
    cfg.cache_bytes = 1 << 30;
    cfg.gpu_memory_bytes = 1 << 20;
    assert!(matches!(
        BamSystem::new(cfg),
        Err(BamError::OutOfDeviceMemory { .. })
    ));
}

/// When every cache slot is pinned by concurrent threads, further misses
/// report thrashing instead of deadlocking, and the system recovers once the
/// pins are released.
#[test]
fn cache_thrashing_reports_and_recovers() {
    let mut cfg = BamConfig::test_scale();
    cfg.cache_bytes = 4 * 512; // four slots
    let system = BamSystem::new(cfg).unwrap();
    let arr = system.create_array::<u64>(4_096).unwrap();
    arr.preload(&(0..4_096u64).collect::<Vec<_>>()).unwrap();
    let exec = GpuExecutor::with_workers(GpuSpec::a100_80gb(), 4);
    // Hammer many distinct lines; with only 4 slots and 4 workers this may
    // transiently thrash but must never hang, and reads that do complete must
    // be correct.
    let errors = AtomicU64::new(0);
    exec.launch(512, |warp| {
        for (_lane, tid) in warp.lanes() {
            match arr.read(tid as u64 * 7 % 4096) {
                Ok(v) => assert_eq!(v, tid as u64 * 7 % 4096),
                Err(BamError::CacheThrashing) => {
                    errors.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
    });
    // Afterwards the cache still works.
    assert_eq!(arr.read(123).unwrap(), 123);
}
