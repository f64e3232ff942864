//! Differential tests of the element readers: on one thread,
//! `BamArray::read_runs_warp` must be indistinguishable from one
//! `BamArray::read_run` per lane, and `BamArray::read_run` of one element
//! from `BamArray::read` — same data, same counters, same storage command
//! stream, same journal — because single-worker functional counters are a
//! behavioural pin (the `BENCH_*.json` trajectories are built on them).

use std::sync::Arc;

use proptest::prelude::*;

use bam::core::{BamArray, BamConfig, BamSystem};
use bam::gpu::exec::WarpCtx;
use bam::gpu::warp::WARP_SIZE;
use bam::sim::TraceRecorder;

/// Elements of the array: 128 lines of 128 `u32`s.
const LEN: u64 = 16 * 1024;

struct Twin {
    sys: BamSystem,
    arr: BamArray<u32>,
    trace: Arc<TraceRecorder>,
}

fn twin(cache_slots: u64) -> Twin {
    let sys = BamSystem::new(BamConfig {
        cache_bytes: cache_slots * 512,
        ..BamConfig::test_scale()
    })
    .unwrap();
    let arr = sys.create_array::<u32>(LEN).unwrap();
    arr.preload(&(0..LEN as u32).collect::<Vec<_>>()).unwrap();
    let trace = Arc::new(TraceRecorder::new());
    sys.set_sim_hook(Some(trace.clone()));
    Twin { sys, arr, trace }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn warp_reader_is_indistinguishable_from_per_lane_read_run(
        cache_slots in 4u64..48,
        writes in prop::collection::vec(0u64..LEN, 0..40),
        warps in prop::collection::vec(
            prop::collection::vec((0u64..LEN, 0u64..300), WARP_SIZE),
            1..4,
        ),
        active in any::<u32>(),
    ) {
        let (serial, batched) = (twin(cache_slots), twin(cache_slots));
        // Dirty some lines first, so that victims need journalled
        // write-backs in the middle of a batch.
        for t in [&serial, &batched] {
            for &i in &writes {
                t.arr.write(i, !(i as u32)).unwrap();
            }
        }
        let warp = WarpCtx { warp_id: 0, base_thread: 0, active };
        for lanes in &warps {
            let mut runs = [None; WARP_SIZE];
            for (run, &(start, count)) in runs.iter_mut().zip(lanes) {
                *run = Some((start, count.min(LEN - start)));
            }
            let mut want = Vec::new();
            for (lane, _) in warp.lanes() {
                let (start, count) = runs[lane].unwrap();
                if count > 0 {
                    want.push((lane, serial.arr.read_run(start, count).unwrap()));
                }
            }
            let mut got = Vec::new();
            batched
                .arr
                .read_runs_warp(&warp, &runs, |lane, values| got.push((lane, values.to_vec())))
                .unwrap();
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(batched.sys.metrics(), serial.sys.metrics());
        }
        prop_assert_eq!(batched.trace.take_trace(), serial.trace.take_trace());
        prop_assert_eq!(
            batched.sys.journal().unwrap().snapshot(),
            serial.sys.journal().unwrap().snapshot()
        );
        prop_assert_eq!(batched.sys.total_submissions(), serial.sys.total_submissions());
        prop_assert!(batched.sys.total_doorbell_writes() <= serial.sys.total_doorbell_writes());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// The guard path (`read` → `BamCache::acquire`) and the visitor path
    /// (`read_run` → `BamCache::acquire_each`) fill a missed line through the
    /// same steps, so one element read either way is the same access.
    #[test]
    fn element_reader_is_indistinguishable_from_one_element_read_run(
        cache_slots in 4u64..48,
        ops in prop::collection::vec((any::<bool>(), 0u64..LEN), 1..300),
    ) {
        let (element, run) = (twin(cache_slots), twin(cache_slots));
        for &(write, i) in &ops {
            if write {
                element.arr.write(i, !(i as u32)).unwrap();
                run.arr.write(i, !(i as u32)).unwrap();
            } else {
                prop_assert_eq!(vec![element.arr.read(i).unwrap()], run.arr.read_run(i, 1).unwrap());
            }
            prop_assert_eq!(element.sys.metrics(), run.sys.metrics());
        }
        prop_assert_eq!(element.trace.take_trace(), run.trace.take_trace());
        prop_assert_eq!(
            element.sys.journal().unwrap().snapshot(),
            run.sys.journal().unwrap().snapshot()
        );
        prop_assert_eq!(element.sys.total_submissions(), run.sys.total_submissions());
        prop_assert_eq!(element.sys.total_doorbell_writes(), run.sys.total_doorbell_writes());
    }
}
