//! Routing by home queue pair: every command an OS thread issues goes to one
//! queue pair of the target device, the one its home index picks.
//!
//! The test is alone in its binary. Home indices come from one process-wide
//! counter, taken at each thread's first command, so no other test's threads
//! can take an index between this test's two.

use std::sync::Arc;

use bam_core::{BamMetrics, BamQueuePair, IoStack};
use bam_mem::{BumpAllocator, ByteRegion};
use bam_nvme_sim::{DataLayout, SsdArray, SsdSpec};

const LINE: u64 = 512;
const LINES: u64 = 256;

#[test]
fn two_threads_each_keep_to_their_own_queue_pair() {
    let region = Arc::new(ByteRegion::new(4 << 20));
    let alloc = BumpAllocator::new(region.len() as u64);
    let array = Arc::new(SsdArray::new(
        SsdSpec::intel_optane_p5800x(),
        1,
        region.clone(),
        LINES * LINE,
        DataLayout::Replicated,
    ));
    for line in 0..LINES {
        array
            .preload(line * LINE, &[line as u8; LINE as usize])
            .unwrap();
    }
    let pairs: Vec<Arc<BamQueuePair>> = array
        .create_queues(&alloc, 4, 32)
        .unwrap()
        .remove(0)
        .into_iter()
        .map(|q| Arc::new(BamQueuePair::new(q)))
        .collect();
    let stack = IoStack::new(
        array.clone(),
        vec![pairs.clone()],
        LINE,
        LINES,
        Arc::new(BamMetrics::new()),
    );

    // Thread `t` reads `reads[t]` lines in one batch, then writes `t + 1` of
    // them back: 6 and 13 commands, so each pair's count names its thread.
    let reads = [5u64, 11];
    let commands: Vec<u64> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2u64)
            .map(|t| {
                let (stack, alloc, region) = (&stack, &alloc, &region);
                let count = reads[t as usize];
                s.spawn(move || {
                    let first = t * 100;
                    let requests: Vec<(u64, u64)> = (first..first + count)
                        .map(|line| (line, alloc.alloc(LINE, LINE).unwrap()))
                        .collect();
                    let mut outcomes: Vec<_> = requests.iter().map(|_| Ok(())).collect();
                    stack.read_lines(&requests, &mut outcomes);
                    assert!(outcomes.iter().all(Result::is_ok), "{outcomes:?}");
                    for &(line, dst) in &requests {
                        let mut out = [0u8; LINE as usize];
                        region.read_bytes(dst, &mut out);
                        assert!(out.iter().all(|&b| b == line as u8), "line {line}");
                    }
                    for &(line, src) in &requests[..=t as usize] {
                        stack.write_line(line, src).unwrap();
                    }
                    count + t + 1
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert_eq!(commands, [6, 13]);

    let mut busy: Vec<u64> = pairs
        .iter()
        .map(|q| q.submissions())
        .filter(|&n| n > 0)
        .collect();
    busy.sort_unstable();
    assert_eq!(busy, commands, "two threads, two queue pairs");
    assert_eq!(stack.total_submissions(), 6 + 13);
}
