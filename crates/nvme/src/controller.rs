//! The simulated NVMe controller.
//!
//! The controller implements the device half of the protocol in Figure 2 of
//! the paper: on observing a doorbell update (Ⓐ) it reads new SQ entries from
//! GPU memory (Ⓑ), processes each command against the media (Ⓒ), DMA-writes
//! read data into the GPU I/O buffer (Ⓓ), and finally writes a completion
//! entry — carrying the new SQ head — into the CQ in GPU memory (Ⓔ).
//!
//! No thread of its own runs this firmware: the thread waiting on a queue
//! pair for a completion runs it on that pair ([`QueuePair::service`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use bam_mem::ByteRegion;

use crate::block::BlockStore;
use crate::command::{NvmeCommand, NvmeCompletion, NvmeOpcode, NvmeStatus};
use crate::queue::QueuePair;
use crate::stats::StatsSnapshot;

/// A hook that lets tests and failure-injection benches force command
/// failures. Returning `Some(status)` makes the command complete with that
/// status without touching the media.
pub type FaultInjector = dyn Fn(&NvmeCommand) -> Option<NvmeStatus> + Send + Sync;

/// Device-side state of one queue pair. It lives in the [`QueuePair`],
/// beside the rings it describes, under the pair's device lock.
#[derive(Debug, Default)]
pub(crate) struct DeviceQueueState {
    /// What the controller did on this pair. The thread servicing the pair
    /// holds its lock, so each count is a plain add;
    /// [`NvmeController::stats`] sums them over the pairs.
    pub(crate) counts: StatsSnapshot,
    /// Next SQ slot the controller will consume.
    sq_head: u32,
    /// Next CQ slot the controller will fill.
    cq_tail: u32,
    /// Current CQ phase; flips on every CQ wrap.
    phase: bool,
    /// Last SQ tail doorbell value observed (to count doorbell observations).
    last_seen_tail: u32,
}

/// The part of a controller that executes commands: media, DMA region and
/// fault injector. It holds no queues, so each queue pair it serves can hold
/// it without a reference cycle.
pub(crate) struct Firmware {
    store: Arc<BlockStore>,
    region: Arc<ByteRegion>,
    fault_injector: RwLock<Option<Arc<FaultInjector>>>,
    /// Fast-path flag mirroring `fault_injector.is_some()`: with no injector
    /// installed (the default) a command pays one atomic load, not a read
    /// of the lock every queue pair of the device shares. Stored (Release)
    /// after the slot is written, loaded (Acquire) before it is read.
    fault_injector_installed: AtomicBool,
}

impl std::fmt::Debug for Firmware {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Firmware")
            .field("store", &self.store)
            .finish()
    }
}

impl Firmware {
    fn execute(&self, cmd: &NvmeCommand, counts: &mut StatsSnapshot) -> NvmeStatus {
        if self.fault_injector_installed.load(Ordering::Acquire) {
            if let Some(injector) = self.fault_injector.read().as_ref() {
                if let Some(status) = injector(cmd) {
                    counts.failed_commands += 1;
                    return status;
                }
            }
        }
        // Data moves word to word between the media's extents and GPU
        // memory, with no staging copy.
        let nlb = u64::from(cmd.nlb);
        let outcome = match cmd.opcode {
            // DMA write into GPU memory (Figure 2, step Ⓓ).
            NvmeOpcode::Read => self
                .store
                .read_into(cmd.slba, nlb, &self.region, cmd.dptr)
                .map(|()| {
                    counts.read_commands += 1;
                    counts.blocks_read += nlb;
                }),
            // DMA read from GPU memory.
            NvmeOpcode::Write => self
                .store
                .write_from(cmd.slba, nlb, &self.region, cmd.dptr)
                .map(|()| {
                    counts.write_commands += 1;
                    counts.blocks_written += nlb;
                }),
            NvmeOpcode::Flush => {
                counts.flush_commands += 1;
                Ok(())
            }
        };
        match outcome {
            Ok(()) => NvmeStatus::Success,
            Err(_) => {
                counts.failed_commands += 1;
                NvmeStatus::LbaOutOfRange
            }
        }
    }

    /// Services one queue pair: consumes every command between the internal
    /// SQ head and the doorbell tail, posting completions. Returns the number
    /// of commands processed. The caller holds the pair's device lock.
    ///
    /// Completion posting respects CQ flow control: if the CQ is full (the
    /// host has not advanced the CQ head doorbell), processing stops until
    /// space is available.
    pub(crate) fn service_queue(&self, qp: &QueuePair, st: &mut DeviceQueueState) -> usize {
        let tail = qp.sq_tail();
        if tail != st.last_seen_tail {
            st.last_seen_tail = tail;
            st.counts.doorbell_observations += 1;
        }
        if st.sq_head == tail {
            return 0;
        }
        let entries = qp.entries;
        let mut processed = 0usize;
        while st.sq_head != tail {
            // CQ flow control: leave one slot free, as NVMe requires.
            let next_cq_tail = (st.cq_tail + 1) % entries;
            if next_cq_tail == qp.cq_head() {
                break;
            }
            let slot = st.sq_head;
            let Some(cmd) = qp.read_sq_entry(slot) else {
                // The submitter rang the doorbell before the entry landed;
                // retry later without advancing.
                break;
            };
            let status = self.execute(&cmd, &mut st.counts);
            st.sq_head = (st.sq_head + 1) % entries;
            // Publish the DMA'd data before the completion entry becomes
            // visible. The paper discusses exactly this ordering hazard for
            // GPUDirect RDMA writes (§4.4); the simulated interconnect
            // resolves it with a release fence paired with an acquire fence
            // in the polling thread, so BaM's "second I/O request"
            // workaround is unnecessary here.
            std::sync::atomic::fence(std::sync::atomic::Ordering::Release);
            let completion = NvmeCompletion {
                cid: cmd.cid,
                status,
                sq_head: st.sq_head as u16,
                phase: !st.phase, // the *new* entry carries the inverted phase of the previous lap
            };
            qp.write_cq_entry(st.cq_tail, &completion);
            st.counts.completions_posted += 1;
            st.cq_tail += 1;
            if st.cq_tail == entries {
                st.cq_tail = 0;
                st.phase = !st.phase;
            }
            processed += 1;
        }
        processed
    }
}

/// The controller: owns the media and the registered queue pairs, and moves
/// data to and from the shared (GPU) memory region on behalf of whichever
/// thread services a pair.
pub struct NvmeController {
    firmware: Arc<Firmware>,
    queues: RwLock<Vec<Arc<QueuePair>>>,
}

impl std::fmt::Debug for NvmeController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NvmeController")
            .field("queues", &self.queues.read().len())
            .field("store", &self.firmware.store)
            .finish()
    }
}

impl NvmeController {
    /// Creates a controller serving `store`, performing DMA against `region`.
    pub fn new(store: Arc<BlockStore>, region: Arc<ByteRegion>) -> Self {
        Self {
            firmware: Arc::new(Firmware {
                store,
                region,
                fault_injector: RwLock::new(None),
                fault_injector_installed: AtomicBool::new(false),
            }),
            queues: RwLock::new(Vec::new()),
        }
    }

    /// The media served by this controller.
    pub fn store(&self) -> &Arc<BlockStore> {
        &self.firmware.store
    }

    /// The DMA-visible region this controller reads from and writes to (the
    /// simulated GPU memory).
    pub fn dma_region(&self) -> Arc<ByteRegion> {
        self.firmware.region.clone()
    }

    /// What the controller has done so far: the sum of the counts kept by
    /// each registered queue pair. Takes each pair's device lock in turn.
    pub fn stats(&self) -> StatsSnapshot {
        self.queues.read().iter().map(|qp| qp.device_counts()).sum()
    }

    /// Installs (or clears) a fault injector.
    pub fn set_fault_injector(&self, injector: Option<Arc<FaultInjector>>) {
        let installed = injector.is_some();
        *self.firmware.fault_injector.write() = injector;
        self.firmware
            .fault_injector_installed
            .store(installed, Ordering::Release);
    }

    /// Registers a queue pair with the controller. From then on
    /// [`QueuePair::service`] runs this controller on it.
    ///
    /// # Panics
    ///
    /// Panics if `qp` is already registered with a controller.
    pub fn register_queue(&self, qp: Arc<QueuePair>) {
        qp.attach(self.firmware.clone());
        self.queues.write().push(qp);
    }

    /// Number of registered queue pairs.
    pub fn num_queues(&self) -> usize {
        self.queues.read().len()
    }

    /// Services every registered queue once ([`QueuePair::service`]), for
    /// raw rings driven by hand. Returns the number of commands processed.
    pub fn process_once(&self) -> usize {
        self.queues.read().iter().map(|qp| qp.service()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::QueueId;
    use bam_mem::BumpAllocator;

    struct Harness {
        region: Arc<ByteRegion>,
        alloc: BumpAllocator,
        ctrl: NvmeController,
        qp: Arc<QueuePair>,
    }

    fn harness(entries: u32) -> Harness {
        let region = Arc::new(ByteRegion::new(4 << 20));
        let alloc = BumpAllocator::new(region.len() as u64);
        let store = Arc::new(BlockStore::new(512, 1 << 16));
        let ctrl = NvmeController::new(store, region.clone());
        let qp = Arc::new(
            QueuePair::allocate(region.clone(), &alloc, QueueId(1), entries, 1024).unwrap(),
        );
        ctrl.register_queue(qp.clone());
        Harness {
            region,
            alloc,
            ctrl,
            qp,
        }
    }

    /// Submits a command the "raw" way (no BaM protocol): write entry, ring
    /// doorbell, process, read completion at the expected CQ slot.
    fn submit_sync(h: &Harness, slot: u32, tail_after: u32, cmd: NvmeCommand) -> NvmeCompletion {
        h.qp.write_sq_entry(slot, &cmd);
        h.qp.ring_sq_tail(tail_after);
        assert!(h.ctrl.process_once() >= 1);
        h.qp.read_cq_entry(slot)
    }

    #[test]
    fn read_command_moves_data_from_media_to_region() {
        let h = harness(16);
        // Put a recognizable pattern on the media.
        h.ctrl.store().write_blocks(100, &[0x5Au8; 1024]).unwrap();
        let dst = h.alloc.alloc(1024, 512).unwrap();
        let completion = submit_sync(&h, 0, 1, NvmeCommand::read(42, 100, 2, dst));
        assert_eq!(completion.cid, 42);
        assert!(completion.status.is_success());
        assert!(completion.phase, "first lap posts phase=true");
        assert_eq!(completion.sq_head, 1);
        let mut out = vec![0u8; 1024];
        h.region.read_bytes(dst, &mut out);
        assert!(out.iter().all(|&b| b == 0x5A));
    }

    #[test]
    fn write_command_moves_data_from_region_to_media() {
        let h = harness(16);
        let src = h.alloc.alloc(512, 512).unwrap();
        h.region.write_bytes(src, &[0xC3u8; 512]);
        let completion = submit_sync(&h, 0, 1, NvmeCommand::write(7, 55, 1, src));
        assert!(completion.status.is_success());
        let mut media = vec![0u8; 512];
        h.ctrl.store().read_blocks(55, &mut media).unwrap();
        assert!(media.iter().all(|&b| b == 0xC3));
    }

    #[test]
    fn out_of_range_read_fails_cleanly() {
        let h = harness(16);
        let dst = h.alloc.alloc(512, 512).unwrap();
        let completion = submit_sync(&h, 0, 1, NvmeCommand::read(9, u64::MAX - 10, 1, dst));
        assert_eq!(completion.status, NvmeStatus::LbaOutOfRange);
        assert_eq!(h.ctrl.stats().failed_commands, 1);
    }

    #[test]
    fn phase_bit_flips_after_wrap() {
        let h = harness(4);
        let dst = h.alloc.alloc(512, 512).unwrap();
        // Submit 6 commands one at a time through a 4-entry queue, advancing
        // the CQ head as we consume completions.
        let mut phase_seen = Vec::new();
        for i in 0..6u32 {
            let slot = i % 4;
            let tail = (i + 1) % 4;
            h.qp.write_sq_entry(slot, &NvmeCommand::read(i as u16, 0, 1, dst));
            h.qp.ring_sq_tail(tail);
            assert_eq!(h.ctrl.process_once(), 1);
            let c = h.qp.read_cq_entry(slot);
            assert_eq!(c.cid, i as u16);
            phase_seen.push(c.phase);
            // Consume: advance CQ head doorbell past this entry.
            h.qp.ring_cq_head((slot + 1) % 4);
        }
        // First lap (slots 0..3) posts phase=true, second lap flips to false.
        assert_eq!(phase_seen, vec![true, true, true, true, false, false]);
    }

    #[test]
    fn cq_flow_control_stalls_when_host_does_not_consume() {
        let h = harness(4);
        let dst = h.alloc.alloc(512, 512).unwrap();
        // Fill the SQ with 3 commands (max for a 4-entry ring) and never move
        // the CQ head. The controller may post at most entries-1 = 3
        // completions... but flow control requires a free slot, so only 3 fit
        // if head==0: slots 0,1,2 (tail would become 3, next would collide).
        for i in 0..3u32 {
            h.qp.write_sq_entry(i, &NvmeCommand::read(i as u16, 0, 1, dst));
        }
        h.qp.ring_sq_tail(3);
        let processed = h.ctrl.process_once();
        assert_eq!(processed, 3);
        // Submit one more; CQ is now full (tail=3, head=0 → next==head).
        h.qp.write_sq_entry(3, &NvmeCommand::read(99, 0, 1, dst));
        h.qp.ring_sq_tail(0);
        assert_eq!(h.ctrl.process_once(), 0, "controller must stall on full CQ");
        // Consuming completions unblocks it.
        h.qp.ring_cq_head(2);
        assert_eq!(h.ctrl.process_once(), 1);
    }

    #[test]
    fn fault_injection_fails_matching_commands() {
        let h = harness(16);
        h.ctrl
            .set_fault_injector(Some(Arc::new(|cmd: &NvmeCommand| {
                (cmd.cid % 2 == 1).then_some(NvmeStatus::InternalError)
            })));
        let dst = h.alloc.alloc(512, 512).unwrap();
        let c0 = submit_sync(&h, 0, 1, NvmeCommand::read(0, 0, 1, dst));
        let c1 = submit_sync(&h, 1, 2, NvmeCommand::read(1, 0, 1, dst));
        assert!(c0.status.is_success());
        assert_eq!(c1.status, NvmeStatus::InternalError);
        h.ctrl.set_fault_injector(None);
        let c2 = submit_sync(&h, 2, 3, NvmeCommand::read(3, 0, 1, dst));
        assert!(c2.status.is_success());
    }

    #[test]
    fn flush_completes_without_data_movement() {
        let h = harness(8);
        let c = submit_sync(&h, 0, 1, NvmeCommand::flush(5));
        assert!(c.status.is_success());
        let snap = h.ctrl.stats();
        assert_eq!(snap.flush_commands, 1);
        assert_eq!(snap.blocks_read, 0);
    }

    #[test]
    fn stats_sum_the_counts_of_pairs_serviced_by_different_threads() {
        const ENTRIES: u32 = 8;
        const COMMANDS: u32 = 41;
        let h = harness(ENTRIES);
        let qp2 = Arc::new(
            QueuePair::allocate(h.region.clone(), &h.alloc, QueueId(2), ENTRIES, 1024).unwrap(),
        );
        h.ctrl.register_queue(qp2.clone());
        let drive = |qp: &QueuePair, dst: u64| {
            for i in 0..COMMANDS {
                let slot = i % ENTRIES;
                let lba = u64::from(i);
                let cmd = match i % 4 {
                    0 => NvmeCommand::read(i as u16, lba, 2, dst),
                    1 => NvmeCommand::write(i as u16, lba, 1, dst),
                    2 => NvmeCommand::flush(i as u16),
                    _ => NvmeCommand::read(i as u16, u64::MAX - 1, 1, dst),
                };
                qp.write_sq_entry(slot, &cmd);
                qp.ring_sq_tail((slot + 1) % ENTRIES);
                while qp.service() == 0 {
                    std::thread::yield_now();
                }
                assert_eq!(qp.read_cq_entry(slot).cid, i as u16);
                qp.ring_cq_head((slot + 1) % ENTRIES);
            }
        };
        let dsts = [
            h.alloc.alloc(1024, 512).unwrap(),
            h.alloc.alloc(1024, 512).unwrap(),
        ];
        std::thread::scope(|s| {
            s.spawn(|| drive(&h.qp, dsts[0]));
            s.spawn(|| drive(&qp2, dsts[1]));
        });
        let pairs = [h.qp.device_counts(), qp2.device_counts()];
        let snap = h.ctrl.stats();
        assert_eq!(snap, pairs.into_iter().sum());
        for (i, pair) in pairs.iter().enumerate() {
            assert_eq!(
                (pair.read_commands, pair.write_commands, pair.flush_commands),
                (11, 10, 10),
                "pair {i}"
            );
            assert_eq!(pair.failed_commands, 10, "pair {i}");
            assert_eq!((pair.blocks_read, pair.blocks_written), (22, 10));
            assert_eq!(pair.doorbell_observations, u64::from(COMMANDS));
        }
        assert_eq!(
            snap.completions_posted,
            snap.read_commands + snap.write_commands + snap.flush_commands + snap.failed_commands
        );
        assert_eq!(snap.completions_posted, 2 * u64::from(COMMANDS));
    }

    #[test]
    fn doorbell_observations_counted() {
        let h = harness(8);
        let dst = h.alloc.alloc(512, 512).unwrap();
        submit_sync(&h, 0, 1, NvmeCommand::read(0, 0, 1, dst));
        submit_sync(&h, 1, 2, NvmeCommand::read(1, 0, 1, dst));
        assert_eq!(h.ctrl.stats().doorbell_observations, 2);
    }
}
