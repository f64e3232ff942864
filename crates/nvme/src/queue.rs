//! NVMe submission/completion queue pairs laid out in a shared memory region.
//!
//! In the BaM prototype the rings live in GPU memory (pinned and mapped for
//! the SSD with GPUDirect RDMA) and the doorbells live in the SSD BAR mapped
//! into the GPU address space (§4.1). Here both sides — GPU threads and the
//! simulated controller — address the same [`ByteRegion`] and the same
//! [`Doorbell`] objects, and the controller side runs on whichever GPU
//! thread waits on the pair ([`QueuePair::service`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use bam_mem::{BumpAllocator, ByteRegion, DevAddr};

use crate::command::{NvmeCommand, NvmeCompletion, CQ_ENTRY_BYTES, SQ_ENTRY_BYTES};
use crate::controller::{DeviceQueueState, Firmware};
use crate::doorbell::Doorbell;
use crate::error::NvmeError;
use crate::stats::StatsSnapshot;

/// Identifier of a queue pair on one controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueueId(pub u16);

/// An NVMe I/O queue pair: a submission ring, a completion ring, their
/// tail/head doorbells, and the controller's side of the pair (its ring
/// state and, once registered, the firmware [`QueuePair::service`] runs).
///
/// The host-side accessors perform no synchronization. The BaM queue
/// protocol (`bam-core`) layers the ticket/turn/mark machinery on top of
/// them, and the controller uses the device-side accessors.
#[derive(Debug)]
pub struct QueuePair {
    /// Queue id on its controller.
    pub id: QueueId,
    /// Number of entries in each ring.
    pub entries: u32,
    region: Arc<ByteRegion>,
    sq_base: DevAddr,
    cq_base: DevAddr,
    sq_tail_doorbell: Doorbell,
    cq_head_doorbell: Doorbell,
    /// MMIO writes made to the SQ tail doorbell.
    sq_doorbell_writes: AtomicU64,
    /// Firmware of the controller this pair is registered with.
    firmware: OnceLock<Arc<Firmware>>,
    /// The controller's SQ head, CQ tail and phase for this pair.
    device: Mutex<DeviceQueueState>,
}

impl QueuePair {
    /// Allocates a queue pair's rings out of `region` using `alloc`.
    ///
    /// # Errors
    ///
    /// Returns [`NvmeError::InvalidQueueSize`] if `entries` is zero or larger
    /// than `max_entries`, or an allocation failure mapped to the same error
    /// if the region is exhausted.
    pub fn allocate(
        region: Arc<ByteRegion>,
        alloc: &BumpAllocator,
        id: QueueId,
        entries: u32,
        max_entries: u32,
    ) -> Result<Self, NvmeError> {
        if entries == 0 || entries > max_entries {
            return Err(NvmeError::InvalidQueueSize {
                requested: entries,
                max: max_entries,
            });
        }
        let sq_bytes = entries as u64 * SQ_ENTRY_BYTES as u64;
        let cq_bytes = entries as u64 * CQ_ENTRY_BYTES as u64;
        let sq_base = alloc
            .alloc(sq_bytes, 64)
            .map_err(|_| NvmeError::InvalidQueueSize {
                requested: entries,
                max: max_entries,
            })?;
        let cq_base = alloc
            .alloc(cq_bytes, 64)
            .map_err(|_| NvmeError::InvalidQueueSize {
                requested: entries,
                max: max_entries,
            })?;
        // Zero both rings so that phase-bit polling starts from a known state.
        region.fill(sq_base, sq_bytes as usize, 0);
        region.fill(cq_base, cq_bytes as usize, 0);
        Ok(Self {
            id,
            entries,
            region,
            sq_base,
            cq_base,
            sq_tail_doorbell: Doorbell::new(),
            cq_head_doorbell: Doorbell::new(),
            sq_doorbell_writes: AtomicU64::new(0),
            firmware: OnceLock::new(),
            device: Mutex::new(DeviceQueueState::default()),
        })
    }

    /// The shared region the rings live in.
    pub fn region(&self) -> &Arc<ByteRegion> {
        &self.region
    }

    // ---- host/GPU side ----

    /// Writes a command into submission slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= entries`.
    pub fn write_sq_entry(&self, slot: u32, cmd: &NvmeCommand) {
        assert!(slot < self.entries, "sq slot {slot} out of range");
        let addr = self.sq_base + u64::from(slot) * SQ_ENTRY_BYTES as u64;
        self.region.write_bytes(addr, &cmd.encode());
    }

    /// Reads the completion entry in slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= entries`.
    pub fn read_cq_entry(&self, slot: u32) -> NvmeCompletion {
        assert!(slot < self.entries, "cq slot {slot} out of range");
        let addr = self.cq_base + u64::from(slot) * CQ_ENTRY_BYTES as u64;
        let mut buf = [0u8; CQ_ENTRY_BYTES];
        self.region.read_bytes(addr, &mut buf);
        NvmeCompletion::decode(&buf)
    }

    /// Rings the submission-queue tail doorbell with the new tail index.
    pub fn ring_sq_tail(&self, tail: u32) {
        self.sq_tail_doorbell.ring(tail);
        self.sq_doorbell_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Rings the completion-queue head doorbell with the new head index.
    pub fn ring_cq_head(&self, head: u32) {
        self.cq_head_doorbell.ring(head);
    }

    /// Number of MMIO writes made to the SQ tail doorbell (a cost metric).
    pub fn sq_doorbell_writes(&self) -> u64 {
        self.sq_doorbell_writes.load(Ordering::Relaxed)
    }

    // ---- device (controller) side ----

    /// Runs the controller on this pair and returns how many commands it
    /// completed: 0 also when no controller has registered the pair or
    /// another thread is servicing it right now (the caller polls again).
    pub fn service(&self) -> usize {
        match (self.firmware.get(), self.device.try_lock()) {
            (Some(firmware), Some(mut state)) => firmware.service_queue(self, &mut state),
            _ => 0,
        }
    }

    /// The controller's counts on this pair (waits for its device lock).
    pub(crate) fn device_counts(&self) -> StatsSnapshot {
        self.device.lock().counts
    }

    /// Hands the pair to the firmware of the controller registering it.
    pub(crate) fn attach(&self, firmware: Arc<Firmware>) {
        let fresh = self.firmware.set(firmware).is_ok();
        assert!(fresh, "queue pair {} is already registered", self.id.0);
    }

    /// Reads the submission entry in slot `slot` (controller side).
    ///
    /// Returns `None` if the slot has never been written with a valid
    /// command.
    pub fn read_sq_entry(&self, slot: u32) -> Option<NvmeCommand> {
        assert!(slot < self.entries, "sq slot {slot} out of range");
        let addr = self.sq_base + u64::from(slot) * SQ_ENTRY_BYTES as u64;
        let mut buf = [0u8; SQ_ENTRY_BYTES];
        self.region.read_bytes(addr, &mut buf);
        NvmeCommand::decode(&buf)
    }

    /// Writes a completion entry into slot `slot` (controller side).
    pub fn write_cq_entry(&self, slot: u32, completion: &NvmeCompletion) {
        assert!(slot < self.entries, "cq slot {slot} out of range");
        let addr = self.cq_base + u64::from(slot) * CQ_ENTRY_BYTES as u64;
        self.region.write_bytes(addr, &completion.encode());
    }

    /// Controller-side read of the SQ tail doorbell.
    pub fn sq_tail(&self) -> u32 {
        self.sq_tail_doorbell.read()
    }

    /// Controller-side read of the CQ head doorbell.
    pub fn cq_head(&self) -> u32 {
        self.cq_head_doorbell.read()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::NvmeOpcode;

    fn mk_pair(entries: u32) -> QueuePair {
        let region = Arc::new(ByteRegion::new(1 << 20));
        let alloc = BumpAllocator::new(region.len() as u64);
        QueuePair::allocate(region, &alloc, QueueId(1), entries, 1024).unwrap()
    }

    #[test]
    fn sq_entry_roundtrip_through_region() {
        let qp = mk_pair(64);
        let cmd = NvmeCommand::read(7, 1234, 8, 0x8000);
        qp.write_sq_entry(63, &cmd);
        assert_eq!(qp.read_sq_entry(63), Some(cmd));
        assert_eq!(qp.read_sq_entry(0), None, "unwritten slots decode to None");
    }

    #[test]
    fn cq_entry_roundtrip_through_region() {
        let qp = mk_pair(16);
        let c = NvmeCompletion {
            cid: 3,
            status: crate::command::NvmeStatus::Success,
            sq_head: 12,
            phase: true,
        };
        qp.write_cq_entry(5, &c);
        assert_eq!(qp.read_cq_entry(5), c);
        // Fresh entries decode with phase = false.
        assert!(!qp.read_cq_entry(0).phase);
    }

    #[test]
    fn doorbells_start_at_zero_and_count_writes() {
        let qp = mk_pair(16);
        assert_eq!(qp.sq_tail(), 0);
        assert_eq!(qp.cq_head(), 0);
        qp.ring_sq_tail(5);
        qp.ring_sq_tail(9);
        qp.ring_cq_head(2);
        assert_eq!(qp.sq_tail(), 9);
        assert_eq!(qp.cq_head(), 2);
        assert_eq!(qp.sq_doorbell_writes(), 2);
    }

    #[test]
    fn concurrent_sq_rings_are_each_counted() {
        let qp = mk_pair(16);
        std::thread::scope(|s| {
            for t in 1..=8u32 {
                let qp = &qp;
                s.spawn(move || qp.ring_sq_tail(t));
            }
        });
        assert!((1..=8).contains(&qp.sq_tail()));
        assert_eq!(qp.sq_doorbell_writes(), 8);
    }

    #[test]
    fn oversized_queue_rejected() {
        let region = Arc::new(ByteRegion::new(1 << 20));
        let alloc = BumpAllocator::new(region.len() as u64);
        let err = QueuePair::allocate(region, &alloc, QueueId(0), 2048, 1024).unwrap_err();
        assert!(matches!(
            err,
            NvmeError::InvalidQueueSize {
                requested: 2048,
                max: 1024
            }
        ));
    }

    #[test]
    fn distinct_queues_do_not_alias() {
        let region = Arc::new(ByteRegion::new(1 << 20));
        let alloc = BumpAllocator::new(region.len() as u64);
        let q1 = QueuePair::allocate(region.clone(), &alloc, QueueId(1), 32, 1024).unwrap();
        let q2 = QueuePair::allocate(region, &alloc, QueueId(2), 32, 1024).unwrap();
        let cmd = NvmeCommand {
            opcode: NvmeOpcode::Write,
            cid: 1,
            slba: 9,
            nlb: 1,
            dptr: 0,
        };
        q1.write_sq_entry(0, &cmd);
        assert_eq!(q2.read_sq_entry(0), None);
    }

    #[test]
    fn service_runs_the_registered_controller_unless_another_thread_is() {
        let region = Arc::new(ByteRegion::new(1 << 20));
        let alloc = BumpAllocator::new(region.len() as u64);
        let qp =
            Arc::new(QueuePair::allocate(region.clone(), &alloc, QueueId(1), 8, 1024).unwrap());
        let dst = alloc.alloc(512, 512).unwrap();
        qp.write_sq_entry(0, &NvmeCommand::read(0, 3, 1, dst));
        qp.ring_sq_tail(1);
        assert_eq!(qp.service(), 0, "no controller registered yet");
        let ctrl = crate::NvmeController::new(Arc::new(crate::BlockStore::new(512, 64)), region);
        ctrl.register_queue(qp.clone());
        let busy = qp.device.lock();
        assert_eq!(qp.service(), 0, "another thread holds the device state");
        drop(busy);
        assert_eq!(qp.service(), 1);
        assert!(qp.read_cq_entry(0).phase);
    }
}
