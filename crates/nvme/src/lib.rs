//! # bam-nvme-sim — NVMe SSD simulator
//!
//! The BaM prototype talks to off-the-shelf NVMe SSDs whose submission and
//! completion queues, I/O buffers, and doorbell registers have been mapped
//! into GPU memory (paper §4.1). This crate reproduces that device side in
//! software:
//!
//! * [`spec::SsdSpec`] — the performance/cost envelopes of the three SSD
//!   technologies in Table 2 (Intel Optane P5800X, Samsung PM1735,
//!   Samsung 980pro) plus a DRAM DIMM pseudo-device for cost comparison.
//! * [`queue::QueuePair`] — NVMe submission/completion rings with standard
//!   64-byte / 16-byte entries and phase bits, laid out in a shared
//!   [`bam_mem::ByteRegion`] exactly as the prototype lays them out in GPU
//!   memory.
//! * [`doorbell::Doorbell`] — write-only tail/head doorbell registers.
//! * [`block::BlockStore`] — the SSD media: a sparse, thread-safe block
//!   store of lazily created extents, read without a lock.
//! * [`controller::NvmeController`] / [`device::SsdDevice`] — the SSD
//!   controller, run on the thread that waits on a queue pair rather than
//!   on a thread of its own: fetches submission entries when a doorbell is
//!   rung, moves data between the media and GPU memory (peer-to-peer DMA in
//!   the prototype), and posts completion entries carrying the new SQ head —
//!   the exact mechanism BaM's queue protocol relies on (§3.3).
//! * [`array::SsdArray`] — multi-SSD aggregation with the replication and
//!   striping layouts used in the evaluation.
//! * [`hook::SimHook`] — the one tap on the I/O stream: the GPU-side I/O
//!   stack reports each command it completes through it, and `bam-sim`
//!   captures that stream for event-driven latency simulation. The
//!   controllers emit nothing; their device-side counts are a
//!   [`stats::StatsSnapshot`] per queue pair, summed by
//!   [`NvmeController::stats`].
//!
//! The controller is *functionally* accurate (real data movement, real
//! queue-protocol interactions); performance is modelled analytically by
//! `bam-timing` using the [`spec::SsdSpec`] envelopes, as described in
//! DESIGN.md.

pub mod array;
pub mod block;
pub mod command;
pub mod controller;
pub mod device;
pub mod doorbell;
pub mod error;
pub mod hook;
pub mod queue;
pub mod spec;
pub mod stats;

pub use array::{DataLayout, SsdArray};
pub use block::BlockStore;
pub use command::{NvmeCommand, NvmeCompletion, NvmeOpcode, NvmeStatus};
pub use controller::{FaultInjector, NvmeController};
pub use device::SsdDevice;
pub use doorbell::Doorbell;
pub use error::NvmeError;
pub use hook::{IoEvent, SimHook};
pub use queue::{QueueId, QueuePair};
pub use spec::{SsdSpec, SsdTechnology};
pub use stats::StatsSnapshot;

/// Logical block address on an SSD.
pub type Lba = u64;

/// Default logical block size used throughout the reproduction (bytes).
///
/// The paper's microbenchmarks use 512 B blocks; cache lines are multiples of
/// this.
pub const BLOCK_SIZE: usize = 512;
