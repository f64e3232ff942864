//! # bam-core — the BaM system architecture (paper contribution)
//!
//! This crate implements the core of *GPU-Initiated On-Demand
//! High-Throughput Storage Access in the BaM System Architecture*
//! (ASPLOS 2023) on top of the simulated substrates in the companion crates:
//!
//! * [`queue::BamQueuePair`] — the high-throughput submission/completion
//!   queue protocol (§3.3): atomic ticket counter, per-entry `turn_counter`,
//!   mark bit-vectors, and coalesced doorbell updates, so thousands of GPU
//!   threads can submit NVMe commands without a serializing critical section.
//! * [`cache::BamCache`] — the software cache (§3.4): pre-allocated slots,
//!   per-line state words manipulated with single atomics, clock
//!   replacement, reference-count pinning, dirty tracking and write-back.
//! * [`array::BamArray`] — the `bam::array<T>` abstraction (§3.5): element
//!   reads/writes with warp coalescing (`match_any` + leader election),
//!   cache-line reference reuse, and warp-scope readers that issue all of a
//!   warp's misses before waiting for any.
//! * [`iostack::IoStack`] — routes line fetches/write-backs to the SSD array
//!   through the BaM queues, round-robining across devices and sending each
//!   thread's commands to its home queue pair.
//! * [`system::BamSystem`] — one-call initialization that allocates
//!   everything in GPU memory up front, mirroring the prototype's setup.
//!
//! ## Quick start
//!
//! ```
//! use bam_core::{BamConfig, BamSystem};
//!
//! # fn main() -> Result<(), bam_core::BamError> {
//! // Build a scaled-down system (2 simulated Optane SSDs, 512 B lines).
//! let system = BamSystem::new(BamConfig::test_scale())?;
//!
//! // Map a storage-backed array and initialize it.
//! let data = system.create_array::<f32>(10_000)?;
//! data.preload(&(0..10_000).map(|i| i as f32).collect::<Vec<_>>())?;
//!
//! // GPU threads (see `bam-gpu-sim`) can now access it on demand.
//! assert_eq!(data.read(1234)?, 1234.0);
//! println!("cache hit rate: {:.2}", system.metrics().hit_rate());
//! # Ok(())
//! # }
//! ```

pub mod array;
pub mod backing;
pub mod cache;
pub mod config;
pub mod crash;
pub mod error;
mod fixed;
pub mod iostack;
pub mod journal;
pub mod metrics;
pub mod queue;
pub mod system;

pub use array::BamArray;
pub use backing::{CacheBacking, CrashBacking, MemoryBacking};
pub use bam_obs::{
    chrome_trace_json, LatencyHisto, PromWriter, SpanEvent, SpanId, SpanRecorder, Stage,
};
pub use cache::{BamCache, LineGuard};
pub use config::BamConfig;
pub use crash::{CrashPoint, StepOutcome};
pub use error::BamError;
pub use iostack::IoStack;
pub use journal::{
    decode_records, recover, replay_plan, CacheJournal, DecodedJournal, JournalRecord, LineReplay,
    RecoveryReport,
};
pub use metrics::{BamMetrics, MetricsSnapshot};
pub use queue::{BamQueuePair, Submission};
pub use system::BamSystem;
