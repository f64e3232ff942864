//! Controller-side statistics.
//!
//! These counters are the ground truth the experiment harnesses use to
//! compute I/O counts, amplification factors, and doorbell traffic.

use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters maintained by a simulated controller.
#[derive(Debug, Default)]
pub struct ControllerStats {
    read_commands: AtomicU64,
    write_commands: AtomicU64,
    flush_commands: AtomicU64,
    failed_commands: AtomicU64,
    blocks_read: AtomicU64,
    blocks_written: AtomicU64,
    completions_posted: AtomicU64,
    doorbell_observations: AtomicU64,
}

/// A point-in-time copy of [`ControllerStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Read commands completed.
    pub read_commands: u64,
    /// Write commands completed.
    pub write_commands: u64,
    /// Flush commands completed.
    pub flush_commands: u64,
    /// Commands that completed with a non-success status.
    pub failed_commands: u64,
    /// Logical blocks read from media.
    pub blocks_read: u64,
    /// Logical blocks written to media.
    pub blocks_written: u64,
    /// Completion entries posted.
    pub completions_posted: u64,
    /// Times the controller observed a doorbell value change.
    pub doorbell_observations: u64,
}

impl StatsSnapshot {
    /// Total commands completed (reads + writes + flushes).
    pub fn total_commands(&self) -> u64 {
        self.read_commands + self.write_commands + self.flush_commands
    }

    /// Bytes read from media, given the device block size.
    pub fn bytes_read(&self, block_size: usize) -> u64 {
        self.blocks_read * block_size as u64
    }

    /// Bytes written to media, given the device block size.
    pub fn bytes_written(&self, block_size: usize) -> u64 {
        self.blocks_written * block_size as u64
    }
}

impl ControllerStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_read(&self, blocks: u64) {
        self.read_commands.fetch_add(1, Ordering::Relaxed);
        self.blocks_read.fetch_add(blocks, Ordering::Relaxed);
    }

    pub(crate) fn record_write(&self, blocks: u64) {
        self.write_commands.fetch_add(1, Ordering::Relaxed);
        self.blocks_written.fetch_add(blocks, Ordering::Relaxed);
    }

    pub(crate) fn record_flush(&self) {
        self.flush_commands.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_failure(&self) {
        self.failed_commands.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_completion(&self) {
        self.completions_posted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_doorbell(&self) {
        self.doorbell_observations.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current counter values.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            read_commands: self.read_commands.load(Ordering::Relaxed),
            write_commands: self.write_commands.load(Ordering::Relaxed),
            flush_commands: self.flush_commands.load(Ordering::Relaxed),
            failed_commands: self.failed_commands.load(Ordering::Relaxed),
            blocks_read: self.blocks_read.load(Ordering::Relaxed),
            blocks_written: self.blocks_written.load(Ordering::Relaxed),
            completions_posted: self.completions_posted.load(Ordering::Relaxed),
            doorbell_observations: self.doorbell_observations.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = ControllerStats::new();
        s.record_read(8);
        s.record_read(8);
        s.record_write(1);
        s.record_flush();
        s.record_completion();
        let snap = s.snapshot();
        assert_eq!(snap.read_commands, 2);
        assert_eq!(snap.blocks_read, 16);
        assert_eq!(snap.write_commands, 1);
        assert_eq!(snap.total_commands(), 4);
        assert_eq!(snap.bytes_read(512), 8192);
        assert_eq!(snap.bytes_written(512), 512);
    }
}
