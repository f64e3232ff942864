//! Controller-side statistics.
//!
//! These counters are the ground truth the experiment harnesses use to
//! compute I/O counts, amplification factors, and doorbell traffic.

/// What a simulated controller has done. Each queue pair keeps one, counted
/// with plain adds under the pair's device lock;
/// [`NvmeController::stats`](crate::NvmeController::stats) returns their sum.
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

impl std::iter::Sum for StatsSnapshot {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, b| Self {
            read_commands: a.read_commands + b.read_commands,
            write_commands: a.write_commands + b.write_commands,
            flush_commands: a.flush_commands + b.flush_commands,
            failed_commands: a.failed_commands + b.failed_commands,
            blocks_read: a.blocks_read + b.blocks_read,
            blocks_written: a.blocks_written + b.blocks_written,
            completions_posted: a.completions_posted + b.completions_posted,
            doorbell_observations: a.doorbell_observations + b.doorbell_observations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let pair = |reads, blocks| StatsSnapshot {
            read_commands: reads,
            blocks_read: blocks,
            ..StatsSnapshot::default()
        };
        let writes_and_flush = StatsSnapshot {
            write_commands: 1,
            blocks_written: 1,
            flush_commands: 1,
            completions_posted: 1,
            ..StatsSnapshot::default()
        };
        let snap: StatsSnapshot = [pair(1, 8), pair(1, 8), writes_and_flush].into_iter().sum();
        assert_eq!(snap.read_commands, 2);
        assert_eq!(snap.blocks_read, 16);
        assert_eq!(snap.write_commands, 1);
        assert_eq!(snap.completions_posted, 1);
        assert_eq!(snap.total_commands(), 4);
        assert_eq!(snap.bytes_read(512), 8192);
        assert_eq!(snap.bytes_written(512), 512);
    }
}
