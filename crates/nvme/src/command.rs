//! NVMe command and completion entries and their wire encodings.
//!
//! Submission-queue entries are 64 bytes and completion-queue entries are
//! 16 bytes, as in the NVMe specification; both are stored in GPU memory in
//! the BaM prototype, so here they are encoded to/decoded from a
//! [`bam_mem::ByteRegion`].

/// Size of a submission-queue entry in bytes.
pub const SQ_ENTRY_BYTES: usize = 64;
/// Size of a completion-queue entry in bytes.
pub const CQ_ENTRY_BYTES: usize = 16;

/// NVMe I/O opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NvmeOpcode {
    /// Read blocks from media into the host/GPU buffer.
    Read,
    /// Write blocks from the host/GPU buffer to media.
    Write,
    /// Flush (no data transfer).
    Flush,
}

impl NvmeOpcode {
    fn to_wire(self) -> u8 {
        match self {
            NvmeOpcode::Flush => 0x00,
            NvmeOpcode::Write => 0x01,
            NvmeOpcode::Read => 0x02,
        }
    }

    fn from_wire(v: u8) -> Option<Self> {
        match v {
            0x00 => Some(NvmeOpcode::Flush),
            0x01 => Some(NvmeOpcode::Write),
            0x02 => Some(NvmeOpcode::Read),
            _ => None,
        }
    }
}

/// Completion status code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NvmeStatus {
    /// Command completed successfully.
    Success,
    /// The LBA range was out of bounds for the namespace.
    LbaOutOfRange,
    /// An injected or internal device error.
    InternalError,
    /// The opcode was not recognised.
    InvalidOpcode,
}

impl NvmeStatus {
    fn to_wire(self) -> u16 {
        match self {
            NvmeStatus::Success => 0x0000,
            NvmeStatus::LbaOutOfRange => 0x0080,
            NvmeStatus::InternalError => 0x0006,
            NvmeStatus::InvalidOpcode => 0x0001,
        }
    }

    fn from_wire(v: u16) -> Self {
        match v {
            0x0000 => NvmeStatus::Success,
            0x0080 => NvmeStatus::LbaOutOfRange,
            0x0006 => NvmeStatus::InternalError,
            _ => NvmeStatus::InvalidOpcode,
        }
    }

    /// `true` if the command succeeded.
    pub fn is_success(self) -> bool {
        self == NvmeStatus::Success
    }
}

/// An NVMe I/O submission command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NvmeCommand {
    /// I/O opcode.
    pub opcode: NvmeOpcode,
    /// Command identifier chosen by the submitter; echoed in the completion.
    pub cid: u16,
    /// Starting logical block address.
    pub slba: u64,
    /// Number of logical blocks to transfer (1-based, unlike raw NVMe).
    pub nlb: u32,
    /// Destination (read) or source (write) address in the DMA-visible
    /// memory region — GPU memory in BaM.
    pub dptr: u64,
}

impl NvmeCommand {
    /// Convenience constructor for a read command.
    pub fn read(cid: u16, slba: u64, nlb: u32, dptr: u64) -> Self {
        Self {
            opcode: NvmeOpcode::Read,
            cid,
            slba,
            nlb,
            dptr,
        }
    }

    /// Convenience constructor for a write command.
    pub fn write(cid: u16, slba: u64, nlb: u32, dptr: u64) -> Self {
        Self {
            opcode: NvmeOpcode::Write,
            cid,
            slba,
            nlb,
            dptr,
        }
    }

    /// Convenience constructor for a flush command.
    pub fn flush(cid: u16) -> Self {
        Self {
            opcode: NvmeOpcode::Flush,
            cid,
            slba: 0,
            nlb: 0,
            dptr: 0,
        }
    }

    /// Encodes the command into a 64-byte submission-queue entry.
    pub fn encode(&self) -> [u8; SQ_ENTRY_BYTES] {
        let mut e = [0u8; SQ_ENTRY_BYTES];
        e[0] = self.opcode.to_wire();
        e[2..4].copy_from_slice(&self.cid.to_le_bytes());
        e[8..16].copy_from_slice(&self.slba.to_le_bytes());
        e[16..20].copy_from_slice(&self.nlb.to_le_bytes());
        e[24..32].copy_from_slice(&self.dptr.to_le_bytes());
        // Byte 63 is a validity marker used only by the simulation to catch
        // decoding of never-written entries.
        e[63] = 0xA5;
        e
    }

    /// Decodes a submission-queue entry. Returns `None` if the entry was
    /// never written or carries an unknown opcode.
    pub fn decode(e: &[u8]) -> Option<Self> {
        if e.len() < SQ_ENTRY_BYTES || e[63] != 0xA5 {
            return None;
        }
        let opcode = NvmeOpcode::from_wire(e[0])?;
        Some(Self {
            opcode,
            cid: u16::from_le_bytes([e[2], e[3]]),
            slba: u64::from_le_bytes(e[8..16].try_into().expect("slice length checked")),
            nlb: u32::from_le_bytes(e[16..20].try_into().expect("slice length checked")),
            dptr: u64::from_le_bytes(e[24..32].try_into().expect("slice length checked")),
        })
    }

    /// Number of bytes moved by this command given a block size.
    pub fn transfer_bytes(&self, block_size: usize) -> u64 {
        u64::from(self.nlb) * block_size as u64
    }
}

/// An NVMe completion-queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NvmeCompletion {
    /// Command identifier of the completed command.
    pub cid: u16,
    /// Completion status.
    pub status: NvmeStatus,
    /// The submission-queue head pointer after the controller consumed this
    /// command — BaM's queue protocol uses this to free SQ slots (§3.3).
    pub sq_head: u16,
    /// Phase tag: flips every time the controller wraps the CQ, letting
    /// pollers distinguish new entries from stale ones.
    pub phase: bool,
}

impl NvmeCompletion {
    /// Encodes into a 16-byte completion-queue entry.
    pub fn encode(&self) -> [u8; CQ_ENTRY_BYTES] {
        let mut e = [0u8; CQ_ENTRY_BYTES];
        e[8..10].copy_from_slice(&self.sq_head.to_le_bytes());
        e[12..14].copy_from_slice(&self.cid.to_le_bytes());
        let sf: u16 = (self.status.to_wire() << 1) | u16::from(self.phase);
        e[14..16].copy_from_slice(&sf.to_le_bytes());
        e
    }

    /// Decodes a completion-queue entry (always succeeds; an all-zero entry
    /// decodes to a phase-0 success for CID 0, which pollers reject via the
    /// phase bit).
    pub fn decode(e: &[u8]) -> Self {
        let sf = u16::from_le_bytes([e[14], e[15]]);
        Self {
            cid: u16::from_le_bytes([e[12], e[13]]),
            status: NvmeStatus::from_wire(sf >> 1),
            sq_head: u16::from_le_bytes([e[8], e[9]]),
            phase: (sf & 1) == 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_roundtrip() {
        let c = NvmeCommand::read(0x1234, 0xDEAD_BEEF, 8, 0xABCD_EF01_2345);
        let enc = c.encode();
        assert_eq!(NvmeCommand::decode(&enc), Some(c));
        let w = NvmeCommand::write(7, 42, 1, 512);
        assert_eq!(NvmeCommand::decode(&w.encode()), Some(w));
        let f = NvmeCommand::flush(3);
        assert_eq!(NvmeCommand::decode(&f.encode()), Some(f));
    }

    #[test]
    fn decode_rejects_blank_entry() {
        assert_eq!(NvmeCommand::decode(&[0u8; SQ_ENTRY_BYTES]), None);
    }

    #[test]
    fn completion_roundtrip_preserves_phase_and_status() {
        for phase in [false, true] {
            for status in [
                NvmeStatus::Success,
                NvmeStatus::LbaOutOfRange,
                NvmeStatus::InternalError,
                NvmeStatus::InvalidOpcode,
            ] {
                let c = NvmeCompletion {
                    cid: 99,
                    status,
                    sq_head: 511,
                    phase,
                };
                assert_eq!(NvmeCompletion::decode(&c.encode()), c);
            }
        }
    }

    #[test]
    fn transfer_bytes() {
        let c = NvmeCommand::read(0, 0, 8, 0);
        assert_eq!(c.transfer_bytes(512), 4096);
    }

    #[test]
    fn status_success_helper() {
        assert!(NvmeStatus::Success.is_success());
        assert!(!NvmeStatus::InternalError.is_success());
    }
}
