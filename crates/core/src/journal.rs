//! The cache's write-ahead metadata journal and its recovery replay.
//!
//! The BaM cache is write-back: acknowledged writes live in volatile GPU
//! memory until eviction or flush writes the line to media. A crash in that
//! window would silently lose acknowledged data, so every durable transition
//! is journalled *before* it is acknowledged or applied:
//!
//! * [`JournalRecord::Write`] — a redo record carrying the written payload,
//!   appended before the write is acknowledged to the application. The
//!   payload must be journalled (not just the intent) because the only other
//!   copy is in volatile GPU memory.
//! * [`JournalRecord::WritebackIntent`] — appended before a dirty line is
//!   written to media, recording the newest write LSN the line image covers.
//! * [`JournalRecord::WritebackCommit`] — appended after the media write
//!   succeeded, sealing the intent.
//!
//! ## Record format
//!
//! Every record is length-prefixed with an *authenticated header*: a 40-byte
//! header whose final 8 bytes checksum the first 32, followed by the payload
//! and a whole-record checksum (FNV-1a 64, resumed from the header checksum
//! rather than rehashing the header). Authenticating the header makes
//! the length field trustworthy, which cleanly separates the two failure
//! modes decoding must distinguish:
//!
//! * **torn tail** — the journal ends mid-record (a crash tore the last
//!   append). Decoding succeeds and reports `torn_tail = true`; the complete
//!   prefix is the journal's contents.
//! * **corruption** — a fully-present record fails its magic, header
//!   checksum, record checksum, or LSN sequencing. Decoding fails with
//!   [`BamError::JournalCorrupt`] naming the expected LSN.
//!
//! ```text
//!  0      4     5    6        8      16     24     32          40
//!  +------+-----+----+--------+------+------+------+-----------+---------+--------+
//!  | magic|kind |pad |plen u16| lsn  | line | aux  | hdr cksum | payload | cksum  |
//!  +------+-----+----+--------+------+------+------+-----------+---------+--------+
//!
//!  kind 1 write       aux = offset in the line, payload = the written bytes
//!  kind 2 intent      aux = covered write LSN, no payload
//!  kind 3 commit      aux = the sealed intent's LSN, no payload
//!  kind 4 checkpoint  lsn = base LSN, line = aux = 0, no payload
//! ```
//!
//! LSNs are assigned densely from 1 and never reused.
//!
//! ## Checkpoints
//!
//! A journal that only grows makes a journalled run's memory follow its
//! length. So after a write-back commit, once the journal has grown enough,
//! the cache runs a checkpoint: it cuts off the longest prefix recovery can
//! no longer need. A write record is dead once a committed write-back of
//! its line covers its LSN, and intents and commits in front of the first
//! live write are dead with it. The prefix is replaced by one 48-byte
//! checkpoint record whose `lsn` is the *base LSN* — the last LSN dropped —
//! so a checkpointed journal reads as
//!
//! ```text
//!  [checkpoint base] [base + 1] [base + 2] ...
//! ```
//!
//! A checkpoint record is valid only as the first record. A commit whose
//! intent LSN is at or below the base is an *orphan*: its intent was cut
//! away, and so was every write it covers (an intent covers only writes
//! older than itself), so recovery skips it. A commit naming a missing
//! intent above the base is still corruption.
//!
//! ## Recovery
//!
//! [`recover`] replays a journal against the surviving backing store. For
//! each line it computes the newest write LSN proven durable by a committed
//! write-back (the intent's `covered_lsn`), then redoes every newer write
//! record — fetch the line, apply the payloads in LSN order, write the line
//! back. Redo is idempotent, so an *uncommitted* intent whose media write did
//! land is simply overwritten with the same bytes; a *committed* line with no
//! newer writes is skipped entirely, which is exactly the "no completed
//! write-back is double-applied" invariant the crash sweeps assert. Every
//! record a checkpoint drops is one recovery would have skipped, so the
//! replay of a checkpointed journal writes exactly what the replay of the
//! full journal writes.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;

use bam_mem::{ByteRegion, DevAddr};

use crate::backing::CacheBacking;
use crate::crash::{CrashPoint, StepOutcome};
use crate::error::BamError;

/// Record-framing magic ("JRNL" little-endian).
const RECORD_MAGIC: u32 = 0x4C4E_524A;

/// Fixed header length (magic, kind, pad, payload length, LSN, line, aux,
/// header checksum).
pub const HEADER_BYTES: usize = 40;

/// Bytes a record occupies beyond its payload (header + record checksum).
pub const RECORD_OVERHEAD_BYTES: usize = HEADER_BYTES + 8;

const KIND_WRITE: u8 = 1;
const KIND_INTENT: u8 = 2;
const KIND_COMMIT: u8 = 3;
const KIND_CHECKPOINT: u8 = 4;

/// Live journal bytes below which [`CacheJournal::checkpoint_due`] never
/// asks for a checkpoint. It sits well above the largest journal of the
/// committed recovery sweep (80 KiB), so those runs never checkpoint.
pub(crate) const CHECKPOINT_FLOOR_BYTES: u64 = 1 << 20;

/// FNV-1a 64-bit offset basis: the digest of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit over `bytes`, continuing from the digest `h` of the bytes
/// before them (no external dependency needed, and one byte flip anywhere
/// always changes the digest). The header checksum is the state after a
/// record's first 32 bytes, so the record checksum resumes from it.
fn fnv1a64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One decoded journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A redo record for an acknowledged application write.
    Write {
        /// Sequence number.
        lsn: u64,
        /// Backing-store line written.
        line: u64,
        /// Byte offset of the write within the line.
        offset: u64,
        /// The written bytes.
        payload: Vec<u8>,
    },
    /// A dirty-line write-back is about to hit the media.
    WritebackIntent {
        /// Sequence number.
        lsn: u64,
        /// Line being written back.
        line: u64,
        /// Newest write-record LSN the line image covers (0 = none).
        covered_lsn: u64,
    },
    /// The write-back of `intent_lsn` reached the media.
    WritebackCommit {
        /// Sequence number.
        lsn: u64,
        /// Line that was written back.
        line: u64,
        /// LSN of the sealed [`JournalRecord::WritebackIntent`].
        intent_lsn: u64,
    },
}

impl JournalRecord {
    /// The record's sequence number.
    pub fn lsn(&self) -> u64 {
        match self {
            JournalRecord::Write { lsn, .. }
            | JournalRecord::WritebackIntent { lsn, .. }
            | JournalRecord::WritebackCommit { lsn, .. } => *lsn,
        }
    }
}

/// Frames the record occupying all of `rec`, whose payload already sits
/// between the header and the record checksum: writes the header in front
/// of it and the checksum behind it.
fn frame_record(rec: &mut [u8], kind: u8, lsn: u64, line: u64, aux: u64) {
    let end = rec.len() - 8;
    let payload_len = rec.len() - RECORD_OVERHEAD_BYTES;
    debug_assert!(payload_len <= u16::MAX as usize);
    rec[..4].copy_from_slice(&RECORD_MAGIC.to_le_bytes());
    rec[4] = kind;
    rec[5] = 0; // pad
    rec[6..8].copy_from_slice(&(payload_len as u16).to_le_bytes());
    rec[8..16].copy_from_slice(&lsn.to_le_bytes());
    rec[16..24].copy_from_slice(&line.to_le_bytes());
    rec[24..32].copy_from_slice(&aux.to_le_bytes());
    let hdr_cksum = fnv1a64(FNV_OFFSET, &rec[..32]);
    rec[32..HEADER_BYTES].copy_from_slice(&hdr_cksum.to_le_bytes());
    let cksum = fnv1a64(hdr_cksum, &rec[32..end]);
    rec[end..].copy_from_slice(&cksum.to_le_bytes());
}

/// Appends one encoded record to `buf`.
fn encode_record(buf: &mut Vec<u8>, kind: u8, lsn: u64, line: u64, aux: u64, payload: &[u8]) {
    let start = buf.len();
    buf.resize(start + RECORD_OVERHEAD_BYTES + payload.len(), 0);
    let rec = &mut buf[start..];
    rec[HEADER_BYTES..HEADER_BYTES + payload.len()].copy_from_slice(payload);
    frame_record(rec, kind, lsn, line, aux);
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte slice"))
}

/// A decoded journal: the complete record prefix plus whether the byte
/// stream ended mid-record (a torn final append).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DecodedJournal {
    /// Every fully-decoded application record, in LSN order (dense from
    /// `base_lsn + 1`). A leading checkpoint record is not listed.
    pub records: Vec<JournalRecord>,
    /// Whether trailing bytes formed only part of a record.
    pub torn_tail: bool,
    /// The leading checkpoint record's LSN: every record up to it was cut
    /// away (0 = the journal was never checkpointed).
    pub base_lsn: u64,
}

/// Decodes a journal byte stream.
///
/// A truncated final record is **not** an error — crashes tear appends — and
/// is reported via [`DecodedJournal::torn_tail`].
///
/// # Errors
///
/// Returns [`BamError::JournalCorrupt`] naming the expected LSN when a
/// fully-present record fails validation (bad magic, kind, header checksum,
/// record checksum, out-of-sequence LSN, or a checkpoint record anywhere
/// but first).
pub fn decode_records(bytes: &[u8]) -> Result<DecodedJournal, BamError> {
    decode_prefix(bytes).map(|(decoded, _)| decoded)
}

/// [`decode_records`], plus the length of the complete-record prefix.
fn decode_prefix(bytes: &[u8]) -> Result<(DecodedJournal, usize), BamError> {
    let (mut records, mut base_lsn, mut torn_tail) = (Vec::new(), 0, false);
    let mut cursor = 0usize;
    let mut expected_lsn = 1u64;
    while cursor < bytes.len() {
        let corrupt = Err(BamError::JournalCorrupt { lsn: expected_lsn });
        let rest = &bytes[cursor..];
        if rest.len() < HEADER_BYTES {
            torn_tail = true;
            break;
        }
        let header = &rest[..HEADER_BYTES];
        let hdr_cksum = fnv1a64(FNV_OFFSET, &header[..32]);
        if le_u64(&header[32..40]) != hdr_cksum {
            return corrupt;
        }
        // The header is authenticated from here on: its length field is
        // trustworthy, so "not enough bytes" can only mean a torn tail.
        if u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) != RECORD_MAGIC {
            return corrupt;
        }
        let kind = header[4];
        let payload_len = u16::from_le_bytes(header[6..8].try_into().expect("2 bytes")) as usize;
        let total = RECORD_OVERHEAD_BYTES + payload_len;
        if rest.len() < total {
            torn_tail = true;
            break;
        }
        if le_u64(&rest[total - 8..total]) != fnv1a64(hdr_cksum, &rest[32..total - 8]) {
            return corrupt;
        }
        let lsn = le_u64(&header[8..16]);
        let line = le_u64(&header[16..24]);
        let aux = le_u64(&header[24..32]);
        let Some(next_lsn) = lsn.checked_add(1) else {
            return corrupt;
        };
        if kind == KIND_CHECKPOINT && cursor == 0 && payload_len == 0 {
            base_lsn = lsn;
            expected_lsn = next_lsn;
            cursor += total;
            continue;
        }
        if lsn != expected_lsn {
            return corrupt;
        }
        let record = match kind {
            KIND_WRITE => JournalRecord::Write {
                lsn,
                line,
                offset: aux,
                payload: rest[HEADER_BYTES..HEADER_BYTES + payload_len].to_vec(),
            },
            KIND_INTENT if payload_len == 0 => JournalRecord::WritebackIntent {
                lsn,
                line,
                covered_lsn: aux,
            },
            KIND_COMMIT if payload_len == 0 => JournalRecord::WritebackCommit {
                lsn,
                line,
                intent_lsn: aux,
            },
            _ => return corrupt,
        };
        records.push(record);
        expected_lsn = next_lsn;
        cursor += total;
    }
    let decoded = DecodedJournal {
        records,
        torn_tail,
        base_lsn,
    };
    Ok((decoded, cursor))
}

/// The result of one [`CacheJournal`] append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalAppend {
    /// LSN the record was assigned.
    pub lsn: u64,
    /// Encoded bytes the record occupies in the journal.
    pub bytes: u64,
}

#[derive(Debug, Default)]
struct JournalInner {
    buf: Vec<u8>,
    next_lsn: u64,
    /// Application payload bytes acknowledged through the journal.
    payload_bytes: u64,
    /// LSN of the checkpoint record heading `buf` (0 = none).
    base_lsn: u64,
    /// Bytes of application records checkpoints have cut away.
    retired_bytes: u64,
    /// Live bytes at which [`CacheJournal::checkpoint_due`] turns true.
    checkpoint_at: u64,
}

impl JournalInner {
    /// Bytes of the checkpoint record heading `buf`, if there is one.
    fn checkpoint_record_bytes(&self) -> u64 {
        if self.base_lsn == 0 {
            0
        } else {
            RECORD_OVERHEAD_BYTES as u64
        }
    }

    fn appended_bytes(&self) -> u64 {
        self.retired_bytes + self.buf.len() as u64 - self.checkpoint_record_bytes()
    }
}

/// The write-ahead metadata journal of one [`crate::BamCache`].
///
/// Appends are sequenced under one mutex (the journal is a single durable
/// stream); each append consumes one [`CrashPoint`] durable step when a
/// crash point is installed. The in-memory byte buffer stands in for the
/// durable journal device; [`CacheJournal::snapshot`] is "what survived the
/// crash".
#[derive(Debug, Default)]
pub struct CacheJournal {
    inner: Mutex<JournalInner>,
    crash: Option<Arc<CrashPoint>>,
}

impl CacheJournal {
    /// An empty journal with no crash injection.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(JournalInner {
                next_lsn: 1,
                checkpoint_at: CHECKPOINT_FLOOR_BYTES,
                ..JournalInner::default()
            }),
            crash: None,
        }
    }

    /// An empty journal whose appends consume durable steps on `crash`.
    pub fn with_crash_point(crash: Arc<CrashPoint>) -> Self {
        Self {
            crash: Some(crash),
            ..Self::new()
        }
    }

    /// One durable step on the crash point, if one is installed.
    fn consume_step(&self) -> StepOutcome {
        self.crash
            .as_ref()
            .map_or(StepOutcome::Run, |cp| cp.consume_step())
    }

    fn append(
        &self,
        kind: u8,
        line: u64,
        aux: u64,
        payload: &[u8],
    ) -> Result<JournalAppend, BamError> {
        assert!(
            payload.len() <= u16::MAX as usize,
            "journal payload exceeds the u16 length field"
        );
        let mut inner = self.inner.lock();
        let lsn = inner.next_lsn;
        let start = inner.buf.len();
        let record_bytes = RECORD_OVERHEAD_BYTES + payload.len();
        let step = self.consume_step();
        if step == StepOutcome::Down {
            return Err(BamError::Crashed);
        }
        // The record is encoded straight into the journal; a crashed append
        // is that record cut short.
        encode_record(&mut inner.buf, kind, lsn, line, aux, payload);
        if let StepOutcome::Crash { torn_bytes } = step {
            // The torn prefix is always strictly shorter than the record: a
            // crashed append never becomes durable.
            let keep = (torn_bytes as usize).min(record_bytes - 1);
            inner.buf.truncate(start + keep);
            return Err(BamError::Crashed);
        }
        inner.next_lsn += 1;
        if kind == KIND_WRITE {
            inner.payload_bytes += payload.len() as u64;
        }
        Ok(JournalAppend {
            lsn,
            bytes: record_bytes as u64,
        })
    }

    /// Journals an application write of `payload` at `offset` within `line`.
    /// Must complete before the write is acknowledged.
    ///
    /// # Errors
    ///
    /// Returns [`BamError::Crashed`] if the crash point tripped (the record
    /// is torn; the write was never acknowledged).
    pub fn append_write(
        &self,
        line: u64,
        offset: u64,
        payload: &[u8],
    ) -> Result<JournalAppend, BamError> {
        self.append(KIND_WRITE, line, offset, payload)
    }

    /// Journals the intent to write `line` back to media. `covered_lsn` is
    /// the newest write-record LSN whose payload is known to have landed in
    /// the line image about to be written (0 = none).
    ///
    /// The caller must derive `covered_lsn` from the *applied* bytes (see
    /// `BamCache`'s per-line applied-LSN horizon), never from journal
    /// metadata: a write is journalled before its payload reaches GPU
    /// memory, and an intent sealed in that window would let recovery skip
    /// replaying an acknowledged write whose bytes the media never saw.
    ///
    /// # Errors
    ///
    /// Returns [`BamError::Crashed`] if the crash point tripped.
    pub fn append_writeback_intent(
        &self,
        line: u64,
        covered_lsn: u64,
    ) -> Result<JournalAppend, BamError> {
        self.append(KIND_INTENT, line, covered_lsn, &[])
    }

    /// Seals intent `intent_lsn`: the media write of `line` succeeded.
    ///
    /// # Errors
    ///
    /// Returns [`BamError::Crashed`] if the crash point tripped.
    pub fn append_writeback_commit(
        &self,
        line: u64,
        intent_lsn: u64,
    ) -> Result<JournalAppend, BamError> {
        self.append(KIND_COMMIT, line, intent_lsn, &[])
    }

    /// The durable journal image (what a crash would leave behind).
    pub fn snapshot(&self) -> Vec<u8> {
        self.inner.lock().buf.clone()
    }

    /// Whether the live journal has reached the size that asks for a
    /// [`CacheJournal::checkpoint`]: [`CHECKPOINT_FLOOR_BYTES`] at first,
    /// then the larger of the floor and twice what the last checkpoint left.
    pub(crate) fn checkpoint_due(&self) -> bool {
        let inner = self.inner.lock();
        inner.buf.len() as u64 >= inner.checkpoint_at
    }

    /// Cuts off the longest record prefix recovery can no longer need and
    /// returns the bytes it freed.
    ///
    /// `durable_of_line(line)` must be a write LSN of `line` that a
    /// committed write-back in this journal covers (0 = none): a write
    /// record at or below it is dead. The walk from the front stops at the
    /// first live write; everything before it (dead writes, the intents and
    /// commits among them, an earlier checkpoint record) is replaced by one
    /// checkpoint record carrying the last dropped LSN. Only record headers
    /// are read, nothing is allocated, and application LSNs are unchanged.
    ///
    /// A checkpoint that would free nothing writes nothing. Either way the
    /// next [`CacheJournal::checkpoint_due`] waits for the live journal to
    /// double (and reach the floor).
    ///
    /// # Errors
    ///
    /// Returns [`BamError::Crashed`] if the crash point tripped: a
    /// checkpoint is one durable step and atomic, so the journal is left
    /// exactly as it was.
    pub(crate) fn checkpoint(&self, durable_of_line: impl Fn(u64) -> u64) -> Result<u64, BamError> {
        let mut inner = self.inner.lock();
        let (cut, base_lsn) = dead_prefix(&inner.buf, durable_of_line);
        let freed = cut.saturating_sub(RECORD_OVERHEAD_BYTES);
        if freed > 0 {
            if self.consume_step() != StepOutcome::Run {
                return Err(BamError::Crashed);
            }
            inner.retired_bytes += cut as u64 - inner.checkpoint_record_bytes();
            inner.base_lsn = base_lsn;
            frame_record(&mut inner.buf[freed..cut], KIND_CHECKPOINT, base_lsn, 0, 0);
            inner.buf.drain(..freed);
        }
        inner.checkpoint_at = CHECKPOINT_FLOOR_BYTES.max(2 * inner.buf.len() as u64);
        Ok(freed as u64)
    }

    /// Drops a torn final record left by a crashed append, returning the
    /// bytes discarded. Recovery calls this so post-reboot appends continue a
    /// well-formed stream instead of landing after partial bytes.
    ///
    /// # Errors
    ///
    /// Returns [`BamError::JournalCorrupt`] if the journal body (not just its
    /// tail) fails to decode.
    pub fn truncate_torn_tail(&self) -> Result<u64, BamError> {
        let mut inner = self.inner.lock();
        let (_, complete) = decode_prefix(&inner.buf)?;
        let dropped = inner.buf.len() - complete;
        inner.buf.truncate(complete);
        Ok(dropped as u64)
    }

    /// Encoded journal bytes appended so far, including those checkpoints
    /// have since cut away (and any torn tail), excluding checkpoint
    /// records.
    pub fn appended_bytes(&self) -> u64 {
        self.inner.lock().appended_bytes()
    }

    /// Journal bytes held now: what [`CacheJournal::snapshot`] returns.
    pub fn live_bytes(&self) -> u64 {
        self.inner.lock().buf.len() as u64
    }

    /// Records appended so far.
    pub fn len(&self) -> u64 {
        self.inner.lock().next_lsn - 1
    }

    /// Whether no record has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Journal bytes per acknowledged application payload byte — the write
    /// amplification the `recovery` bench reports. 1.0 with an empty journal,
    /// infinite when only metadata records were written.
    pub fn write_amplification(&self) -> f64 {
        let inner = self.inner.lock();
        let appended = inner.appended_bytes();
        if inner.payload_bytes == 0 {
            if appended == 0 {
                return 1.0;
            }
            return f64::INFINITY;
        }
        appended as f64 / inner.payload_bytes as f64
    }
}

/// The dead prefix of the journal image `buf`: its length in bytes and the
/// LSN of its last record (the new base). Reads record headers at fixed
/// offsets only; the walk stops at the first write record `durable_of_line`
/// does not cover, or at a torn tail.
fn dead_prefix(buf: &[u8], durable_of_line: impl Fn(u64) -> u64) -> (usize, u64) {
    let (mut cut, mut last) = (0, 0);
    while let Some(header) = buf.get(cut..cut + HEADER_BYTES) {
        let payload_len = u16::from_le_bytes([header[6], header[7]]) as usize;
        let end = cut + RECORD_OVERHEAD_BYTES + payload_len;
        let lsn = le_u64(&header[8..16]);
        if end > buf.len()
            || (header[4] == KIND_WRITE && durable_of_line(le_u64(&header[16..24])) < lsn)
        {
            break;
        }
        (cut, last) = (end, lsn);
    }
    (cut, last)
}

/// What [`recover`] did, in full; byte-identical across identical replays,
/// which the determinism sweeps assert directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Complete application records decoded from the journal (a leading
    /// checkpoint record is not counted).
    pub records_scanned: u64,
    /// Whether the journal ended in a torn (incomplete) record.
    pub torn_tail: bool,
    /// Write (redo) records seen.
    pub write_records: u64,
    /// Write-back intents seen.
    pub intent_records: u64,
    /// Committed write-backs seen (these lines' covered writes are durable).
    pub committed_writebacks: u64,
    /// Write records replayed onto the backing store.
    pub replayed_writes: u64,
    /// Distinct lines fetched, patched, and written back.
    pub replayed_lines: u64,
    /// Journal length in bytes (including any torn tail).
    pub journal_bytes: u64,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scanned {} records ({} writes, {} intents, {} commits) in {} journal bytes{}; \
             replayed {} writes across {} lines",
            self.records_scanned,
            self.write_records,
            self.intent_records,
            self.committed_writebacks,
            self.journal_bytes,
            if self.torn_tail { " (torn tail)" } else { "" },
            self.replayed_writes,
            self.replayed_lines,
        )
    }
}

/// What recovery owes one line: pass 1 of [`recover`], exposed per line so
/// callers (the `recovery --verbose` bench) can print the replay plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineReplay {
    /// Backing-store line index.
    pub line: u64,
    /// Newest write LSN a committed write-back proves durable (0 = none).
    pub durable_lsn: u64,
    /// Write records newer than the durable horizon (these are replayed).
    pub pending_writes: u64,
    /// Total payload bytes across the pending writes.
    pub pending_bytes: u64,
}

/// Per line: (lsn, offset, payload) of every write record, in LSN order.
type WritesByLine<'a> = BTreeMap<u64, Vec<(u64, u64, &'a [u8])>>;

/// Grouped redo records and per-line durable horizons (pass 1 of recovery).
struct ScanOutcome<'a> {
    writes_by_line: WritesByLine<'a>,
    /// Per line: newest write LSN proven durable by a committed write-back.
    durable_lsn: BTreeMap<u64, u64>,
    write_records: u64,
    intent_records: u64,
    committed_writebacks: u64,
}

/// Groups redo records per line and finds, per line, the newest write LSN a
/// committed write-back proves durable. A commit whose intent a checkpoint
/// cut away (intent LSN at or below the base) covers only cut-away writes
/// and is skipped.
fn scan_records<'a>(
    decoded: &'a DecodedJournal,
    num_lines: u64,
    line_bytes: u64,
) -> Result<ScanOutcome<'a>, BamError> {
    let mut out = ScanOutcome {
        writes_by_line: BTreeMap::new(),
        durable_lsn: BTreeMap::new(),
        write_records: 0,
        intent_records: 0,
        committed_writebacks: 0,
    };
    let mut intents: HashMap<u64, (u64, u64)> = HashMap::new(); // lsn -> (line, covered)
    for record in &decoded.records {
        match record {
            JournalRecord::Write {
                lsn,
                line,
                offset,
                payload,
            } => {
                out.write_records += 1;
                let end = offset.checked_add(payload.len() as u64);
                if *line >= num_lines || end.is_none_or(|e| e > line_bytes) {
                    return Err(BamError::JournalCorrupt { lsn: *lsn });
                }
                out.writes_by_line.entry(*line).or_default().push((
                    *lsn,
                    *offset,
                    payload.as_slice(),
                ));
            }
            JournalRecord::WritebackIntent {
                lsn,
                line,
                covered_lsn,
            } => {
                out.intent_records += 1;
                intents.insert(*lsn, (*line, *covered_lsn));
            }
            JournalRecord::WritebackCommit {
                lsn,
                line,
                intent_lsn,
            } => {
                out.committed_writebacks += 1;
                if *intent_lsn <= decoded.base_lsn {
                    continue;
                }
                let Some(&(intent_line, covered)) = intents.get(intent_lsn) else {
                    return Err(BamError::JournalCorrupt { lsn: *lsn });
                };
                if intent_line != *line {
                    return Err(BamError::JournalCorrupt { lsn: *lsn });
                }
                let entry = out.durable_lsn.entry(*line).or_insert(0);
                *entry = (*entry).max(covered);
            }
        }
    }
    Ok(out)
}

/// Computes what [`recover`] *would* replay, without touching any backing
/// store: one [`LineReplay`] per line that has at least one write record,
/// in ascending line order. Lines with no pending writes report
/// `pending_writes == 0` (they are skipped by the replay).
///
/// # Errors
///
/// Same journal-validation errors as [`recover`].
pub fn replay_plan(
    journal: &[u8],
    num_lines: u64,
    line_bytes: u64,
) -> Result<Vec<LineReplay>, BamError> {
    let decoded = decode_records(journal)?;
    let scan = scan_records(&decoded, num_lines, line_bytes)?;
    Ok(scan
        .writes_by_line
        .iter()
        .map(|(line, writes)| {
            let durable = scan.durable_lsn.get(line).copied().unwrap_or(0);
            let pending = writes.iter().filter(|(lsn, _, _)| *lsn > durable);
            let (mut n, mut bytes) = (0u64, 0u64);
            for (_, _, payload) in pending {
                n += 1;
                bytes += payload.len() as u64;
            }
            LineReplay {
                line: *line,
                durable_lsn: durable,
                pending_writes: n,
                pending_bytes: bytes,
            }
        })
        .collect())
}

/// Replays `journal` against `backing`, restoring every acknowledged write.
///
/// `scratch` must point at `backing.line_bytes()` bytes of scratch space in
/// `gpu`; lines are replayed one at a time through it, in ascending line
/// order (the replay is deterministic). Lines whose newest write is covered
/// by a committed write-back are not touched at all.
///
/// # Errors
///
/// Returns [`BamError::JournalCorrupt`] for an undecodable or semantically
/// inconsistent journal (a commit whose intent is missing above the
/// checkpoint base, an out-of-range write), or any backing-store error
/// encountered mid-replay.
pub fn recover(
    journal: &[u8],
    backing: &dyn CacheBacking,
    gpu: &ByteRegion,
    scratch: DevAddr,
) -> Result<RecoveryReport, BamError> {
    let decoded = decode_records(journal)?;
    let scan = scan_records(&decoded, backing.num_lines(), backing.line_bytes())?;

    let mut report = RecoveryReport {
        records_scanned: decoded.records.len() as u64,
        torn_tail: decoded.torn_tail,
        journal_bytes: journal.len() as u64,
        write_records: scan.write_records,
        intent_records: scan.intent_records,
        committed_writebacks: scan.committed_writebacks,
        ..RecoveryReport::default()
    };

    // Pass 2: redo every write newer than the line's durable horizon, one
    // line at a time, ascending.
    for (line, writes) in &scan.writes_by_line {
        let durable = scan.durable_lsn.get(line).copied().unwrap_or(0);
        let pending: Vec<_> = writes.iter().filter(|(lsn, _, _)| *lsn > durable).collect();
        if pending.is_empty() {
            continue;
        }
        let mut fetched = [Ok(())];
        backing.fetch_lines(&[(*line, scratch)], &mut fetched);
        let [fetched] = fetched;
        fetched?;
        for (_, offset, payload) in &pending {
            gpu.write_bytes(scratch + offset, payload);
        }
        backing.writeback_line(*line, scratch)?;
        report.replayed_writes += pending.len() as u64;
        report.replayed_lines += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::MemoryBacking;

    #[test]
    fn roundtrip_all_record_kinds() {
        let j = CacheJournal::new();
        let a = j.append_write(3, 16, &[0xAB; 32]).unwrap();
        assert_eq!(a.lsn, 1);
        assert_eq!(a.bytes as usize, RECORD_OVERHEAD_BYTES + 32);
        let i = j.append_writeback_intent(3, a.lsn).unwrap();
        assert_eq!(i.lsn, 2);
        let c = j.append_writeback_commit(3, i.lsn).unwrap();
        assert_eq!(c.lsn, 3);
        let decoded = decode_records(&j.snapshot()).unwrap();
        assert!(!decoded.torn_tail);
        assert_eq!(
            decoded.records,
            vec![
                JournalRecord::Write {
                    lsn: 1,
                    line: 3,
                    offset: 16,
                    payload: vec![0xAB; 32]
                },
                JournalRecord::WritebackIntent {
                    lsn: 2,
                    line: 3,
                    covered_lsn: 1
                },
                JournalRecord::WritebackCommit {
                    lsn: 3,
                    line: 3,
                    intent_lsn: 2
                },
            ]
        );
    }

    #[test]
    fn checksums_are_fnv_over_the_header_and_over_the_whole_record() {
        let j = CacheJournal::new();
        j.append_write(5, 8, &[0xC3; 8]).unwrap();
        j.append_writeback_intent(5, 1).unwrap();
        let bytes = j.snapshot();
        for record in [
            &bytes[..RECORD_OVERHEAD_BYTES + 8],
            &bytes[RECORD_OVERHEAD_BYTES + 8..],
        ] {
            let n = record.len();
            assert_eq!(le_u64(&record[32..40]), fnv1a64(FNV_OFFSET, &record[..32]));
            assert_eq!(
                le_u64(&record[n - 8..]),
                fnv1a64(FNV_OFFSET, &record[..n - 8])
            );
        }
    }

    #[test]
    fn intent_encodes_the_callers_applied_horizon() {
        let j = CacheJournal::new();
        j.append_write(7, 0, &[1]).unwrap();
        let applied = j.append_write(7, 1, &[2]).unwrap();
        j.append_write(9, 0, &[3]).unwrap();
        // The caller's applied horizon is recorded verbatim — the journal
        // itself must not guess coverage from its own metadata.
        let i = j.append_writeback_intent(7, applied.lsn).unwrap();
        let decoded = decode_records(&j.snapshot()).unwrap();
        match &decoded.records[i.lsn as usize - 1] {
            JournalRecord::WritebackIntent { covered_lsn, .. } => assert_eq!(*covered_lsn, 2),
            other => panic!("expected intent, got {other:?}"),
        }
        // A line never written has a zero horizon.
        let i2 = j.append_writeback_intent(100, 0).unwrap();
        let decoded = decode_records(&j.snapshot()).unwrap();
        match &decoded.records[i2.lsn as usize - 1] {
            JournalRecord::WritebackIntent { covered_lsn, .. } => assert_eq!(*covered_lsn, 0),
            other => panic!("expected intent, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_torn_not_corrupt() {
        let j = CacheJournal::new();
        j.append_write(0, 0, &[9; 10]).unwrap();
        j.append_write(1, 0, &[8; 10]).unwrap();
        let bytes = j.snapshot();
        for cut in 0..bytes.len() {
            let d = decode_records(&bytes[..cut]).unwrap();
            let whole = cut / (RECORD_OVERHEAD_BYTES + 10);
            assert_eq!(d.records.len(), whole, "cut at {cut}");
            assert_eq!(d.torn_tail, cut % (RECORD_OVERHEAD_BYTES + 10) != 0);
        }
    }

    #[test]
    fn bit_flips_report_typed_corruption() {
        let j = CacheJournal::new();
        j.append_write(0, 0, &[7; 24]).unwrap();
        j.append_writeback_intent(0, 1).unwrap();
        let bytes = j.snapshot();
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            match decode_records(&bad) {
                Err(BamError::JournalCorrupt { lsn }) => {
                    assert!((1..=2).contains(&lsn), "flip at {pos} blamed lsn {lsn}")
                }
                other => panic!("flip at {pos}: expected corruption, got {other:?}"),
            }
        }
    }

    #[test]
    fn crash_point_tears_the_append() {
        let cp = Arc::new(CrashPoint::new());
        let j = CacheJournal::with_crash_point(cp.clone());
        j.append_write(0, 0, &[1; 16]).unwrap();
        cp.arm(1, 20); // second append tears at 20 bytes
        assert_eq!(j.append_write(1, 0, &[2; 16]), Err(BamError::Crashed));
        // Once down, nothing else persists.
        assert_eq!(j.append_writeback_intent(0, 1), Err(BamError::Crashed));
        let d = decode_records(&j.snapshot()).unwrap();
        assert_eq!(d.records.len(), 1);
        assert!(d.torn_tail);
    }

    fn recovery_rig() -> (Arc<ByteRegion>, Arc<ByteRegion>, Arc<MemoryBacking>) {
        let data = Arc::new(ByteRegion::new(16 * 64));
        for line in 0..16u64 {
            data.write_bytes(line * 64, &[line as u8; 64]);
        }
        let gpu = Arc::new(ByteRegion::new(4096));
        let backing = Arc::new(MemoryBacking::new(data.clone(), 0, gpu.clone(), 64, 16));
        (data, gpu, backing)
    }

    #[test]
    fn recover_replays_uncommitted_writes() {
        // (line, offset, fill byte, length) per write; then the expected
        // replayed line and write counts.
        type Write = (u64, u64, u8, usize);
        let cases: [(&[Write], u64, u64); 2] = [
            (&[(2, 4, 0xEE, 8), (5, 0, 0xDD, 64)], 2, 2),
            // Two writes into one line replay as one line.
            (&[(2, 0, 1, 8), (2, 8, 2, 8), (9, 0, 3, 8)], 2, 3),
        ];
        for (writes, lines, redone) in cases {
            let (data, gpu, backing) = recovery_rig();
            let j = CacheJournal::new();
            for &(line, offset, byte, len) in writes {
                j.append_write(line, offset, &vec![byte; len]).unwrap();
            }
            let report = recover(&j.snapshot(), backing.as_ref(), &gpu, 1024).unwrap();
            assert_eq!(report.replayed_lines, lines);
            assert_eq!(report.replayed_writes, redone);
            for &(line, offset, byte, len) in writes {
                let mut buf = vec![0u8; len];
                data.read_bytes(line * 64 + offset, &mut buf);
                assert!(buf.iter().all(|&b| b == byte), "line {line} @ {offset}");
            }
        }
    }

    #[test]
    fn committed_lines_are_not_double_applied() {
        let (_data, gpu, backing) = recovery_rig();
        let j = CacheJournal::new();
        let w = j.append_write(4, 0, &[1; 64]).unwrap();
        let i = j.append_writeback_intent(4, w.lsn).unwrap();
        j.append_writeback_commit(4, i.lsn).unwrap();
        let report = recover(&j.snapshot(), backing.as_ref(), &gpu, 1024).unwrap();
        assert_eq!(report.replayed_lines, 0);
        assert_eq!(report.replayed_writes, 0);
        assert_eq!(report.committed_writebacks, 1);
    }

    #[test]
    fn writes_after_a_commit_are_still_replayed() {
        let (data, gpu, backing) = recovery_rig();
        let j = CacheJournal::new();
        let w = j.append_write(4, 0, &[1; 64]).unwrap();
        let i = j.append_writeback_intent(4, w.lsn).unwrap();
        j.append_writeback_commit(4, i.lsn).unwrap();
        j.append_write(4, 8, &[2; 4]).unwrap(); // newer than the commit
        let report = recover(&j.snapshot(), backing.as_ref(), &gpu, 1024).unwrap();
        assert_eq!(report.replayed_lines, 1);
        assert_eq!(report.replayed_writes, 1);
        let mut buf = [0u8; 4];
        data.read_bytes(4 * 64 + 8, &mut buf);
        assert_eq!(buf, [2; 4]);
    }

    #[test]
    fn commit_without_intent_is_corrupt() {
        let (_data, gpu, backing) = recovery_rig();
        let j = CacheJournal::new();
        j.append_write(0, 0, &[1; 8]).unwrap();
        j.append_writeback_commit(0, 99).unwrap();
        assert_eq!(
            recover(&j.snapshot(), backing.as_ref(), &gpu, 1024),
            Err(BamError::JournalCorrupt { lsn: 2 })
        );
    }

    #[test]
    fn out_of_range_write_record_is_corrupt() {
        let (_data, gpu, backing) = recovery_rig();
        let j = CacheJournal::new();
        j.append_write(999, 0, &[1; 8]).unwrap();
        assert_eq!(
            recover(&j.snapshot(), backing.as_ref(), &gpu, 1024),
            Err(BamError::JournalCorrupt { lsn: 1 })
        );
    }

    #[test]
    fn replay_plan_matches_what_recover_does() {
        let (_data, gpu, backing) = recovery_rig();
        let j = CacheJournal::new();
        let w = j.append_write(4, 0, &[1; 64]).unwrap(); // covered by commit
        let i = j.append_writeback_intent(4, w.lsn).unwrap();
        j.append_writeback_commit(4, i.lsn).unwrap();
        j.append_write(4, 8, &[2; 4]).unwrap(); // pending on line 4
        j.append_write(7, 0, &[3; 16]).unwrap(); // pending on line 7
        let bytes = j.snapshot();
        let plan = replay_plan(&bytes, 16, 64).unwrap();
        assert_eq!(
            plan,
            vec![
                LineReplay {
                    line: 4,
                    durable_lsn: 1,
                    pending_writes: 1,
                    pending_bytes: 4
                },
                LineReplay {
                    line: 7,
                    durable_lsn: 0,
                    pending_writes: 1,
                    pending_bytes: 16
                },
            ]
        );
        let report = recover(&bytes, backing.as_ref(), &gpu, 1024).unwrap();
        let planned: u64 = plan.iter().map(|l| l.pending_writes).sum();
        assert_eq!(report.replayed_writes, planned);
        assert_eq!(
            report.replayed_lines,
            plan.iter().filter(|l| l.pending_writes > 0).count() as u64
        );
    }

    #[test]
    fn recovery_report_display_is_a_one_line_summary() {
        let report = RecoveryReport {
            records_scanned: 5,
            torn_tail: true,
            write_records: 3,
            intent_records: 1,
            committed_writebacks: 1,
            replayed_writes: 2,
            replayed_lines: 1,
            journal_bytes: 321,
        };
        let s = report.to_string();
        assert_eq!(
            s,
            "scanned 5 records (3 writes, 1 intents, 1 commits) in 321 journal bytes \
             (torn tail); replayed 2 writes across 1 lines"
        );
    }

    /// A journal of two lines: line 1's first write is committed, line 2's
    /// is not, and line 1 is written again after its commit.
    fn half_committed_journal() -> CacheJournal {
        let j = CacheJournal::new();
        let w1 = j.append_write(1, 0, &[0x11; 16]).unwrap(); // lsn 1
        let i1 = j.append_writeback_intent(1, w1.lsn).unwrap(); // lsn 2
        j.append_writeback_commit(1, i1.lsn).unwrap(); // lsn 3
        j.append_write(2, 8, &[0x22; 8]).unwrap(); // lsn 4, live
        j.append_write(1, 4, &[0x33; 4]).unwrap(); // lsn 5, live
        j
    }

    /// Line 1 is durable up to LSN 1, nothing else.
    fn line1_durable_to_1(line: u64) -> u64 {
        u64::from(line == 1)
    }

    #[test]
    fn checkpoint_replaces_the_dead_prefix_with_one_record() {
        let j = half_committed_journal();
        let full = j.snapshot();
        let appended = j.appended_bytes();
        let amplification = j.write_amplification();
        let freed = j.checkpoint(line1_durable_to_1).unwrap();
        // Three records (write 16 B, intent, commit) became one checkpoint.
        assert_eq!(freed as usize, 2 * RECORD_OVERHEAD_BYTES + 16);
        let image = j.snapshot();
        assert_eq!(j.live_bytes(), image.len() as u64);
        assert_eq!(image.len() + freed as usize, full.len());
        // The suffix is the full journal's, byte for byte.
        assert_eq!(
            image[RECORD_OVERHEAD_BYTES..],
            full[full.len() - (image.len() - 48)..]
        );
        let decoded = decode_records(&image).unwrap();
        assert_eq!(decoded.base_lsn, 3);
        assert!(!decoded.torn_tail);
        let lsns: Vec<u64> = decoded.records.iter().map(JournalRecord::lsn).collect();
        assert_eq!(lsns, vec![4, 5]);
        // Counters still count every byte ever appended; LSNs go on.
        assert_eq!(j.appended_bytes(), appended);
        assert_eq!(j.write_amplification(), amplification);
        assert_eq!(j.len(), 5);
        assert_eq!(j.append_write(2, 0, &[1]).unwrap().lsn, 6);
        assert_eq!(
            j.appended_bytes(),
            appended + RECORD_OVERHEAD_BYTES as u64 + 1
        );
    }

    #[test]
    fn checkpointed_and_full_journals_recover_the_same_media() {
        let j = half_committed_journal();
        let full = j.snapshot();
        j.checkpoint(line1_durable_to_1).unwrap();
        let cut = j.snapshot();
        let (data_full, gpu, backing) = recovery_rig();
        recover(&full, backing.as_ref(), &gpu, 1024).unwrap();
        let (data_cut, gpu, backing) = recovery_rig();
        let report = recover(&cut, backing.as_ref(), &gpu, 1024).unwrap();
        assert_eq!(report.records_scanned, 2);
        assert_eq!(report.replayed_lines, 2);
        assert_eq!(media(&data_full), media(&data_cut));
        // The same writes are pending on the same lines; only the horizon
        // reported for line 1 went with its commit.
        let pending = |image: &[u8]| -> Vec<(u64, u64, u64)> {
            let plan = replay_plan(image, 16, 64).unwrap();
            plan.iter()
                .map(|l| (l.line, l.pending_writes, l.pending_bytes))
                .collect()
        };
        assert_eq!(pending(&full), pending(&cut));
    }

    #[test]
    fn a_checkpoint_that_frees_nothing_writes_nothing() {
        let j = CacheJournal::new();
        j.append_write(0, 0, &[1; 8]).unwrap();
        j.append_writeback_intent(0, 1).unwrap();
        let before = j.snapshot();
        // The first write is live: nothing in front of it to drop.
        assert_eq!(j.checkpoint(|_| 0).unwrap(), 0);
        assert_eq!(j.snapshot(), before);
        // A prefix of exactly one 48-byte record is not worth a 48-byte
        // checkpoint record either.
        let j = CacheJournal::new();
        j.append_writeback_intent(0, 0).unwrap();
        j.append_write(0, 0, &[1; 8]).unwrap();
        assert_eq!(j.checkpoint(|_| 0).unwrap(), 0);
        assert_eq!(decode_records(&j.snapshot()).unwrap().base_lsn, 0);
    }

    #[test]
    fn a_journal_with_no_commits_never_shrinks() {
        let j = CacheJournal::new();
        let mut live = 0;
        for i in 0..20_000u64 {
            j.append_write(i % 16, (i % 8) * 8, &i.to_le_bytes())
                .unwrap();
            if i.is_multiple_of(5) {
                // An intent whose write-back never committed.
                j.append_writeback_intent(i % 16, i).unwrap();
            }
            assert_eq!(j.checkpoint(|_| 0).unwrap(), 0);
            assert!(j.live_bytes() > live, "the journal shrank at op {i}");
            live = j.live_bytes();
        }
        assert!(live > CHECKPOINT_FLOOR_BYTES);
        assert_eq!(live, j.appended_bytes());
    }

    #[test]
    fn a_second_checkpoint_replaces_the_first() {
        let j = half_committed_journal();
        j.checkpoint(line1_durable_to_1).unwrap();
        let i = j.append_writeback_intent(2, 4).unwrap(); // lsn 6
        j.append_writeback_commit(2, i.lsn).unwrap(); // lsn 7
        let i = j.append_writeback_intent(1, 5).unwrap(); // lsn 8
        j.append_writeback_commit(1, i.lsn).unwrap(); // lsn 9
        j.append_write(3, 0, &[9; 4]).unwrap(); // lsn 10, live
        let appended = j.appended_bytes();
        let durable = |line| match line {
            1 => 5,
            2 => 4,
            _ => 0,
        };
        j.checkpoint(durable).unwrap();
        let decoded = decode_records(&j.snapshot()).unwrap();
        assert_eq!(decoded.base_lsn, 9);
        assert_eq!(decoded.records.len(), 1);
        assert_eq!(j.live_bytes() as usize, 2 * RECORD_OVERHEAD_BYTES + 4);
        assert_eq!(j.appended_bytes(), appended);
        // With everything durable the journal is one checkpoint record.
        let i = j.append_writeback_intent(3, 10).unwrap();
        j.append_writeback_commit(3, i.lsn).unwrap();
        j.checkpoint(|_| u64::MAX).unwrap();
        assert_eq!(j.live_bytes() as usize, RECORD_OVERHEAD_BYTES);
        assert_eq!(decode_records(&j.snapshot()).unwrap().base_lsn, 12);
    }

    #[test]
    fn checkpoint_due_waits_for_the_floor_then_for_doubling() {
        let j = CacheJournal::new();
        let record = (RECORD_OVERHEAD_BYTES + 64) as u64;
        let mut w = 0;
        while j.live_bytes() < CHECKPOINT_FLOOR_BYTES {
            assert!(!j.checkpoint_due());
            w = j.append_write(0, 0, &[7; 64]).unwrap().lsn;
        }
        assert!(j.checkpoint_due());
        // Keep the newest 5 000 records live; the rest are durable.
        j.checkpoint(|_| w - 5_000).unwrap();
        let left = j.live_bytes();
        assert_eq!(left, RECORD_OVERHEAD_BYTES as u64 + 5_000 * record);
        assert!(2 * left > CHECKPOINT_FLOOR_BYTES);
        assert!(!j.checkpoint_due());
        while j.live_bytes() < 2 * left {
            assert!(!j.checkpoint_due());
            j.append_write(0, 0, &[7; 64]).unwrap();
        }
        assert!(j.checkpoint_due());
        // A checkpoint that frees nothing still re-arms the trigger.
        assert_eq!(j.checkpoint(|_| 0).unwrap(), 0);
        assert!(!j.checkpoint_due());
    }

    #[test]
    fn a_crashed_checkpoint_leaves_the_journal_as_it_was() {
        let cp = Arc::new(CrashPoint::new());
        let j = CacheJournal::with_crash_point(cp.clone());
        let w = j.append_write(1, 0, &[0x11; 16]).unwrap();
        let i = j.append_writeback_intent(1, w.lsn).unwrap();
        j.append_writeback_commit(1, i.lsn).unwrap();
        j.append_write(2, 0, &[0x22; 16]).unwrap();
        let before = j.snapshot();
        cp.arm(cp.steps_taken(), 20);
        assert_eq!(j.checkpoint(line1_durable_to_1), Err(BamError::Crashed));
        assert_eq!(j.snapshot(), before);
        assert_eq!(j.checkpoint(line1_durable_to_1), Err(BamError::Crashed));
        assert_eq!(j.snapshot(), before);
        // A checkpoint with nothing to free takes no durable step.
        cp.reset();
        j.append_write(3, 0, &[1]).unwrap();
        let steps = cp.steps_taken();
        assert_eq!(j.checkpoint(|_| 0).unwrap(), 0);
        assert_eq!(cp.steps_taken(), steps);
        assert!(j.checkpoint(line1_durable_to_1).unwrap() > 0);
        assert_eq!(cp.steps_taken(), steps + 1);
    }

    #[test]
    fn a_checkpoint_keeps_a_torn_tail_for_truncation() {
        let cp = Arc::new(CrashPoint::new());
        let j = CacheJournal::with_crash_point(cp.clone());
        let w = j.append_write(1, 0, &[0x11; 16]).unwrap();
        let i = j.append_writeback_intent(1, w.lsn).unwrap();
        j.append_writeback_commit(1, i.lsn).unwrap();
        j.checkpoint(line1_durable_to_1).unwrap();
        cp.arm(cp.steps_taken(), 30);
        assert_eq!(j.append_write(2, 0, &[2; 16]), Err(BamError::Crashed));
        let d = decode_records(&j.snapshot()).unwrap();
        assert!(d.torn_tail);
        assert_eq!(d.base_lsn, 3);
        assert_eq!(j.truncate_torn_tail().unwrap(), 30);
        assert_eq!(j.live_bytes() as usize, RECORD_OVERHEAD_BYTES);
    }

    /// The 48 bytes of a checkpoint record with base `lsn`.
    fn checkpoint_record(lsn: u64) -> Vec<u8> {
        let mut rec = vec![0; RECORD_OVERHEAD_BYTES];
        frame_record(&mut rec, KIND_CHECKPOINT, lsn, 0, 0);
        rec
    }

    #[test]
    fn a_checkpoint_record_is_valid_only_first() {
        let j = CacheJournal::new();
        j.append_write(0, 0, &[1; 8]).unwrap();
        let mut bytes = j.snapshot();
        bytes.extend_from_slice(&checkpoint_record(1));
        assert_eq!(
            decode_records(&bytes),
            Err(BamError::JournalCorrupt { lsn: 2 })
        );
        // First, it sets where the LSNs continue; a gap is corruption.
        let mut bytes = checkpoint_record(41);
        let tail = j.snapshot();
        bytes.extend_from_slice(&tail);
        assert_eq!(
            decode_records(&bytes),
            Err(BamError::JournalCorrupt { lsn: 42 })
        );
        let mut bytes = checkpoint_record(0);
        bytes.extend_from_slice(&tail);
        assert_eq!(decode_records(&bytes).unwrap().records.len(), 1);
        // A checkpoint record that carries a payload is corrupt.
        let mut rec = vec![0; RECORD_OVERHEAD_BYTES + 1];
        frame_record(&mut rec, KIND_CHECKPOINT, 5, 0, 0);
        assert_eq!(
            decode_records(&rec),
            Err(BamError::JournalCorrupt { lsn: 1 })
        );
    }

    #[test]
    fn orphan_commits_are_skipped_but_missing_intents_above_the_base_are_corrupt() {
        let (_data, gpu, backing) = recovery_rig();
        let j = CacheJournal::new();
        j.append_write(1, 0, &[1; 8]).unwrap(); // lsn 1
        let i = j.append_writeback_intent(1, 1).unwrap(); // lsn 2
        j.append_write(2, 0, &[2; 8]).unwrap(); // lsn 3, live
        j.append_writeback_commit(1, i.lsn).unwrap(); // lsn 4
                                                      // Write 1 is durable, so the cut takes it and intent 2 and stops at
                                                      // the live write 3, leaving commit 4 an orphan.
        j.checkpoint(line1_durable_to_1).unwrap();
        let image = j.snapshot();
        let decoded = decode_records(&image).unwrap();
        assert_eq!(decoded.base_lsn, 2);
        let report = recover(&image, backing.as_ref(), &gpu, 1024).unwrap();
        assert_eq!(report.committed_writebacks, 1, "the orphan is seen");
        assert_eq!(report.replayed_lines, 1, "and only line 2 is redone");
        // A commit naming an intent above the base that is not there.
        let j = CacheJournal::new();
        j.append_write(1, 0, &[1; 8]).unwrap();
        let i = j.append_writeback_intent(1, 1).unwrap();
        j.append_writeback_commit(1, i.lsn).unwrap();
        j.append_write(2, 0, &[2; 8]).unwrap();
        j.checkpoint(line1_durable_to_1).unwrap(); // base 3
        j.append_writeback_commit(2, 4).unwrap(); // names write 4
        assert_eq!(
            recover(&j.snapshot(), backing.as_ref(), &gpu, 1024),
            Err(BamError::JournalCorrupt { lsn: 5 })
        );
    }

    /// A backing store whose `fail_at`-th line write-back (counting from 0)
    /// fails; every other call goes through.
    struct FailNthWriteback {
        inner: Arc<MemoryBacking>,
        fail_at: u64,
        writebacks: std::sync::atomic::AtomicU64,
    }

    impl CacheBacking for FailNthWriteback {
        fn line_bytes(&self) -> u64 {
            self.inner.line_bytes()
        }

        fn num_lines(&self) -> u64 {
            self.inner.num_lines()
        }

        fn fetch_lines(&self, requests: &[(u64, DevAddr)], outcomes: &mut [Result<(), BamError>]) {
            self.inner.fetch_lines(requests, outcomes);
        }

        fn writeback_line(&self, line: u64, src: DevAddr) -> Result<(), BamError> {
            let n = self
                .writebacks
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if n == self.fail_at {
                return Err(BamError::Crashed);
            }
            self.inner.writeback_line(line, src)
        }
    }

    fn media(data: &ByteRegion) -> Vec<u8> {
        let mut bytes = vec![0; 16 * 64];
        data.read_bytes(0, &mut bytes);
        bytes
    }

    /// Recovery interrupted at its `k`-th line write-back, for every `k`,
    /// then run again in full, leaves the media a clean recovery leaves.
    fn assert_interrupted_replay_is_idempotent(image: &[u8]) {
        let (clean, gpu, backing) = recovery_rig();
        let lines = recover(image, backing.as_ref(), &gpu, 1024)
            .unwrap()
            .replayed_lines;
        assert!(lines >= 3, "too little to interrupt: {lines} lines");
        for k in 0..lines {
            let (data, gpu, backing) = recovery_rig();
            let failing = FailNthWriteback {
                inner: backing.clone(),
                fail_at: k,
                writebacks: 0.into(),
            };
            assert_eq!(
                recover(image, &failing, &gpu, 1024),
                Err(BamError::Crashed),
                "write-back {k}"
            );
            recover(image, backing.as_ref(), &gpu, 1024).unwrap();
            assert_eq!(media(&data), media(&clean), "interrupted at write-back {k}");
        }
    }

    #[test]
    fn a_replay_interrupted_at_any_line_finishes_idempotently() {
        let j = CacheJournal::new();
        let mut durable = [0u64; 16];
        for i in 0..96u64 {
            let line = (i * 7) % 16;
            let w = j.append_write(line, (i % 7) * 8, &[i as u8; 9]).unwrap();
            if i % 5 == 4 {
                let intent = j.append_writeback_intent(line, w.lsn).unwrap();
                j.append_writeback_commit(line, intent.lsn).unwrap();
                durable[line as usize] = w.lsn;
            }
        }
        assert_interrupted_replay_is_idempotent(&j.snapshot());
        assert!(j.checkpoint(|line| durable[line as usize]).unwrap() > 0);
        let image = j.snapshot();
        assert!(decode_records(&image).unwrap().base_lsn > 0);
        assert_interrupted_replay_is_idempotent(&image);
    }

    #[test]
    fn write_amplification_is_journal_bytes_over_payload() {
        let j = CacheJournal::new();
        assert_eq!(j.write_amplification(), 1.0);
        j.append_write(0, 0, &[0; 48]).unwrap();
        let expected = (RECORD_OVERHEAD_BYTES as f64 + 48.0) / 48.0;
        assert!((j.write_amplification() - expected).abs() < 1e-12);
        assert!(!j.is_empty());
        assert_eq!(j.len(), 1);
    }
}
