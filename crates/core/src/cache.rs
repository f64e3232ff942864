//! The BaM software cache (paper §3.4).
//!
//! The cache is sized and allocated entirely at startup, keeping the runtime
//! critical sections tiny: probing is a single atomic read-modify-write on a
//! per-line state word, insertion locks only the line being inserted (by
//! flipping it to a transient *busy* state), and eviction uses a clock hand
//! advanced with one atomic increment so concurrent threads evict distinct
//! slots in parallel. Reference counts pin lines while in use; dirty bits
//! drive write-back.
//!
//! Both entry points — [`BamCache::acquire`] (one line, held by a
//! [`LineGuard`]) and [`BamCache::acquire_each`] (a batch, each line visited
//! in place) — take the same two steps: one probe of the line's state word,
//! and, for the lines it claimed, one fill that hands them to a single
//! [`CacheBacking::fetch_lines`] call and then publishes each line VALID or
//! rolls it back.
//!
//! Per-line state is a packed 64-bit word:
//!
//! ```text
//!  63           32 31    4  3      2     1..0
//! +---------------+--------+--------+---------+
//! |   slot index  | refcnt | dirty  |  state  |
//! +---------------+--------+--------+---------+
//! ```
//!
//! with `state ∈ {INVALID, BUSY, VALID}`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use bam_mem::DevAddr;

use crate::backing::CacheBacking;
use crate::error::BamError;
use crate::fixed::{FixedVec, MAX_BATCH};
use crate::journal::CacheJournal;
use crate::metrics::BamMetrics;
use crate::queue::spin_wait;

const STATE_INVALID: u64 = 0;
const STATE_BUSY: u64 = 1;
const STATE_VALID: u64 = 2;
const STATE_MASK: u64 = 0b11;
const DIRTY_BIT: u64 = 1 << 2;
const REF_SHIFT: u32 = 3;
const REF_MASK: u64 = (1 << 29) - 1; // 29 bits of reference count
const SLOT_SHIFT: u32 = 32;

/// Sentinel in `slot_to_line` marking a slot claimed by an in-progress fetch.
const SLOT_CLAIMED: u64 = u64::MAX;

/// Stripes in the per-line write-lock table. Same-line writes serialize on
/// their stripe so journal LSN order matches the order payloads land in the
/// line image (see [`BamCache::journalled_write`]).
const WRITE_LOCK_STRIPES: usize = 64;

#[inline]
fn pack(state: u64, dirty: bool, refs: u64, slot: u64) -> u64 {
    debug_assert!(refs <= REF_MASK);
    state | if dirty { DIRTY_BIT } else { 0 } | (refs << REF_SHIFT) | (slot << SLOT_SHIFT)
}

#[inline]
fn state_of(word: u64) -> u64 {
    word & STATE_MASK
}

#[inline]
fn is_dirty(word: u64) -> bool {
    word & DIRTY_BIT != 0
}

#[inline]
fn refs_of(word: u64) -> u64 {
    (word >> REF_SHIFT) & REF_MASK
}

#[inline]
fn slot_of(word: u64) -> u64 {
    word >> SLOT_SHIFT
}

/// A pinned reference to a cache line, returned by [`BamCache::acquire`].
///
/// While the guard lives, the line cannot be evicted. Dropping it releases
/// the reference (the paper's "decrement its reference count when done").
pub struct LineGuard<'a> {
    cache: &'a BamCache,
    line: u64,
    slot: u64,
    fetched: bool,
}

/// What one [`BamCache::probe`] of a line's state word found.
enum Probe {
    /// The line was VALID in this slot and is now pinned.
    Hit(u64),
    /// Another thread is fetching or evicting the line.
    Busy,
    /// The line was INVALID and the caller now holds it BUSY: it must fill
    /// the line or roll it back.
    Claimed,
}

/// A miss whose line is claimed BUSY and holds a slot, its read not yet
/// issued ([`BamCache::fill`]).
#[derive(Clone, Copy)]
struct PendingMiss<R> {
    line: u64,
    slot: u64,
    tag: R,
}

/// What one [`BamCache::acquire_each`] call has in flight.
struct Batch<R> {
    pending: FixedVec<PendingMiss<R>, MAX_BATCH>,
    /// Later requests for a pending line: `(tag, line)`.
    waiters: FixedVec<(R, u64), MAX_BATCH>,
    /// Lines this call has fetched (or claimed to fetch) so far.
    fetched: u64,
    /// This call's cache hits and misses, added to [`BamMetrics`] once,
    /// when it returns.
    hits: u64,
    misses: u64,
}

impl LineGuard<'_> {
    /// The cache line index this guard pins.
    pub fn line(&self) -> u64 {
        self.line
    }

    /// GPU-memory address of the first byte of the cached line.
    pub fn addr(&self) -> DevAddr {
        self.cache.slot_addr(self.slot)
    }

    /// Whether the acquire that returned this guard missed and fetched the
    /// line itself.
    pub fn fetched(&self) -> bool {
        self.fetched
    }

    /// Marks the line dirty (call after writing through [`LineGuard::addr`]).
    pub fn mark_dirty(&self) {
        self.cache.line_state[self.line as usize].fetch_or(DIRTY_BIT, Ordering::AcqRel);
    }
}

impl Drop for LineGuard<'_> {
    fn drop(&mut self) {
        self.cache.release(self.line);
    }
}

impl std::fmt::Debug for LineGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LineGuard")
            .field("line", &self.line)
            .field("slot", &self.slot)
            .finish()
    }
}

/// The BaM software cache.
pub struct BamCache {
    backing: Arc<dyn CacheBacking>,
    metrics: Arc<BamMetrics>,
    /// Per-line packed state word.
    line_state: Vec<AtomicU64>,
    /// Per-slot owner line (+1), 0 when empty, `SLOT_CLAIMED` mid-fetch.
    slot_to_line: Vec<AtomicU64>,
    /// Clock hand for eviction.
    clock: AtomicU64,
    /// Base address of the slot data array in GPU memory.
    slots_base: DevAddr,
    line_bytes: u64,
    num_slots: u64,
    /// Most misses one [`BamCache::acquire_each`] call keeps claimed at once.
    batch_cap: usize,
    /// Write-ahead metadata journal; when present, every acknowledged write
    /// and every dirty-line write-back is journalled (see [`crate::journal`]).
    journal: Option<Arc<CacheJournal>>,
    /// Per-line newest write LSN whose payload has landed in the cached line
    /// image (0 = none). Write-back intents cover exactly this horizon: a
    /// journalled-but-unapplied write stays above it and is replayed by
    /// recovery, so a flush racing with a write can never seal a commit
    /// claiming bytes the media never saw.
    applied_lsn: Vec<AtomicU64>,
    /// Per-line newest write LSN a committed write-back in the journal
    /// covers (0 = none): the journal's checkpoint drops write records at or
    /// below it. Raised only after the commit is appended, so it never runs
    /// ahead of the journal; a stale horizon only keeps more records. Sized
    /// when a journal is attached.
    durable_lsn: Vec<AtomicU64>,
    /// Striped per-line write locks held across journal-append + data-apply
    /// in [`BamCache::journalled_write`], keeping `applied_lsn` monotone in
    /// LSN order under concurrent same-line writers.
    write_locks: Vec<Mutex<()>>,
}

impl std::fmt::Debug for BamCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BamCache")
            .field("num_slots", &self.num_slots)
            .field("num_lines", &self.line_state.len())
            .field("line_bytes", &self.line_bytes)
            .finish()
    }
}

impl BamCache {
    /// Creates a cache of `num_slots` lines over `backing`, with slot storage
    /// pre-allocated at `slots_base` in GPU memory (`num_slots × line_bytes`
    /// bytes).
    ///
    /// # Panics
    ///
    /// Panics if `num_slots` is zero.
    pub fn new(
        backing: Arc<dyn CacheBacking>,
        metrics: Arc<BamMetrics>,
        slots_base: DevAddr,
        num_slots: u64,
    ) -> Self {
        assert!(num_slots > 0, "cache must have at least one slot");
        let num_lines = backing.num_lines();
        let line_bytes = backing.line_bytes();
        let mut line_state = Vec::with_capacity(num_lines as usize);
        line_state.resize_with(num_lines as usize, || {
            AtomicU64::new(pack(STATE_INVALID, false, 0, 0))
        });
        let mut slot_to_line = Vec::with_capacity(num_slots as usize);
        slot_to_line.resize_with(num_slots as usize, || AtomicU64::new(0));
        let mut applied_lsn = Vec::with_capacity(num_lines as usize);
        applied_lsn.resize_with(num_lines as usize, || AtomicU64::new(0));
        let mut write_locks = Vec::with_capacity(WRITE_LOCK_STRIPES);
        write_locks.resize_with(WRITE_LOCK_STRIPES, || Mutex::new(()));
        Self {
            backing,
            metrics,
            line_state,
            slot_to_line,
            clock: AtomicU64::new(0),
            slots_base,
            line_bytes,
            num_slots,
            // At most a quarter of the slots, so that one thread's batch
            // leaves victims for the threads running beside it.
            batch_cap: MAX_BATCH.min((num_slots / 4).max(1) as usize),
            journal: None,
            applied_lsn,
            durable_lsn: Vec::new(),
            write_locks,
        }
    }

    /// Attaches a write-ahead journal: from here on, writes acknowledged via
    /// [`BamCache::journalled_write`] and dirty-line write-backs are durably
    /// logged, making the cache crash-recoverable through
    /// [`crate::journal::recover`].
    pub fn with_journal(mut self, journal: Arc<CacheJournal>) -> Self {
        self.journal = Some(journal);
        self.durable_lsn
            .resize_with(self.line_state.len(), || AtomicU64::new(0));
        self
    }

    /// The attached write-ahead journal, if any.
    pub fn journal(&self) -> Option<&Arc<CacheJournal>> {
        self.journal.as_ref()
    }

    /// Cache line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Number of backing lines.
    pub fn num_lines(&self) -> u64 {
        self.line_state.len() as u64
    }

    /// GPU-memory address of slot `slot`.
    fn slot_addr(&self, slot: u64) -> DevAddr {
        self.slots_base + slot * self.line_bytes
    }

    /// Acquires (pins) `line`, fetching it from the backing store on a miss.
    ///
    /// This is the cache-probe path of Figure 2: probe the line state ❹; on a
    /// hit bump the reference count; on a miss lock the line (busy), find a
    /// victim with the clock hand, fetch from backing ❺–❼ and publish, and
    /// return. Probe and fill are the steps [`BamCache::acquire_each`] takes
    /// too; a miss here is a one-line fill.
    ///
    /// # Errors
    ///
    /// Returns [`BamError::IndexOutOfBounds`] for a line beyond the backing
    /// store, [`BamError::CacheThrashing`] if every slot stays pinned, or a
    /// storage error from the fetch.
    pub fn acquire(&self, line: u64) -> Result<LineGuard<'_>, BamError> {
        self.check_line(line)?;
        let mut spins = 0u64;
        let (slot, fetched) = loop {
            match self.probe(line) {
                Probe::Hit(slot) => {
                    self.metrics.record_lookups(1, 0);
                    break (slot, false);
                }
                // Another thread is fetching or evicting this line; the lock
                // on the line prevents duplicate storage requests.
                Probe::Busy => spin_wait(&mut spins),
                Probe::Claimed => {
                    self.metrics.record_lookups(0, 1);
                    let slot = self.find_victim(line, self.victim_patience(), || Ok(()))?;
                    let mut miss = FixedVec::<_, 1>::new();
                    miss.push(PendingMiss {
                        line,
                        slot,
                        tag: (),
                    });
                    self.fill(&mut miss, |_, _| {})?;
                    break (slot, true);
                }
            }
        };
        Ok(LineGuard {
            cache: self,
            line,
            slot,
            fetched,
        })
    }

    fn check_line(&self, line: u64) -> Result<(), BamError> {
        if line >= self.num_lines() {
            return Err(BamError::IndexOutOfBounds {
                index: line,
                len: self.num_lines(),
            });
        }
        Ok(())
    }

    /// One probe of `line`'s state word ❹: pins a VALID line, reports a BUSY
    /// one, or claims an INVALID one BUSY. Only a lost CAS is retried.
    #[inline]
    fn probe(&self, line: u64) -> Probe {
        let state = &self.line_state[line as usize];
        loop {
            let cur = state.load(Ordering::Acquire);
            match state_of(cur) {
                STATE_VALID => {
                    let pinned = pack(STATE_VALID, is_dirty(cur), refs_of(cur) + 1, slot_of(cur));
                    if state
                        .compare_exchange_weak(cur, pinned, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return Probe::Hit(slot_of(cur));
                    }
                }
                STATE_BUSY => return Probe::Busy,
                _ => {
                    let busy = pack(STATE_BUSY, false, 0, 0);
                    if state
                        .compare_exchange_weak(cur, busy, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return Probe::Claimed;
                    }
                }
            }
        }
    }

    /// Acquires each `(line, tag)` of `requests` and calls `visit(tag, addr)`
    /// once per request with the line pinned at `addr`, overlapping the
    /// misses' storage reads. Returns the number of lines this call fetched.
    ///
    /// The requests are walked in order. A hit is pinned, visited and
    /// released on the spot, exactly as [`BamCache::acquire`] would. A miss
    /// claims the line BUSY and a clock victim but does not fetch yet; a
    /// later request for a line this call has already claimed counts as the
    /// hit it would have been and is visited with it. Only then are all the
    /// claimed lines filled together — one [`CacheBacking::fetch_lines`]
    /// call, then each line published VALID, as an [`BamCache::acquire`]
    /// miss is — visited and released, so visits do *not* happen in request
    /// order; `tag` tells the visitor which request it is serving.
    ///
    /// With one thread the lines probed, every hit/miss classification, every
    /// victim and the order of storage commands are those of acquiring the
    /// requests one by one: a claimed line differs from the released one it
    /// would have been only to the clock, the slots a batch has claimed are
    /// the run just behind the hand, and at most `min(32, num_slots / 4)` of
    /// them are claimed at a time — the hand never comes round to one.
    ///
    /// A thread holding claimed lines never waits on another thread: before
    /// spinning on a line someone else is fetching, and before a dirty
    /// victim's synchronous write-back, it completes its own claimed lines;
    /// a victim search that finds nothing quickly ends the batch early and
    /// the request is acquired alone ([`BamCache::acquire`]), holding
    /// nothing while it searches patiently.
    ///
    /// # Errors
    ///
    /// The first error of any request, after which no request is left
    /// unvisited-but-pinned, no line BUSY and no slot claimed: a failed fetch
    /// rolls back its own line only.
    pub fn acquire_each<R: Copy>(
        &self,
        requests: impl IntoIterator<Item = (u64, R)>,
        mut visit: impl FnMut(R, DevAddr),
    ) -> Result<u64, BamError> {
        let mut batch = Batch {
            pending: FixedVec::new(),
            waiters: FixedVec::new(),
            fetched: 0,
            hits: 0,
            misses: 0,
        };
        let walked = requests
            .into_iter()
            .try_for_each(|(line, tag)| self.walk(line, tag, &mut batch, &mut visit));
        // What is claimed is completed either way, and the first error wins.
        let completed = self.complete(&mut batch, &mut visit);
        self.metrics.record_lookups(batch.hits, batch.misses);
        walked.and(completed)?;
        Ok(batch.fetched)
    }

    /// One step of [`BamCache::acquire_each`]'s walk.
    fn walk<R: Copy>(
        &self,
        line: u64,
        tag: R,
        batch: &mut Batch<R>,
        visit: &mut impl FnMut(R, DevAddr),
    ) -> Result<(), BamError> {
        self.check_line(line)?;
        loop {
            match self.probe(line) {
                Probe::Hit(slot) => {
                    batch.hits += 1;
                    visit(tag, self.slot_addr(slot));
                    self.release(line);
                    return Ok(());
                }
                Probe::Busy => {
                    if !batch.pending.iter().any(|p| p.line == line) {
                        // Someone else is fetching or evicting the line.
                        // Holding BUSY lines while spinning on theirs could
                        // deadlock, so ours are completed first.
                        self.complete(batch, visit)?;
                        return self.acquire_one(line, tag, batch, visit);
                    }
                    if batch.waiters.is_full() {
                        self.complete(batch, visit)?;
                        continue; // now a plain hit
                    }
                    batch.hits += 1;
                    batch.waiters.push((tag, line));
                    return Ok(());
                }
                Probe::Claimed => {
                    // With lines claimed, look for a victim only briefly:
                    // whole sweeps, which leave the hand where it was.
                    let patience = if batch.pending.is_empty() {
                        self.victim_patience()
                    } else {
                        2 * self.num_slots
                    };
                    let victim = self.find_victim(line, patience, || self.complete(batch, visit));
                    let slot = match victim {
                        Ok(slot) => slot,
                        Err(e) => {
                            if e != BamError::CacheThrashing || batch.pending.is_empty() {
                                return Err(e);
                            }
                            self.complete(batch, visit)?;
                            return self.acquire_one(line, tag, batch, visit);
                        }
                    };
                    batch.misses += 1;
                    batch.fetched += 1;
                    batch.pending.push(PendingMiss { line, slot, tag });
                    if batch.pending.len() >= self.batch_cap {
                        self.complete(batch, visit)?;
                    }
                    return Ok(());
                }
            }
        }
    }

    /// [`BamCache::acquire`]s one request of a batch that holds nothing.
    fn acquire_one<R: Copy>(
        &self,
        line: u64,
        tag: R,
        batch: &mut Batch<R>,
        visit: &mut impl FnMut(R, DevAddr),
    ) -> Result<(), BamError> {
        debug_assert!(batch.pending.is_empty());
        let guard = self.acquire(line)?;
        batch.fetched += u64::from(guard.fetched());
        visit(tag, guard.addr());
        Ok(())
    }

    /// Fills every claimed line of `batch` ([`BamCache::fill`]), then
    /// visits each one published, for the claiming request and its waiters,
    /// and releases it. Returns the first fetch error.
    fn complete<R: Copy>(
        &self,
        batch: &mut Batch<R>,
        visit: &mut impl FnMut(R, DevAddr),
    ) -> Result<(), BamError> {
        if batch.pending.is_empty() {
            return Ok(());
        }
        let waiters = &batch.waiters;
        let filled = self.fill(&mut batch.pending, |miss, addr| {
            visit(miss.tag, addr);
            for &(tag, _) in waiters.iter().filter(|(_, line)| *line == miss.line) {
                visit(tag, addr);
            }
            self.release(miss.line);
        });
        batch.waiters.clear();
        filled
    }

    /// The one miss fill: fetches the lines of `misses` — each claimed BUSY
    /// and holding a slot — with one [`CacheBacking::fetch_lines`] call,
    /// then, in order, publishes each line VALID with one pin and calls
    /// `published(miss, addr)`, or rolls it back (slot freed, line INVALID).
    /// Leaves `misses` empty and returns the first fetch error.
    fn fill<R: Copy, const N: usize>(
        &self,
        misses: &mut FixedVec<PendingMiss<R>, N>,
        mut published: impl FnMut(PendingMiss<R>, DevAddr),
    ) -> Result<(), BamError> {
        let n = misses.len();
        let mut requests = [(0u64, 0 as DevAddr); N];
        let mut outcomes = [const { Ok(()) }; N];
        for (request, miss) in requests.iter_mut().zip(misses.iter()) {
            *request = (miss.line, self.slot_addr(miss.slot));
        }
        self.backing.fetch_lines(&requests[..n], &mut outcomes[..n]);

        let mut first_error = None;
        for (miss, outcome) in misses.drain().zip(outcomes) {
            let state = &self.line_state[miss.line as usize];
            if let Err(e) = outcome {
                self.slot_to_line[miss.slot as usize].store(0, Ordering::Release);
                state.store(pack(STATE_INVALID, false, 0, 0), Ordering::Release);
                first_error.get_or_insert(e);
                continue;
            }
            self.slot_to_line[miss.slot as usize].store(miss.line + 1, Ordering::Release);
            state.store(pack(STATE_VALID, false, 1, miss.slot), Ordering::Release);
            published(miss, self.slot_addr(miss.slot));
        }
        first_error.map_or(Ok(()), Err)
    }

    /// Journals and applies an application write of `payload` at byte
    /// `offset` within `line`: appends the redo record (the acknowledgement
    /// point), runs `apply` to land the bytes in the cached line image,
    /// advances the line's applied-LSN horizon, and marks the line dirty.
    ///
    /// The line's write-lock stripe is held across append + apply, so the
    /// applied horizon only ever names payloads that are really in GPU
    /// memory and rises in LSN order even under concurrent same-line
    /// writers. A write-back intent sealed mid-write therefore covers at
    /// most the previous write; the in-flight one stays above the horizon
    /// and is redone (idempotently) by recovery.
    ///
    /// Without a journal this is a plain apply + mark-dirty.
    ///
    /// # Errors
    ///
    /// Returns [`BamError::Crashed`] if an injected crash point tripped
    /// during the append; `apply` is not run and the line is untouched (the
    /// write was never acknowledged and owes the application nothing).
    pub fn journalled_write(
        &self,
        line: u64,
        offset: u64,
        payload: &[u8],
        apply: impl FnOnce(),
    ) -> Result<(), BamError> {
        let Some(journal) = &self.journal else {
            apply();
            self.line_state[line as usize].fetch_or(DIRTY_BIT, Ordering::AcqRel);
            return Ok(());
        };
        let _write_order = self.write_locks[line as usize % WRITE_LOCK_STRIPES].lock();
        let appended = journal.append_write(line, offset, payload)?;
        self.metrics.record_journal_append(appended.bytes);
        apply();
        self.applied_lsn[line as usize].fetch_max(appended.lsn, Ordering::AcqRel);
        self.line_state[line as usize].fetch_or(DIRTY_BIT, Ordering::AcqRel);
        Ok(())
    }

    /// Writes `line` back to the backing store under write-ahead journalling:
    /// intent before the media write, commit after it succeeded, then the
    /// line's durable horizon rises to what the intent covered and, once the
    /// journal has grown enough, a checkpoint cuts away the records no
    /// recovery needs. Without a journal this is a plain write-back.
    fn journalled_writeback(&self, line: u64, src: DevAddr) -> Result<(), BamError> {
        let Some(journal) = &self.journal else {
            return self.backing.writeback_line(line, src);
        };
        // Cover only writes whose payloads had landed in the line image
        // before the media write begins (never the journal's own view of
        // what was appended): anything racing past this snapshot is left
        // above the horizon for recovery to redo.
        let covered = self.applied_lsn[line as usize].load(Ordering::Acquire);
        let intent = journal.append_writeback_intent(line, covered)?;
        self.metrics.record_journal_append(intent.bytes);
        self.backing.writeback_line(line, src)?;
        let commit = journal.append_writeback_commit(line, intent.lsn)?;
        self.metrics.record_journal_append(commit.bytes);
        self.durable_lsn[line as usize].fetch_max(covered, Ordering::AcqRel);
        if journal.checkpoint_due() {
            journal.checkpoint(|l| {
                self.durable_lsn
                    .get(l as usize)
                    .map_or(0, |d| d.load(Ordering::Acquire))
            })?;
        }
        Ok(())
    }

    /// Rebuilds the cache directory after a crash: every line is INVALID,
    /// every slot empty, the clock hand rewound. Cached data in GPU memory is
    /// volatile and did not survive the crash; the journal replay
    /// ([`crate::journal::recover`]) has already restored acknowledged writes
    /// to the backing store, so a cold directory *is* the consistent state.
    ///
    /// The per-line applied-LSN horizons are deliberately kept: recovery has
    /// made every journalled write durable on the media, so each horizon
    /// still lower-bounds the write coverage of any freshly fetched line
    /// image (a conservative horizon only ever causes idempotent re-replay,
    /// never a lost write). The durable horizons are kept too: the commits
    /// that raised them are still in the journal.
    pub fn reset_after_crash(&self) {
        for state in &self.line_state {
            state.store(pack(STATE_INVALID, false, 0, 0), Ordering::Release);
        }
        for slot in &self.slot_to_line {
            slot.store(0, Ordering::Release);
        }
        self.clock.store(0, Ordering::Release);
    }

    /// Releases one reference on `line` (used by [`LineGuard::drop`]).
    fn release(&self, line: u64) {
        let prev = self.line_state[line as usize].fetch_sub(1 << REF_SHIFT, Ordering::AcqRel);
        debug_assert!(refs_of(prev) > 0, "release without a matching acquire");
    }

    /// Clock steps [`BamCache::acquire`] spends looking for a victim before it
    /// reports thrashing rather than hanging: enough full sweeps that
    /// short-lived pins held by concurrent threads get released (transient
    /// full-pin states are normal; permanent ones are the application bug
    /// the error reports).
    fn victim_patience(&self) -> u64 {
        self.num_slots * 4096 + 65_536
    }

    /// Finds a slot to hold `claimed`, a line the caller holds BUSY, evicting
    /// an unpinned valid line if necessary (clock replacement, §3.4), within
    /// `patience` clock steps. `before_writeback` runs before a dirty victim
    /// is synchronously written back — the one place the search blocks on
    /// storage; its error abandons the eviction. A search that fails returns
    /// `claimed` to INVALID, so no thread is stuck behind a line left BUSY.
    fn find_victim(
        &self,
        claimed: u64,
        patience: u64,
        mut before_writeback: impl FnMut() -> Result<(), BamError>,
    ) -> Result<u64, BamError> {
        let mut error = BamError::CacheThrashing;
        // Yield between sweeps so concurrent threads get to drop their pins.
        for attempt in 0..patience {
            if attempt > 0 && attempt % self.num_slots == 0 {
                std::thread::yield_now();
            }
            let slot = self.clock.fetch_add(1, Ordering::Relaxed) % self.num_slots;
            let owner = self.slot_to_line[slot as usize].load(Ordering::Acquire);
            if owner == SLOT_CLAIMED {
                continue;
            }
            if owner == 0 {
                // Empty slot: claim it.
                if self.slot_to_line[slot as usize]
                    .compare_exchange(0, SLOT_CLAIMED, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    return Ok(slot);
                }
                continue;
            }
            let victim_line = owner - 1;
            let vstate = &self.line_state[victim_line as usize];
            let cur = vstate.load(Ordering::Acquire);
            if state_of(cur) != STATE_VALID || refs_of(cur) != 0 || slot_of(cur) != slot {
                continue; // pinned, busy, or stale mapping — advance the hand
            }
            // Lock the victim line while we (possibly) write it back, so a
            // concurrent re-fetch of the victim cannot read stale media.
            let busy = pack(STATE_BUSY, false, 0, 0);
            if vstate
                .compare_exchange(cur, busy, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            if is_dirty(cur) {
                let written = before_writeback()
                    .and_then(|()| self.journalled_writeback(victim_line, self.slot_addr(slot)));
                if let Err(e) = written {
                    // Put the victim back exactly as found (valid, dirty,
                    // unpinned, same slot) so the line is neither wedged busy
                    // nor silently stripped of its dirty data.
                    vstate.store(cur, Ordering::Release);
                    error = e;
                    break;
                }
                self.metrics.record_writeback();
            }
            vstate.store(pack(STATE_INVALID, false, 0, 0), Ordering::Release);
            self.slot_to_line[slot as usize].store(SLOT_CLAIMED, Ordering::Release);
            self.metrics.record_eviction();
            return Ok(slot);
        }
        self.line_state[claimed as usize]
            .store(pack(STATE_INVALID, false, 0, 0), Ordering::Release);
        Err(error)
    }

    /// Writes back every dirty line (the cache is write-back; the paper's API
    /// exposes exactly this flush, §4.4).
    ///
    /// # Errors
    ///
    /// Propagates backing-store write errors.
    pub fn flush(&self) -> Result<u64, BamError> {
        let mut flushed = 0;
        for line in 0..self.num_lines() {
            let state = &self.line_state[line as usize];
            loop {
                let cur = state.load(Ordering::Acquire);
                if state_of(cur) != STATE_VALID || !is_dirty(cur) {
                    break;
                }
                // Clear the dirty bit first; a concurrent write re-dirties
                // and will be caught by a later flush.
                let cleaned = cur & !DIRTY_BIT;
                if state
                    .compare_exchange(cur, cleaned, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    if let Err(e) = self.journalled_writeback(line, self.slot_addr(slot_of(cur))) {
                        // The media write failed, so the line is still dirty:
                        // restore the bit or the data would be silently lost.
                        state.fetch_or(DIRTY_BIT, Ordering::AcqRel);
                        return Err(e);
                    }
                    self.metrics.record_writeback();
                    flushed += 1;
                    break;
                }
            }
        }
        Ok(flushed)
    }

    /// Returns `(state, refcount, dirty)` of a line for tests and debugging.
    pub fn line_debug(&self, line: u64) -> (u8, u64, bool) {
        let cur = self.line_state[line as usize].load(Ordering::Acquire);
        (state_of(cur) as u8, refs_of(cur), is_dirty(cur))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::{fetch_one, MemoryBacking};
    use bam_mem::ByteRegion;

    /// 64 lines of 512 bytes in "storage", an 8-slot cache in "GPU memory".
    fn rig(num_slots: u64) -> (Arc<ByteRegion>, Arc<ByteRegion>, BamCache) {
        let data = Arc::new(ByteRegion::new(64 * 512));
        for line in 0..64u64 {
            data.write_bytes(line * 512, &vec![line as u8; 512]);
        }
        let gpu = Arc::new(ByteRegion::new(1 << 20));
        let backing = Arc::new(MemoryBacking::new(data.clone(), 0, gpu.clone(), 512, 64));
        let metrics = Arc::new(BamMetrics::new());
        let cache = BamCache::new(backing, metrics, 0, num_slots);
        (data, gpu, cache)
    }

    #[test]
    fn miss_then_hit() {
        let (_data, gpu, cache) = rig(8);
        {
            let g = cache.acquire(5).unwrap();
            let mut buf = [0u8; 512];
            gpu.read_bytes(g.addr(), &mut buf);
            assert!(buf.iter().all(|&b| b == 5));
        }
        // Second access hits.
        let _g = cache.acquire(5).unwrap();
        let (state, refs, dirty) = cache.line_debug(5);
        assert_eq!(state, STATE_VALID as u8);
        assert_eq!(refs, 1);
        assert!(!dirty);
    }

    #[test]
    fn guard_drop_unpins() {
        let (_d, _g, cache) = rig(4);
        let g = cache.acquire(1).unwrap();
        assert_eq!(cache.line_debug(1).1, 1);
        drop(g);
        assert_eq!(cache.line_debug(1).1, 0);
    }

    #[test]
    fn eviction_cycles_through_working_set_larger_than_cache() {
        let (_d, gpu, cache) = rig(4);
        // Touch 16 distinct lines through a 4-slot cache.
        for line in 0..16u64 {
            let g = cache.acquire(line).unwrap();
            let mut buf = [0u8; 512];
            gpu.read_bytes(g.addr(), &mut buf);
            assert!(buf.iter().all(|&b| b == line as u8), "line {line}");
        }
    }

    #[test]
    fn dirty_lines_are_written_back_on_eviction() {
        let (data, gpu, cache) = rig(2);
        {
            let g = cache.acquire(3).unwrap();
            gpu.write_bytes(g.addr(), &[0xAAu8; 512]);
            g.mark_dirty();
        }
        // Force eviction of line 3 by touching more lines than slots.
        for line in 10..14u64 {
            let _ = cache.acquire(line).unwrap();
        }
        let mut out = [0u8; 512];
        data.read_bytes(3 * 512, &mut out);
        assert!(
            out.iter().all(|&b| b == 0xAA),
            "dirty line must reach the backing store"
        );
    }

    #[test]
    fn flush_writes_dirty_lines_without_eviction() {
        let (data, gpu, cache) = rig(8);
        let g = cache.acquire(7).unwrap();
        gpu.write_bytes(g.addr(), &[0x55u8; 512]);
        g.mark_dirty();
        drop(g);
        let flushed = cache.flush().unwrap();
        assert_eq!(flushed, 1);
        let mut out = [0u8; 512];
        data.read_bytes(7 * 512, &mut out);
        assert!(out.iter().all(|&b| b == 0x55));
        // Second flush has nothing to do.
        assert_eq!(cache.flush().unwrap(), 0);
    }

    #[test]
    fn pinned_lines_are_never_evicted() {
        let (_d, gpu, cache) = rig(2);
        let g0 = cache.acquire(0).unwrap();
        // Stream many other lines through the remaining slot.
        for line in 1..20u64 {
            let _ = cache.acquire(line).unwrap();
        }
        // Line 0 must still be resident and readable.
        let mut buf = [0u8; 512];
        gpu.read_bytes(g0.addr(), &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        let (state, refs, _) = cache.line_debug(0);
        assert_eq!(state, STATE_VALID as u8);
        assert_eq!(refs, 1);
    }

    #[test]
    fn clock_skips_pinned_lines_under_pinning_pressure() {
        // All but one slot pinned: the clock hand must pass over every pinned
        // line (however many sweeps that takes) and keep serving an arbitrary
        // stream of other lines through the single free slot — terminating,
        // never evicting a pinned line.
        let (_d, gpu, cache) = rig(8);
        let pinned: Vec<LineGuard<'_>> = (0..7).map(|l| cache.acquire(l).unwrap()).collect();
        for line in 7..64u64 {
            let g = cache.acquire(line).unwrap();
            let mut buf = [0u8; 512];
            gpu.read_bytes(g.addr(), &mut buf);
            assert!(buf.iter().all(|&b| b == line as u8), "line {line}");
        }
        // Every pinned line is still resident with its pin intact.
        for g in &pinned {
            let (state, refs, _) = cache.line_debug(g.line());
            assert_eq!(state, STATE_VALID as u8, "line {} evicted", g.line());
            assert_eq!(refs, 1);
            let mut buf = [0u8; 512];
            gpu.read_bytes(g.addr(), &mut buf);
            assert!(buf.iter().all(|&b| b == g.line() as u8));
        }
    }

    /// A backing store that checks, at fetch time, that the previously
    /// evicted dirty line's data has already reached the media — i.e. the
    /// write-back happens *before* the slot is handed to the new line.
    struct WritebackOrderProbe {
        inner: MemoryBacking,
        data: Arc<ByteRegion>,
        /// `(dirty_line, expected_byte)` to verify on the next fetch.
        expectation: std::sync::Mutex<Option<(u64, u8)>>,
        verified: std::sync::atomic::AtomicBool,
    }

    impl CacheBacking for WritebackOrderProbe {
        fn line_bytes(&self) -> u64 {
            self.inner.line_bytes()
        }

        fn num_lines(&self) -> u64 {
            self.inner.num_lines()
        }

        fn fetch_lines(&self, requests: &[(u64, DevAddr)], outcomes: &mut [Result<(), BamError>]) {
            if let Some((dirty_line, expected)) = self.expectation.lock().expect("poisoned").take()
            {
                let mut media = [0u8; 512];
                self.data.read_bytes(dirty_line * 512, &mut media);
                assert!(
                    media.iter().all(|&b| b == expected),
                    "slot reused for {requests:?} before line {dirty_line} reached the media"
                );
                self.verified
                    .store(true, std::sync::atomic::Ordering::Release);
            }
            self.inner.fetch_lines(requests, outcomes);
        }

        fn writeback_line(&self, line: u64, src: DevAddr) -> Result<(), BamError> {
            self.inner.writeback_line(line, src)
        }
    }

    #[test]
    fn dirty_victim_reaches_backing_store_before_slot_reuse() {
        let data = Arc::new(ByteRegion::new(64 * 512));
        let gpu = Arc::new(ByteRegion::new(1 << 20));
        let probe = Arc::new(WritebackOrderProbe {
            inner: MemoryBacking::new(data.clone(), 0, gpu.clone(), 512, 64),
            data: data.clone(),
            expectation: std::sync::Mutex::new(None),
            verified: std::sync::atomic::AtomicBool::new(false),
        });
        let metrics = Arc::new(BamMetrics::new());
        let cache = BamCache::new(probe.clone(), metrics, 0, 1);
        // Dirty line 3 in the single slot...
        {
            let g = cache.acquire(3).unwrap();
            gpu.write_bytes(g.addr(), &[0xD7u8; 512]);
            g.mark_dirty();
        }
        // ...then demand a different line. The probe asserts, from inside the
        // replacement fetch, that line 3's bytes are already on the media.
        *probe.expectation.lock().unwrap() = Some((3, 0xD7));
        let g = cache.acquire(9).unwrap();
        assert!(
            probe.verified.load(std::sync::atomic::Ordering::Acquire),
            "fetch happened without exercising the ordering probe"
        );
        drop(g);
        let mut media = [0u8; 512];
        data.read_bytes(3 * 512, &mut media);
        assert!(media.iter().all(|&b| b == 0xD7));
    }

    #[test]
    fn thrashing_is_reported_not_hung() {
        let (_d, _g, cache) = rig(2);
        let _g0 = cache.acquire(0).unwrap();
        let _g1 = cache.acquire(1).unwrap();
        // Both slots pinned; a third distinct line cannot be inserted.
        match cache.acquire(2) {
            Err(BamError::CacheThrashing) => {}
            other => panic!("expected CacheThrashing, got {other:?}"),
        }
        // After the error the line is not stuck busy.
        let (state, _, _) = cache.line_debug(2);
        assert_eq!(state, STATE_INVALID as u8);
    }

    #[test]
    fn out_of_range_line_rejected() {
        let (_d, _g, cache) = rig(4);
        assert!(matches!(
            cache.acquire(64),
            Err(BamError::IndexOutOfBounds { .. })
        ));
    }

    /// A backing store whose write-backs fail while `broken` is set.
    struct FlakyWriteback {
        inner: MemoryBacking,
        broken: std::sync::atomic::AtomicBool,
    }

    impl CacheBacking for FlakyWriteback {
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
            if self.broken.load(std::sync::atomic::Ordering::Acquire) {
                return Err(BamError::Crashed);
            }
            self.inner.writeback_line(line, src)
        }
    }

    fn flaky_rig(num_slots: u64) -> (Arc<ByteRegion>, Arc<FlakyWriteback>, BamCache) {
        let data = Arc::new(ByteRegion::new(64 * 512));
        let gpu = Arc::new(ByteRegion::new(1 << 20));
        let backing = Arc::new(FlakyWriteback {
            inner: MemoryBacking::new(data, 0, gpu.clone(), 512, 64),
            broken: std::sync::atomic::AtomicBool::new(false),
        });
        let metrics = Arc::new(BamMetrics::new());
        let cache = BamCache::new(backing.clone(), metrics, 0, num_slots);
        (gpu, backing, cache)
    }

    #[test]
    fn failed_eviction_writeback_restores_the_victim() {
        let (gpu, backing, cache) = flaky_rig(1);
        {
            let g = cache.acquire(3).unwrap();
            gpu.write_bytes(g.addr(), &[0xBBu8; 512]);
            g.mark_dirty();
        }
        backing
            .broken
            .store(true, std::sync::atomic::Ordering::Release);
        // Evicting line 3 fails at the media; neither line may be left busy,
        // and line 3 must keep its dirty data.
        assert_eq!(cache.acquire(9).unwrap_err(), BamError::Crashed);
        let (state, refs, dirty) = cache.line_debug(3);
        assert_eq!(state, STATE_VALID as u8, "victim wedged");
        assert_eq!(refs, 0);
        assert!(dirty, "dirty bit lost on failed eviction");
        assert_eq!(cache.line_debug(9).0, STATE_INVALID as u8);
        // Once the device heals, both the eviction and the data survive.
        backing
            .broken
            .store(false, std::sync::atomic::Ordering::Release);
        let g = cache.acquire(9).unwrap();
        drop(g);
        let mut media = [0u8; 512];
        fetch_one(&backing.inner, 3, 4096).unwrap();
        gpu.read_bytes(4096, &mut media);
        assert!(media.iter().all(|&b| b == 0xBB));
    }

    #[test]
    fn failed_flush_keeps_the_dirty_bit() {
        let (gpu, backing, cache) = flaky_rig(8);
        {
            let g = cache.acquire(5).unwrap();
            gpu.write_bytes(g.addr(), &[0xCCu8; 512]);
            g.mark_dirty();
        }
        backing
            .broken
            .store(true, std::sync::atomic::Ordering::Release);
        assert_eq!(cache.flush().unwrap_err(), BamError::Crashed);
        assert!(cache.line_debug(5).2, "dirty bit lost on failed flush");
        backing
            .broken
            .store(false, std::sync::atomic::Ordering::Release);
        assert_eq!(cache.flush().unwrap(), 1);
        let mut media = [0u8; 512];
        fetch_one(&backing.inner, 5, 4096).unwrap();
        gpu.read_bytes(4096, &mut media);
        assert!(media.iter().all(|&b| b == 0xCC));
    }

    #[test]
    fn journalled_writebacks_emit_intent_then_commit() {
        use crate::journal::{decode_records, JournalRecord};
        let data = Arc::new(ByteRegion::new(64 * 512));
        let gpu = Arc::new(ByteRegion::new(1 << 20));
        let backing = Arc::new(MemoryBacking::new(data, 0, gpu.clone(), 512, 64));
        let journal = Arc::new(CacheJournal::new());
        let metrics = Arc::new(BamMetrics::new());
        let cache = BamCache::new(backing, metrics.clone(), 0, 8).with_journal(journal.clone());

        let g = cache.acquire(2).unwrap();
        let addr = g.addr();
        cache
            .journalled_write(2, 0, &[0x11; 512], || gpu.write_bytes(addr, &[0x11; 512]))
            .unwrap();
        drop(g);
        cache.flush().unwrap();

        let decoded = decode_records(&journal.snapshot()).unwrap();
        assert!(matches!(
            decoded.records.as_slice(),
            [
                JournalRecord::Write { line: 2, .. },
                JournalRecord::WritebackIntent {
                    line: 2,
                    covered_lsn: 1,
                    ..
                },
                JournalRecord::WritebackCommit {
                    line: 2,
                    intent_lsn: 2,
                    ..
                },
            ]
        ));
        let s = metrics.snapshot();
        assert_eq!(s.journal_appends, 3);
        assert_eq!(s.journal_bytes, journal.appended_bytes());
    }

    /// Regression test for the lost-acked-write race: a flush that runs
    /// after a write's journal append but before its payload lands in the
    /// line image must not seal a commit covering that write. The flush is
    /// driven deterministically from inside the write's `apply` closure —
    /// exactly the window a concurrent thread would hit.
    #[test]
    fn flush_racing_a_write_never_covers_unapplied_bytes() {
        use crate::journal::{decode_records, recover, JournalRecord};
        let data = Arc::new(ByteRegion::new(64 * 512));
        let gpu = Arc::new(ByteRegion::new(1 << 20));
        let backing = Arc::new(MemoryBacking::new(data.clone(), 0, gpu.clone(), 512, 64));
        let journal = Arc::new(CacheJournal::new());
        let metrics = Arc::new(BamMetrics::new());
        let cache = BamCache::new(backing.clone(), metrics, 0, 8).with_journal(journal.clone());

        let g = cache.acquire(2).unwrap();
        let addr = g.addr();
        cache
            .journalled_write(2, 0, &[0x11; 512], || gpu.write_bytes(addr, &[0x11; 512]))
            .unwrap();
        // Second write: its redo record (LSN 2) is appended, then — before
        // the payload reaches the image — a flush writes the line back.
        cache
            .journalled_write(2, 0, &[0x22; 16], || {
                cache.flush().unwrap();
                gpu.write_bytes(addr, &[0x22; 16]);
            })
            .unwrap();

        // The intent sealed mid-write may cover only the applied LSN 1.
        let decoded = decode_records(&journal.snapshot()).unwrap();
        let covered: Vec<u64> = decoded
            .records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::WritebackIntent { covered_lsn, .. } => Some(*covered_lsn),
                _ => None,
            })
            .collect();
        assert_eq!(
            covered,
            vec![1],
            "intent must not claim the in-flight write"
        );

        // Crash now (volatile image lost): recovery must redo write 2.
        let report = recover(&journal.snapshot(), backing.as_ref(), &gpu, 16 * 512).unwrap();
        assert_eq!(report.replayed_writes, 1);
        let mut media = [0u8; 16];
        data.read_bytes(2 * 512, &mut media);
        assert_eq!(
            media, [0x22; 16],
            "acknowledged write lost across the crash"
        );
    }

    /// Writes `payload` at `offset` within `line` through the journal.
    fn write(cache: &BamCache, gpu: &ByteRegion, line: u64, offset: u64, payload: &[u8]) {
        let g = cache.acquire(line).unwrap();
        let addr = g.addr() + offset;
        cache
            .journalled_write(line, offset, payload, || gpu.write_bytes(addr, payload))
            .unwrap();
    }

    #[test]
    fn the_live_journal_stays_bounded_by_the_flush_interval() {
        use crate::journal::{decode_records, CHECKPOINT_FLOOR_BYTES, RECORD_OVERHEAD_BYTES};
        let (_data, gpu, cache) = rig(8);
        let journal = Arc::new(CacheJournal::new());
        let cache = cache.with_journal(journal.clone());
        // Flush every K ops. One op appends at most a 512-byte write record
        // plus the intent and commit of one write-back (of a line dirtied in
        // the same interval: the flush ending the previous one cleaned every
        // line), so an interval appends at most `interval` bytes.
        const K: u64 = 256;
        let per_op = (RECORD_OVERHEAD_BYTES + 512 + 2 * RECORD_OVERHEAD_BYTES) as u64;
        let interval = K * per_op;
        // A checkpoint during an interval keeps at most that interval and its
        // own record, so the trigger never exceeds the floor or twice that;
        // the journal exceeds the trigger by at most what was appended since
        // the last commit, which is within the current interval.
        let checkpoint_bytes = RECORD_OVERHEAD_BYTES as u64;
        let bound = CHECKPOINT_FLOOR_BYTES.max(2 * (interval + checkpoint_bytes)) + interval;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let (mut checkpoints, mut retired) = (0, 0);
        for op in 1..=12_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = x % 64;
            if x.is_multiple_of(3) {
                write(&cache, &gpu, line, (x >> 8) % 64 * 8, &x.to_le_bytes());
            } else {
                write(&cache, &gpu, line, 0, &[op as u8; 512]);
            }
            let flushed = op.is_multiple_of(K);
            if flushed {
                cache.flush().unwrap();
            }
            let live = journal.live_bytes();
            assert!(live <= bound, "op {op}: {live} live bytes > {bound}");
            let checkpointed = journal.appended_bytes() - live > retired;
            if checkpointed {
                retired = journal.appended_bytes() - live;
                checkpoints += 1;
            }
            // Decoding every op's image is slow unoptimised; every image a
            // checkpoint or a flush produced is decoded.
            if checkpointed || flushed {
                let decoded = decode_records(&journal.snapshot()).unwrap();
                assert!(!decoded.torn_tail, "op {op}: torn snapshot");
            }
        }
        assert!(checkpoints >= 3, "only {checkpoints} checkpoints");
        assert!(journal.appended_bytes() > 3 * bound);
    }

    #[test]
    fn a_failed_write_back_never_lets_a_checkpoint_drop_its_writes() {
        use crate::journal::{decode_records, recover};
        use std::sync::atomic::Ordering::Release;
        let (gpu, backing, cache) = flaky_rig(8);
        let journal = Arc::new(CacheJournal::new());
        let cache = cache.with_journal(journal.clone());
        // A committed write first, so the checkpoint has a prefix to cut.
        write(&cache, &gpu, 1, 0, &[0x11; 512]);
        cache.flush().unwrap();
        // Line 3's write-back fails at the media: no commit covers it.
        write(&cache, &gpu, 3, 0, &[0xA5; 512]);
        backing.broken.store(true, Release);
        assert_eq!(cache.flush().unwrap_err(), BamError::Crashed);
        backing.broken.store(false, Release);
        // Pinned, line 3 stays dirty while write-backs of other lines push
        // the journal through a checkpoint.
        let _pinned = cache.acquire(3).unwrap();
        for op in 0.. {
            assert!(op < 10_000, "no checkpoint ran");
            if journal.appended_bytes() > journal.live_bytes() {
                break;
            }
            write(&cache, &gpu, 10 + op % 40, 0, &[op as u8; 512]);
        }
        let image = journal.snapshot();
        assert!(decode_records(&image).unwrap().base_lsn > 0);
        recover(&image, &backing.inner, &gpu, 16 * 512).unwrap();
        let mut media = [0u8; 512];
        fetch_one(&backing.inner, 3, 8192).unwrap();
        gpu.read_bytes(8192, &mut media);
        assert_eq!(media, [0xA5; 512], "the checkpoint dropped a live write");
    }

    #[test]
    fn reset_after_crash_cools_the_directory() {
        let (_d, _g, cache) = rig(4);
        for line in 0..4u64 {
            drop(cache.acquire(line).unwrap());
        }
        cache.reset_after_crash();
        for line in 0..64 {
            let (state, refs, dirty) = cache.line_debug(line);
            assert_eq!(state, STATE_INVALID as u8);
            assert_eq!(refs, 0);
            assert!(!dirty);
        }
        // The cache serves traffic again from cold.
        assert!(cache.acquire(3).is_ok());
    }

    #[test]
    fn concurrent_mixed_access_pattern_is_consistent() {
        let (_d, gpu, cache) = rig(8);
        let cache = &cache;
        let gpu = &gpu;
        std::thread::scope(|s| {
            for t in 0..8u64 {
                s.spawn(move || {
                    for i in 0..200u64 {
                        let line = (t * 7 + i * 13) % 64;
                        let g = cache.acquire(line).unwrap();
                        let mut buf = [0u8; 512];
                        gpu.read_bytes(g.addr(), &mut buf);
                        assert!(
                            buf.iter().all(|&b| b == line as u8),
                            "thread {t} line {line} saw corrupt data"
                        );
                    }
                });
            }
        });
        // All references released.
        for line in 0..64 {
            assert_eq!(cache.line_debug(line).1, 0, "line {line} still pinned");
        }
    }
}
