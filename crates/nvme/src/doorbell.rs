//! Doorbell registers.
//!
//! NVMe doorbells are write-only registers in the SSD's BAR space. In BaM
//! they are mapped into the GPU's address space so GPU threads can ring them
//! directly (§4.1). Because they are write-only, a thread ringing a doorbell
//! must guarantee that the value it writes is newer than any previously
//! written value — the motivation for BaM's coalesced doorbell protocol
//! (§2.2, §3.3).

use std::sync::atomic::{AtomicU32, Ordering};

/// A single doorbell register.
///
/// The "device side" ([`Doorbell::read`]) is only used by the simulated
/// controller; the "host/GPU side" only writes. Ringing is one store: the
/// SQ tail doorbell's write count, the traffic the BaM queues try to
/// minimise, is kept by its [`QueuePair`](crate::QueuePair).
#[derive(Debug, Default)]
pub struct Doorbell {
    value: AtomicU32,
}

impl Doorbell {
    /// Creates a doorbell initialized to zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rings the doorbell with a new queue tail/head value.
    pub fn ring(&self, value: u32) {
        // Release so that queue-entry writes made before ringing are visible
        // to the controller that observes the new doorbell value.
        self.value.store(value, Ordering::Release);
    }

    /// Device-side read of the current doorbell value.
    pub fn read(&self) -> u32 {
        self.value.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn ring_and_read() {
        let db = Doorbell::new();
        assert_eq!(db.read(), 0);
        db.ring(17);
        assert_eq!(db.read(), 17);
        db.ring(18);
        assert_eq!(db.read(), 18);
    }

    #[test]
    fn concurrent_rings_leave_a_written_value() {
        let db = Arc::new(Doorbell::new());
        let mut handles = Vec::new();
        for t in 1..=8u32 {
            let db = db.clone();
            handles.push(thread::spawn(move || db.ring(t)));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!((1..=8).contains(&db.read()));
    }
}
