//! Epoch-published immutable values: one writer swaps in a new
//! [`Arc`]-wrapped value, many readers observe it without blocking the
//! writer or each other.
//!
//! This is the read/write split concurrent serving needs: the match
//! engine (single writer) builds an immutable snapshot after every
//! applied batch and [`Published::publish`]es it; lookup threads hold a
//! [`PublishedReader`] and answer queries from whichever snapshot was
//! current when they last checked. A reader can never observe a
//! half-applied batch — it either still holds the previous snapshot or
//! the complete new one.
//!
//! ## How lock-free is it?
//!
//! The steady-state read path is **wait-free**: one relaxed-acquire
//! atomic load of the version counter, compared against the reader's
//! cached version. Only when the version moved does the reader take the
//! swap mutex — for exactly one `Arc` clone, once per published epoch
//! per reader. Writers hold the same mutex only for a pointer-sized
//! store. There is no reader-count, no RCU grace period, and no
//! per-lookup reference counting; the `Arc` held by each reader keeps
//! superseded snapshots alive until the last reader moves on.
//!
//! ## Who frees a superseded value
//!
//! The publisher does. A reader that refreshes only drops its reference:
//! [`Published`] keeps every superseded value a reader may still hold and,
//! on each publish, frees those no reader holds any more. Were the last
//! reader to free it, the first lookup after every publish would pay for
//! dropping a whole snapshot's worth of changed buckets — hundreds of
//! microseconds, on the read path, for the writer's garbage.
//!
//! The price is that a released value lives until the next publish: an
//! engine that goes idle after a write keeps every superseded value
//! alive that a reader still held at that write.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A single-writer, many-reader published value. See the [module
/// docs](self) for the epoch-publication protocol.
#[derive(Debug)]
pub struct Published<T> {
    current: Mutex<Arc<T>>,
    version: AtomicU64,
    /// Superseded values, kept until no reader holds them. Only the
    /// publisher locks it.
    retired: Mutex<Vec<Arc<T>>>,
}

impl<T> Published<T> {
    /// Publish slot holding `initial` at version 0.
    pub fn new(initial: T) -> Self {
        Published {
            current: Mutex::new(Arc::new(initial)),
            version: AtomicU64::new(0),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Swap in a new value and bump the version. Readers holding the old
    /// `Arc` keep it alive; new loads see `value`. Frees, on the calling
    /// thread, every superseded value no reader holds any more; one that a
    /// reader releases later waits for the next publish.
    pub fn publish(&self, value: Arc<T>) {
        let superseded = {
            let mut slot = self.current.lock().expect("publish mutex poisoned");
            // The mutex release orders the store; the counter bump is what
            // readers poll without taking the lock.
            self.version.fetch_add(1, Ordering::Release);
            std::mem::replace(&mut *slot, value)
        };
        let mut retired = self.retired.lock().expect("retired list poisoned");
        // A retired value is in no slot, so its count can only fall: at 1,
        // no reader holds it or can get it again.
        retired.retain(|old| Arc::strong_count(old) > 1);
        retired.push(superseded);
    }

    /// Current version (bumped on every publish).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Clone the current value's `Arc` (takes the swap mutex briefly).
    pub fn load(&self) -> Arc<T> {
        self.current.lock().expect("publish mutex poisoned").clone()
    }
}

/// A reader-side cache over a shared [`Published`] slot: `current()` is
/// wait-free while the version is unchanged and refreshes the cached
/// `Arc` when the writer published a new one.
#[derive(Debug)]
pub struct PublishedReader<T> {
    source: Arc<Published<T>>,
    cached: Arc<T>,
    version: u64,
}

// Cloning shares the slot and the cached Arc — `T: Clone` is not needed.
impl<T> Clone for PublishedReader<T> {
    fn clone(&self) -> Self {
        PublishedReader {
            source: self.source.clone(),
            cached: self.cached.clone(),
            version: self.version,
        }
    }
}

impl<T> PublishedReader<T> {
    /// Reader over `source`, primed with its current value.
    pub fn new(source: Arc<Published<T>>) -> Self {
        let version = source.version();
        let cached = source.load();
        PublishedReader {
            source,
            cached,
            version,
        }
    }

    /// The freshest published value: one atomic load on the fast path, a
    /// mutex-guarded `Arc` clone only when the version moved.
    pub fn current(&mut self) -> &Arc<T> {
        let version = self.source.version();
        if version != self.version {
            // Record the version read *before* the load: if another
            // publish lands in between we fetch an even newer value now
            // and refresh again on the next call — never miss one.
            self.version = version;
            self.cached = self.source.load();
        }
        &self.cached
    }

    /// The value as of the last `current()` call, without checking for a
    /// newer one.
    pub fn cached(&self) -> &Arc<T> {
        &self.cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_and_load_round_trip() {
        let slot = Published::new(1u32);
        assert_eq!(*slot.load(), 1);
        assert_eq!(slot.version(), 0);
        slot.publish(Arc::new(2));
        assert_eq!(*slot.load(), 2);
        assert_eq!(slot.version(), 1);
    }

    #[test]
    fn reader_refreshes_only_on_version_change() {
        let slot = Arc::new(Published::new(10u32));
        let mut reader = PublishedReader::new(slot.clone());
        assert_eq!(**reader.current(), 10);
        let before = Arc::as_ptr(reader.cached());
        // No publish: the cached Arc is reused, not re-loaded.
        assert_eq!(Arc::as_ptr(reader.current()), before);
        slot.publish(Arc::new(11));
        assert_eq!(**reader.current(), 11);
        // A stale clone keeps the old value alive independently.
        assert_eq!(**reader.cached(), 11);
    }

    #[test]
    fn superseded_values_stay_alive_for_holders() {
        let slot = Published::new(vec![1, 2, 3]);
        let held = slot.load();
        slot.publish(Arc::new(vec![4]));
        assert_eq!(*held, vec![1, 2, 3]);
        assert_eq!(*slot.load(), vec![4]);
    }

    /// Records which thread dropped it.
    struct DropWitness(Arc<Mutex<Vec<std::thread::ThreadId>>>);

    impl Drop for DropWitness {
        fn drop(&mut self) {
            self.0.lock().unwrap().push(std::thread::current().id());
        }
    }

    #[test]
    fn the_publisher_frees_what_a_reader_let_go() {
        let drops = Arc::new(Mutex::new(Vec::new()));
        let slot = Arc::new(Published::new(DropWitness(drops.clone())));
        let mut reader = PublishedReader::new(slot.clone());
        slot.publish(Arc::new(DropWitness(drops.clone())));
        // The reader moves on from the first value, on its own thread.
        let reader = std::thread::spawn(move || {
            reader.current();
            reader
        })
        .join()
        .unwrap();
        assert!(drops.lock().unwrap().is_empty(), "the reader freed it");
        slot.publish(Arc::new(DropWitness(drops.clone())));
        assert_eq!(*drops.lock().unwrap(), [std::thread::current().id()]);
        // Still held by the reader: kept until it lets go.
        assert_eq!(slot.retired.lock().unwrap().len(), 1);
        drop(reader);
        // Released, but freed only by the next publish.
        assert_eq!(drops.lock().unwrap().len(), 1);
        slot.publish(Arc::new(DropWitness(drops.clone())));
        assert_eq!(drops.lock().unwrap().len(), 2);
    }

    #[test]
    fn concurrent_readers_always_see_complete_values() {
        // The writer publishes internally-consistent pairs (n, 2n); any
        // torn read would break the invariant.
        let slot = Arc::new(Published::new((0u64, 0u64)));
        let stop = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let slot = slot.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                let mut reader = PublishedReader::new(slot);
                let mut seen = 0u64;
                while stop.load(Ordering::Acquire) == 0 {
                    let (n, double) = **reader.current();
                    assert_eq!(double, n * 2, "torn snapshot");
                    seen = seen.max(n);
                }
                seen
            }));
        }
        for n in 1..=500u64 {
            slot.publish(Arc::new((n, n * 2)));
        }
        stop.store(1, Ordering::Release);
        for handle in handles {
            assert!(handle.join().expect("reader panicked") <= 500);
        }
        assert_eq!(slot.version(), 500);
    }
}
