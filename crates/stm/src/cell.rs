//! Lock-free value storage for transactional variables.
//!
//! Each [`TVar`](crate::TVar) keeps its current value in a [`ValueCell`],
//! which picks one of two lock-free representations at construction time
//! (the choice is a compile-time constant per `T`, so the dispatch branch
//! predicts perfectly):
//!
//! * **Inline seqlock** — for types with no drop glue that fit in a small
//!   word buffer (`size <= 32`, `align <= 8`): the value's bytes live
//!   directly in the cell as atomic words guarded by a sequence counter.
//!   A snapshot read is a handful of atomic loads with no heap
//!   indirection, no epoch pin, and no allocation on store. This covers
//!   the counters, prices and keys the paper's word-based STM workloads
//!   are made of.
//! * **Epoch-reclaimed box** — for everything else: an atomic pointer to a
//!   heap value. Readers load the pointer under an epoch pin and borrow
//!   the value for as long as the pin lasts; writers swap in a freshly
//!   allocated value at commit and defer destruction of the old one until
//!   all pinned readers have moved on (see `vendor/crossbeam` and
//!   DESIGN.md §7). A transaction attempt pins once, at its first boxed
//!   load, and holds the pin to its end (`ValueCell::load_in` with an
//!   `AttemptPin`), so its loads are plain acquire loads;
//!   `ValueCell::load` pins for one snapshot read.
//!
//! Neither path acquires a mutex or rwlock. Combined with the orec
//! validate-read-validate protocol this gives torn-read-free, safe
//! snapshots without a per-variable lock.
//!
//! This load path is what makes the lock-free read-only mode
//! ([`TmRuntime::read_only`](crate::TmRuntime::read_only)) possible: a
//! `ReadTx` read is exactly `orec snapshot → ValueCell::load_in → orec
//! re-snapshot`, with no shared-state write anywhere on the path.

use std::cell::OnceCell;
use std::fmt;
use std::marker::PhantomData;
use std::mem::{self, ManuallyDrop};
use std::ptr;
use std::sync::atomic::{fence, AtomicU64, Ordering};

use crossbeam::epoch::{self, Atomic, Guard, Owned};

/// Inline storage budget: up to this many 8-byte words.
const INLINE_WORDS: usize = 4;

/// Whether `T` takes the inline seqlock representation.
///
/// Requirements: no drop glue (a seqlock read materializes a bitwise
/// temporary that is never dropped), fits the word buffer, and alignment
/// no stricter than the `u64` words backing it.
const fn use_inline<T>() -> bool {
    !mem::needs_drop::<T>()
        && mem::size_of::<T>() <= INLINE_WORDS * mem::size_of::<u64>()
        && mem::align_of::<T>() <= mem::align_of::<u64>()
}

/// A single versioned storage slot.
///
/// The cell itself knows nothing about versions — ordering and visibility
/// of *which* value a transaction may use come from the ownership record
/// that guards the variable.
pub(crate) struct ValueCell<T> {
    repr: Repr<T>,
}

enum Repr<T> {
    Inline(InlineCell<T>),
    Boxed(Atomic<T>),
}

impl<T: Clone + Send + Sync + 'static> ValueCell<T> {
    /// Creates a cell holding `value`.
    pub(crate) fn new(value: T) -> Self {
        let repr = if use_inline::<T>() {
            Repr::Inline(InlineCell::new(value))
        } else {
            Repr::Boxed(Atomic::new(value))
        };
        ValueCell { repr }
    }

    /// True when this cell uses the inline seqlock fast path (diagnostic,
    /// used by tests and benches to assert representation selection).
    pub(crate) fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline(_))
    }

    /// Clones the current value out, pinning for this one read on the boxed
    /// path.
    #[inline]
    pub(crate) fn load(&self) -> T {
        self.load_in(&AttemptPin::default()).into_owned()
    }

    /// Reads the current value under `pin`, the caller's attempt pin: a
    /// borrow of the installed value on the boxed path (one acquire load
    /// once the attempt is pinned — no clone, no shared write), a validated
    /// copy on the inline path, whose words a later store overwrites in
    /// place and which therefore never needs the pin.
    #[inline]
    pub(crate) fn load_in<'a>(&'a self, pin: &'a AttemptPin) -> Loaded<'a, T> {
        match &self.repr {
            Repr::Inline(cell) => Loaded::Copied(cell.load()),
            Repr::Boxed(ptr) => {
                let guard = pin.guard();
                // SAFETY: the pointer is never null after construction. The
                // pointee stays allocated for `'a`: while it is installed
                // the cell (borrowed for `'a`) owns it, and once a store
                // swaps it out it is only retired, and `guard` (held by
                // `pin`, borrowed for `'a`) pinned this thread before the
                // load, so the two-epoch grace cannot elapse while the
                // borrow lives.
                Loaded::Borrowed(unsafe { ptr.load(Ordering::Acquire, guard).deref() })
            }
        }
    }

    /// Publishes `value`. On the boxed path, destruction of the previous
    /// value is deferred until all current readers unpin.
    #[inline]
    pub(crate) fn store(&self, value: T) {
        match &self.repr {
            Repr::Inline(cell) => cell.store(value),
            Repr::Boxed(ptr) => {
                let guard = epoch::pin();
                let old = ptr.swap(Owned::new(value), Ordering::AcqRel, &guard);
                // SAFETY: `old` was the uniquely installed previous value;
                // no new reader can acquire it after the swap, and already
                // pinned readers are covered by the two-epoch grace period.
                unsafe {
                    guard.defer_destroy(old);
                }
            }
        }
    }
}

/// One transaction attempt's epoch pin: taken at the attempt's first load
/// from a boxed cell and held until the attempt drops, so every later load
/// is a plain acquire load and every borrowed value outlives concurrent
/// replacement. An attempt that only touches inline cells never pins.
/// Conflict waits inside the attempt (a spin or nap on a locked stripe)
/// hold the pin; the backoff or park between attempts does not, because
/// the attempt, and with it this pin, is dropped first.
#[derive(Default)]
pub(crate) struct AttemptPin(OnceCell<Guard>);

impl AttemptPin {
    #[inline]
    fn guard(&self) -> &Guard {
        self.0.get_or_init(epoch::pin)
    }
}

/// One value read by [`ValueCell::load_in`]: borrowed from a boxed cell,
/// or copied out of an inline one.
pub(crate) enum Loaded<'a, T> {
    Borrowed(&'a T),
    Copied(T),
}

impl<'a, T: Clone> Loaded<'a, T> {
    /// The value, owned: a clone of a borrow, or the copy itself.
    #[inline]
    pub(crate) fn into_owned(self) -> T {
        match self {
            Loaded::Borrowed(value) => value.clone(),
            Loaded::Copied(value) => value,
        }
    }

    /// The borrowed value. Using this for an inline-stored `T` is a compile
    /// error, so no call can meet the `Copied` arm at run time.
    #[inline]
    pub(crate) fn into_ref(self) -> &'a T {
        const {
            assert!(
                !use_inline::<T>(),
                "read_ref needs a boxed value type: this one is stored inline \
                 (no drop glue, at most 32 bytes), so read it by copy with `read`"
            );
        }
        match self {
            Loaded::Borrowed(value) => value,
            // SAFETY: `load_in` yields `Copied` only for an inline cell,
            // `ValueCell::new` builds an inline cell exactly when
            // `use_inline::<T>()`, and the const assertion above rejects
            // that `T` at compile time. A buffered write is always
            // `Borrowed`.
            Loaded::Copied(_) => unsafe { std::hint::unreachable_unchecked() },
        }
    }
}

impl<T> fmt::Debug for ValueCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.repr {
            Repr::Inline(_) => f.write_str("ValueCell(inline)"),
            Repr::Boxed(_) => f.write_str("ValueCell(boxed)"),
        }
    }
}

/// Seqlock over an inline word buffer.
///
/// `seq` is even when the words are stable and odd while a writer is
/// copying new bytes in; writers claim the odd state with a CAS (so
/// concurrent non-transactional stores stay safe even though the commit
/// protocol already serializes transactional installs per variable), and
/// readers retry until they observe the same even count on both sides of
/// the word copy.
struct InlineCell<T> {
    seq: AtomicU64,
    words: [AtomicU64; INLINE_WORDS],
    _marker: PhantomData<T>,
}

impl<T: Clone> InlineCell<T> {
    fn new(value: T) -> Self {
        let cell = InlineCell {
            seq: AtomicU64::new(0),
            words: [const { AtomicU64::new(0) }; INLINE_WORDS],
            _marker: PhantomData,
        };
        cell.store(value);
        cell
    }

    #[inline]
    fn load(&self) -> T {
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let mut buf = [0u64; INLINE_WORDS];
            for (slot, word) in buf.iter_mut().zip(&self.words) {
                *slot = word.load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == s1 {
                // SAFETY: the sequence count was even and unchanged across
                // the word copy, so `buf` holds the exact bytes of a value
                // that was fully written by `store` — a valid `T`.
                return unsafe { assemble(&buf) };
            }
        }
    }

    #[inline]
    fn store(&self, value: T) {
        debug_assert!(use_inline::<T>());
        let mut buf = [0u64; INLINE_WORDS];
        // Freeze the value's bytes into the zero-initialized buffer. (Like
        // crossbeam's `AtomicCell`, this byte copy may include internal
        // padding; every tier-1 target handles that as a plain memcpy.)
        // SAFETY: `use_inline` guarantees the value fits the buffer.
        unsafe {
            ptr::copy_nonoverlapping(
                ptr::from_ref(&value).cast::<u8>(),
                buf.as_mut_ptr().cast::<u8>(),
                mem::size_of::<T>(),
            );
        }
        // The cell now owns the bytes; `T` has no drop glue, so forgetting
        // the source is a plain ownership transfer.
        mem::forget(value);

        // Claim the writer side: even -> odd.
        let mut s = self.seq.load(Ordering::Relaxed);
        loop {
            if s & 1 == 1 {
                std::hint::spin_loop();
                s = self.seq.load(Ordering::Relaxed);
                continue;
            }
            match self
                .seq
                .compare_exchange_weak(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(cur) => s = cur,
            }
        }
        for (word, val) in self.words.iter().zip(buf) {
            word.store(val, Ordering::Relaxed);
        }
        // Publish: odd -> next even. Release orders the word stores before
        // the counter store that readers acquire.
        self.seq.store(s + 2, Ordering::Release);
    }
}

/// Materializes a `T` from validated seqlock bytes, preserving `Clone`
/// semantics: the bitwise temporary is cloned, then forgotten (legal
/// because the inline representation is only chosen for dropless types).
///
/// # Safety
///
/// `buf` must hold the bytes of a valid, fully written `T` (guaranteed by
/// the seqlock validation in `InlineCell::load`), and `T` must satisfy
/// [`use_inline`].
#[inline]
unsafe fn assemble<T: Clone>(buf: &[u64; INLINE_WORDS]) -> T {
    // SAFETY: size checked by `use_inline`; the bytes are a valid `T` per
    // the caller's contract. `ManuallyDrop` suppresses drop of the bitwise
    // temporary (which has no drop glue anyway).
    let tmp = unsafe { mem::transmute_copy::<[u64; INLINE_WORDS], ManuallyDrop<T>>(buf) };
    (*tmp).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
    use std::sync::Arc;

    #[test]
    fn load_returns_stored_value() {
        let c = ValueCell::new(41);
        assert_eq!(c.load(), 41);
        c.store(42);
        assert_eq!(c.load(), 42);
    }

    #[test]
    fn representation_selection() {
        // Dropless and small: inline.
        assert!(ValueCell::new(0u8).is_inline());
        assert!(ValueCell::new(0u64).is_inline());
        assert!(ValueCell::new((0u64, 0u64, 0u64, 0u64)).is_inline());
        assert!(ValueCell::new([0u8; 32]).is_inline());
        // Zero-sized types are (degenerately) inline.
        assert!(ValueCell::new(()).is_inline());
        // Too big: boxed.
        assert!(!ValueCell::new([0u64; 5]).is_inline());
        // Drop glue: boxed.
        assert!(!ValueCell::new(String::from("x")).is_inline());
        assert!(!ValueCell::new(vec![1u8]).is_inline());
        assert!(!ValueCell::new(Arc::new(1u8)).is_inline());
        // Over-aligned: boxed (the word buffer is only 8-byte aligned).
        #[derive(Clone)]
        #[repr(align(16))]
        struct Overaligned(#[allow(dead_code)] u64);
        assert!(!ValueCell::new(Overaligned(1)).is_inline());
    }

    #[test]
    fn zero_sized_values_round_trip() {
        let c = ValueCell::new(());
        c.store(());
        #[allow(clippy::let_unit_value)]
        let v = c.load();
        let _: () = v;

        #[derive(Clone, PartialEq, Debug)]
        struct Marker;
        let m = ValueCell::new(Marker);
        assert_eq!(m.load(), Marker);
        m.store(Marker);
        assert_eq!(m.load(), Marker);
    }

    #[test]
    fn odd_sizes_round_trip() {
        // 1, 3, 4, 12 and 17-byte payloads exercise the zero-padded tail.
        let c1 = ValueCell::new(0xABu8);
        assert_eq!(c1.load(), 0xAB);
        let c3 = ValueCell::new([1u8, 2, 3]);
        assert_eq!(c3.load(), [1, 2, 3]);
        let c4 = ValueCell::new(0xDEAD_BEEFu32);
        assert_eq!(c4.load(), 0xDEAD_BEEF);
        let c12 = ValueCell::new((7u32, 8u64));
        assert_eq!(c12.load(), (7, 8));
        let c17 = ValueCell::new([9u8; 17]);
        assert_eq!(c17.load(), [9u8; 17]);
    }

    /// A boxed-path twin of a `u64`: drop glue forces `Repr::Boxed`, while
    /// the payload semantics stay identical to the inline path.
    #[derive(Clone, PartialEq, Debug)]
    struct BoxedU64(u64);
    impl Drop for BoxedU64 {
        fn drop(&mut self) {}
    }

    #[test]
    fn inline_and_boxed_paths_agree() {
        let inline = ValueCell::new(0u64);
        let boxed = ValueCell::new(BoxedU64(0));
        assert!(inline.is_inline());
        assert!(!boxed.is_inline());
        for i in 1..=100u64 {
            inline.store(i);
            boxed.store(BoxedU64(i));
            assert_eq!(inline.load(), boxed.load().0);
        }
    }

    #[test]
    fn inline_and_boxed_paths_agree_under_contention() {
        const ROUNDS: u64 = 2000;
        let inline = Arc::new(ValueCell::new(0u64));
        let boxed = Arc::new(ValueCell::new(BoxedU64(0)));
        let writer = {
            let inline = Arc::clone(&inline);
            let boxed = Arc::clone(&boxed);
            std::thread::spawn(move || {
                for i in 1..=ROUNDS {
                    inline.store(i);
                    boxed.store(BoxedU64(i));
                }
            })
        };
        let reader = {
            let inline = Arc::clone(&inline);
            let boxed = Arc::clone(&boxed);
            std::thread::spawn(move || {
                let (mut last_i, mut last_b) = (0, 0);
                for _ in 0..ROUNDS {
                    let i = inline.load();
                    let b = boxed.load().0;
                    assert!(i >= last_i, "inline path went backwards: {i} < {last_i}");
                    assert!(b >= last_b, "boxed path went backwards: {b} < {last_b}");
                    last_i = i;
                    last_b = b;
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(inline.load(), ROUNDS);
        assert_eq!(boxed.load(), BoxedU64(ROUNDS));
    }

    #[test]
    fn store_is_visible_to_other_threads() {
        let c = Arc::new(ValueCell::new(0u64));
        let writer = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                for i in 1..=1000 {
                    c.store(i);
                }
            })
        };
        let reader = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                let mut last = 0;
                for _ in 0..1000 {
                    let v = c.load();
                    assert!(v >= last, "values must be monotone: {v} < {last}");
                    last = v;
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(c.load(), 1000);
    }

    #[test]
    fn wide_inline_values_are_never_torn() {
        // All four words must always agree; a torn seqlock read would mix
        // rounds.
        let c = Arc::new(ValueCell::new([0u64; 4]));
        assert!(c.is_inline());
        let writer = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                for i in 1..=4000u64 {
                    c.store([i; 4]);
                }
            })
        };
        let reader = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                for _ in 0..4000 {
                    let v = c.load();
                    assert!(
                        v.windows(2).all(|w| w[0] == w[1]),
                        "torn inline read: {v:?}"
                    );
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
    }

    #[test]
    fn dropping_cell_drops_value() {
        struct Tracked(Arc<AtomicUsize>);
        impl Clone for Tracked {
            fn clone(&self) -> Self {
                Tracked(Arc::clone(&self.0))
            }
        }
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_add(1, AtomicOrdering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let cell = ValueCell::new(Tracked(Arc::clone(&drops)));
            drop(cell);
        }
        assert!(drops.load(AtomicOrdering::SeqCst) >= 1);
    }

    #[test]
    fn heavy_store_load_does_not_leak_wildly() {
        // Smoke test: epoch reclamation keeps up with churn on the boxed
        // path (1 KiB payloads would OOM quickly if retirement leaked).
        let c = ValueCell::new(vec![0u8; 1024]);
        for i in 0..10_000 {
            c.store(vec![(i % 256) as u8; 1024]);
        }
        assert_eq!(c.load()[0], ((10_000 - 1) % 256) as u8);
    }

    #[test]
    fn clone_semantics_preserved_on_inline_path() {
        // A dropless type whose Clone is observable: the inline path must
        // call it (via `assemble`) rather than bit-copying past it.
        static CLONES: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct CountsClones(u64);
        impl Clone for CountsClones {
            fn clone(&self) -> Self {
                CLONES.fetch_add(1, AtomicOrdering::SeqCst);
                CountsClones(self.0)
            }
        }
        let c = ValueCell::new(CountsClones(9));
        assert!(c.is_inline());
        let before = CLONES.load(AtomicOrdering::SeqCst);
        let v = c.load();
        assert_eq!(v.0, 9);
        assert_eq!(CLONES.load(AtomicOrdering::SeqCst), before + 1);
    }
}
