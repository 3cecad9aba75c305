//! A counting global allocator backing the oracle's allocation cap.
//!
//! The conformance oracle asserts that no input can drive a decoder's
//! transient memory commitment past the documented caps (the
//! `PREALLOC_ELEMS`-chunked sequence reads, `MAX_STR_LEN`,
//! `MAX_FRAME_LEN`-bounded payloads — see `docs/FORMATS.md`). Measuring
//! that takes a real allocator hook: [`CountingAlloc`] wraps
//! [`std::alloc::System`] and tracks a per-thread live-byte count, its
//! peak and the number of allocations.
//!
//! The harness binaries install it with `#[global_allocator]`; library
//! consumers that embed the oracle without installing it (the root
//! crate's corpus-replay tests) simply see a peak of zero, and the
//! oracle skips the cap check there — detection is via [`active`],
//! flipped on the first allocation the hook observes. Counters are
//! per-thread, matching the executor model: each fuzz thread decodes
//! its inputs locally, so cross-thread frees are noise this tracker
//! deliberately saturates away.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set once the hook sees its first allocation: proof the binary really
/// installed [`CountingAlloc`]. Relaxed is enough — this is a latch
/// read long after it was set, with no data published through it.
static ACTIVE: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// (live bytes, peak live bytes) on this thread.
    static LIVE: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
    /// Allocations and reallocations made on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// True when [`CountingAlloc`] is installed as the global allocator in
/// this binary (i.e. the hook has observed at least one allocation).
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Resets this thread's live/peak counters to the current live count.
pub fn reset_peak() {
    LIVE.with(|c| {
        let (live, _) = c.get();
        c.set((live, live));
    });
}

/// This thread's peak live-byte count since the last [`reset_peak`].
pub fn peak() -> usize {
    LIVE.with(|c| c.get().1)
}

/// Allocations (a reallocation counts as one) made on this thread so
/// far; take the difference around the code being measured.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn add(n: usize) {
    ACTIVE.store(true, Ordering::Relaxed);
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
    LIVE.with(|c| {
        let (live, peak) = c.get();
        let live = live.saturating_add(n);
        c.set((live, peak.max(live)));
    });
}

fn sub(n: usize) {
    LIVE.with(|c| {
        let (live, peak) = c.get();
        // Saturating: memory freed on a different thread than it was
        // allocated on would otherwise underflow the local counter.
        c.set((live.saturating_sub(n), peak));
    });
}

/// System-allocator wrapper that maintains the per-thread counters.
pub struct CountingAlloc;

// SAFETY: every method delegates verbatim to `System`, which upholds
// the `GlobalAlloc` contract; the counter updates around the delegation
// touch only a thread-local `Cell` and a relaxed atomic flag, neither
// of which allocates or panics, so the allocator is re-entrancy-safe.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size());
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        sub(layout.size());
        // SAFETY: `ptr` was allocated by `System` with `layout` (we
        // forward every allocation to it unmodified).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        sub(layout.size());
        add(new_size);
        // SAFETY: `ptr`/`layout` come from `System` via our `alloc`;
        // `new_size` obeys the caller's `GlobalAlloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size());
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
}
