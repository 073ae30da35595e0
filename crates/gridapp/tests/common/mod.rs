//! A thread-local counting `#[global_allocator]` shared by the allocation
//! budget tests (each integration test is its own binary, so each gets its
//! own instance). It counts allocations and, for the tests that bound them,
//! the bytes requested: `alloc` sizes plus `realloc` new sizes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `Some(n)` while the current thread is inside a counted region.
    static COUNTED: Cell<Option<u64>> = const { Cell::new(None) };
    /// The bytes requested inside the counted region.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn bump(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when the count no longer matters.
    let _ = COUNTED.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
            let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
        }
    });
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters touch no allocator state and, being
// const-initialised `Cell`s without a destructor, never allocate themselves.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above — `ptr` came from `System` through this type.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` and returns how many times this thread allocated inside it.
#[allow(dead_code)] // The tests that bound bytes call `counted_with_bytes`.
pub fn counted(f: impl FnOnce()) -> u64 {
    counted_with_bytes(f).0
}

/// Runs `f` and returns how many times this thread allocated inside it and
/// how many bytes those allocations requested.
#[allow(dead_code)] // Only the tests that bound bytes call it.
pub fn counted_with_bytes(f: impl FnOnce()) -> (u64, u64) {
    BYTES.with(|b| b.set(0));
    COUNTED.with(|c| c.set(Some(0)));
    f();
    let count = COUNTED.with(|c| c.replace(None));
    (
        count.expect("region was opened above"),
        BYTES.with(Cell::get),
    )
}
