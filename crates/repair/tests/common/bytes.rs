//! A thread-local `#[global_allocator]` that counts the bytes requested —
//! `alloc` sizes plus `realloc` new sizes — shared by the model-copy budget
//! tests (each integration test is its own binary, so each gets its own
//! instance). Bytes requested are a deterministic work counter, the same on
//! every host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `Some(bytes)` while the current thread is inside a counted region.
    static COUNTED: Cell<Option<u64>> = const { Cell::new(None) };
}

struct CountingAllocator;

fn bump(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when the count no longer matters.
    let _ = COUNTED.try_with(|c| c.set(c.get().map(|n| n + bytes as u64)));
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state and, being a
// const-initialised `Cell` without a destructor, never allocates itself.
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

/// Runs `f` and returns how many bytes this thread requested inside it.
pub fn bytes_requested(f: impl FnOnce()) -> u64 {
    COUNTED.with(|c| c.set(Some(0)));
    f();
    COUNTED
        .with(|c| c.replace(None))
        .expect("region was opened above")
}
