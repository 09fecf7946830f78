//! A counting global allocator: delegates to the system allocator and
//! counts allocations per thread, so spans can attribute heap churn the
//! same way they attribute time.
//!
//! Install it from a binary (allocators are per-binary, not per-crate):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: hopp_prof::alloc::CountingAlloc = hopp_prof::alloc::CountingAlloc;
//! ```
//!
//! Without it [`thread_allocs`] stays at zero and every span reports
//! zero allocations — time attribution is unaffected.
//!
//! The `unsafe` below is the mandatory `GlobalAlloc` plumbing; it
//! delegates verbatim to [`std::alloc::System`]. `tests/alloc_steady.rs`
//! installs this allocator too and measures with [`thread_allocs`]
//! deltas, which stay exact when tests run on parallel threads.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations performed by the current thread since it started (only
/// counted while [`CountingAlloc`] is installed as the global
/// allocator). Monotonic; spans diff it across their scope.
pub fn thread_allocs() -> u64 {
    // `try_with` so late allocations during thread teardown (after TLS
    // destruction) degrade to "not counted" instead of aborting.
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
}

/// The counting allocator. Zero-sized; wraps [`System`].
pub struct CountingAlloc;

// SAFETY: delegates every method verbatim to `System`, which upholds
// the `GlobalAlloc` contract; the count bump allocates nothing itself
// (`Cell<u64>` update, `try_with` absorbs TLS teardown).
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s layout contract;
    // forwarded unchanged to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller guarantees `ptr` came from this allocator with
    // this `layout`; `System` is the allocator that produced it.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same ptr/layout pair the caller vouched for.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller guarantees `ptr`/`layout` describe a live System
    // allocation and `new_size` is non-zero per the trait contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: same ptr/layout/new_size the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: caller upholds `GlobalAlloc::alloc_zeroed`'s layout
    // contract; forwarded unchanged to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }
}
