//! Counting global allocator.
//!
//! Wraps the system allocator and, while counting is switched on for
//! the calling thread, tallies that thread's allocation calls and
//! requested bytes. Counting is off by default, so the end-to-end runs
//! pay one thread-local read per allocation; the traced replay switches
//! it on around single calls into the library to report allocations
//! per window and per decode from outside the library.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The allocator installed as `#[global_allocator]` in `main.rs`.
pub struct CountingAlloc;

thread_local! {
    // Const-initialised `Cell`s need no lazy set-up and no destructor,
    // so reading them from inside the allocator cannot recurse into it.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with` fails only while the thread is being torn down; such
    // allocations are simply not counted.
    let _ = ENABLED.try_with(|on| {
        if on.get() {
            ALLOCS.with(|a| a.set(a.get() + 1));
            BYTES.with(|b| b.set(b.get() + size as u64));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwards the caller's layout unchanged; the caller
        // upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which always hands
        // out `System` memory, with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` block (see
        // `dealloc`); the caller upholds `realloc`'s size contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls and bytes requested while a [`count`] closure ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocDelta {
    pub allocs: u64,
    pub bytes: u64,
}

impl std::ops::Add for AllocDelta {
    type Output = AllocDelta;

    fn add(self, o: AllocDelta) -> AllocDelta {
        AllocDelta {
            allocs: self.allocs + o.allocs,
            bytes: self.bytes + o.bytes,
        }
    }
}

/// Runs `f` with counting switched on for this thread and returns its
/// result together with the allocations it made on this thread
/// (a reallocation counts as one call).
pub fn count<R>(f: impl FnOnce() -> R) -> (R, AllocDelta) {
    let (a0, b0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    ENABLED.with(|on| on.set(true));
    let r = f();
    ENABLED.with(|on| on.set(false));
    let delta = AllocDelta {
        allocs: ALLOCS.with(Cell::get) - a0,
        bytes: BYTES.with(Cell::get) - b0,
    };
    (r, delta)
}

/// Checks the counter on one known allocation: a `Vec<u64>` of 1000
/// elements is exactly one call for 8000 bytes.
pub fn self_test() -> Result<(), String> {
    let (v, d) = count(|| std::hint::black_box(Vec::<u64>::with_capacity(1000)));
    drop(v);
    if d == (AllocDelta {
        allocs: 1,
        bytes: 8000,
    }) {
        Ok(())
    } else {
        Err(format!(
            "counting allocator saw {d:?} for one 8000-byte Vec"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_one_known_vec_allocation() {
        self_test().unwrap();
    }

    #[test]
    fn nothing_is_counted_outside_count() {
        let (_, d) = count(|| ());
        assert_eq!(d, AllocDelta::default());
        let _outside = std::hint::black_box(vec![0u8; 64]);
        let (_, d) = count(|| ());
        assert_eq!(d, AllocDelta::default());
    }
}
