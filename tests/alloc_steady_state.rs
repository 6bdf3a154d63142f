//! Steady-state allocation guard for the convolution pipeline.
//!
//! The solver's inner loop is `Convolver::conv` — once a convolver has
//! warmed up (plan fetched, scratch buffers grown to size), repeated
//! convolutions and solver steps must perform **zero** heap
//! allocations: every buffer is reused via `clear`/`resize`, the FFT
//! plan comes from the process-wide cache, and the serial pool path
//! shares one pre-allocated scope state. Allocation counts, unlike
//! wall-clock time, are exactly reproducible — so this is a hard
//! regression guard, not a benchmark.
//!
//! The count is per thread: `allocations_during` reads only the
//! calling thread's counter. A process-global count would also take in
//! what other threads allocate inside the measured window — the libtest
//! harness thread, and the sibling tests of this binary that run in
//! parallel — and so fail at random on code that allocates nothing.
//! Counting per thread loses nothing the guard exists to catch:
//! `Convolver::conv` is single-threaded, and the solver steps run under
//! `with_threads(1, ..)`, where the pool spawns no workers and runs
//! every task inline at its `spawn` call site (DESIGN.md §10), so every
//! allocation they make lands on the measuring thread.

use lrd::fft::Convolver;
use lrd::pool::with_threads;
use lrd::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    // Const-initialised and without a destructor: touching it from
    // inside the allocator never allocates and stays valid during
    // thread teardown. `try_with` keeps the allocator panic-free anyway.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations made by the calling thread while `f` runs.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn warm_convolver_fft_path_never_allocates() {
    // kernel_len * signal_len = 512 * 256 clears DIRECT_THRESHOLD, so
    // this exercises the real-FFT path with its persistent spectra.
    let kernel: Vec<f64> = (0..512).map(|i| 1.0 / (i + 1) as f64).collect();
    let signal: Vec<f64> = (0..256).map(|i| (i as f64 * 0.1).sin()).collect();
    let mut cv = Convolver::new(&kernel, signal.len());
    let warm = cv.conv(&signal).to_vec();
    let allocs = allocations_during(|| {
        for _ in 0..100 {
            let out = cv.conv(&signal);
            assert_eq!(out.len(), kernel.len() + signal.len() - 1);
        }
    });
    assert_eq!(allocs, 0, "warm FFT-path conv allocated {allocs} times in 100 calls");
    // Reuse must not change the answer.
    assert_eq!(cv.conv(&signal), &warm[..]);
}

#[test]
fn warm_convolver_direct_path_never_allocates() {
    let kernel = [0.25, 0.5, 0.25];
    let signal: Vec<f64> = (0..64).map(|i| i as f64).collect();
    let mut cv = Convolver::new(&kernel, signal.len());
    let _ = cv.conv(&signal);
    let allocs = allocations_during(|| {
        for _ in 0..100 {
            let _ = cv.conv(&signal);
        }
    });
    assert_eq!(allocs, 0, "warm direct-path conv allocated {allocs} times in 100 calls");
}

#[test]
fn warm_solver_steps_never_allocate_on_the_serial_path() {
    // A full solver step is two chain updates (convolution, clamp,
    // renormalize, swap) through the pool. On the serial path the
    // whole thing must be allocation-free once warmed; the parallel
    // path necessarily boxes its tasks, which is why the solver keeps
    // `--threads 1` as the reference configuration.
    let model = QueueModel::from_utilization(
        Marginal::new(&[2.0, 14.0], &[0.5, 0.5]),
        TruncatedPareto::from_hurst(0.8, 0.05, 1.0),
        0.8,
        0.2,
    );
    with_threads(1, || {
        let mut solver = BoundSolver::new(model.clone(), 512);
        for _ in 0..4 {
            solver.step();
        }
        let allocs = allocations_during(|| {
            for _ in 0..50 {
                solver.step();
            }
        });
        assert_eq!(allocs, 0, "warm serial solver step allocated {allocs} times in 50 steps");
    });
}
