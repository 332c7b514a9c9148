//! Steady-state allocation audit of the hot cycle loop.
//!
//! The scheduling rewrite (indexed IQ wakeup, timing-wheel stage bus,
//! indexed LTP queue, scratch-buffer reuse) claims the per-cycle hot path
//! performs **no heap allocation in steady state**. This test pins that: a
//! counting global allocator watches a full simulation of the mixed kernel
//! on the proposed LTP machine, and once the machine has reached steady
//! state (capacities grown, tables warm) every subsequent cycle must
//! allocate nothing.
//!
//! The observer sees every simulated cycle, including the quiescent ones the
//! run loop accounts for in one step, so the audit also covers that skip
//! path and the dense per-instruction tables (ROB-slot in-flight metadata,
//! the completed-register bitset, the MSHR completion index).
//!
//! Allocations are counted per thread, so the two audits below can run in
//! parallel (the default test harness) without seeing each other. The trace
//! and configuration are fixed, so the test is deterministic; a failure
//! means a per-cycle allocation crept back into the IQ, stage-bus, release,
//! commit or skip path.
//!
//! The same counter pins the sampled runner's producer path: a checkpoint,
//! its resume and its decode make a number of allocations that does not
//! grow with the caches' set count (each cache is one flat line array), and
//! fingerprinting a trace allocates nothing.

use ltp_isa::{trace_fingerprint, DecodedTrace};
use ltp_pipeline::{FunctionalFastForward, PipelineConfig, Processor, Snapshot};
use ltp_workloads::{replay_slice, trace, WorkloadKind};

// The counting allocator needs `unsafe impl GlobalAlloc`; the workspace
// otherwise denies unsafe code, so the exemption is scoped to this shim.
#[allow(unsafe_code)]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        /// Allocation (and reallocation) calls made by the current thread.
        /// Per thread, so the audits running in parallel (and the test
        /// harness's own threads) never count each other's allocations.
        /// A `const` initialiser with no destructor: the allocator may run
        /// on any thread at any time, so touching the counter must never
        /// itself allocate.
        static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    }

    fn bump() {
        // `try_with` fails only while the thread is being torn down.
        let _ = ALLOC_CALLS.try_with(|calls| calls.set(calls.get() + 1));
    }

    /// Allocation calls made so far by the calling thread.
    pub fn calls() -> u64 {
        ALLOC_CALLS.with(Cell::get)
    }

    pub struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            bump();
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            bump();
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            bump();
            unsafe { System.alloc_zeroed(layout) }
        }
    }
}

#[global_allocator]
static ALLOCATOR: counting::CountingAlloc = counting::CountingAlloc;

/// Allocation calls made so far by the calling (auditing) thread, which is
/// the thread that runs the simulation.
fn alloc_calls() -> u64 {
    counting::calls()
}

/// Runs `f` and returns the allocation calls it made on this thread, with
/// its result (dropped by the caller, outside the count).
fn allocs_of<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = alloc_calls();
    let r = f();
    (alloc_calls() - before, r)
}

/// Runs `kind` on `cfg` and returns `(steady_cycles, allocating_cycles)`
/// for the window after `warm_committed` instructions have committed.
fn audit(cfg: PipelineConfig, kind: WorkloadKind, insts: u64, warm_committed: u64) -> (u64, u64) {
    let warm = trace(kind, 7, 2_000);
    let detail = trace(kind, 8, insts as usize);
    let mut cpu = Processor::new(cfg);
    cpu.warm_caches(&warm);

    let mut last = alloc_calls();
    let mut steady_cycles = 0u64;
    let mut allocating_cycles = 0u64;
    cpu.run_observed(replay_slice(kind.name(), &detail), insts, |view| {
        let now = alloc_calls();
        if view.committed > warm_committed {
            steady_cycles += 1;
            if now != last {
                allocating_cycles += 1;
            }
        }
        last = now;
    })
    .expect("no deadlock");
    (steady_cycles, allocating_cycles)
}

/// The proposed LTP machine on the mixed kernel: after warm-up, the cycle
/// loop (wakeup, select, release, commit, stage-bus traffic) is
/// allocation-free.
#[test]
fn steady_state_cycles_do_not_allocate() {
    let (steady, allocating) = audit(
        PipelineConfig::ltp_proposed(),
        WorkloadKind::MixedPhases,
        6_000,
        3_000,
    );
    assert!(
        steady > 500,
        "audit window too small to be meaningful: {steady} cycles"
    );
    assert_eq!(
        allocating, 0,
        "{allocating} of {steady} steady-state cycles performed a heap allocation"
    );
}

/// Same audit for the baseline (LTP off) machine, which exercises the pure
/// IQ/bus path without the parking queue.
#[test]
fn baseline_steady_state_cycles_do_not_allocate() {
    let (steady, allocating) = audit(
        PipelineConfig::micro2015_baseline(),
        WorkloadKind::MixedPhases,
        6_000,
        3_000,
    );
    assert!(steady > 500, "audit window too small: {steady} cycles");
    assert_eq!(
        allocating, 0,
        "{allocating} of {steady} steady-state cycles performed a heap allocation"
    );
}

/// Allocation calls of `[checkpoint, resume, from_bytes]` for one
/// functionally warmed checkpoint of the mixed kernel on `cfg`.
fn checkpoint_path_allocs(cfg: PipelineConfig) -> [u64; 3] {
    let kind = WorkloadKind::MixedPhases;
    let detail = trace(kind, 8, 6_000);
    let dec = DecodedTrace::from_insts(&detail);
    let mut ff = FunctionalFastForward::new(cfg);
    ff.warm_caches(&trace(kind, 7, 2_000));
    ff.advance_on(&dec, 3_000);
    let (checkpoint, snap) = allocs_of(|| ff.checkpoint().expect("checkpointable"));
    let (resume, resumed) = allocs_of(|| snap.resume());
    drop(resumed);
    let bytes = snap.to_bytes();
    let (from_bytes, decoded) = allocs_of(|| Snapshot::from_bytes(&bytes).expect("decode"));
    assert_eq!(decoded.to_bytes(), bytes, "canonical snapshot bytes");
    [checkpoint, resume, from_bytes]
}

/// Checkpointing, resuming and decoding allocate per structure, not per
/// cache set: quadrupling the L3's set count leaves every count unchanged.
#[test]
fn checkpoint_allocations_do_not_scale_with_cache_sets() {
    let base = PipelineConfig::ltp_proposed();
    let mut mem = base.mem;
    mem.l3.size_bytes *= 4;
    assert_eq!(mem.l3.num_sets(), 4 * base.mem.l3.num_sets());
    let small = checkpoint_path_allocs(base);
    let large = checkpoint_path_allocs(base.with_mem(mem));
    assert_eq!(
        small, large,
        "[checkpoint, resume, from_bytes] allocation calls with a 4x L3"
    );
}

/// Fingerprinting a trace folds its fields in place: no encode buffer.
#[test]
fn trace_fingerprint_does_not_allocate() {
    let insts = trace(WorkloadKind::MixedPhases, 2015, 96_000);
    let (calls, fnv) = allocs_of(|| trace_fingerprint(&insts));
    assert_eq!(calls, 0, "trace_fingerprint allocated");
    assert_eq!(fnv, trace_fingerprint(&insts), "deterministic");
}
