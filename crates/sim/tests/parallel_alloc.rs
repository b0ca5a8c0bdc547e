//! Steady-state allocation test for the event engine: once the arrival
//! slab is loaded and one warm-up round has grown the event heap to its
//! high-water capacity, further rounds — arrival-cursor pops, heap pops,
//! same-instant and future schedules — must not touch the heap at all.
//! A counting global allocator makes any regression an exact,
//! reproducible failure.
//!
//! This file holds exactly one `#[test]` — the allocation counter is
//! process-global, and a second concurrently-running test would make the
//! delta nondeterministic.

use fifer_metrics::{SimDuration, SimTime};
use fifer_sim::engine::{Event, SlabEventQueue};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Delegates to the system allocator, counting every allocation and
/// reallocation (frees are not counted: releasing retained capacity is
/// not the regression this test guards against).
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Arrivals per round.
const EVENTS: u64 = 4_096;
const ROUNDS: u64 = 5;

/// Arrival time of job `j`: round `j / EVENTS` starts at `j / EVENTS`
/// seconds, four same-instant arrivals per microsecond.
fn arrival(j: u64) -> SimTime {
    SimTime::from_micros((j / EVENTS) * 1_000_000 + (j % EVENTS) / 4)
}

/// One identically-shaped round: commits the round's `EVENTS` arrivals,
/// fanning each out into one same-instant follow-up and one 50 ms later,
/// and commits those too — `2 * EVENTS` pops, all inside the round's
/// second. Every round grows the heap to the same high-water mark, so
/// round 1 pays all capacity growth.
fn round(q: &mut SlabEventQueue) {
    for _ in 0..2 * EVENTS {
        let (t, e) = q.pop().expect("round ran dry");
        if let Event::JobArrival { job } = e {
            let container = job as u64;
            if job % 2 == 0 {
                q.schedule(t, Event::ContainerWarm { container });
            } else {
                q.schedule(
                    t + SimDuration::from_millis(50),
                    Event::TaskFinish { container },
                );
            }
        }
    }
}

#[test]
fn steady_state_rounds_do_not_allocate() {
    let mut q = SlabEventQueue::new();
    q.load_arrivals((0..EVENTS * ROUNDS).map(arrival));
    round(&mut q); // warm-up
    let before = allocations();
    for _ in 1..ROUNDS {
        round(&mut q);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "steady-state engine rounds must be allocation-free, saw {delta}"
    );
    assert!(q.is_empty(), "every round must drain exactly");
}
