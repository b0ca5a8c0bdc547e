//! Memory pin for a stage's global task queue: its heap footprint must be
//! bounded by the peak live backlog, not by the number of tasks it ever
//! held.
//!
//! One million FIFO tasks flow through a queue that never holds more than
//! 64 at once, and the load monitor's oldest-pending query is never made
//! — the shape of a stage under a policy without reactive ticks, which
//! never pops stale entries off the age heap. A counting global allocator
//! tracks net live heap bytes; after a warm-up that lets every buffer
//! reach its working size, the rest of the run must not grow them.
//!
//! This file holds exactly one `#[test]` — the byte counter is
//! process-global, and a second concurrently-running test would make the
//! reading nondeterministic.

use fifer::core::scheduling::SchedulingPolicy;
use fifer::metrics::{SimDuration, SimTime};
use fifer::sim::stage::{IndexedTaskQueue, StageTask};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// Delegates to the system allocator, keeping a running total of bytes
/// allocated and not yet freed.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Tasks pushed through the queue.
const TASKS: u64 = 1_000_000;
/// Most tasks queued at once.
const MAX_LIVE: usize = 64;
/// Tasks pushed before the baseline reading.
const WARM_UP: u64 = 10_000;
/// Allowed growth of net live bytes after warm-up. Without compaction the
/// age heap keeps a 24-byte entry per task ever queued: ~24 MB here.
const CAP_BYTES: i64 = 64 * 1024;

fn task(job: u64) -> StageTask {
    let enqueued = SimTime::from_micros(job);
    StageTask {
        job: job as usize,
        enqueued,
        job_deadline: enqueued + SimDuration::from_secs(1),
        remaining_work: SimDuration::from_millis(100),
        retries: 0,
    }
}

#[test]
fn queue_memory_follows_live_tasks_not_throughput() {
    let mut q = IndexedTaskQueue::new(SchedulingPolicy::Fifo);
    let mut baseline = 0;
    let mut peak_growth = 0;
    for job in 0..TASKS {
        if job == WARM_UP {
            baseline = live_bytes();
        }
        q.push(task(job));
        if q.len() > MAX_LIVE {
            let popped = q.pop().expect("queue holds tasks");
            assert_eq!(popped.job as u64, job - MAX_LIVE as u64, "FIFO order");
        }
        if job >= WARM_UP {
            peak_growth = peak_growth.max(live_bytes() - baseline);
        }
    }
    assert_eq!(q.len(), MAX_LIVE);
    assert!(
        peak_growth < CAP_BYTES,
        "queue heap grew by {peak_growth} bytes over {TASKS} tasks with at most \
         {MAX_LIVE} live (cap {CAP_BYTES})"
    );
}
