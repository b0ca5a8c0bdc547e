//! The discrete-event engine: a time-ordered event queue with a
//! deterministic tie-break sequence number.
//!
//! [`SlabEventQueue`] is the engine every run uses. A replay's job
//! arrivals are known up front and already in time order, so they live in
//! a pre-sorted *arrival slab* read through a cursor — O(1) per arrival,
//! and the bulk of a replay never touches a heap. Everything scheduled
//! while the run is in progress (stage hand-offs, task completions,
//! warm-ups, ticks, faults) goes into one binary heap, and each pop
//! compares the two heads once.
//!
//! Loading the slab takes one sequence number per arrival, in job order,
//! exactly the numbers that scheduling each arrival into the heap in turn
//! would take, and every pop commits the smaller `(time, seq)` key. So a
//! run that heaps its arrivals one by one
//! ([`SimConfig::use_serial_engine`](crate::config::SimConfig)) commits
//! the same total order and is bit-identical by construction
//! (DESIGN.md §12); that run is the whole-run engine reference. The unit
//! tests pin the slab against a one-heap oracle queue over random
//! interleavings of schedules, loads and pops.

use crate::fault::FaultKind;
use fifer_metrics::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Events the simulator processes. Variants carry indices into the
/// driver's tables rather than references, keeping the queue `'static`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Job `job` (index into the stream) arrives at the front door.
    JobArrival { job: usize },
    /// Job `job` enters the global queue of its current stage (after the
    /// chain transition overhead).
    StageEnqueue { job: usize },
    /// The task executing on `container` completes.
    TaskFinish { container: u64 },
    /// `container` finishes its cold start and becomes warm.
    ContainerWarm { container: u64 },
    /// Fast reactive-scaling check (Algorithm 1 a/b).
    ReactiveTick,
    /// Slow monitoring tick: proactive scaling, idle scale-down, energy
    /// sampling (the paper's T = 10 s interval, §4.5).
    MonitorTick,
    /// Fault injection: `container` dies (spawn fault or mid-task crash,
    /// per `fault`). Stale if the container is already dead when it fires.
    ContainerCrash {
        /// The doomed container.
        container: u64,
        /// Which fault killed it (trace attribution).
        fault: FaultKind,
    },
    /// Fault injection: node `node` goes down, killing every resident
    /// container.
    NodeDown {
        /// The failing node.
        node: usize,
    },
    /// Fault injection: node `node` recovers and accepts placements again.
    NodeUp {
        /// The recovering node.
        node: usize,
    },
}

/// An event scheduled at a time, ordered by `(time, seq)` so simultaneous
/// events process in insertion order — deterministic across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // reversed: BinaryHeap is a max-heap, we want earliest first
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The default event engine: a pre-sorted arrival slab read by a cursor,
/// plus one heap for dynamically scheduled events.
///
/// The slab holds one [`SimTime`] per job: arrival `k` is
/// [`Event::JobArrival`] `{ job: k }` with sequence number
/// `first_arrival_seq + k`, exactly the numbers [`Self::schedule`]
/// assigns when the same arrivals are scheduled one by one. A pop takes
/// whichever of the two heads has the smaller `(time, seq)` key, so the
/// committed order is the one a single heap over every event would give.
///
/// # Example
///
/// ```
/// use fifer_sim::engine::{Event, SlabEventQueue};
/// use fifer_metrics::SimTime;
///
/// let mut q = SlabEventQueue::new();
/// q.load_arrivals([SimTime::from_secs(1), SimTime::from_secs(3)]);
/// q.schedule(SimTime::from_secs(2), Event::MonitorTick);
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), Event::JobArrival { job: 0 })));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), Event::MonitorTick)));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(3), Event::JobArrival { job: 1 })));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Default)]
pub struct SlabEventQueue {
    /// Arrival times of jobs `0..n`, in non-decreasing order.
    arrivals: Vec<SimTime>,
    /// Index of the next arrival to commit.
    cursor: usize,
    /// Sequence number of job 0's arrival.
    first_arrival_seq: u64,
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
    now: SimTime,
    /// Set by the first [`Self::pop`]; arrival loads are refused after.
    draining: bool,
}

impl SlabEventQueue {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current simulation time (the time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Loads the run's job arrivals: `arrivals[k]` is the arrival time of
    /// job `k`. Takes one sequence number per job, in job order, so the
    /// arrivals order against other events exactly as if each had been
    /// [scheduled](Self::schedule) here in turn.
    ///
    /// # Panics
    ///
    /// Panics if arrivals were already loaded, if draining has started, or
    /// if the times are not in non-decreasing order.
    pub fn load_arrivals(&mut self, arrivals: impl IntoIterator<Item = SimTime>) {
        assert!(
            !self.draining && self.arrivals.is_empty(),
            "arrivals load once, before the first pop"
        );
        self.arrivals.extend(arrivals);
        assert!(self.arrivals.is_sorted(), "arrivals out of time order");
        self.first_arrival_seq = self.next_seq;
        self.next_seq += self.arrivals.len() as u64;
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.heap.push(Scheduled {
            at,
            seq: self.next_seq,
            event,
        });
        self.next_seq += 1;
    }

    /// Pops the earliest event — the smaller `(time, seq)` of the arrival
    /// cursor and the heap head — advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.draining = true;
        let arrival = self
            .arrivals
            .get(self.cursor)
            .map(|&at| (at, self.first_arrival_seq + self.cursor as u64));
        let from_heap = match (arrival, self.heap.peek()) {
            (Some(a), Some(h)) => (h.at, h.seq) < a,
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (None, None) => return None,
        };
        let (at, event) = if from_heap {
            let s = self.heap.pop().expect("peeked head vanished");
            (s.at, s.event)
        } else {
            let job = self.cursor;
            self.cursor += 1;
            (self.arrivals[job], Event::JobArrival { job })
        };
        debug_assert!(at >= self.now, "engine yielded an out-of-order event");
        self.now = at;
        Some((at, event))
    }

    /// Number of pending events (arrivals not yet committed plus the heap).
    pub fn len(&self) -> usize {
        self.arrivals.len() - self.cursor + self.heap.len()
    }

    /// `true` when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifer_metrics::SimDuration;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// The queue operations the slab engine and the oracle share, so one
    /// workload can drive either.
    trait Engine {
        fn schedule(&mut self, at: SimTime, event: Event);
        fn load_arrivals(&mut self, arrivals: Vec<SimTime>);
        fn pop(&mut self) -> Option<(SimTime, Event)>;
        fn len(&self) -> usize;
    }

    impl Engine for SlabEventQueue {
        fn schedule(&mut self, at: SimTime, event: Event) {
            SlabEventQueue::schedule(self, at, event);
        }
        fn load_arrivals(&mut self, arrivals: Vec<SimTime>) {
            SlabEventQueue::load_arrivals(self, arrivals);
        }
        fn pop(&mut self) -> Option<(SimTime, Event)> {
            SlabEventQueue::pop(self)
        }
        fn len(&self) -> usize {
            SlabEventQueue::len(self)
        }
    }

    /// The one-heap oracle: every event, arrivals included, in one binary
    /// heap, drawing sequence numbers in schedule-call order.
    #[derive(Debug, Default)]
    struct OneHeapQueue {
        heap: BinaryHeap<Scheduled>,
        next_seq: u64,
    }

    impl Engine for OneHeapQueue {
        fn schedule(&mut self, at: SimTime, event: Event) {
            self.heap.push(Scheduled {
                at,
                seq: self.next_seq,
                event,
            });
            self.next_seq += 1;
        }

        /// What the driver does for the serial-engine reference run.
        fn load_arrivals(&mut self, arrivals: Vec<SimTime>) {
            for (job, at) in arrivals.into_iter().enumerate() {
                self.schedule(at, Event::JobArrival { job });
            }
        }

        fn pop(&mut self) -> Option<(SimTime, Event)> {
            self.heap.pop().map(|s| (s.at, s.event))
        }

        fn len(&self) -> usize {
            self.heap.len()
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = SlabEventQueue::new();
        q.schedule(secs(3), Event::ReactiveTick);
        q.schedule(secs(1), Event::MonitorTick);
        q.schedule(secs(2), Event::JobArrival { job: 0 });
        let order: Vec<SimTime> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(order, vec![secs(1), secs(2), secs(3)]);
    }

    #[test]
    fn simultaneous_events_keep_insertion_order() {
        let mut q = SlabEventQueue::new();
        q.schedule(secs(1), Event::JobArrival { job: 1 });
        q.schedule(secs(1), Event::JobArrival { job: 2 });
        q.schedule(secs(1), Event::JobArrival { job: 3 });
        let jobs: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::JobArrival { job } => job,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(jobs, vec![1, 2, 3]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = SlabEventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(secs(5), Event::MonitorTick);
        q.pop();
        assert_eq!(q.now(), secs(5));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = SlabEventQueue::new();
        q.schedule(secs(5), Event::MonitorTick);
        q.pop();
        q.schedule(secs(1), Event::MonitorTick);
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = SlabEventQueue::new();
        q.schedule(secs(2), Event::MonitorTick);
        q.pop();
        q.schedule(secs(2), Event::ReactiveTick);
        assert_eq!(q.pop().unwrap().0, secs(2));
    }

    #[test]
    fn len_and_empty() {
        let mut q = SlabEventQueue::new();
        assert!(q.is_empty());
        q.schedule(secs(1), Event::MonitorTick);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    /// A deterministic but irregular workload: events scheduled before the
    /// arrivals load, same-instant arrivals, and dynamic events scheduled
    /// while draining (some into the future, some at `now`), exercising
    /// every tie between the arrival cursor and the heap.
    fn drive(q: &mut impl Engine) -> Vec<(SimTime, Event)> {
        q.schedule(SimTime::ZERO, Event::ContainerWarm { container: 0 });
        q.schedule(
            SimTime::from_millis(100),
            Event::ContainerWarm { container: 1 },
        );
        q.load_arrivals(
            (0..40u64)
                .map(|j| SimTime::from_millis(100 * (j / 4)))
                .collect(),
        );
        q.schedule(SimTime::from_millis(250), Event::ReactiveTick);
        q.schedule(SimTime::from_millis(500), Event::MonitorTick);
        q.schedule(SimTime::from_millis(700), Event::NodeDown { node: 1 });
        let mut order = Vec::new();
        let mut spawned = 0u64;
        while let Some((t, e)) = q.pop() {
            order.push((t, e));
            if let Event::JobArrival { job } = e {
                q.schedule(
                    t + SimDuration::from_millis(37 * (job as u64 % 5) + 1),
                    Event::TaskFinish {
                        container: spawned * 3 + 1,
                    },
                );
                spawned += 1;
                if job % 7 == 0 {
                    q.schedule(t, Event::ContainerWarm { container: spawned });
                }
                if job % 4 == 3 {
                    // lands exactly on the next arrival batch's instant
                    q.schedule(
                        t + SimDuration::from_millis(100),
                        Event::StageEnqueue { job },
                    );
                }
            }
        }
        order
    }

    #[test]
    fn slab_commit_order_is_bit_identical_to_reference() {
        let reference = drive(&mut OneHeapQueue::default());
        let slab = drive(&mut SlabEventQueue::new());
        assert_eq!(reference.len(), 40 + 2 + 3 + 40 + 6 + 10);
        assert_eq!(slab, reference);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]
        /// Random interleavings of schedules (at `now` and on coarse 10 ms
        /// instants, so same-instant ties with each other and with
        /// arrivals are common), one arrival load at a random point before
        /// the first pop, and pops: the slab engine pops exactly what the
        /// one-heap oracle pops, with the same pending count after every
        /// step, until both drain.
        #[test]
        fn slab_pops_what_the_one_heap_oracle_pops(
            before in proptest::collection::vec((0u8..4, 0u64..5), 0..12),
            gaps in proptest::collection::vec(0u64..4, 0..40),
            ops in proptest::collection::vec((0u8..5, 0u64..5), 0..160),
        ) {
            let mut slab = SlabEventQueue::new();
            let mut oracle = OneHeapQueue::default();
            let mut tag = 0u64;
            let mut schedule = |slab: &mut SlabEventQueue, oracle: &mut OneHeapQueue, ticks: u64| {
                let at = slab.now() + SimDuration::from_millis(10 * ticks);
                let event = Event::TaskFinish { container: tag };
                tag += 1;
                slab.schedule(at, event);
                oracle.schedule(at, event);
            };
            let arrivals: Vec<SimTime> = gaps
                .iter()
                .scan(0u64, |t, &g| {
                    *t += g;
                    Some(SimTime::from_millis(10 * *t))
                })
                .collect();
            let mut loaded = false;
            // before the first pop: schedules, and the load wherever it falls
            for &(kind, ticks) in &before {
                if kind == 0 && !loaded {
                    slab.load_arrivals(arrivals.clone());
                    oracle.load_arrivals(arrivals.clone());
                    loaded = true;
                } else {
                    schedule(&mut slab, &mut oracle, ticks);
                }
                assert_eq!(slab.len(), oracle.len());
            }
            if !loaded {
                slab.load_arrivals(arrivals.clone());
                oracle.load_arrivals(arrivals.clone());
                assert_eq!(slab.len(), oracle.len());
            }
            for (step, &(kind, ticks)) in ops.iter().enumerate() {
                if kind < 2 {
                    schedule(&mut slab, &mut oracle, ticks);
                } else {
                    assert_eq!(slab.pop(), oracle.pop(), "pop at step {step}");
                }
                assert_eq!(slab.len(), oracle.len(), "len after step {step}");
            }
            while let Some(next) = oracle.pop() {
                assert_eq!(slab.pop(), Some(next));
                assert_eq!(slab.len(), oracle.len());
            }
            assert_eq!(slab.pop(), None);
        }
    }

    #[test]
    fn slab_len_counts_arrivals_and_heap() {
        let mut q = SlabEventQueue::new();
        assert!(q.is_empty());
        q.load_arrivals([secs(1), secs(1)]);
        q.schedule(secs(3), Event::MonitorTick);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((secs(1), Event::JobArrival { job: 0 })));
        assert_eq!(q.len(), 2);
        while q.pop().is_some() {}
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), secs(3));
    }

    #[test]
    fn slab_arrivals_tie_by_schedule_order() {
        // a heap event scheduled before the load commits ahead of a
        // same-instant arrival; one scheduled after it commits behind
        let mut q = SlabEventQueue::new();
        q.schedule(secs(1), Event::ReactiveTick);
        q.load_arrivals([secs(1)]);
        q.schedule(secs(1), Event::MonitorTick);
        let order: Vec<Event> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            vec![
                Event::ReactiveTick,
                Event::JobArrival { job: 0 },
                Event::MonitorTick
            ]
        );
    }

    #[test]
    #[should_panic(expected = "before the first pop")]
    fn slab_rejects_loads_after_draining() {
        // an empty pop still starts draining
        let mut q = SlabEventQueue::new();
        assert!(q.pop().is_none());
        q.load_arrivals([secs(1)]);
    }

    #[test]
    #[should_panic(expected = "out of time order")]
    fn slab_rejects_unsorted_arrivals() {
        SlabEventQueue::new().load_arrivals([secs(2), secs(1)]);
    }
}
