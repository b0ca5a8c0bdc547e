//! Per-stage runtime state: the global request queue and the load monitor
//! (paper §4.2, §5.1).
//!
//! Fifer keeps "a global request queue for every stage within the job which
//! holds all the incoming tasks before being scheduled to a container in
//! that stage". The load monitor tracks queuing delays of recently
//! scheduled requests and per-stage arrivals, feeding the reactive and
//! proactive scalers.
//!
//! The queue is an [`IndexedTaskQueue`]: the scheduling policy's dispatch
//! key ([`QueuedTask::priority_key`]) is computed once at enqueue — every
//! policy's key is clock-independent — and tasks live in a slab indexed by
//! two binary heaps, one in key order (for `pop`) and one in arrival order
//! (for the load monitor's oldest-pending-age signal). Both `pop` and the
//! age query are O(log n) amortized where the seed scanned the whole queue
//! per dispatched task. Tasks leave only by `pop`, so the key heap holds
//! exactly the queued tasks; the arrival heap deletes lazily and holds at
//! most `2 · len + STALE_SLACK` entries: once it outgrows that bound it is
//! compacted to its live entries. Compaction keeps the heap's capacity,
//! so a queue's memory is bounded by its peak live backlog, not by every
//! task it ever held. The reference linear-scan scheduler
//! ([`select_task_iter`](fifer_core::scheduling::select_task_iter)) is the
//! auditor's oracle for the pop order (`audit` module).

use fifer_core::resources::ResourceVec;
use fifer_core::scheduling::{ContainerSelection, QueuedTask, SchedulingPolicy};
use fifer_metrics::{SimDuration, SimTime};
use fifer_workloads::Microservice;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

/// The rank a container is keyed under in its stage's free-slot index:
/// the pod count of its node under greedy selection (so ties break toward
/// the most-packed node), 0 under the other policies (plain id order).
pub(crate) fn selection_rank(selection: ContainerSelection, node_pods: usize) -> usize {
    match selection {
        ContainerSelection::GreedyLeastFreeSlots => node_pods,
        ContainerSelection::FirstFit | ContainerSelection::MostFreeSlots => 0,
    }
}

/// A free-slot index entry: higher selection rank first, then lower id.
type FreeKey = (Reverse<usize>, u64);

/// A task waiting in a stage's global queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTask {
    /// Job (stream index).
    pub job: usize,
    /// When the task entered this queue.
    pub enqueued: SimTime,
    /// Absolute SLO deadline of the owning job.
    pub job_deadline: SimTime,
    /// Estimated work remaining for the job (this stage onward) — used by
    /// Least-Slack-First.
    pub remaining_work: SimDuration,
    /// How many times a fault has bounced this task back into a global
    /// queue. 0 on the first attempt.
    pub retries: u32,
}

impl StageTask {
    /// The scheduler-facing view of this task.
    pub fn as_queued(&self) -> QueuedTask {
        QueuedTask {
            job_id: self.job as u64,
            enqueued: self.enqueued,
            job_deadline: self.job_deadline,
            remaining_work: self.remaining_work,
        }
    }
}

/// Stale entries the arrival-order heap of an [`IndexedTaskQueue`] may
/// hold beyond twice the live count before it is compacted. Keeps
/// compaction off small queues, where the stale entries cost less than
/// the rebuild.
const STALE_SLACK: usize = 32;

/// A policy-keyed indexed priority queue of [`StageTask`]s.
///
/// Layout: a slab of `(seq, task)` slots with a free list, plus two
/// `BinaryHeap`s of `Reverse<(key, seq, slot)>` entries — one keyed by the
/// policy's dispatch key, one by arrival time. Tasks leave only through
/// [`pop`](Self::pop), which takes the top of the dispatch heap, so every
/// dispatch-heap entry is live. The arrival-order entry the popped task
/// leaves behind is stale (its `seq` no longer matches the slot) and is
/// discarded when it surfaces at the top of the arrival heap.
///
/// Stale arrival entries that never surface — the heap is only read on
/// reactive ticks, and under LSF or EDF tasks leave out of arrival order —
/// are bounded: whenever a pop leaves the arrival heap holding more than
/// `2 · len + STALE_SLACK` entries, it is compacted to its live entries
/// (its capacity is kept, so memory is bounded by the peak live backlog).
/// Each compaction costs O(heap) and follows at least
/// `(heap + STALE_SLACK) / 2` pops since the previous one, so it is O(1)
/// amortized per pop. The `seq` component makes every heap entry unique,
/// so neither compaction nor the heap's internal layout ever affects which
/// task wins — ordering is exactly the lexicographic key.
#[derive(Debug, Clone)]
pub struct IndexedTaskQueue {
    policy: SchedulingPolicy,
    /// Slot -> (insert seq, task). `None` = free slot.
    slots: Vec<Option<(u64, StageTask)>>,
    /// Free slot indices available for reuse.
    free: Vec<u32>,
    /// Monotonic insert counter; stamps each slot's occupant.
    next_seq: u64,
    /// Dispatch order: min-heap of (policy key, seq, slot), one live entry
    /// per queued task.
    by_key: BinaryHeap<Reverse<([u64; 3], u64, u32)>>,
    /// Arrival order: min-heap of (enqueued µs, seq, slot) for the load
    /// monitor's oldest-pending query; may hold up to `len + STALE_SLACK`
    /// stale entries.
    by_age: BinaryHeap<Reverse<(u64, u64, u32)>>,
}

impl IndexedTaskQueue {
    /// Creates an empty queue dispatching per `policy`.
    pub fn new(policy: SchedulingPolicy) -> Self {
        IndexedTaskQueue {
            policy,
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            by_key: BinaryHeap::new(),
            by_age: BinaryHeap::new(),
        }
    }

    /// The dispatch policy this queue is keyed by.
    pub fn policy(&self) -> SchedulingPolicy {
        self.policy
    }

    /// Number of queued tasks.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// `true` when no task is pending.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Inserts a task, keying it once; O(log n).
    pub fn push(&mut self, task: StageTask) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some((seq, task));
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("queue exceeds u32 slots");
                self.slots.push(Some((seq, task)));
                s
            }
        };
        let key = task.as_queued().priority_key(self.policy);
        self.by_key.push(Reverse((key, seq, slot)));
        self.by_age
            .push(Reverse((task.enqueued.as_micros(), seq, slot)));
    }

    /// The policy-minimum task, the one [`pop`](Self::pop) would return.
    pub fn peek(&self) -> Option<&StageTask> {
        self.by_key
            .peek()
            .map(|&Reverse((_, _, slot))| self.live_task(slot))
    }

    /// Removes and returns the policy-minimum task; O(log n) amortized.
    pub fn pop(&mut self) -> Option<StageTask> {
        let Reverse((_, _, slot)) = self.by_key.pop()?;
        let task = *self.live_task(slot);
        self.slots[slot as usize] = None;
        self.free.push(slot);
        // the task's by_age entry stays behind as stale: skipped when it
        // reaches the top of the heap, or dropped by compaction
        self.compact_stale_ages();
        Some(task)
    }

    /// Enqueue time of the oldest pending task; O(log n) amortized (stale
    /// age entries are discarded on the way to the answer).
    pub fn oldest_enqueued(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((enq_us, seq, slot))) = self.by_age.peek() {
            match self.slots[slot as usize] {
                Some((live_seq, _)) if live_seq == seq => {
                    return Some(SimTime::from_micros(enq_us));
                }
                _ => {
                    self.by_age.pop();
                }
            }
        }
        None
    }

    /// Iterates the queued tasks in slab order — the view the auditor's
    /// reference scheduler scans.
    pub fn iter(&self) -> impl Iterator<Item = &StageTask> + '_ {
        self.slots.iter().flatten().map(|(_, task)| task)
    }

    /// The task in `slot`, which a dispatch-heap entry names.
    fn live_task(&self, slot: u32) -> &StageTask {
        let (_, task) = self.slots[slot as usize]
            .as_ref()
            .expect("every dispatch-heap entry is live");
        task
    }

    /// Drops every stale entry from the arrival heap once it holds more
    /// than `2 · len + STALE_SLACK` entries (O(1) amortized per pop; see
    /// the type docs).
    fn compact_stale_ages(&mut self) {
        if self.by_age.len() > 2 * self.len() + STALE_SLACK {
            let slots = &self.slots;
            self.by_age.retain(
                |&Reverse((_, seq, slot))| matches!(slots[slot as usize], Some((s, _)) if s == seq),
            );
        }
    }
}

/// A (queuing delay, when scheduled) observation for the load monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DelayObs {
    at: SimTime,
    delay: SimDuration,
}

/// Runtime state for one stage.
#[derive(Debug, Clone)]
pub struct StageRuntime {
    /// The microservice this stage runs.
    pub microservice: Microservice,
    /// Static plan values shared by all containers of this stage.
    pub batch_size: usize,
    /// Per-stage response budget `S_r = slack + exec`.
    pub response_latency: SimDuration,
    /// Allocated slack (reactive trigger threshold).
    pub slack: SimDuration,
    /// Mean execution time (for LSF remaining-work estimates).
    pub mean_exec: SimDuration,
    /// Expected cold-start latency for this stage's image.
    pub cold_start: SimDuration,
    /// Global queue of pending tasks, indexed by the dispatch policy.
    pub queue: IndexedTaskQueue,
    /// Containers (ids) currently serving this stage, dead ones pruned.
    pub containers: Vec<u64>,
    /// Free-slot index: `free_buckets[f]` holds this stage's containers
    /// with exactly `f` free slots (1 ≤ f ≤ batch_size), keyed by
    /// `(Reverse(rank), id)` with the rank from [`selection_rank`]. Kept in
    /// sync by the driver so container selection is one O(log C) lookup
    /// instead of a scan per dispatched task.
    free_buckets: Vec<BTreeSet<FreeKey>>,
    /// Free slots across all buckets, maintained incrementally so the
    /// reactive scaler's waiting-count is O(1) instead of a bucket walk.
    free_slots_total: usize,
    /// Queuing-delay observations of recently scheduled tasks, kept as a
    /// sliding-window max-deque: delays are non-increasing front→back, so
    /// the front is the window maximum and each observation is pushed and
    /// popped at most once (O(1) amortized, vs. the seed's full scan).
    recent_delays: VecDeque<DelayObs>,
    /// Tasks currently executing in this stage's containers (driver-
    /// maintained; lets the load monitor report waiting-task counts that
    /// include container-local queues).
    pub executing: usize,
    /// Arrivals into this stage (for share estimation), cumulative.
    pub arrivals: u64,
    /// Tasks executed at this stage, cumulative.
    pub tasks_executed: u64,
    /// Containers ever spawned for this stage, cumulative.
    pub containers_spawned: u64,
    /// Tasks re-enqueued after their container was killed by a fault,
    /// cumulative. Not counted in `arrivals` (share estimation tracks
    /// demand, not retries).
    pub requeued: u64,
    /// Tasks orphaned by faulted containers, cumulative (each is then
    /// either requeued or, past the retry budget, dropped).
    pub lost: u64,
    /// Sum of the stage's live containers' primary allocations (driver-
    /// maintained, exact integers — feeds `StageView::allocated`).
    pub allocated: ResourceVec,
    /// Sum of the stage's live containers' current usage (idle or busy
    /// profile per container — feeds `StageView::used`).
    pub used: ResourceVec,
    /// Right-sizer override for future spawns: `None` uses the cluster's
    /// default container shape, `Some` was set by a `Decision::Resize`
    /// (already clamped to the default shape by the mechanism).
    pub spawn_alloc: Option<ResourceVec>,
}

impl StageRuntime {
    /// Creates an empty stage runtime dispatching per `policy`.
    pub fn new(
        microservice: Microservice,
        policy: SchedulingPolicy,
        batch_size: usize,
        response_latency: SimDuration,
        slack: SimDuration,
        mean_exec: SimDuration,
        cold_start: SimDuration,
    ) -> Self {
        assert!(batch_size >= 1, "batch size is floored at 1");
        StageRuntime {
            microservice,
            batch_size,
            response_latency,
            slack,
            mean_exec,
            cold_start,
            queue: IndexedTaskQueue::new(policy),
            containers: Vec::new(),
            free_buckets: vec![BTreeSet::new(); batch_size + 1],
            free_slots_total: 0,
            executing: 0,
            recent_delays: VecDeque::new(),
            arrivals: 0,
            tasks_executed: 0,
            containers_spawned: 0,
            requeued: 0,
            lost: 0,
            allocated: ResourceVec::ZERO,
            used: ResourceVec::ZERO,
            spawn_alloc: None,
        }
    }

    /// Enqueues a task.
    pub fn enqueue(&mut self, task: StageTask) {
        self.arrivals += 1;
        self.queue.push(task);
    }

    /// Re-enqueues a task bounced back by a fault. Counts as a requeue, not
    /// an arrival — the demand already arrived once.
    pub fn requeue(&mut self, task: StageTask) {
        self.requeued += 1;
        self.queue.push(task);
    }

    /// Records that a task waited `delay` before being scheduled at `at`.
    /// Observations arrive in non-decreasing `at` order (simulation time).
    pub fn record_scheduled(&mut self, at: SimTime, delay: SimDuration) {
        // max-deque invariant: drop older observations this one dominates
        while matches!(self.recent_delays.back(), Some(obs) if obs.delay <= delay) {
            self.recent_delays.pop_back();
        }
        self.recent_delays.push_back(DelayObs { at, delay });
    }

    /// The observed delay signal for Algorithm 1 a at time `now`: the worst
    /// of (a) queuing delays of tasks scheduled in the last `window`, and
    /// (b) the age of the oldest still-pending task (so a fully stuck
    /// queue — e.g. zero containers — still triggers scaling).
    pub fn observed_delay(&mut self, now: SimTime, window: SimDuration) -> SimDuration {
        let horizon = if now.as_micros() > window.as_micros() {
            now - window
        } else {
            SimTime::ZERO
        };
        while matches!(self.recent_delays.front(), Some(obs) if obs.at < horizon) {
            self.recent_delays.pop_front();
        }
        let scheduled_max = self
            .recent_delays
            .front()
            .map(|o| o.delay)
            .unwrap_or(SimDuration::ZERO);
        let pending_max = self
            .queue
            .oldest_enqueued()
            .map(|enq| now.saturating_since(enq))
            .unwrap_or(SimDuration::ZERO);
        scheduled_max.max(pending_max)
    }

    /// Pending queue length (unscheduled tasks in the global queue).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Tasks waiting anywhere in the stage — the paper's PQ_len. The
    /// prototype's global queue holds every request until a container slot
    /// frees; our simulator binds requests eagerly into container-local
    /// queues, so the paper's quantity is the global backlog plus all
    /// bound-but-not-executing tasks.
    pub fn waiting_total(&self) -> usize {
        let capacity = self.containers.len() * self.batch_size;
        let used = capacity.saturating_sub(self.total_free_slots());
        self.queue.len() + used.saturating_sub(self.executing)
    }

    // ---- free-slot index -------------------------------------------------

    /// Records that container `id`, indexed under `rank`, now has `free`
    /// free slots (0 removes it from the index). `prev_free` must be its
    /// previously recorded count.
    pub fn update_free(&mut self, id: u64, rank: usize, prev_free: usize, free: usize) {
        self.remove_free(id, rank, prev_free);
        if free > 0 {
            self.free_buckets[free].insert((Reverse(rank), id));
            self.free_slots_total += free;
        }
    }

    /// Removes container `id` (indexed under `rank` with `prev_free` free
    /// slots) from the index entirely (kill/evict).
    pub fn remove_free(&mut self, id: u64, rank: usize, prev_free: usize) {
        if prev_free > 0 {
            let removed = self.free_buckets[prev_free].remove(&(Reverse(rank), id));
            debug_assert!(removed, "container {id} not indexed at {prev_free}/{rank}");
            self.free_slots_total -= prev_free;
        }
    }

    /// Re-keys container `id`, which has `free` free slots, from rank `old`
    /// to rank `new` (its node's pod count changed).
    pub(crate) fn rerank_free(&mut self, id: u64, free: usize, old: usize, new: usize) {
        if free > 0 && old != new {
            let bucket = &mut self.free_buckets[free];
            let removed = bucket.remove(&(Reverse(old), id));
            debug_assert!(removed, "container {id} not indexed at {free}/{old}");
            bucket.insert((Reverse(new), id));
        }
    }

    /// Picks a container per the selection policy, or `None` when every
    /// container is full: one O(log C) lookup, with no tie-break left for
    /// the caller.
    ///
    /// This is the indexed counterpart of
    /// [`fifer_core::scheduling::select_container`], which stays the
    /// reference over explicit candidate lists. Within a bucket, entries
    /// are ordered by rank (higher first), then id. Under greedy selection
    /// the driver ranks every container by its node's pod count and
    /// re-keys a node's containers whenever that count changes, so the
    /// index itself encodes the node-packing tie-break: concentrating
    /// traffic on the most-packed node lets containers on lightly used
    /// nodes idle out, the server consolidation §4.4 aims for. The other
    /// policies rank every container 0, leaving plain id order.
    ///
    /// * Greedy least-free-slots: lowest non-empty bucket, most pods on
    ///   the node, lowest id.
    /// * First-fit: lowest id across all buckets.
    /// * Most-free-slots: highest non-empty bucket, lowest id.
    pub fn pick_container(&self, policy: ContainerSelection) -> Option<u64> {
        let first_id = |b: &BTreeSet<FreeKey>| b.first().map(|&(_, id)| id);
        match policy {
            ContainerSelection::GreedyLeastFreeSlots => self.free_buckets.iter().find_map(first_id),
            ContainerSelection::MostFreeSlots => self.free_buckets.iter().rev().find_map(first_id),
            ContainerSelection::FirstFit => self.free_buckets.iter().filter_map(first_id).min(),
        }
    }

    /// Every index entry as `(free slots, rank, id)`, bucket by bucket —
    /// what the auditor reconciles against the container table.
    pub(crate) fn free_entries(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        self.free_buckets
            .iter()
            .enumerate()
            .flat_map(|(f, b)| b.iter().map(move |&(Reverse(rank), id)| (f, rank, id)))
    }

    /// Total free slots across the stage's containers (O(1), maintained on
    /// every index update).
    pub fn total_free_slots(&self) -> usize {
        self.free_slots_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifer_core::scheduling::{select_task_iter, SchedulingPolicy};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn stage() -> StageRuntime {
        StageRuntime::new(
            Microservice::Asr,
            SchedulingPolicy::Lsf,
            4,
            ms(400),
            ms(350),
            ms(46),
            SimDuration::from_secs(5),
        )
    }

    fn stage_task(job: usize, enq_s: u64) -> StageTask {
        StageTask {
            job,
            enqueued: SimTime::from_secs(enq_s),
            job_deadline: SimTime::from_secs(enq_s + 1),
            remaining_work: ms(100),
            retries: 0,
        }
    }

    #[test]
    fn enqueue_counts_arrivals() {
        let mut s = stage();
        s.enqueue(stage_task(1, 0));
        s.enqueue(stage_task(2, 0));
        assert_eq!(s.arrivals, 2);
        assert_eq!(s.pending(), 2);
    }

    #[test]
    fn requeue_counts_separately_from_arrivals() {
        let mut s = stage();
        s.enqueue(stage_task(1, 0));
        s.requeue(StageTask {
            retries: 1,
            ..stage_task(1, 2)
        });
        assert_eq!(s.arrivals, 1, "a retry is not new demand");
        assert_eq!(s.requeued, 1);
        assert_eq!(s.pending(), 2);
    }

    #[test]
    fn observed_delay_empty_is_zero() {
        let mut s = stage();
        assert_eq!(
            s.observed_delay(SimTime::from_secs(100), SimDuration::from_secs(10)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn observed_delay_tracks_scheduled_max() {
        let mut s = stage();
        s.record_scheduled(SimTime::from_secs(5), ms(120));
        s.record_scheduled(SimTime::from_secs(6), ms(300));
        let d = s.observed_delay(SimTime::from_secs(7), SimDuration::from_secs(10));
        assert_eq!(d, ms(300));
    }

    #[test]
    fn observed_delay_evicts_old_observations() {
        let mut s = stage();
        s.record_scheduled(SimTime::from_secs(1), ms(900));
        s.record_scheduled(SimTime::from_secs(20), ms(50));
        let d = s.observed_delay(SimTime::from_secs(25), SimDuration::from_secs(10));
        assert_eq!(d, ms(50), "the 900ms observation is out of window");
    }

    #[test]
    fn observed_delay_max_survives_later_smaller_observations() {
        // the max-deque must keep a dominating in-window observation even
        // after smaller ones arrive behind it
        let mut s = stage();
        s.record_scheduled(SimTime::from_secs(20), ms(500));
        s.record_scheduled(SimTime::from_secs(21), ms(10));
        s.record_scheduled(SimTime::from_secs(22), ms(70));
        let d = s.observed_delay(SimTime::from_secs(23), SimDuration::from_secs(10));
        assert_eq!(d, ms(500));
        // once the 500ms observation ages out, the 70ms one is the max
        let d = s.observed_delay(SimTime::from_secs(31), SimDuration::from_secs(10));
        assert_eq!(d, ms(70));
    }

    #[test]
    fn observed_delay_sees_stuck_queue() {
        let mut s = stage();
        s.enqueue(stage_task(1, 10));
        // nothing scheduled at all, but the pending task is 5s old
        let d = s.observed_delay(SimTime::from_secs(15), SimDuration::from_secs(10));
        assert_eq!(d, SimDuration::from_secs(5));
    }

    #[test]
    fn observed_delay_window_at_time_zero() {
        let mut s = stage();
        s.record_scheduled(SimTime::from_secs(1), ms(10));
        let d = s.observed_delay(SimTime::from_secs(2), SimDuration::from_secs(10));
        assert_eq!(d, ms(10));
    }

    #[test]
    fn free_index_tracks_transitions() {
        use fifer_core::scheduling::ContainerSelection::*;
        let mut s = stage(); // batch 4
        s.update_free(10, 0, 0, 4); // fresh container, 4 free
        s.update_free(11, 0, 0, 2);
        assert_eq!(s.pick_container(GreedyLeastFreeSlots), Some(11));
        assert_eq!(s.pick_container(MostFreeSlots), Some(10));
        assert_eq!(s.pick_container(FirstFit), Some(10));
        assert_eq!(s.total_free_slots(), 6);
        // 11 fills up
        s.update_free(11, 0, 2, 0);
        assert_eq!(s.pick_container(GreedyLeastFreeSlots), Some(10));
        assert_eq!(s.total_free_slots(), 4);
        // 10 dies
        s.remove_free(10, 0, 4);
        assert_eq!(s.pick_container(GreedyLeastFreeSlots), None);
        assert_eq!(s.total_free_slots(), 0);
    }

    #[test]
    fn free_index_greedy_tie_breaks_by_id() {
        use fifer_core::scheduling::ContainerSelection::GreedyLeastFreeSlots;
        let mut s = stage();
        s.update_free(7, 0, 0, 2);
        s.update_free(3, 0, 0, 2);
        assert_eq!(s.pick_container(GreedyLeastFreeSlots), Some(3));
    }

    #[test]
    fn free_index_greedy_prefers_higher_rank_within_a_bucket() {
        use fifer_core::scheduling::ContainerSelection::GreedyLeastFreeSlots;
        let mut s = stage();
        s.update_free(3, 1, 0, 2); // node with 1 pod
        s.update_free(7, 5, 0, 2); // node with 5 pods: wins the tie
        s.update_free(9, 8, 0, 3); // more packed, but more free slots
        assert_eq!(s.pick_container(GreedyLeastFreeSlots), Some(7));
        // 7's node empties out below 3's: the re-keyed index follows
        s.rerank_free(7, 2, 5, 0);
        assert_eq!(s.pick_container(GreedyLeastFreeSlots), Some(3));
        assert_eq!(s.total_free_slots(), 7, "re-keying moves no slots");
        let entries: Vec<_> = s.free_entries().collect();
        assert_eq!(entries, vec![(2, 1, 3), (2, 0, 7), (3, 8, 9)]);
    }

    #[test]
    #[should_panic(expected = "floored at 1")]
    fn zero_batch_rejected() {
        let _ = StageRuntime::new(
            Microservice::Qa,
            SchedulingPolicy::Fifo,
            0,
            ms(100),
            ms(50),
            ms(56),
            SimDuration::from_secs(4),
        );
    }

    // ---- selection differential ----------------------------------------

    /// A container as the selection model sees it.
    #[derive(Debug, Clone, Copy)]
    struct ModelContainer {
        id: u64,
        stage: usize,
        node: usize,
        free: usize,
        alive: bool,
        /// Pod count of its node when it was last (re-)keyed.
        keyed_pods: usize,
    }

    /// Brute-force reference for [`StageRuntime::pick_container`]: a scan
    /// over the stage's live containers with free slots. Greedy takes the
    /// fewest free slots, then the most pods on the node, then the lowest
    /// id; first-fit the lowest id; most-free the most free slots, then
    /// the lowest id.
    fn oracle_pick(
        policy: ContainerSelection,
        stage: usize,
        containers: &[ModelContainer],
        pods: &[usize],
    ) -> Option<u64> {
        let usable = containers
            .iter()
            .filter(|c| c.alive && c.stage == stage && c.free > 0);
        match policy {
            ContainerSelection::GreedyLeastFreeSlots => {
                usable.min_by_key(|c| (c.free, Reverse(pods[c.node]), c.id))
            }
            ContainerSelection::FirstFit => usable.min_by_key(|c| c.id),
            ContainerSelection::MostFreeSlots => usable.min_by_key(|c| (Reverse(c.free), c.id)),
        }
        .map(|c| c.id)
    }

    const MODEL_NODES: usize = 4;
    const MODEL_BATCHES: [usize; 3] = [1, 3, 5];

    /// Drives one free-slot index per (policy, stage) through the same
    /// update protocol the driver follows: index at spawn under the
    /// node's new pod count, re-key a node's live containers whenever its
    /// pod count changes, update on bind/finish, remove on kill.
    struct SelectionModel {
        pods: [usize; MODEL_NODES],
        /// Pods on each node that belong to no modelled container (other
        /// stages' pods, as far as these indexes can tell).
        foreign: [usize; MODEL_NODES],
        containers: Vec<ModelContainer>,
        index: Vec<Vec<StageRuntime>>,
    }

    impl SelectionModel {
        fn new() -> Self {
            let stage_with = |batch| {
                StageRuntime::new(
                    Microservice::Asr,
                    SchedulingPolicy::Fifo,
                    batch,
                    ms(400),
                    ms(350),
                    ms(46),
                    SimDuration::from_secs(5),
                )
            };
            SelectionModel {
                pods: [0; MODEL_NODES],
                foreign: [0; MODEL_NODES],
                containers: Vec::new(),
                index: ContainerSelection::ALL
                    .iter()
                    .map(|_| MODEL_BATCHES.iter().map(|&b| stage_with(b)).collect())
                    .collect(),
            }
        }

        fn set_pods(&mut self, node: usize, pods: usize) {
            self.pods[node] = pods;
            for c in self
                .containers
                .iter_mut()
                .filter(|c| c.alive && c.node == node)
            {
                for (p, &policy) in ContainerSelection::ALL.iter().enumerate() {
                    self.index[p][c.stage].rerank_free(
                        c.id,
                        c.free,
                        selection_rank(policy, c.keyed_pods),
                        selection_rank(policy, pods),
                    );
                }
                c.keyed_pods = pods;
            }
        }

        fn spawn(&mut self, stage: usize, node: usize) {
            self.set_pods(node, self.pods[node] + 1);
            let id = self.containers.len() as u64;
            let free = MODEL_BATCHES[stage];
            for (p, &policy) in ContainerSelection::ALL.iter().enumerate() {
                self.index[p][stage].update_free(
                    id,
                    selection_rank(policy, self.pods[node]),
                    0,
                    free,
                );
            }
            self.containers.push(ModelContainer {
                id,
                stage,
                node,
                free,
                alive: true,
                keyed_pods: self.pods[node],
            });
        }

        fn kill(&mut self, i: usize) {
            self.containers[i].alive = false;
            let c = self.containers[i];
            for (p, &policy) in ContainerSelection::ALL.iter().enumerate() {
                self.index[p][c.stage].remove_free(
                    c.id,
                    selection_rank(policy, c.keyed_pods),
                    c.free,
                );
            }
            self.set_pods(c.node, self.pods[c.node] - 1);
        }

        fn set_free(&mut self, i: usize, free: usize) {
            let c = &mut self.containers[i];
            for (p, &policy) in ContainerSelection::ALL.iter().enumerate() {
                self.index[p][c.stage].update_free(
                    c.id,
                    selection_rank(policy, c.keyed_pods),
                    c.free,
                    free,
                );
            }
            c.free = free;
        }

        /// Applies op `(kind, a, b)`; ops with no eligible target are no-ops.
        fn apply(&mut self, (kind, a, b): (u8, usize, usize)) {
            let pick = |cs: &[ModelContainer], ok: &dyn Fn(&ModelContainer) -> bool| {
                let eligible: Vec<usize> = (0..cs.len()).filter(|&i| ok(&cs[i])).collect();
                (!eligible.is_empty()).then(|| eligible[a % eligible.len()])
            };
            match kind {
                0 | 1 => self.spawn(a % MODEL_BATCHES.len(), b % MODEL_NODES),
                2 => {
                    if let Some(i) = pick(&self.containers, &|c| c.alive) {
                        self.kill(i);
                    }
                }
                3 | 4 => {
                    if let Some(i) = pick(&self.containers, &|c| c.alive && c.free > 0) {
                        self.set_free(i, self.containers[i].free - 1);
                    }
                }
                5 => {
                    let full = |c: &ModelContainer| c.alive && c.free < MODEL_BATCHES[c.stage];
                    if let Some(i) = pick(&self.containers, &full) {
                        self.set_free(i, self.containers[i].free + 1);
                    }
                }
                _ => {
                    let node = a % MODEL_NODES;
                    if b % 2 == 0 {
                        self.foreign[node] += 1;
                        self.set_pods(node, self.pods[node] + 1);
                    } else if self.foreign[node] > 0 {
                        self.foreign[node] -= 1;
                        self.set_pods(node, self.pods[node] - 1);
                    }
                }
            }
        }

        fn assert_matches_oracle(&self, step: usize) {
            for (p, &policy) in ContainerSelection::ALL.iter().enumerate() {
                for (sidx, stage) in self.index[p].iter().enumerate() {
                    assert_eq!(
                        stage.pick_container(policy),
                        oracle_pick(policy, sidx, &self.containers, &self.pods),
                        "{policy:?}, stage {sidx}, after step {step}"
                    );
                    let free: usize = self
                        .containers
                        .iter()
                        .filter(|c| c.alive && c.stage == sidx)
                        .map(|c| c.free)
                        .sum();
                    assert_eq!(stage.total_free_slots(), free);
                }
            }
        }
    }

    proptest::proptest! {
        /// Random spawn / kill / bind / finish / pod-count sequences over
        /// several nodes and stages: after every step the indexed pick
        /// equals the brute-force scan under all three policies.
        #[test]
        fn pick_container_agrees_with_brute_force_oracle(
            ops in proptest::collection::vec((0u8..8, 0usize..64, 0usize..64), 1..160),
        ) {
            let mut model = SelectionModel::new();
            for (step, &op) in ops.iter().enumerate() {
                model.apply(op);
                model.assert_matches_oracle(step);
            }
        }
    }

    // ---- IndexedTaskQueue ------------------------------------------------

    fn task(job: usize, enq_ms: u64, deadline_ms: u64, work_ms: u64) -> StageTask {
        StageTask {
            job,
            enqueued: SimTime::from_millis(enq_ms),
            job_deadline: SimTime::from_millis(deadline_ms),
            remaining_work: ms(work_ms),
            retries: 0,
        }
    }

    #[test]
    fn pop_returns_policy_minimum() {
        let mut q = IndexedTaskQueue::new(SchedulingPolicy::Lsf);
        q.push(task(1, 10, 1000, 100)); // latest start 900
        q.push(task(2, 30, 400, 250)); // latest start 150 — tightest
        q.push(task(3, 20, 800, 100)); // latest start 700
        assert_eq!(q.pop().map(|t| t.job), Some(2));
        assert_eq!(q.pop().map(|t| t.job), Some(3));
        assert_eq!(q.pop().map(|t| t.job), Some(1));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_pops_in_arrival_order() {
        let mut q = IndexedTaskQueue::new(SchedulingPolicy::Fifo);
        q.push(task(9, 30, 100, 10));
        q.push(task(7, 10, 5000, 10));
        q.push(task(8, 20, 200, 10));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|t| t.job).collect();
        assert_eq!(order, vec![7, 8, 9]);
    }

    #[test]
    fn edf_pops_by_deadline() {
        let mut q = IndexedTaskQueue::new(SchedulingPolicy::Edf);
        q.push(task(1, 10, 1000, 100));
        q.push(task(2, 30, 500, 450));
        q.push(task(3, 20, 400, 50));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|t| t.job).collect();
        assert_eq!(order, vec![3, 2, 1]);
    }

    #[test]
    fn oldest_enqueued_tracks_pops() {
        let mut q = IndexedTaskQueue::new(SchedulingPolicy::Lsf);
        q.push(task(1, 10, 5000, 100));
        q.push(task(2, 20, 300, 100));
        assert_eq!(q.oldest_enqueued(), Some(SimTime::from_millis(10)));
        // job 2 pops first under LSF; oldest is still job 1
        assert_eq!(q.pop().map(|t| t.job), Some(2));
        assert_eq!(q.oldest_enqueued(), Some(SimTime::from_millis(10)));
        assert_eq!(q.pop().map(|t| t.job), Some(1));
        assert_eq!(q.oldest_enqueued(), None);
    }

    #[test]
    fn peek_and_iter_see_the_queued_tasks() {
        let mut q = IndexedTaskQueue::new(SchedulingPolicy::Fifo);
        assert_eq!(q.peek(), None);
        q.push(task(1, 10, 1000, 100));
        q.push(task(2, 20, 1000, 100));
        q.push(task(3, 30, 1000, 100));
        assert_eq!(q.peek().map(|t| t.job), Some(1));
        assert_eq!(q.pop().map(|t| t.job), Some(1));
        assert_eq!(q.peek().map(|t| t.job), Some(2));
        let mut jobs: Vec<usize> = q.iter().map(|t| t.job).collect();
        jobs.sort_unstable();
        assert_eq!(jobs, vec![2, 3]);
        // slot reuse must not resurrect the popped task's age entry
        q.push(task(4, 40, 1000, 100));
        assert_eq!(q.oldest_enqueued(), Some(SimTime::from_millis(20)));
        assert_eq!(q.iter().count(), 3);
    }

    /// Differential test: under every policy, a run of randomized
    /// interleaved pushes/pops agrees with [`select_task_iter`], the
    /// reference linear-scan implementation in `fifer-core`.
    #[test]
    fn pop_agrees_with_reference_scheduler() {
        for policy in SchedulingPolicy::ALL {
            let mut rng = StdRng::seed_from_u64(0xD1FF ^ policy as u64);
            let mut q = IndexedTaskQueue::new(policy);
            let mut job = 0usize;
            let mut clock_ms = 0u64;
            for _ in 0..600 {
                if q.is_empty() || rng.gen_bool(0.6) {
                    clock_ms += rng.gen_range(0u64..5);
                    job += 1;
                    q.push(task(
                        job,
                        clock_ms,
                        clock_ms + rng.gen_range(50u64..2000),
                        rng.gen_range(10u64..500),
                    ));
                } else {
                    let view: Vec<QueuedTask> = q.iter().map(StageTask::as_queued).collect();
                    let ti = select_task_iter(
                        policy,
                        view.iter().copied().enumerate(),
                        SimTime::from_millis(clock_ms),
                    )
                    .expect("non-empty");
                    let expect = view[ti].job_id;
                    assert_eq!(q.peek().map(|t| t.job as u64), Some(expect));
                    assert_eq!(
                        q.pop().map(|t| t.job as u64),
                        Some(expect),
                        "{policy:?}: indexed pop diverged from reference"
                    );
                }
            }
        }
    }

    /// Asserts `q` answers like a brute-force scan over `live`, the tasks
    /// the model says are queued, and that the arrival heap respects the
    /// compaction bound. The age query runs on a clone, so checking never
    /// discards stale entries the queue under test would otherwise keep.
    fn assert_queue_matches_model(q: &IndexedTaskQueue, live: &[StageTask], step: usize) {
        let policy = q.policy();
        assert_eq!(q.len(), live.len(), "{policy:?}: length after step {step}");
        assert_eq!(
            q.by_key.len(),
            q.len(),
            "{policy:?}: dispatch heap after step {step}"
        );
        assert!(
            q.by_age.len() <= 2 * q.len() + STALE_SLACK,
            "{policy:?}: arrival heap holds {} entries for {} live tasks after step {step}",
            q.by_age.len(),
            q.len()
        );
        assert_eq!(
            q.clone().oldest_enqueued(),
            live.iter().map(|t| t.enqueued).min(),
            "{policy:?}: oldest pending task after step {step}"
        );
    }

    proptest::proptest! {
        /// Random push / pop / age-query sequences under every policy,
        /// long enough to cross the compaction bound many times: after
        /// every step the queue's pops and oldest-pending answers match a
        /// brute-force scan over the live tasks, and the arrival heap holds
        /// no more than `2 · len + STALE_SLACK` entries.
        #[test]
        fn task_queue_agrees_with_brute_force_oracle(
            policy in 0usize..3,
            ops in proptest::collection::vec((0u8..7, 0u64..400, 0u64..2_000), 200..1_500),
        ) {
            let policy = SchedulingPolicy::ALL[policy];
            let mut q = IndexedTaskQueue::new(policy);
            let mut live: Vec<StageTask> = Vec::new();
            for (step, &(kind, a, b)) in ops.iter().enumerate() {
                match kind {
                    // push: unique job ids make every policy key unique
                    0..=2 => {
                        let t = task(step, a, a + b, b / 4);
                        q.push(t);
                        live.push(t);
                    }
                    3..=5 => {
                        let expect = select_task_iter(
                            policy,
                            live.iter().map(StageTask::as_queued).enumerate(),
                            SimTime::ZERO,
                        );
                        let got = q.pop();
                        match expect {
                            Some(i) => assert_eq!(got, Some(live.remove(i)), "{policy:?}: pop at step {step}"),
                            None => assert_eq!(got, None, "{policy:?}: pop from an empty queue"),
                        }
                    }
                    _ => {
                        let expect = live.iter().map(|t| t.enqueued).min();
                        assert_eq!(q.oldest_enqueued(), expect, "{policy:?}: age query at step {step}");
                    }
                }
                assert_queue_matches_model(&q, &live, step);
            }
        }
    }
}
