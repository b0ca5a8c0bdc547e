//! Structured decision trace: what the policy decided, when, and why.
//!
//! Every decision the mechanism applies — spawns, kills, dispatches, and
//! their rejections — can be recorded as a [`SimEvent`] with
//! [`DecisionCause`] attribution, making runs debuggable and replayable.
//! Events land in a bounded ring buffer ([`SimTrace`]) so long runs keep
//! the most recent window; lifetime counters (spawns, kills, failed
//! spawns, dispatched tasks) are maintained independently of the ring so
//! they always reconcile with [`SimResult`](crate::results::SimResult)
//! totals even after the ring wraps.
//!
//! Every recorded event carries a **global sequence number** assigned at
//! commit time from one monotonic counter. Because both event engines
//! commit events in the same `(time, seq)` total order, the sequence
//! numbers — and therefore the JSONL export — are identical on the
//! default and the reference engine.
//!
//! Tracing is configured via [`TraceConfig`] on
//! [`SimConfig`](crate::config::SimConfig) and is zero-cost when disabled:
//! `SimTrace::record` takes a closure and returns before evaluating it.
//! [`Simulation::run_with_trace`](crate::driver::Simulation::run_with_trace)
//! returns the trace; [`SimTrace::export_jsonl`] writes the retained
//! events as JSON Lines.

use crate::fault::FaultKind;
use fifer_core::policy::DecisionCause;
use fifer_metrics::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io::Write;

/// Decision-trace configuration (part of `SimConfig`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Events retained in the ring buffer. `0` disables tracing entirely
    /// (the default): no events are recorded and no counters are kept
    /// beyond plain integer adds.
    pub capacity: usize,
}

/// One applied (or rejected) decision, with cause attribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEvent {
    /// A container was spawned.
    Spawn {
        /// When the decision was applied.
        at: SimTime,
        /// Which hook (or mechanism path) decided it.
        cause: DecisionCause,
        /// The new container's id.
        container: u64,
        /// Stage the container serves.
        stage: usize,
        /// Node it was placed on.
        node: usize,
    },
    /// A spawn decision could not be applied: the cluster was full and
    /// nothing was evictable.
    SpawnFailed {
        /// When the decision failed.
        at: SimTime,
        /// Which hook decided the spawn.
        cause: DecisionCause,
        /// Stage that wanted the container.
        stage: usize,
    },
    /// A container was killed and its resources released.
    Kill {
        /// When the decision was applied.
        at: SimTime,
        /// Which hook (or mechanism path) decided it.
        cause: DecisionCause,
        /// The killed container's id.
        container: u64,
        /// Stage it served.
        stage: usize,
        /// Node it ran on.
        node: usize,
    },
    /// The mechanism refused a kill decision because the target was busy
    /// or already dead (only reachable from custom policies — the built-in
    /// policies only kill from the expired-idle snapshot).
    KillRejected {
        /// When the decision was refused.
        at: SimTime,
        /// Which hook decided the kill.
        cause: DecisionCause,
        /// The rejected target.
        container: u64,
    },
    /// A dispatch pass bound queued tasks to container free slots.
    Dispatch {
        /// When the pass ran.
        at: SimTime,
        /// Which hook (or mechanism path) triggered it.
        cause: DecisionCause,
        /// Stage whose queue was drained.
        stage: usize,
        /// Tasks bound during the pass (passes that bind nothing are not
        /// recorded).
        tasks: usize,
    },
    /// An injected fault killed a container.
    ContainerFailed {
        /// When the fault fired.
        at: SimTime,
        /// Which fault killed it.
        fault: FaultKind,
        /// The dead container's id.
        container: u64,
        /// Stage it served.
        stage: usize,
        /// Node it ran on.
        node: usize,
    },
    /// An injected outage took a node down.
    NodeDown {
        /// When the outage started.
        at: SimTime,
        /// The failed node.
        node: usize,
        /// Containers the outage killed.
        lost: usize,
    },
    /// A node recovered from an injected outage.
    NodeUp {
        /// When the node came back.
        at: SimTime,
        /// The recovered node.
        node: usize,
    },
    /// A fault orphaned a task and the mechanism bounced it back into its
    /// stage's global queue.
    TaskRequeued {
        /// When the fault fired.
        at: SimTime,
        /// Which fault orphaned the task.
        fault: FaultKind,
        /// The owning job (stream index).
        job: usize,
        /// Stage whose queue receives the task again.
        stage: usize,
        /// The task's retry count after this requeue.
        retries: u32,
    },
    /// A task exhausted its retry budget and the owning job was dropped.
    JobDropped {
        /// When the final fault fired.
        at: SimTime,
        /// The dropped job (stream index).
        job: usize,
        /// Retries the task had already consumed.
        retries: u32,
    },
    /// A container was spawned entirely on harvested (lease-backed)
    /// resources carved from idle lenders' allocation headroom.
    HarvestLease {
        /// When the lease was created.
        at: SimTime,
        /// The borrower container's id.
        container: u64,
        /// Stage the borrower serves.
        stage: usize,
        /// Node hosting both borrower and lenders (leases are node-local).
        node: usize,
        /// Number of lender parts backing the lease.
        parts: usize,
        /// Total borrowed CPU in millicores.
        cpu_milli: u64,
    },
    /// A lender needed its headroom back and its lease part was settled:
    /// re-backed from free node capacity, or — when nothing fit — the
    /// borrower was preempted.
    LeaseReclaimed {
        /// When the reclamation happened.
        at: SimTime,
        /// The lender whose usage rose (or which died).
        lender: u64,
        /// The borrower whose backing was settled.
        borrower: u64,
        /// The node the lease lived on.
        node: usize,
        /// `true` when the borrower was preempted instead of re-backed.
        preempted: bool,
    },
    /// A harvest-lease reclamation preempted a borrower, bouncing its
    /// tasks back into the stage queue (no retry budget is charged —
    /// preemption is policy-induced, not a fault).
    Preempt {
        /// When the preemption happened.
        at: SimTime,
        /// The preempted borrower.
        container: u64,
        /// Stage it served.
        stage: usize,
        /// Node it ran on.
        node: usize,
        /// Tasks bounced back into the stage queue.
        tasks: usize,
    },
    /// The right-sizer changed a stage's spawn allocation (future spawns)
    /// and downsized its warm-idle fleet in place.
    Resize {
        /// When the resize was applied.
        at: SimTime,
        /// The resized stage.
        stage: usize,
        /// New per-container CPU allocation in millicores.
        cpu_milli: u64,
        /// New per-container memory allocation in MB.
        mem_mb: u64,
        /// Idle containers downsized in place by this decision.
        shrunk: usize,
    },
}

impl SimEvent {
    /// One JSON object describing this event (no trailing newline).
    pub fn to_json(&self) -> String {
        match *self {
            SimEvent::Spawn {
                at,
                cause,
                container,
                stage,
                node,
            } => format!(
                "{{\"event\":\"spawn\",\"at_s\":{},\"cause\":\"{}\",\"container\":{container},\"stage\":{stage},\"node\":{node}}}",
                at.as_secs_f64(),
                cause.as_str(),
            ),
            SimEvent::SpawnFailed { at, cause, stage } => format!(
                "{{\"event\":\"spawn_failed\",\"at_s\":{},\"cause\":\"{}\",\"stage\":{stage}}}",
                at.as_secs_f64(),
                cause.as_str(),
            ),
            SimEvent::Kill {
                at,
                cause,
                container,
                stage,
                node,
            } => format!(
                "{{\"event\":\"kill\",\"at_s\":{},\"cause\":\"{}\",\"container\":{container},\"stage\":{stage},\"node\":{node}}}",
                at.as_secs_f64(),
                cause.as_str(),
            ),
            SimEvent::KillRejected {
                at,
                cause,
                container,
            } => format!(
                "{{\"event\":\"kill_rejected\",\"at_s\":{},\"cause\":\"{}\",\"container\":{container}}}",
                at.as_secs_f64(),
                cause.as_str(),
            ),
            SimEvent::Dispatch {
                at,
                cause,
                stage,
                tasks,
            } => format!(
                "{{\"event\":\"dispatch\",\"at_s\":{},\"cause\":\"{}\",\"stage\":{stage},\"tasks\":{tasks}}}",
                at.as_secs_f64(),
                cause.as_str(),
            ),
            SimEvent::ContainerFailed {
                at,
                fault,
                container,
                stage,
                node,
            } => format!(
                "{{\"event\":\"container_failed\",\"at_s\":{},\"fault\":\"{}\",\"container\":{container},\"stage\":{stage},\"node\":{node}}}",
                at.as_secs_f64(),
                fault.as_str(),
            ),
            SimEvent::NodeDown { at, node, lost } => format!(
                "{{\"event\":\"node_down\",\"at_s\":{},\"node\":{node},\"lost\":{lost}}}",
                at.as_secs_f64(),
            ),
            SimEvent::NodeUp { at, node } => format!(
                "{{\"event\":\"node_up\",\"at_s\":{},\"node\":{node}}}",
                at.as_secs_f64(),
            ),
            SimEvent::TaskRequeued {
                at,
                fault,
                job,
                stage,
                retries,
            } => format!(
                "{{\"event\":\"task_requeued\",\"at_s\":{},\"fault\":\"{}\",\"job\":{job},\"stage\":{stage},\"retries\":{retries}}}",
                at.as_secs_f64(),
                fault.as_str(),
            ),
            SimEvent::JobDropped { at, job, retries } => format!(
                "{{\"event\":\"job_dropped\",\"at_s\":{},\"job\":{job},\"retries\":{retries}}}",
                at.as_secs_f64(),
            ),
            SimEvent::HarvestLease {
                at,
                container,
                stage,
                node,
                parts,
                cpu_milli,
            } => format!(
                "{{\"event\":\"harvest_lease\",\"at_s\":{},\"container\":{container},\"stage\":{stage},\"node\":{node},\"parts\":{parts},\"cpu_milli\":{cpu_milli}}}",
                at.as_secs_f64(),
            ),
            SimEvent::LeaseReclaimed {
                at,
                lender,
                borrower,
                node,
                preempted,
            } => format!(
                "{{\"event\":\"lease_reclaimed\",\"at_s\":{},\"lender\":{lender},\"borrower\":{borrower},\"node\":{node},\"preempted\":{preempted}}}",
                at.as_secs_f64(),
            ),
            SimEvent::Preempt {
                at,
                container,
                stage,
                node,
                tasks,
            } => format!(
                "{{\"event\":\"preempt\",\"at_s\":{},\"container\":{container},\"stage\":{stage},\"node\":{node},\"tasks\":{tasks}}}",
                at.as_secs_f64(),
            ),
            SimEvent::Resize {
                at,
                stage,
                cpu_milli,
                mem_mb,
                shrunk,
            } => format!(
                "{{\"event\":\"resize\",\"at_s\":{},\"stage\":{stage},\"cpu_milli\":{cpu_milli},\"mem_mb\":{mem_mb},\"shrunk\":{shrunk}}}",
                at.as_secs_f64(),
            ),
        }
    }
}

/// The ring-buffered decision trace of one run.
///
/// Returned by [`Simulation::run_with_trace`](crate::driver::Simulation::run_with_trace);
/// empty (and free) unless [`TraceConfig::capacity`] is nonzero.
#[derive(Debug, Default)]
pub struct SimTrace {
    enabled: bool,
    capacity: usize,
    ring: VecDeque<(u64, SimEvent)>,
    /// Commit-ordered sequence number for the next recorded event. Never
    /// reset, so retained events keep their global position even after
    /// the ring wraps.
    next_seq: u64,
    /// Events evicted from the ring after it filled.
    pub dropped: u64,
    /// Lifetime container spawns (reconciles with `SimResult::total_spawns`).
    pub spawns: u64,
    /// Lifetime container kills (`spawns − kills` = containers alive at end).
    pub kills: u64,
    /// Lifetime spawn decisions that found no capacity.
    pub failed_spawns: u64,
    /// Lifetime tasks bound by dispatch passes.
    pub dispatched_tasks: u64,
    /// Lifetime containers killed by injected faults (disjoint from
    /// `kills`, which counts policy reclamations).
    pub container_failures: u64,
    /// Lifetime tasks bounced back into global queues by faults.
    pub requeued_tasks: u64,
    /// Lifetime jobs dropped after exhausting the retry budget.
    pub dropped_jobs: u64,
    /// Lifetime containers spawned on harvested (lease-backed) resources.
    pub harvest_spawns: u64,
    /// Lifetime harvest leases created.
    pub leases_created: u64,
    /// Lifetime harvest leases ended (fully re-backed, dissolved by
    /// borrower death, or preempted). `created − ended` = live leases.
    pub leases_ended: u64,
    /// Lifetime tasks bounced back into global queues by lease preemption
    /// (no retry budget charged — disjoint from `requeued_tasks`).
    pub preempted_tasks: u64,
}

impl SimTrace {
    /// A trace retaining up to `capacity` events (0 = disabled).
    pub fn new(capacity: usize) -> Self {
        SimTrace {
            enabled: capacity > 0,
            capacity,
            // bound the eager allocation: a huge configured capacity only
            // costs memory once that many events actually occur
            ring: VecDeque::with_capacity(capacity.min(4096)),
            ..SimTrace::default()
        }
    }

    /// Whether events are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event, stamping it with the next global sequence
    /// number. The closure is only evaluated when tracing is enabled, so
    /// disabled runs pay one branch per call site.
    #[inline]
    pub(crate) fn record(&mut self, event: impl FnOnce() -> SimEvent) {
        if !self.enabled {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back((self.next_seq, event()));
        self.next_seq += 1;
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &SimEvent> {
        self.ring.iter().map(|(_, e)| e)
    }

    /// Retained events with their global commit sequence numbers, oldest
    /// first. Sequence numbers are identical on both event engines.
    pub fn entries(&self) -> impl Iterator<Item = (u64, &SimEvent)> {
        self.ring.iter().map(|(s, e)| (*s, e))
    }

    /// Number of retained events (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when no events were retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The retained events as JSON Lines (one object per line), each
    /// prefixed with its global commit sequence number.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (seq, e) in &self.ring {
            let body = e.to_json();
            out.push_str(&format!("{{\"seq\":{seq},{}", &body[1..]));
            out.push('\n');
        }
        out
    }

    /// Writes [`Self::to_jsonl`] to `path`.
    pub fn export_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_jsonl().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spawn_at(s: u64, container: u64) -> SimEvent {
        SimEvent::Spawn {
            at: SimTime::from_secs(s),
            cause: DecisionCause::ReactiveTick,
            container,
            stage: 0,
            node: 1,
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = SimTrace::new(0);
        t.record(|| panic!("closure must not run when disabled"));
        assert!(t.is_empty());
        assert!(!t.enabled());
    }

    #[test]
    fn ring_keeps_the_most_recent_window() {
        let mut t = SimTrace::new(2);
        for i in 0..5 {
            t.record(|| spawn_at(i, i));
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped, 3);
        let kept: Vec<u64> = t
            .events()
            .map(|e| match e {
                SimEvent::Spawn { container, .. } => *container,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, [3, 4], "oldest events are evicted first");
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let mut t = SimTrace::new(8);
        t.record(|| spawn_at(1, 0));
        t.record(|| SimEvent::Dispatch {
            at: SimTime::from_secs(2),
            cause: DecisionCause::Arrival,
            stage: 3,
            tasks: 4,
        });
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"seq\":0,\"event\":\"spawn\",\"at_s\":1,\"cause\":\"reactive_tick\",\"container\":0,\"stage\":0,\"node\":1}"
        );
        assert_eq!(
            lines[1],
            "{\"seq\":1,\"event\":\"dispatch\",\"at_s\":2,\"cause\":\"arrival\",\"stage\":3,\"tasks\":4}"
        );
    }

    #[test]
    fn sequence_numbers_survive_ring_wrap() {
        let mut t = SimTrace::new(2);
        for i in 0..5 {
            t.record(|| spawn_at(i, i));
        }
        // the ring kept the last two events, still carrying their global
        // commit positions (3 and 4), not ring-local indices
        let seqs: Vec<u64> = t.entries().map(|(s, _)| s).collect();
        assert_eq!(seqs, [3, 4]);
        assert!(t.to_jsonl().starts_with("{\"seq\":3,"));
    }

    #[test]
    fn fault_events_serialize_with_fault_attribution() {
        assert_eq!(
            SimEvent::ContainerFailed {
                at: SimTime::from_secs(3),
                fault: FaultKind::Crash,
                container: 7,
                stage: 1,
                node: 2,
            }
            .to_json(),
            "{\"event\":\"container_failed\",\"at_s\":3,\"fault\":\"crash\",\"container\":7,\"stage\":1,\"node\":2}"
        );
        assert_eq!(
            SimEvent::NodeDown {
                at: SimTime::from_secs(4),
                node: 2,
                lost: 5,
            }
            .to_json(),
            "{\"event\":\"node_down\",\"at_s\":4,\"node\":2,\"lost\":5}"
        );
        assert_eq!(
            SimEvent::NodeUp {
                at: SimTime::from_secs(9),
                node: 2,
            }
            .to_json(),
            "{\"event\":\"node_up\",\"at_s\":9,\"node\":2}"
        );
        assert_eq!(
            SimEvent::TaskRequeued {
                at: SimTime::from_secs(5),
                fault: FaultKind::NodeOutage,
                job: 11,
                stage: 0,
                retries: 2,
            }
            .to_json(),
            "{\"event\":\"task_requeued\",\"at_s\":5,\"fault\":\"node_outage\",\"job\":11,\"stage\":0,\"retries\":2}"
        );
        assert_eq!(
            SimEvent::JobDropped {
                at: SimTime::from_secs(6),
                job: 11,
                retries: 3,
            }
            .to_json(),
            "{\"event\":\"job_dropped\",\"at_s\":6,\"job\":11,\"retries\":3}"
        );
    }
}
