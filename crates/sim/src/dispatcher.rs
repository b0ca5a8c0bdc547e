//! Mechanism: binding queued tasks to container free slots.
//!
//! The dispatcher drains a stage's global queue under the configured
//! scheduling/selection policies (read straight from
//! [`RmConfig`](fifer_core::rm::RmConfig) — they parameterize the
//! mechanism, they are not scaling decisions). When the queue is blocked —
//! tasks waiting but no free slot — the dispatcher consults the policy's
//! [`on_queue_blocked`](fifer_core::policy::ResourceManager::on_queue_blocked)
//! hook: on-demand managers spawn per request (§2.2), batching managers
//! leave the tasks for the scalers.

use crate::container::BoundTask;
use crate::driver::Simulation;
use crate::engine::Event;
use crate::fault::FaultKind;
use crate::stage::TaskRef;
use crate::stats_store::StoreOp;
use crate::trace::SimEvent;
use fifer_core::policy::{Decision, DecisionCause};
use fifer_core::scheduling::{select_task_iter, QueuedTask};
use fifer_metrics::{SimDuration, SimTime};
use rand::Rng;

impl Simulation<'_> {
    /// Binds queued tasks to container free slots per the RM's policies.
    /// Returns the number of tasks bound.
    pub(crate) fn dispatch(&mut self, sidx: usize, now: SimTime, cause: DecisionCause) -> usize {
        let selection = self.cfg.rm.container_selection;
        let mut bound = 0usize;

        while !self.stages[sidx].queue.is_empty() {
            let target = match self.stages[sidx].pick_container(selection) {
                Some(t) => t,
                None => {
                    // queue blocked: no free slot anywhere — ask the policy
                    let decision = {
                        let sv = self.stage_view(sidx, SimDuration::ZERO);
                        let cv = self.cluster_scalars(now, &[]);
                        self.rm.on_queue_blocked(&cv, &sv)
                    };
                    let (stage, count, harvest) = match decision {
                        Decision::SpawnContainer { stage, count } => (stage, count, false),
                        Decision::Harvest { stage, count } => (stage, count, true),
                        _ => break, // requeue: batching RMs wait for the scalers
                    };
                    let mut spawned_any = false;
                    for _ in 0..count {
                        let spawned = if harvest {
                            // prefer lease backing; falls back to a primary
                            // allocation when no node can cover the request
                            self.spawn_harvested(stage, now, DecisionCause::QueueBlocked)
                        } else {
                            self.spawn_container(stage, now, DecisionCause::QueueBlocked)
                        };
                        match spawned {
                            Some(_) => spawned_any = true,
                            None => break, // cluster full; tasks stay queued
                        }
                    }
                    if !spawned_any || stage != sidx {
                        // nothing spawned (or a custom policy provisioned a
                        // different stage): this queue stays blocked
                        break;
                    }
                    // re-pick: the fresh container is the only free slot
                    continue;
                }
            };

            // pick the task per the scheduling policy: O(log Q) pop off the
            // policy-keyed index, or — under the differential-testing flag —
            // a linear scan through the reference scheduler, which must pick
            // the identical task (fifer-core's keys are total orders)
            let task = if self.cfg.use_reference_scheduler {
                let view: Vec<(TaskRef, QueuedTask)> = self.stages[sidx]
                    .queue
                    .iter()
                    .map(|(r, t)| (r, t.as_queued()))
                    .collect();
                let ti = select_task_iter(
                    self.cfg.rm.scheduling,
                    view.iter().enumerate().map(|(i, (_, t))| (i, *t)),
                    now,
                )
                .expect("queue checked non-empty");
                self.stages[sidx]
                    .queue
                    .remove(view[ti].0)
                    .expect("selected task is live")
            } else {
                self.stages[sidx]
                    .queue
                    .pop()
                    .expect("queue checked non-empty")
            };
            self.pending_tasks -= 1;

            self.store.access(StoreOp::PodQuery);
            self.store.access(StoreOp::SlotUpdate);
            let wait = now.saturating_since(task.enqueued);
            self.stages[sidx].record_scheduled(now, wait);
            let c = &mut self.containers[target as usize];
            let prev_free = c.free_slots();
            c.bind(BoundTask {
                job: task.job,
                enqueued: task.enqueued,
                assigned: now,
                retries: task.retries,
            });
            self.stages[sidx].update_free(target, c.rank, prev_free, prev_free - 1);
            self.try_start(target, now);
            bound += 1;
        }

        if bound > 0 {
            self.trace.dispatched_tasks += bound as u64;
            self.trace.record(|| SimEvent::Dispatch {
                at: now,
                cause,
                stage: sidx,
                tasks: bound,
            });
        }
        bound
    }

    /// Starts the container's next local task if it is warm and idle.
    pub(crate) fn try_start(&mut self, cid: u64, now: SimTime) {
        let (job, exec, node, crashes) = {
            let c = &mut self.containers[cid as usize];
            let Some(task) = c.start_next(now) else {
                return;
            };
            // attribute the wait: overlap with the container's cold period
            // is cold-start delay, the rest is queuing (§6.1.2)
            let total_wait = now.saturating_since(task.enqueued);
            let warm_at = c.warm_at();
            let cold_wait = warm_at.saturating_since(task.assigned).min(total_wait);
            if !cold_wait.is_zero() {
                self.blocking_cold_starts += 1;
            }
            let j = &mut self.jobs[task.job];
            j.breakdown.cold_start += cold_wait;
            j.breakdown.queuing += total_wait.saturating_sub(cold_wait);
            let ms = self.stages[c.stage].microservice;
            let mut exec = ms
                .spec()
                .sample_exec_time(self.jobs[task.job].input_scale, &mut self.rng);
            // fault plan (draws guarded so an inactive plan never touches
            // the fault RNG): a straggler runs the task slowed by the
            // configured factor; a crash kills the container mid-task
            let f = &self.cfg.faults;
            if f.straggler_prob > 0.0 && self.fault_rng.gen_bool(f.straggler_prob) {
                exec = exec.mul_f64(f.straggler_factor);
            }
            let crashes = f.crash_prob > 0.0 && self.fault_rng.gen_bool(f.crash_prob);
            // full exec is charged up front; a crash refunds the remainder
            c.exec_until = Some(now + exec);
            (task.job, exec, c.node, crashes)
        };
        self.jobs[job].breakdown.exec += exec;
        self.stages[self.containers[cid as usize].stage].executing += 1;
        self.cluster.set_executing(node, 1);
        if crashes {
            // the crash lands partway through the execution, replacing the
            // finish event outright (the task never completes here)
            let frac = self.fault_rng.gen_range(0.05..0.95);
            self.queue.schedule(
                now + exec.mul_f64(frac),
                Event::ContainerCrash {
                    container: cid,
                    fault: FaultKind::Crash,
                },
            );
        } else {
            self.queue
                .schedule(now + exec, Event::TaskFinish { container: cid });
        }
        // idle → busy: a lender that went busy takes its lent headroom back
        // first, then the usage track steps up to the busy footprint
        if !self.containers[cid as usize].lent.is_zero() {
            self.settle_lender(cid, now);
        }
        let (stage, delta) = {
            let c = &self.containers[cid as usize];
            (c.stage, c.usage.busy - c.usage.idle)
        };
        self.cluster.add_usage(node, delta, now);
        self.stages[stage].used += delta;
    }
}
