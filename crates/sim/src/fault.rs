//! Deterministic fault injection: the seeded failure model the simulator
//! drives runs through.
//!
//! Production serverless fleets see container spawn failures, mid-task
//! crashes, straggling sandboxes and whole-node outages as the norm at
//! scale, yet the paper's evaluation (like most serverless simulators)
//! only exercises the happy path. A [`FaultPlan`] describes a failure
//! scenario as *data* — probabilities, latencies and outage windows — and
//! the driver turns it into first-class engine events drawn from a
//! dedicated fault RNG. Two runs with the same plan and seeds replay the
//! exact same failures; [`FaultPlan::none`] (the default) draws nothing
//! and leaves the no-fault event stream byte-identical.
//!
//! Fault taxonomy:
//!
//! * **Spawn fault** — a container creation that succeeds at the platform
//!   layer but dies shortly after (bad host, image corruption, OOM during
//!   runtime init). Drawn per spawn with [`FaultPlan::spawn_fail_prob`];
//!   the container is killed [`FaultPlan::spawn_fail_latency`] after the
//!   spawn, whatever state it is in by then.
//! * **Crash** — a container dies mid-execution. Drawn per task start
//!   with [`FaultPlan::crash_prob`]; the crash lands at a deterministic
//!   fraction of the task's sampled execution time, and the partial
//!   execution is kept in the job's latency breakdown.
//! * **Straggler** — a task runs [`FaultPlan::straggler_factor`]× slower
//!   than sampled (interference, thermal throttling). Drawn per task
//!   start with [`FaultPlan::straggler_prob`].
//! * **Node outage** — a whole node goes down at a scheduled instant,
//!   killing every resident container, and recovers at a later instant
//!   ([`NodeOutage`]). Scheduled, not drawn: outage studies want precise
//!   windows.
//!
//! Every task lost to a fault is re-enqueued at its stage's global queue
//! carrying a retry count; a task whose retries exceed
//! [`FaultPlan::max_retries`] drops its job (recorded, never silently
//! lost). Policies observe failures through the
//! [`ResourceManager`](fifer_core::policy::ResourceManager) hooks
//! `on_container_failed` / `on_node_down`.

use fifer_metrics::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Which kind of fault killed a container — the attribution threaded
/// through the decision trace and the policy hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A spawn fault: the container died shortly after creation.
    SpawnFault,
    /// A mid-task crash.
    Crash,
    /// The hosting node went down.
    NodeOutage,
}

impl FaultKind {
    /// Stable lowercase name (used by the JSONL trace export).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::SpawnFault => "spawn_fault",
            FaultKind::Crash => "crash",
            FaultKind::NodeOutage => "node_outage",
        }
    }
}

/// One scheduled whole-node outage window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeOutage {
    /// Node index (0-based) that goes down.
    pub node: usize,
    /// When the node fails.
    pub down_at: SimTime,
    /// When the node recovers (must be after `down_at`; every outage ends,
    /// so a run can never wedge waiting for capacity that will not return).
    pub up_at: SimTime,
}

/// A deterministic, seeded failure scenario (part of
/// [`SimConfig`](crate::config::SimConfig)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the dedicated fault RNG. Fault draws never touch the
    /// simulation's main RNG, so any plan with all probabilities zero
    /// replays the no-fault run exactly.
    pub seed: u64,
    /// Probability that a spawned container dies shortly after creation.
    pub spawn_fail_prob: f64,
    /// How long after the spawn a spawn fault kills the container.
    pub spawn_fail_latency: SimDuration,
    /// Probability (per task start) that the container crashes mid-task.
    pub crash_prob: f64,
    /// Probability (per task start) that the task straggles.
    pub straggler_prob: f64,
    /// Execution-time multiplier for straggling tasks (≥ 1).
    pub straggler_factor: f64,
    /// Retries a task may consume before its job is dropped.
    pub max_retries: u32,
    /// Scheduled whole-node outage windows.
    pub outages: Vec<NodeOutage>,
}

impl FaultPlan {
    /// The empty plan: no faults, byte-identical to a fault-free build.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            spawn_fail_prob: 0.0,
            spawn_fail_latency: SimDuration::from_millis(500),
            crash_prob: 0.0,
            straggler_prob: 0.0,
            straggler_factor: 1.0,
            max_retries: 16,
            outages: Vec::new(),
        }
    }

    /// Deterministically samples a moderate fault plan from `seed`, valid
    /// for a cluster of `nodes` nodes over `horizon_secs` seconds of run
    /// time. Used by the differential and property suites to exercise the
    /// fault machinery across many scenarios without hand-writing plans;
    /// the same seed always yields the same plan (a self-contained
    /// splitmix64 stream, no external RNG state).
    pub fn sampled(seed: u64, nodes: usize, horizon_secs: u64) -> FaultPlan {
        assert!(nodes > 0, "need at least one node");
        assert!(horizon_secs >= 10, "horizon too short for outage windows");
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let unit = |v: u64| (v >> 11) as f64 / (1u64 << 53) as f64;

        let mut plan = FaultPlan::none();
        plan.seed = next();
        plan.spawn_fail_prob = 0.08 * unit(next());
        plan.crash_prob = 0.08 * unit(next());
        plan.straggler_prob = 0.15 * unit(next());
        plan.straggler_factor = 1.0 + 6.0 * unit(next());
        plan.max_retries = 4 + (next() % 12) as u32;
        for _ in 0..(next() % 3) {
            let node = (next() % nodes as u64) as usize;
            let down = 1 + next() % (horizon_secs * 4 / 5);
            let dur = 1 + next() % (horizon_secs / 5).max(1);
            plan.outages.push(NodeOutage {
                node,
                down_at: SimTime::from_secs(down),
                up_at: SimTime::from_secs(down + dur),
            });
        }
        plan.validate(nodes);
        plan
    }

    /// `true` when this plan can inject at least one fault.
    pub fn is_active(&self) -> bool {
        self.spawn_fail_prob > 0.0
            || self.crash_prob > 0.0
            || self.straggler_prob > 0.0
            || !self.outages.is_empty()
    }

    /// Checks the plan against a cluster of `nodes` nodes, naming the first
    /// problem found: an out-of-range probability, a sub-unity straggler
    /// factor, a zero spawn-fault latency with spawn faults on, or an
    /// outage on a missing node or with an empty window.
    pub fn check(&self, nodes: usize) -> Result<(), String> {
        for (name, p) in [
            ("spawn_fail_prob", self.spawn_fail_prob),
            ("crash_prob", self.crash_prob),
            ("straggler_prob", self.straggler_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("fault {name} must be in [0, 1], got {p}"));
            }
        }
        if !(self.straggler_factor >= 1.0 && self.straggler_factor.is_finite()) {
            return Err(format!(
                "straggler factor must be a finite multiplier ≥ 1, got {}",
                self.straggler_factor
            ));
        }
        if self.spawn_fail_prob > 0.0 && self.spawn_fail_latency.is_zero() {
            return Err("spawn-fault latency must be positive when spawn faults are on".into());
        }
        for o in &self.outages {
            if o.node >= nodes {
                return Err(format!(
                    "outage node {} out of range (the cluster has {nodes} nodes)",
                    o.node
                ));
            }
            if o.up_at <= o.down_at {
                return Err(format!(
                    "outage on node {} must recover after it starts",
                    o.node
                ));
            }
        }
        Ok(())
    }

    /// Validates the plan against a cluster of `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics with [`FaultPlan::check`]'s message when the plan is invalid.
    pub fn validate(&self, nodes: usize) {
        if let Err(e) = self.check(nodes) {
            panic!("{e}");
        }
    }

    /// Parses the CLI `--faults` spec: comma-separated `key=value` terms.
    ///
    /// * `seed=N` — fault RNG seed,
    /// * `spawn=P` or `spawn=P@MS` — spawn-fault probability, optionally
    ///   with the kill latency in milliseconds (default 500),
    /// * `crash=P` — mid-task crash probability,
    /// * `straggler=P` or `straggler=PxF` — straggler probability,
    ///   optionally with the slowdown factor (default 4),
    /// * `retries=N` — max retries before a job is dropped,
    /// * `outage=NODE@DOWN+DUR` — node outage from second `DOWN` lasting
    ///   `DUR` seconds (repeatable).
    ///
    /// Example: `--faults crash=0.05,straggler=0.1x4,outage=2@100+60`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for term in spec.split(',').filter(|t| !t.is_empty()) {
            let (key, value) = term
                .split_once('=')
                .ok_or_else(|| format!("fault term '{term}' is not key=value"))?;
            let bad = |what: &str| format!("fault term '{term}': invalid {what}");
            match key {
                "seed" => plan.seed = value.parse().map_err(|_| bad("seed"))?,
                "spawn" => {
                    let (p, latency) = match value.split_once('@') {
                        Some((p, ms)) => {
                            let ms: u64 = ms.parse().map_err(|_| bad("latency"))?;
                            let us = ms
                                .checked_mul(1_000)
                                .ok_or_else(|| bad("latency (past the simulated clock)"))?;
                            (p, SimDuration::from_micros(us))
                        }
                        None => (value, plan.spawn_fail_latency),
                    };
                    plan.spawn_fail_prob = p.parse().map_err(|_| bad("probability"))?;
                    plan.spawn_fail_latency = latency;
                }
                "crash" => plan.crash_prob = value.parse().map_err(|_| bad("probability"))?,
                "straggler" => {
                    let (p, factor) = match value.split_once('x') {
                        Some((p, f)) => (p, f.parse().map_err(|_| bad("factor"))?),
                        None => (value, 4.0),
                    };
                    plan.straggler_prob = p.parse().map_err(|_| bad("probability"))?;
                    plan.straggler_factor = factor;
                }
                "retries" => plan.max_retries = value.parse().map_err(|_| bad("retries"))?,
                "outage" => {
                    let (node, window) = value.split_once('@').ok_or_else(|| bad("outage"))?;
                    let (down, dur) = window.split_once('+').ok_or_else(|| bad("outage"))?;
                    let node: usize = node.parse().map_err(|_| bad("node"))?;
                    let down: u64 = down.parse().map_err(|_| bad("down instant"))?;
                    let dur: u64 = dur.parse().map_err(|_| bad("duration"))?;
                    if dur == 0 {
                        return Err(bad("duration (must be positive)"));
                    }
                    let micros = |secs: u64| secs.checked_mul(1_000_000).map(SimTime::from_micros);
                    let window = down
                        .checked_add(dur)
                        .and_then(|up| Some((micros(down)?, micros(up)?)));
                    let (down_at, up_at) =
                        window.ok_or_else(|| bad("outage window (past the simulated clock)"))?;
                    plan.outages.push(NodeOutage {
                        node,
                        down_at,
                        up_at,
                    });
                }
                other => return Err(format!("unknown fault key '{other}'")),
            }
        }
        Ok(plan)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive_and_valid() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        p.validate(1);
        assert_eq!(p, FaultPlan::default());
    }

    #[test]
    fn sampled_plans_are_deterministic_valid_and_varied() {
        for seed in 0..32 {
            let a = FaultPlan::sampled(seed, 4, 60);
            let b = FaultPlan::sampled(seed, 4, 60);
            assert_eq!(a, b, "same seed must yield the same plan");
            a.validate(4); // would panic on a malformed sample
        }
        // different seeds must not collapse to one plan
        assert_ne!(FaultPlan::sampled(1, 4, 60), FaultPlan::sampled(2, 4, 60));
        // at least some sampled plans schedule outages
        assert!(
            (0..32).any(|s| !FaultPlan::sampled(s, 4, 60).outages.is_empty()),
            "no sampled plan produced an outage"
        );
    }

    #[test]
    fn parse_full_spec() {
        let p = FaultPlan::parse(
            "seed=9,spawn=0.1@250,crash=0.05,straggler=0.2x8,retries=3,outage=2@100+60",
        )
        .expect("valid spec");
        assert_eq!(p.seed, 9);
        assert_eq!(p.spawn_fail_prob, 0.1);
        assert_eq!(p.spawn_fail_latency, SimDuration::from_millis(250));
        assert_eq!(p.crash_prob, 0.05);
        assert_eq!(p.straggler_prob, 0.2);
        assert_eq!(p.straggler_factor, 8.0);
        assert_eq!(p.max_retries, 3);
        assert_eq!(
            p.outages,
            vec![NodeOutage {
                node: 2,
                down_at: SimTime::from_secs(100),
                up_at: SimTime::from_secs(160),
            }]
        );
        assert!(p.is_active());
        p.validate(5);
    }

    #[test]
    fn parse_defaults_for_short_forms() {
        let p = FaultPlan::parse("spawn=0.5,straggler=0.1").expect("valid");
        assert_eq!(p.spawn_fail_latency, SimDuration::from_millis(500));
        assert_eq!(p.straggler_factor, 4.0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("crash").is_err());
        assert!(FaultPlan::parse("crash=notanumber").is_err());
        assert!(FaultPlan::parse("warp=0.5").is_err());
        assert!(FaultPlan::parse("outage=2@100").is_err());
        assert!(FaultPlan::parse("outage=2@100+0").is_err());
    }

    /// Times past the microsecond clock are named errors, not overflow
    /// panics; the largest representable window still parses.
    #[test]
    fn parse_rejects_times_past_the_clock() {
        for spec in [
            "spawn=0.1@18446744073709551615",
            "outage=1@18446744073709551615+1",
            "outage=1@18446744073709+60",
            "outage=1@1+18446744073709551615",
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(err.contains("past the simulated clock"), "{spec}: {err}");
        }
        let plan = FaultPlan::parse("outage=1@18446744073708+1").expect("fits the clock");
        assert_eq!(
            plan.outages[0].up_at,
            SimTime::from_secs(18_446_744_073_709)
        );
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn out_of_range_probability_rejected() {
        let mut p = FaultPlan::none();
        p.crash_prob = 1.5;
        p.validate(1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn outage_node_bounds_checked() {
        let mut p = FaultPlan::none();
        p.outages.push(NodeOutage {
            node: 7,
            down_at: SimTime::from_secs(1),
            up_at: SimTime::from_secs(2),
        });
        p.validate(5);
    }

    #[test]
    #[should_panic(expected = "recover after it starts")]
    fn outage_window_must_be_ordered() {
        let mut p = FaultPlan::none();
        p.outages.push(NodeOutage {
            node: 0,
            down_at: SimTime::from_secs(5),
            up_at: SimTime::from_secs(5),
        });
        p.validate(1);
    }

    #[test]
    fn check_names_the_problem_without_panicking() {
        let mut p = FaultPlan::none();
        assert_eq!(p.check(1), Ok(()));
        p.crash_prob = 1.5;
        assert!(p.check(1).is_err_and(|e| e.contains("crash_prob")));
        p.crash_prob = 0.5;
        p.outages.push(NodeOutage {
            node: 999,
            down_at: SimTime::from_secs(100),
            up_at: SimTime::from_secs(160),
        });
        assert!(p
            .check(5)
            .is_err_and(|e| e.contains("outage node 999 out of range")));
        assert_eq!(p.check(1000), Ok(()));
    }

    #[test]
    fn fault_kind_names_are_stable() {
        assert_eq!(FaultKind::SpawnFault.as_str(), "spawn_fault");
        assert_eq!(FaultKind::Crash.as_str(), "crash");
        assert_eq!(FaultKind::NodeOutage.as_str(), "node_outage");
    }
}
