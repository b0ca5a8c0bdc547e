//! Simulation configuration with the paper's defaults (Tables 1–2, §5).

use crate::fault::FaultPlan;
use crate::trace::TraceConfig;
use fifer_core::rm::RmConfig;
use fifer_metrics::SimDuration;
use serde::{Deserialize, Serialize};

/// Cluster hardware shape (paper Table 1: dual-socket Xeon Gold 6242 nodes,
/// 16 cores × 2 threads per socket, 192 GB DRAM).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub nodes: usize,
    /// Schedulable CPU cores per node.
    pub cores_per_node: f64,
    /// Memory per node in GB.
    pub mem_per_node_gb: f64,
}

impl ClusterConfig {
    /// The paper's 80-compute-core prototype cluster: 5 worker nodes of 16
    /// allocatable cores each.
    pub fn prototype() -> Self {
        ClusterConfig {
            nodes: 5,
            cores_per_node: 16.0,
            mem_per_node_gb: 192.0,
        }
    }

    /// The 2500-core large-scale simulation (§5.3: "30× our prototype
    /// cluster").
    pub fn large_scale() -> Self {
        ClusterConfig {
            nodes: 157,
            cores_per_node: 16.0,
            mem_per_node_gb: 192.0,
        }
    }

    /// Total schedulable cores across the cluster.
    pub fn total_cores(&self) -> f64 {
        self.nodes as f64 * self.cores_per_node
    }
}

/// Full simulation configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// The resource-manager policy bundle under test.
    pub rm: RmConfig,
    /// Cluster shape.
    pub cluster: ClusterConfig,
    /// Application SLO (response latency); the paper fixes 1000 ms.
    pub slo: SimDuration,
    /// CPU request per container (§5.1: 0.5 core).
    pub container_cpu: f64,
    /// Memory request per container in GB (§5.1: within 1 GB).
    pub container_mem_gb: f64,
    /// Slow monitoring interval T for proactive scaling, idle scale-down
    /// and energy sampling (§4.5: 10 s).
    pub monitor_interval: SimDuration,
    /// Fast interval for the reactive queue-delay check. The paper's load
    /// monitor watches queues continuously (§4.2); 1 s keeps the check
    /// responsive at sub-SLO granularity without per-event overhead.
    pub reactive_interval: SimDuration,
    /// Idle-container reclamation timeout (§4.4.1: 10 minutes).
    pub idle_timeout: SimDuration,
    /// Time after a node empties before it powers off (§4.4.2).
    pub node_poweroff_timeout: SimDuration,
    /// Container-image pull bandwidth in MB/s; with the catalog's image
    /// sizes this yields the paper's 2–9 s cold starts (§6.1.5).
    pub image_pull_mbps: f64,
    /// Average arrival rate used to size SBatch's fixed pool (§5.3).
    pub expected_avg_rate: f64,
    /// Historical window-max rate series for pre-training neural
    /// predictors (§4.5.1: 60% of the trace). Empty = no pre-training.
    pub pretrain_series: Vec<f64>,
    /// Jobs arriving before this instant are simulated but excluded from
    /// latency/SLO metrics — the standard warmup exclusion, so the all-cold
    /// t = 0 transient does not dominate steady-state comparisons.
    pub warmup: SimDuration,
    /// Whether identical microservices are shared across the mix's
    /// applications (§4.3 footnote: shared within a tenant, never across).
    pub share_stages: bool,
    /// Dynamic-chain extension (§8 future work): probability that a job
    /// exits its chain after completing a non-final stage (e.g. Face
    /// Security skipping recognition when detection finds no face).
    /// 0 reproduces the paper's linear chains.
    pub early_exit_prob: f64,
    /// Number of independent tenants (§2.1: "our proposed ideas can be
    /// individually applied to each tenant"; microservices are never
    /// shared across tenants, §4.3 footnote). Each tenant gets its own
    /// stage pools over the shared cluster; jobs are assigned to tenants
    /// round-robin. 1 reproduces the paper's single-tenant evaluation.
    pub tenants: usize,
    /// Pre-warmed pool floor (§2.2.1: "certain frameworks employ a
    /// pre-warmed pool of idle containers"): each stage keeps at least
    /// this many unoccupied containers alive, replenished at monitor
    /// ticks. 0 (the default) disables the pool; nonzero values let the
    /// harness quantify the memory/energy waste the paper calls out.
    pub min_warm_pool: usize,
    /// RNG seed for exec-time jitter and any stochastic choices.
    pub seed: u64,
    /// Dispatch tasks through the reference linear-scan scheduler
    /// (`fifer_core::scheduling::select_task_iter`) instead of the indexed
    /// priority queue's O(log Q) pop. The two are required to produce
    /// bit-identical runs; this flag exists so differential tests (and
    /// skeptical users) can check that end to end. Slower — O(Q) per
    /// dispatched task — and off by default.
    pub use_reference_scheduler: bool,
    /// Build any neural predictor on the original per-step-allocating NN
    /// implementation instead of the flat-workspace one. The two are
    /// required to produce bit-identical runs; this flag exists so
    /// differential tests (and skeptical users) can check that end to
    /// end. Slower — per-timestep heap allocation — and off by default.
    pub use_reference_nn: bool,
    /// Run on the reference one-heap event engine
    /// ([`EventQueue`](crate::engine::EventQueue)) instead of the
    /// arrival-slab one ([`SlabEventQueue`](crate::engine::SlabEventQueue)).
    /// The two are required to produce bit-identical runs; this flag
    /// exists so differential tests (and skeptical users) can check that
    /// end to end, mirroring `use_reference_scheduler`/`use_reference_nn`.
    /// Off by default.
    pub use_serial_engine: bool,
    /// Structured decision trace (ring capacity).
    /// Disabled by default; see [`crate::trace`].
    pub trace: TraceConfig,
    /// Deterministic fault-injection plan (spawn faults, crashes,
    /// stragglers, node outages). [`FaultPlan::none`] — the default —
    /// injects nothing and leaves runs byte-identical to a fault-free
    /// build; see [`crate::fault`].
    pub faults: FaultPlan,
    /// Run the invariant auditor at every event-commit point (the
    /// `audit` module): conservation of tasks, slot/memory accounting,
    /// trace-counter reconciliation. Read-only — violations are collected
    /// into [`SimResult::audit_violations`](crate::SimResult), never
    /// panicked mid-run — so enabling it does not perturb the simulation.
    /// Off by default; the test suite switches it on.
    pub audit: bool,
}

impl SimConfig {
    /// Prototype-scale configuration (80 cores) with paper defaults.
    pub fn prototype(rm: RmConfig, expected_avg_rate: f64) -> Self {
        SimConfig {
            rm,
            cluster: ClusterConfig::prototype(),
            slo: SimDuration::from_millis(1000),
            container_cpu: 0.5,
            container_mem_gb: 1.0,
            monitor_interval: SimDuration::from_secs(10),
            reactive_interval: SimDuration::from_secs(1),
            idle_timeout: SimDuration::from_secs(600),
            node_poweroff_timeout: SimDuration::from_secs(60),
            image_pull_mbps: 150.0,
            expected_avg_rate,
            pretrain_series: Vec::new(),
            warmup: SimDuration::ZERO,
            share_stages: true,
            early_exit_prob: 0.0,
            tenants: 1,
            min_warm_pool: 0,
            seed: 1,
            use_reference_scheduler: false,
            use_reference_nn: false,
            use_serial_engine: false,
            trace: TraceConfig::default(),
            faults: FaultPlan::none(),
            audit: false,
        }
    }

    /// Large-scale configuration (2500 cores) for the trace-driven studies.
    pub fn large_scale(rm: RmConfig, expected_avg_rate: f64) -> Self {
        SimConfig {
            cluster: ClusterConfig::large_scale(),
            ..Self::prototype(rm, expected_avg_rate)
        }
    }

    /// The default per-container allocation as an exact integer shape.
    pub fn container_alloc(&self) -> fifer_core::ResourceVec {
        fifer_core::ResourceVec::from_cores_gb(self.container_cpu, self.container_mem_gb)
    }

    /// Containers that fit on the whole cluster (CPU-bound; the paper's
    /// 0.5-core containers make CPU the binding resource).
    pub fn max_containers(&self) -> usize {
        let by_cpu = self.cluster.total_cores() / self.container_cpu;
        let by_mem =
            self.cluster.nodes as f64 * self.cluster.mem_per_node_gb / self.container_mem_gb;
        by_cpu.min(by_mem) as usize
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on non-positive resource sizes or intervals.
    pub fn validate(&self) {
        assert!(self.cluster.nodes > 0, "need at least one node");
        assert!(self.cluster.cores_per_node > 0.0, "cores must be positive");
        assert!(self.container_cpu > 0.0, "container CPU must be positive");
        assert!(
            self.container_cpu <= self.cluster.cores_per_node,
            "container cannot exceed a node"
        );
        assert!(
            self.container_mem_gb > 0.0 && self.container_mem_gb <= self.cluster.mem_per_node_gb,
            "container memory must fit on a node"
        );
        assert!(!self.monitor_interval.is_zero(), "monitor interval > 0");
        assert!(!self.reactive_interval.is_zero(), "reactive interval > 0");
        assert!(self.image_pull_mbps > 0.0, "pull bandwidth > 0");
        assert!(
            self.expected_avg_rate >= 0.0 && self.expected_avg_rate.is_finite(),
            "avg rate must be non-negative"
        );
        assert!(
            (0.0..=1.0).contains(&self.early_exit_prob),
            "early-exit probability must be in [0, 1]"
        );
        assert!(self.tenants >= 1, "need at least one tenant");
        self.faults.validate(self.cluster.nodes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifer_core::rm::RmKind;

    #[test]
    fn prototype_is_80_cores() {
        assert_eq!(ClusterConfig::prototype().total_cores(), 80.0);
    }

    #[test]
    fn large_scale_is_about_2500_cores() {
        let c = ClusterConfig::large_scale();
        assert!((2400.0..=2600.0).contains(&c.total_cores()));
    }

    #[test]
    fn slab_engine_is_the_default() {
        let cfg = SimConfig::prototype(RmKind::Bline.config(), 50.0);
        assert!(!cfg.use_serial_engine, "the slab engine is the default");
        let large = SimConfig::large_scale(RmKind::Fifer.config(), 50.0);
        assert!(!large.use_serial_engine);
    }

    #[test]
    fn max_containers_cpu_bound() {
        let cfg = SimConfig::prototype(RmKind::Bline.config(), 50.0);
        // 80 cores / 0.5 = 160 containers; memory would allow many more
        assert_eq!(cfg.max_containers(), 160);
    }

    #[test]
    fn defaults_match_paper() {
        let cfg = SimConfig::prototype(RmKind::Fifer.config(), 50.0);
        assert_eq!(cfg.slo, SimDuration::from_millis(1000));
        assert_eq!(cfg.container_cpu, 0.5);
        assert_eq!(cfg.monitor_interval, SimDuration::from_secs(10));
        assert_eq!(cfg.idle_timeout, SimDuration::from_secs(600));
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "cannot exceed a node")]
    fn oversized_container_rejected() {
        let mut cfg = SimConfig::prototype(RmKind::Bline.config(), 1.0);
        cfg.container_cpu = 32.0;
        cfg.validate();
    }
}
