//! The three replay workloads: how each builds its job stream and its
//! simulator configuration from a seed.
//!
//! Every workload is an open-loop arrival trace in simulated time (jobs
//! arrive on the trace's schedule whatever the cluster does) and a batch
//! job on the host (the whole trace is replayed as fast as possible).
//! Only workload-shape values are set on the [`SimConfig`]; every engine
//! and implementation knob stays at its default.

use fifer_core::rm::RmKind;
use fifer_metrics::{SimDuration, SimTime};
use fifer_sim::driver::window_max_series;
use fifer_sim::{ClusterConfig, SimConfig};
use fifer_workloads::{JobStream, WikiLikeTrace, WitsLikeTrace, WorkloadMix};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Bline on the Table-4-scale wiki/heavy trace (the legacy bench's
    /// canonical 7200 s replay).
    WikiBline,
    /// Fifer on a 50k-core cluster under a 10x WITS burst (the 50k-core
    /// twin of the engine differential suite).
    Burst50k,
    /// Fifer with its paper LSTM on wiki/heavy: predictor pretraining
    /// plus replay.
    WikiFifer,
}

/// Which arrival envelope drives a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Wikipedia-like diurnal trace at `scale` of the paper rate, with a
    /// 1-hour compressed period.
    Wiki { scale: f64 },
    /// WITS-like bursty trace at `scale` of the paper rate. The spike
    /// structure comes from its own fixed seed, so every run seed replays
    /// the same burst envelope with freshly sampled arrivals.
    Wits { scale: f64, structure_seed: u64 },
}

/// Everything that defines a workload's inputs, given a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// The resource manager under test.
    pub rm: RmKind,
    /// Arrival envelope.
    pub arrivals: Arrivals,
    /// Application mix.
    pub mix: WorkloadMix,
    /// Simulated duration.
    pub horizon: SimDuration,
    /// Warmup excluded from latency and SLO metrics.
    pub warmup: SimDuration,
    /// Cluster shape.
    pub cluster: ClusterConfig,
    /// Whether the run seed also seeds the simulator and the predictor
    /// (`false` keeps the config default, as the 50k-core twin does).
    pub seed_config: bool,
}

/// The 16-node cluster of the Table-4-scale replays (1/10 of the paper's
/// 2500 cores, same load-to-capacity ratio).
const SMALL_CLUSTER: ClusterConfig = ClusterConfig {
    nodes: 16,
    cores_per_node: 16.0,
    mem_per_node_gb: 192.0,
};

/// The 50k-core cluster of the burst twin: 3125 nodes x 16 cores.
pub const BURST_CLUSTER: ClusterConfig = ClusterConfig {
    nodes: 3125,
    cores_per_node: 16.0,
    mem_per_node_gb: 192.0,
};

/// Horizon of the burst twin.
pub const BURST_HORIZON_S: u64 = 120;

impl Workload {
    /// Every workload, in the order they are documented.
    pub const ALL: [Workload; 3] = [Workload::WikiBline, Workload::Burst50k, Workload::WikiFifer];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WikiBline => "wiki_bline",
            Workload::Burst50k => "burst_50k",
            Workload::WikiFifer => "wiki_fifer",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload at its benchmark size.
    pub fn spec(self) -> Spec {
        let wiki = |rm, horizon_s: u64| Spec {
            rm,
            arrivals: Arrivals::Wiki { scale: 0.1 },
            mix: WorkloadMix::Heavy,
            horizon: SimDuration::from_secs(horizon_s),
            // the legacy large-scale spec's 900 s of 7200 s, kept in proportion
            warmup: SimDuration::from_secs(horizon_s / 8),
            cluster: SMALL_CLUSTER,
            seed_config: true,
        };
        match self {
            Workload::WikiBline => wiki(RmKind::Bline, 7200),
            // 900 s keeps one pretrain-plus-replay near 5 s on a 2-core
            // host, so a run can take several samples
            Workload::WikiFifer => wiki(RmKind::Fifer, 900),
            Workload::Burst50k => Spec {
                rm: RmKind::Fifer,
                // the twin's seed-42 burst: spike heights differ wildly
                // between structure seeds (one seed quadruples the peak
                // fleet), which would swamp every host-time figure
                arrivals: Arrivals::Wits {
                    scale: 10.0,
                    structure_seed: 42,
                },
                mix: WorkloadMix::Heavy,
                horizon: SimDuration::from_secs(BURST_HORIZON_S),
                // records then cover every job, so completion accounting
                // is exact (as in the twin)
                warmup: SimDuration::ZERO,
                cluster: BURST_CLUSTER,
                seed_config: false,
            },
        }
    }
}

impl Spec {
    /// The same workload over a different horizon, warmup scaled in
    /// proportion (the self-tests use tiny horizons).
    #[cfg(test)]
    pub fn with_horizon(mut self, horizon: SimDuration) -> Spec {
        let ratio = self.warmup.as_secs_f64() / self.horizon.as_secs_f64();
        self.warmup = SimDuration::from_secs_f64(horizon.as_secs_f64() * ratio);
        self.horizon = horizon;
        self
    }

    /// Generates the job stream for `seed`.
    pub fn generate(&self, seed: u64) -> JobStream {
        match self.arrivals {
            Arrivals::Wiki { scale } => JobStream::generate(
                &WikiLikeTrace::scaled(scale).with_period(SimDuration::from_secs(3600)),
                self.mix,
                self.horizon,
                seed,
            ),
            Arrivals::Wits {
                scale,
                structure_seed,
            } => JobStream::generate(
                &WitsLikeTrace::scaled(scale, self.horizon, structure_seed),
                self.mix,
                self.horizon,
                seed,
            ),
        }
    }

    /// The simulator configuration for `stream` (without its pretraining
    /// series; see [`pretrain_series`]).
    pub fn config(&self, stream: &JobStream, seed: u64) -> SimConfig {
        let avg_rate = stream.len() as f64 / self.horizon.as_secs_f64();
        let mut cfg = SimConfig::prototype(self.rm.config(), avg_rate);
        cfg.cluster = self.cluster;
        cfg.warmup = self.warmup;
        if self.seed_config {
            cfg.seed = seed;
        }
        cfg
    }
}

/// The predictor pretraining series for `cfg`'s resource manager: per-5 s
/// window maxima of the per-second arrival counts over the first 60% of
/// the stream (paper §4.5.1), or empty for a manager without a predictor.
pub fn pretrain_series(cfg: &SimConfig, stream: &JobStream) -> Vec<f64> {
    if !cfg.rm.is_proactive() {
        return Vec::new();
    }
    let cut = (stream.len() * 6 / 10).max(1);
    let arrivals: Vec<SimTime> = stream.iter().take(cut).map(|j| j.arrival).collect();
    window_max_series(&arrivals, 5)
}
