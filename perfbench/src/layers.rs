//! Per-call costs of three layers, measured from outside at the sizes a
//! replay reached: placement in `fifer-sim`'s cluster, dispatch through a
//! stage's indexed queue, and one forecast of the workload's predictor.

use fifer_core::rm::{NodePlacement, PredictorChoice, RmConfig};
use fifer_metrics::{SimDuration, SimTime};
use fifer_sim::cluster::Cluster;
use fifer_sim::stage::{IndexedTaskQueue, StageTask};
use fifer_sim::SimConfig;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How long each measurement loop runs.
const MEASURE: Duration = Duration::from_millis(200);

/// Runs `op` in batches of `batch` until [`MEASURE`] has passed and
/// returns ns per call.
fn ns_per_call(batch: u64, mut op: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    let mut calls = 0u64;
    while t.elapsed() < MEASURE {
        for _ in 0..batch {
            op(calls);
            calls += 1;
        }
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

/// ns per `Cluster::select_node` + `place` + `release` on `cfg`'s cluster
/// with `live` containers already placed (capped one below capacity, so
/// the probe always finds a node).
pub fn select_ns(cfg: &SimConfig, placement: NodePlacement, live: usize) -> f64 {
    let c = cfg.cluster;
    let mut cluster = Cluster::new(
        c.nodes,
        c.cores_per_node,
        c.mem_per_node_gb,
        cfg.container_cpu,
        cfg.container_mem_gb,
    );
    let alloc = cfg.container_alloc();
    for _ in 0..live.min(cfg.max_containers().saturating_sub(1)) {
        let node = cluster
            .select_node(placement, alloc)
            .expect("below capacity, a node fits");
        cluster.place(node, alloc, SimTime::ZERO);
    }
    ns_per_call(64, |i| {
        let now = SimTime::from_micros(i + 1);
        let node = cluster
            .select_node(placement, black_box(alloc))
            .expect("one slot stays free");
        cluster.place(node, alloc, now);
        cluster.release(node, alloc, now);
    })
}

/// A deterministic task stream for the dispatch probe: arrivals 1 ms
/// apart, deadlines and remaining work spread by a xorshift on `seed`.
struct Tasks {
    state: u64,
    next_job: usize,
}

impl Tasks {
    fn new(seed: u64) -> Tasks {
        Tasks {
            state: seed | 1,
            next_job: 0,
        }
    }

    fn next(&mut self) -> StageTask {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let job = self.next_job;
        self.next_job += 1;
        let enqueued = SimTime::from_millis(job as u64);
        StageTask {
            job,
            enqueued,
            job_deadline: enqueued + SimDuration::from_millis(500 + self.state % 1000),
            remaining_work: SimDuration::from_millis(self.state % 800),
            retries: 0,
        }
    }
}

/// ns per `IndexedTaskQueue` push + pop under `rm`'s scheduling policy,
/// at a standing depth of `depth` tasks.
pub fn dispatch_ns(rm: &RmConfig, depth: usize, seed: u64) -> f64 {
    let mut tasks = Tasks::new(seed);
    let mut q = IndexedTaskQueue::new(rm.scheduling);
    for _ in 0..depth.max(1) {
        q.push(tasks.next());
    }
    ns_per_call(256, |_| {
        q.push(black_box(tasks.next()));
        black_box(q.pop());
    })
}

/// ns per observe + forecast of `rm`'s predictor, pretrained on `series`
/// and then run over it, or 0 when the workload bypasses prediction (no
/// predictor, or no series to train on).
pub fn forecast_ns(rm: &RmConfig, seed: u64, series: &[f64]) -> f64 {
    let PredictorChoice::Model(kind) = rm.predictor else {
        return 0.0;
    };
    if series.is_empty() {
        return 0.0;
    }
    let mut p = kind.build(seed);
    p.pretrain(series);
    ns_per_call(series.len() as u64, |i| {
        p.observe(series[i as usize % series.len()]);
        black_box(p.forecast());
    })
}
