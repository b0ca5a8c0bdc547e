//! The benchmark's named metrics: unit and direction of each, and how a
//! run's samples become the reported figures.

use crate::run::Replay;
use crate::stats::Summary;
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word used in BENCHMARK.json and the reports.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed and as listed in BENCHMARK.json.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics, reported by the timed runs (`--trace 0`) and
/// bounded in BENCHMARK.json. The first five are host time and memory;
/// the rest are simulated and repeat exactly for a given seed.
pub const END_TO_END: [Metric; 9] = [
    m("wall_s", "s", Better::Lower),
    m("setup_s", "s", Better::Lower),
    m("replay_s", "s", Better::Lower),
    m("events_per_s", "events/s", Better::Higher),
    m("peak_rss_mb", "MB", Better::Lower),
    m("p99_ms", "ms", Better::Lower),
    m("avg_containers", "count", Better::Lower),
    m("waste_core_hours", "core-h", Better::Lower),
    m("energy_kj", "kJ", Better::Lower),
];

/// Simulated end-to-end metrics that the timed runs report but that
/// carry no bound: each repeats exactly for a seed, but swings between
/// seeds by more than any useful bound on some workload, so a median over
/// seeds cannot gate a change. `slo_violation_pct` counts tens of jobs on
/// `wiki_fifer`; `median_ms` sits between the heavy mix's two apps'
/// latency clusters on `wiki_bline` and jumps between them; `cold_starts`
/// on `wiki_bline` depends on how often spawns hit the full 512-container
/// cluster.
pub const SEED_SENSITIVE: [Metric; 3] = [
    m("slo_violation_pct", "%", Better::Lower),
    m("median_ms", "ms", Better::Lower),
    m("cold_starts", "count", Better::Lower),
];

/// Per-layer metrics, reported by the traced run (`--trace 1`), named
/// `<crate>.<measure>` after the layer they time or count.
pub const PER_LAYER: [Metric; 26] = [
    m("workloads.generate_s", "s", Better::Lower),
    m("sim.pretrain_series_s", "s", Better::Lower),
    m("predict.pretrain_s", "s", Better::Lower),
    m("predict.series_len", "count", Better::Lower),
    m("predict.forecast_ns", "ns", Better::Lower),
    m("sim.new_s", "s", Better::Lower),
    m("sim.run_s", "s", Better::Lower),
    m("sim.events", "count", Better::Lower),
    m("sim.ns_per_event", "ns", Better::Lower),
    m("cluster.select_ns", "ns", Better::Lower),
    m("stage.dispatch_ns", "ns", Better::Lower),
    m("stage.peak_queue_depth", "count", Better::Lower),
    m("lifecycle.spawns", "count", Better::Lower),
    m("lifecycle.failed_spawns", "count", Better::Lower),
    m("lifecycle.blocking_ratio", "ratio", Better::Lower),
    m("lifecycle.tasks_per_container", "count", Better::Higher),
    m("accounting.utilization_pct", "%", Better::Higher),
    m("metrics.headline_s", "s", Better::Lower),
    m("metrics.to_json_s", "s", Better::Lower),
    m("metrics.json_mb", "MB", Better::Lower),
    m("audit.overhead_s", "s", Better::Lower),
    m("audit.checks", "count", Better::Higher),
    m("audit.violations", "count", Better::Lower),
    m("trace.overhead_s", "s", Better::Lower),
    m("trace.events", "count", Better::Lower),
    m("spans.overhead_s", "s", Better::Lower),
];

/// The end-to-end figures of one replay, by metric name.
pub fn end_to_end(r: &Replay) -> BTreeMap<&'static str, f64> {
    let res = &r.result;
    let h = &r.headline;
    // dropped jobs never produce a record, so they join both the
    // violations and the population (zero without fault injection)
    let dropped = res.jobs_dropped as f64;
    let judged = res.slo.total() as f64 + dropped;
    let slo_pct = if judged == 0.0 {
        0.0
    } else {
        100.0 * (res.slo.violations() as f64 + dropped) / judged
    };
    BTreeMap::from([
        ("wall_s", r.wall_s),
        ("setup_s", r.setup_s),
        ("replay_s", r.replay_s),
        ("events_per_s", res.events_processed as f64 / r.replay_s),
        ("peak_rss_mb", r.peak_rss_mb),
        ("slo_violation_pct", slo_pct),
        ("p99_ms", h.p99_ms),
        ("median_ms", h.median_ms),
        ("avg_containers", h.avg_containers),
        (
            "waste_core_hours",
            res.alloc_core_hours - res.used_core_hours,
        ),
        ("cold_starts", h.cold_starts as f64),
        ("energy_kj", h.energy_joules / 1e3),
    ])
}

/// Summaries of per-replay figures: every metric's samples, in the order
/// the replays ran.
#[derive(Debug, Default)]
pub struct Samples {
    by_name: BTreeMap<&'static str, Vec<f64>>,
}

impl Samples {
    /// Adds one replay's figures.
    pub fn push(&mut self, figures: &BTreeMap<&'static str, f64>) {
        for (&name, &v) in figures {
            self.by_name.entry(name).or_default().push(v);
        }
    }

    /// Median and quartiles of each metric in `table` that has samples,
    /// with the samples themselves.
    pub fn summarize(&self, table: &[Metric]) -> Vec<Figure> {
        table
            .iter()
            .filter_map(|m| {
                self.by_name.get(m.name).map(|v| Figure {
                    metric: *m,
                    summary: Summary::of(v),
                    samples: v.clone(),
                })
            })
            .collect()
    }
}

/// One reported metric: its summary over the replays and every sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Which metric.
    pub metric: Metric,
    /// Median, quartiles and count.
    pub summary: Summary,
    /// Per-replay values, in run order.
    pub samples: Vec<f64>,
}
