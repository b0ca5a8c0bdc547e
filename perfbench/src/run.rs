//! One replay of a workload, timed end to end and span-traced per layer.

use crate::host;
use crate::spans::Spans;
use crate::workload::{pretrain_series, Spec};
use fifer_sim::results::Headline;
use fifer_sim::{SimResult, Simulation};
use std::time::Instant;

/// Decision-trace ring size when the trace is switched on (the CLI's
/// `--decision-trace` size).
pub const DECISION_TRACE_CAPACITY: usize = 1 << 20;

/// Optional simulator instrumentation for one replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Instrument {
    /// Turn on the invariant auditor (`SimConfig.audit`).
    pub audit: bool,
    /// Turn on the decision trace (`SimConfig.trace`).
    pub decision_trace: bool,
}

/// One replay's outcome.
#[derive(Debug)]
pub struct Replay {
    /// Jobs submitted.
    pub jobs: usize,
    /// Points in the predictor pretraining series.
    pub series_len: usize,
    /// Host seconds: generate + build RM + construct + run + headline.
    pub wall_s: f64,
    /// Host seconds: generate + build RM (pretrain) + construct.
    pub setup_s: f64,
    /// Host seconds inside `Simulation::run`.
    pub replay_s: f64,
    /// Resident-memory high-water mark at the end of the headline step.
    pub peak_rss_mb: f64,
    /// The headline summary.
    pub headline: Headline,
    /// The full result.
    pub result: SimResult,
    /// Decision-trace events recorded (retained plus evicted).
    pub decision_events: u64,
}

/// Replays `spec` at `seed`, recording layer spans into `spans` (a
/// disabled recorder makes this the untraced timed path).
pub fn replay(spec: &Spec, seed: u64, instrument: Instrument, spans: &mut Spans) -> Replay {
    host::reset_peak_rss();
    let t0 = Instant::now();
    spans.open("run");
    spans.open("setup");
    let stream = spans.leaf("workloads.generate", || spec.generate(seed));
    let mut cfg = spec.config(&stream, seed);
    cfg.pretrain_series = spans.leaf("sim.pretrain_series", || pretrain_series(&cfg, &stream));
    cfg.audit = instrument.audit;
    if instrument.decision_trace {
        cfg.trace.capacity = DECISION_TRACE_CAPACITY;
    }
    let series_len = cfg.pretrain_series.len();
    let rm = spans.leaf("predict.pretrain", || {
        cfg.rm.build_rm_with(cfg.seed, &cfg.pretrain_series, false)
    });
    let sim = spans.leaf("sim.new", || {
        Simulation::with_resource_manager(cfg, &stream, rm)
    });
    spans.close();
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (result, trace) = spans.leaf("sim.run", || sim.run_with_trace());
    let replay_s = t1.elapsed().as_secs_f64();
    let headline = spans.leaf("metrics.headline", || result.headline());
    spans.close();
    let wall_s = t0.elapsed().as_secs_f64();
    let peak_rss_mb = host::peak_rss_mb();
    Replay {
        jobs: stream.len(),
        series_len,
        wall_s,
        setup_s,
        replay_s,
        peak_rss_mb,
        headline,
        decision_events: trace.len() as u64 + trace.dropped,
        result,
    }
}
