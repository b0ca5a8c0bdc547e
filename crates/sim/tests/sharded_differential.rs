//! Differential tests for the event engine: the default arrival-slab run
//! (`use_serial_engine = false`) must replay the serial reference run,
//! which schedules each arrival into the event heap, exactly —
//! byte-identical headline JSON, decision-trace JSONL (including the
//! global sequence numbers) and audit outcomes — for every resource
//! manager, with and without injected faults. Both commit events in one
//! global `(time, seq)` total order, so equality here is byte equality on
//! the serialized artifacts, not a tolerance.
//!
//! (The file keeps its historical name: it once compared sharded engines
//! against the serial one, and the benchmark docs cite its 50k-core
//! twin.)

use fifer_core::rm::RmKind;
use fifer_metrics::{SimDuration, SimTime};
use fifer_sim::config::{ClusterConfig, SimConfig};
use fifer_sim::driver::{window_max_series, Simulation};
use fifer_sim::fault::FaultPlan;
use fifer_workloads::{AzureWorkloadConfig, JobStream, PoissonTrace, WitsLikeTrace, WorkloadMix};

fn stream(rate: f64, secs: u64, seed: u64) -> JobStream {
    JobStream::generate(
        &PoissonTrace::new(rate),
        WorkloadMix::Medium,
        SimDuration::from_secs(secs),
        seed,
    )
}

/// Enough points to form training pairs, so the proactive RMs pre-train
/// and the runs exercise forecast-driven scaling.
fn pretrain_series() -> Vec<f64> {
    (0..44)
        .map(|i| 6.0 + 3.0 * (i as f64 * 0.3).sin())
        .collect()
}

/// One run's full observable surface: headline JSON and the decision
/// trace as seq-numbered JSONL.
fn artifacts(mut cfg: SimConfig, s: &JobStream) -> (String, String) {
    cfg.pretrain_series = pretrain_series();
    cfg.trace.capacity = 100_000;
    let (r, trace) = Simulation::new(cfg, s).run_with_trace();
    (r.to_json(), trace.to_jsonl())
}

/// Runs `cfg` on the reference engine and on the default engine and
/// returns both runs' artifacts.
fn both_engines(cfg: &SimConfig, s: &JobStream) -> [(String, String); 2] {
    [true, false].map(|serial| {
        let mut cfg = cfg.clone();
        cfg.use_serial_engine = serial;
        artifacts(cfg, s)
    })
}

/// Every RM, reference engine vs default: the headline JSON and the
/// decision-trace JSONL must be byte-identical.
#[test]
fn every_rm_is_bit_identical_across_engines() {
    let s = stream(5.0, 45, 17);
    for kind in RmKind::ALL {
        let cfg = SimConfig::prototype(kind.config(), 5.0);
        let [(json, jsonl), (slab_json, slab_jsonl)] = both_engines(&cfg, &s);
        assert!(!jsonl.is_empty(), "{kind}: trace must not be empty");
        assert_eq!(
            json, slab_json,
            "{kind}: headline JSON diverged from the reference"
        );
        assert_eq!(
            jsonl, slab_jsonl,
            "{kind}: decision-trace JSONL diverged from the reference"
        );
    }
}

/// The Azure family under the hybrid-histogram policy: the generated
/// trace must be byte-identical across repeated generations with one
/// seed, and the full observable surface (headline JSON + seq-numbered
/// decision-trace JSONL, with the short 10 s idle scan so keep-alive
/// decisions actually fire) must be byte-identical between the reference
/// and the default engine.
#[test]
fn hybridhist_on_azure_is_bit_identical_across_engines() {
    let azure = AzureWorkloadConfig::paper_default();
    let horizon = SimDuration::from_secs(45);
    let s = azure.generate_stream(horizon, 13);
    let again = azure.generate_stream(horizon, 13);
    assert_eq!(
        s, again,
        "azure generation must be deterministic in the seed"
    );

    let mut cfg = SimConfig::prototype(RmKind::HybridHist.config(), azure.total_rate);
    cfg.idle_timeout = SimDuration::from_secs(10);
    let [(json, jsonl), (slab_json, slab_jsonl)] = both_engines(&cfg, &s);
    assert!(!jsonl.is_empty(), "hybridhist trace must not be empty");
    assert_eq!(
        json, slab_json,
        "hybridhist/azure: headline JSON diverged from the reference"
    );
    assert_eq!(
        jsonl, slab_jsonl,
        "hybridhist/azure: decision-trace JSONL diverged from the reference"
    );
}

/// A sampled fault plan with harvesting and right-sizing active (the
/// Harvest RM): the default engine must replay the reference
/// byte-for-byte.
#[test]
fn harvesting_under_faults_is_bit_identical_across_engines() {
    let s = stream(6.0, 40, 23);
    let mut cfg = SimConfig::prototype(RmKind::Harvest.config(), 6.0);
    cfg.faults = FaultPlan::sampled(3, 5, 40);
    let [reference, slab] = both_engines(&cfg, &s);
    assert_eq!(
        reference, slab,
        "harvest under faults diverged from the reference"
    );
}

/// One hand-written fault plan with a node-outage window plus crashes.
fn outage_plan() -> FaultPlan {
    let mut outage = FaultPlan::none();
    outage.crash_prob = 0.05;
    outage.outages.push(fifer_sim::fault::NodeOutage {
        node: 1,
        down_at: SimTime::from_secs(8),
        up_at: SimTime::from_secs(20),
    });
    outage
}

/// Shared body for the faulted differential tests: every plan, for Bline
/// and Fifer, must replay the reference engine byte-for-byte.
fn assert_faulted_plans_identical(plans: &[FaultPlan]) {
    let s = stream(6.0, 40, 29);
    for (i, plan) in plans.iter().enumerate() {
        for kind in [RmKind::Bline, RmKind::Fifer] {
            let mut cfg = SimConfig::prototype(kind.config(), 6.0);
            cfg.faults = plan.clone();
            let [reference, slab] = both_engines(&cfg, &s);
            assert_eq!(
                reference, slab,
                "{kind} plan {i}: default engine diverged from the reference"
            );
        }
    }
}

/// Fast lane: one sampled fault plan (spawn faults, crashes, stragglers,
/// outages) plus the hand-written outage window. The full plan matrix
/// lives in the `#[ignore]` twin below.
#[test]
fn faulted_runs_are_bit_identical_across_engines() {
    let plans = [FaultPlan::sampled(0, 5, 40), outage_plan()];
    assert_faulted_plans_identical(&plans);
}

/// Full-scale twin (slow lane, `--ignored`): every sampled fault plan and
/// the hand-written outage window.
#[test]
#[ignore = "full plan matrix: 5 plans x 2 RMs x 2 engines; run with --ignored"]
fn faulted_runs_full_plan_matrix_is_bit_identical() {
    let mut plans: Vec<FaultPlan> = (0..4).map(|i| FaultPlan::sampled(i, 5, 40)).collect();
    plans.push(outage_plan());
    assert_faulted_plans_identical(&plans);
}

/// With the invariant auditor on: both engines stay clean, audit the same
/// number of commit points, and still produce identical artifacts — the
/// default engine deep-scans at monitor ticks instead of every 64th
/// event, which must not change any outcome on a clean run.
#[test]
fn audited_runs_agree_and_stay_clean_on_both_engines() {
    let s = stream(5.0, 45, 11);
    let run = |serial: bool| {
        let mut cfg = SimConfig::prototype(RmKind::Fifer.config(), 5.0);
        cfg.pretrain_series = pretrain_series();
        cfg.use_serial_engine = serial;
        cfg.audit = true;
        cfg.faults = FaultPlan::sampled(7, 5, 45);
        Simulation::new(cfg, &s).run()
    };
    let slab = run(false);
    let serial = run(true);
    assert!(
        serial.audit_violations.is_empty(),
        "reference: {:?}",
        serial.audit_violations
    );
    assert!(
        slab.audit_violations.is_empty(),
        "default: {:?}",
        slab.audit_violations
    );
    assert_eq!(serial.audit_checks, slab.audit_checks);
    assert_eq!(serial.to_json(), slab.to_json());
}

/// The engine leaves no trace in the serialized artifact: both engines
/// process the same number of events, and the result JSON names no
/// engine.
#[test]
fn engine_choice_is_never_serialized() {
    let s = stream(5.0, 30, 3);
    let run = |serial: bool| {
        let mut cfg = SimConfig::prototype(RmKind::Bline.config(), 5.0);
        cfg.use_serial_engine = serial;
        Simulation::new(cfg, &s).run()
    };
    let serial = run(true);
    let slab = run(false);
    assert!(serial.events_processed > 0);
    assert_eq!(serial.events_processed, slab.events_processed);
    assert_eq!(serial.to_json(), slab.to_json());
    assert!(!serial.to_json().contains("engine"));
}

/// Full-scale twin (slow lane, `--ignored`): a 50k-core cluster under a
/// 10× WITS burst. The default engine must (a) replay the reference engine
/// byte-for-byte and (b) finish its run in single-digit seconds.
#[test]
#[ignore = "full-scale: ~50k cores, 10x WITS burst; run with --ignored"]
fn burst_50k_cores_is_identical_and_single_digit_seconds() {
    // a two-minute burst window: 3125 nodes x 16 cores = 50k cores; 10x
    // the paper-scale WITS average (240 req/s) is a 2400 req/s burst
    let horizon = SimDuration::from_secs(120);
    let s = JobStream::generate(
        &WitsLikeTrace::scaled(10.0, horizon, 42),
        WorkloadMix::Heavy,
        horizon,
        42,
    );
    assert!(s.len() > 400_000, "burst stream too small: {}", s.len());
    let avg_rate = s.len() as f64 / horizon.as_secs_f64();
    let mk = |serial: bool| {
        let mut cfg = SimConfig::large_scale(RmKind::Fifer.config(), avg_rate);
        cfg.cluster = ClusterConfig {
            nodes: 3125,
            cores_per_node: 16.0,
            mem_per_node_gb: 192.0,
        };
        cfg.use_serial_engine = serial;
        // no warmup: records then cover every job, so the completion
        // accounting below is exact
        cfg.warmup = SimDuration::ZERO;
        let cut = (s.len() * 6 / 10).max(1);
        let arrivals: Vec<SimTime> = s.iter().take(cut).map(|j| j.arrival).collect();
        cfg.pretrain_series = window_max_series(&arrivals, 5);
        cfg
    };
    let t0 = std::time::Instant::now();
    let slab = Simulation::new(mk(false), &s).run();
    let elapsed = t0.elapsed();
    println!(
        "50k-core burst: {} jobs, {} events in {:.2}s ({:.0} events/s)",
        s.len(),
        slab.events_processed,
        elapsed.as_secs_f64(),
        slab.events_processed as f64 / elapsed.as_secs_f64(),
    );
    assert_eq!(
        slab.records.len() as u64 + slab.jobs_dropped,
        s.len() as u64
    );
    assert!(
        elapsed.as_secs_f64() < 10.0,
        "50k-core burst took {elapsed:?}, want single-digit seconds"
    );
    let serial = Simulation::new(mk(true), &s).run();
    assert_eq!(
        serial.to_json(),
        slab.to_json(),
        "full-scale default-engine run diverged from the reference"
    );
}
