//! Tier-1 smoke for the event engine.
//!
//! Three short runs — Bline under a seeded fault plan, Fifer with a
//! pretrained LSTM, and the hybrid-histogram RM on the Azure workload
//! family — each replayed on the reference one-heap engine and on the
//! default arrival-slab engine. Both engines must produce byte-identical
//! result JSON and decision-trace JSONL, and the artifacts must hash to
//! the digest the pre-slab engine produced, so a broken engine fails in
//! the fast tier, not only in the workspace differential suites.

use fifer::prelude::*;

/// FNV-1a: a compact, dependency-free digest.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over every run's result JSON and trace JSONL, in run order,
/// recorded on the engine this one replaced.
const PINNED_DIGEST: u64 = 0x30e0_3cbe_dd70_d266;

/// A 20 s Poisson stream at `rate` req/s.
fn poisson(rate: f64, seed: u64) -> JobStream {
    JobStream::generate(
        &PoissonTrace::new(rate),
        WorkloadMix::Medium,
        SimDuration::from_secs(20),
        seed,
    )
}

/// The three runs' configurations and streams.
fn runs() -> Vec<(&'static str, SimConfig, JobStream)> {
    let mut bline = SimConfig::prototype(RmKind::Bline.config(), 6.0);
    bline.faults = FaultPlan::parse(
        "seed=2024,spawn=0.05@400,crash=0.03,straggler=0.1x3,retries=16,outage=1@8+10",
    )
    .expect("valid fault spec");

    let mut fifer = SimConfig::prototype(RmKind::Fifer.config(), 5.0);
    fifer.pretrain_series = (0..44)
        .map(|i| 6.0 + 3.0 * (f64::from(i) * 0.3).sin())
        .collect();

    let azure = AzureWorkloadConfig::paper_default();
    let mut hybrid = SimConfig::prototype(RmKind::HybridHist.config(), azure.total_rate);
    hybrid.idle_timeout = SimDuration::from_secs(10);

    vec![
        ("faulted bline", bline, poisson(6.0, 11)),
        ("fifer", fifer, poisson(5.0, 17)),
        (
            "hybridhist/azure",
            hybrid,
            azure.generate_stream(SimDuration::from_secs(20), 13),
        ),
    ]
}

/// One run's result JSON and decision-trace JSONL.
fn artifacts(mut cfg: SimConfig, stream: &JobStream, serial: bool) -> (String, String) {
    cfg.use_serial_engine = serial;
    cfg.trace.capacity = 1 << 16;
    let (result, trace) = Simulation::new(cfg, stream).run_with_trace();
    (result.to_json(), trace.to_jsonl())
}

#[test]
fn default_engine_replays_the_reference_byte_for_byte() {
    let mut digest = FNV_OFFSET;
    for (name, cfg, stream) in runs() {
        let (json, jsonl) = artifacts(cfg.clone(), &stream, true);
        let (slab_json, slab_jsonl) = artifacts(cfg, &stream, false);
        assert!(!jsonl.is_empty(), "{name}: the trace must not be empty");
        assert_eq!(json, slab_json, "{name}: result JSON diverged");
        assert_eq!(jsonl, slab_jsonl, "{name}: decision-trace JSONL diverged");
        digest = fnv1a(fnv1a(digest, json.as_bytes()), jsonl.as_bytes());
    }
    assert_eq!(
        digest, PINNED_DIGEST,
        "artifacts drifted from the pinned digest: got {digest:#018x}"
    );
}
