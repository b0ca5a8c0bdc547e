//! Tier-1 smoke for Fifer's greedy container pick on a many-node cluster.
//!
//! Greedy least-free-slots selection breaks ties toward the container on
//! the most-packed node, so the pick depends on per-node pod counts that
//! change with every spawn and kill. A short bursty run on 256 nodes
//! spreads each stage's containers over many nodes, so those node-packing
//! tie-breaks decide real dispatches. The run is audited (which includes
//! the free-slot index check) and its headline and result digest are
//! pinned to the values the scan-based pick produced, so a selection
//! index that drifts from the reference order fails here, in the fast
//! tier, not only in the workspace suites.

use fifer::prelude::*;
use fifer::sim::results::{Fnv1aWriter, Headline};
use fifer::sim::ClusterConfig;

/// Fifer on 256 nodes under 90 s of the WITS burst trace at the paper
/// rate. The 10 s idle timeout keeps killing containers mid-run, so pod
/// counts diverge across nodes and the node-packing tie-break picks a
/// different container than the lowest id on thousands of dispatches.
fn burst_run() -> (JobStream, SimResult) {
    let horizon = SimDuration::from_secs(90);
    let stream = JobStream::generate(
        &WitsLikeTrace::scaled(1.0, horizon, 42),
        WorkloadMix::Heavy,
        horizon,
        42,
    );
    let avg_rate = stream.len() as f64 / horizon.as_secs_f64();
    let mut cfg = SimConfig::prototype(RmKind::Fifer.config(), avg_rate);
    cfg.cluster = ClusterConfig {
        nodes: 256,
        cores_per_node: 16.0,
        mem_per_node_gb: 192.0,
    };
    cfg.warmup = SimDuration::ZERO;
    cfg.idle_timeout = SimDuration::from_secs(10);
    cfg.audit = true;
    let result = Simulation::new(cfg, &stream).run();
    (stream, result)
}

/// The headline the scan-based greedy pick produced on this run.
#[allow(clippy::excessive_precision)]
const PINNED_HEADLINE: Headline = Headline {
    slo_violations: 0.2889645989974937,
    avg_containers: 282.08211076545683,
    median_ms: 652.681,
    p99_ms: 5990.861110000004,
    cold_starts: 1231,
    energy_joules: 1427883.3022,
};

/// FNV-1a of the scan-based pick's `SimResult::to_json` on this run
/// (digested here as `write_json` streams it).
const PINNED_DIGEST: u64 = 0x30fc_9842_5324_2724;

#[test]
fn greedy_dispatch_on_many_nodes_matches_pinned_digest() {
    let (stream, r) = burst_run();
    assert!(r.audit_checks > 0, "the auditor must have run");
    assert!(
        r.audit_violations.is_empty(),
        "audit violations: {:?}",
        r.audit_violations
    );
    assert_eq!(r.records.len() as u64 + r.jobs_dropped, stream.len() as u64);
    assert_eq!(r.headline(), PINNED_HEADLINE);
    let mut digest = Fnv1aWriter::new();
    r.write_json(&mut digest).expect("digesting cannot fail");
    assert_eq!(
        digest.digest(),
        PINNED_DIGEST,
        "greedy dispatch diverged from the pinned run"
    );
}
