//! Correctness gate applied to every replay.

use crate::workload::{Arrivals, Workload, BURST_CLUSTER, BURST_HORIZON_S};
use fifer_core::rm::RmKind;
use fifer_metrics::SimDuration;
use fifer_sim::SimResult;

/// FNV-1a over a result's JSON — the same fingerprint the legacy `bench`
/// binary records as `digest` in BENCH_simulator.json.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Seed at which the pinned digests below were recorded.
pub const CONTINUITY_SEED: u64 = 42;

/// The digest a full-size workload must reproduce at [`CONTINUITY_SEED`].
///
/// `wiki_bline` is the legacy bench's `sharded.serial.digest` for the
/// 7200 s Bline replay (BENCH_simulator.json). `burst_50k` was recorded
/// from the configuration of the 50k-core twin in
/// `crates/sim/tests/sharded_differential.rs`, whose run at seed 42 reports
/// the same 601,222 jobs and 4,219,419 events.
pub fn continuity_digest(w: Workload) -> Option<u64> {
    match w {
        Workload::WikiBline => Some(0x9cc1_ab17_2373_1918),
        Workload::Burst50k => Some(0x1d99_f864_ab29_7379),
        Workload::WikiFifer => None,
    }
}

/// Checks that `burst_50k` is still the 50k-core twin: Fifer on 3125 x 16
/// cores over the seed-42 120 s 10x WITS burst with no warmup, config seed
/// left at its default.
pub fn burst_is_the_twin() -> Result<(), String> {
    let s = Workload::Burst50k.spec();
    let burst = Arrivals::Wits {
        scale: 10.0,
        structure_seed: CONTINUITY_SEED,
    };
    let twin = s.rm == RmKind::Fifer
        && s.arrivals == burst
        && s.cluster == BURST_CLUSTER
        && s.horizon == SimDuration::from_secs(BURST_HORIZON_S)
        && s.warmup.is_zero()
        && !s.seed_config;
    if twin {
        Ok(())
    } else {
        Err(format!("burst_50k drifted from the 50k-core twin: {s:?}"))
    }
}

/// Problems with one replay of `jobs` submitted jobs (empty when it
/// passes): every job must complete or be dropped, the auditor (when on)
/// must be clean, and the headline must be finite.
pub fn check(jobs: usize, r: &SimResult) -> Vec<String> {
    let mut problems = Vec::new();
    let completed = r.slo_whole_run.total();
    if completed + r.jobs_dropped != jobs as u64 {
        problems.push(format!(
            "completed {completed} + dropped {} != submitted {jobs}",
            r.jobs_dropped
        ));
    }
    if r.records.len() as u64 > completed {
        problems.push(format!(
            "{} post-warmup records but only {completed} completions",
            r.records.len()
        ));
    }
    if let Some(first) = r.audit_violations.first() {
        problems.push(format!(
            "auditor reported {} violation(s), first: {first}",
            r.audit_violations.len()
        ));
    }
    let h = r.headline();
    let figures = [
        h.slo_violations,
        h.avg_containers,
        h.median_ms,
        h.p99_ms,
        h.energy_joules,
    ];
    if figures.iter().any(|v| !v.is_finite()) {
        problems.push(format!("non-finite headline: {h:?}"));
    }
    problems
}

/// Jobs of one replay that count as failed: every job when a check
/// failed, otherwise those dropped or never completed.
pub fn failed_ops(jobs: usize, r: &SimResult, problems: &[String]) -> u64 {
    if problems.is_empty() {
        (jobs as u64).saturating_sub(r.slo_whole_run.total())
    } else {
        jobs as u64
    }
}

/// Tracks that every replay of one seed produces the same digest, and the
/// pinned continuity digest where one applies.
#[derive(Debug)]
pub struct DigestGate {
    expected: Option<u64>,
    pinned: bool,
}

impl DigestGate {
    /// A gate expecting `pinned` (if any) from the first replay on.
    pub fn new(pinned: Option<u64>) -> DigestGate {
        DigestGate {
            expected: pinned,
            pinned: pinned.is_some(),
        }
    }

    /// Checks one replay's digest.
    pub fn check(&mut self, digest: u64) -> Option<String> {
        match self.expected {
            None => {
                self.expected = Some(digest);
                None
            }
            Some(want) if want == digest => None,
            Some(want) => Some(format!(
                "digest {digest:016x} != {} {want:016x}",
                if self.pinned {
                    "pinned"
                } else {
                    "first replay's"
                }
            )),
        }
    }

    /// The digest every replay agreed on so far.
    pub fn digest(&self) -> Option<u64> {
        self.expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn digest_gate_trips_on_a_changed_digest() {
        let mut g = DigestGate::new(None);
        assert!(g.check(7).is_none());
        assert!(g.check(7).is_none());
        assert!(g.check(8).is_some());
        let mut pinned = DigestGate::new(Some(5));
        assert!(pinned.check(7).expect("mismatch").contains("pinned"));
        assert_eq!(pinned.digest(), Some(5));
    }

    #[test]
    fn burst_workload_is_the_twin() {
        burst_is_the_twin().expect("burst_50k keeps the twin's configuration");
    }
}
