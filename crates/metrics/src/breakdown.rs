//! Per-request latency breakdowns.
//!
//! The paper separates response latency into execution time, cold-start
//! induced delay, and batching/queuing induced delay (Figure 9, §6.1.2).
//! [`RequestRecord`] is the unit the simulator emits per completed job;
//! the experiment harness aggregates records into the paper's metrics.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Response latency split into its three sources (all in sim time).
///
/// `total() = exec + cold_start + queuing` by construction; the simulator
/// attributes every microsecond a job spends between submission and
/// completion to exactly one of the three buckets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    /// Pure function execution time across all stages of the chain.
    pub exec: SimDuration,
    /// Delay attributable to waiting for container cold starts.
    pub cold_start: SimDuration,
    /// Delay attributable to queuing behind other requests (batching).
    pub queuing: SimDuration,
}

impl LatencyBreakdown {
    /// A breakdown with all components zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// End-to-end response latency.
    pub fn total(&self) -> SimDuration {
        self.exec + self.cold_start + self.queuing
    }

    /// Accumulates another breakdown (e.g. across chain stages).
    pub fn accumulate(&mut self, other: &LatencyBreakdown) {
        self.exec += other.exec;
        self.cold_start += other.cold_start;
        self.queuing += other.queuing;
    }
}

/// Everything the simulator records about one completed job (chain
/// invocation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestRecord {
    /// Monotonically increasing job id.
    pub job_id: u64,
    /// Application (chain) name this job invoked. Static (the simulator
    /// passes `Application::name`), so a record costs no heap allocation.
    pub app: &'static str,
    /// Submission instant.
    pub submitted: SimTime,
    /// Completion instant.
    pub completed: SimTime,
    /// Latency attribution.
    pub breakdown: LatencyBreakdown,
    /// Whether the end-to-end latency exceeded the SLO.
    pub slo_violated: bool,
}

impl RequestRecord {
    /// End-to-end response latency (`completed - submitted`).
    ///
    /// This equals `breakdown.total()` for a well-formed record; the
    /// simulator's integration tests assert that invariant.
    pub fn response_latency(&self) -> SimDuration {
        self.completed - self.submitted
    }
}

/// Aggregates [`RequestRecord`]s into the paper's headline metrics.
#[derive(Debug, Clone, Default)]
pub struct BreakdownSummary {
    records: usize,
    exec_ms: crate::percentile::Samples,
    cold_ms: crate::percentile::Samples,
    queue_ms: crate::percentile::Samples,
    total_ms: crate::percentile::Samples,
}

impl BreakdownSummary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one record into the summary.
    pub fn add(&mut self, r: &RequestRecord) {
        self.records += 1;
        self.exec_ms.push(r.breakdown.exec.as_millis_f64());
        self.cold_ms.push(r.breakdown.cold_start.as_millis_f64());
        self.queue_ms.push(r.breakdown.queuing.as_millis_f64());
        self.total_ms.push(r.breakdown.total().as_millis_f64());
    }

    /// Number of records folded in.
    pub fn len(&self) -> usize {
        self.records
    }

    /// `true` when no records have been folded in.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// `(exec, cold_start, queuing)` means in milliseconds.
    pub fn mean_components_ms(&self) -> (f64, f64, f64) {
        (
            self.exec_ms.mean(),
            self.cold_ms.mean(),
            self.queue_ms.mean(),
        )
    }

    /// `p`-th percentile of total latency in milliseconds.
    pub fn total_percentile_ms(&mut self, p: f64) -> f64 {
        self.total_ms.percentile(p)
    }

    /// Mutable access to the total-latency samples (for CDFs).
    pub fn total_samples_mut(&mut self) -> &mut crate::percentile::Samples {
        &mut self.total_ms
    }

    /// Mutable access to the queuing-latency samples (Figure 10b).
    pub fn queuing_samples_mut(&mut self) -> &mut crate::percentile::Samples {
        &mut self.queue_ms
    }

    /// Components of the P99 request's latency, approximated as the P99 of
    /// each component (the paper plots stacked components at P99).
    pub fn p99_components_ms(&mut self) -> (f64, f64, f64) {
        (
            self.exec_ms.percentile(99.0),
            self.cold_ms.percentile(99.0),
            self.queue_ms.percentile(99.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(exec_ms: u64, cold_ms: u64, queue_ms: u64) -> RequestRecord {
        let breakdown = LatencyBreakdown {
            exec: SimDuration::from_millis(exec_ms),
            cold_start: SimDuration::from_millis(cold_ms),
            queuing: SimDuration::from_millis(queue_ms),
        };
        RequestRecord {
            job_id: 1,
            app: "IPA",
            submitted: SimTime::from_secs(1),
            completed: SimTime::from_secs(1) + breakdown.total(),
            breakdown,
            slo_violated: false,
        }
    }

    #[test]
    fn total_sums_components() {
        let b = LatencyBreakdown {
            exec: SimDuration::from_millis(100),
            cold_start: SimDuration::from_millis(2000),
            queuing: SimDuration::from_millis(50),
        };
        assert_eq!(b.total(), SimDuration::from_millis(2150));
    }

    #[test]
    fn accumulate_adds_componentwise() {
        let mut a = LatencyBreakdown::new();
        a.accumulate(&LatencyBreakdown {
            exec: SimDuration::from_millis(10),
            cold_start: SimDuration::ZERO,
            queuing: SimDuration::from_millis(5),
        });
        a.accumulate(&LatencyBreakdown {
            exec: SimDuration::from_millis(20),
            cold_start: SimDuration::from_millis(100),
            queuing: SimDuration::ZERO,
        });
        assert_eq!(a.exec, SimDuration::from_millis(30));
        assert_eq!(a.cold_start, SimDuration::from_millis(100));
        assert_eq!(a.queuing, SimDuration::from_millis(5));
    }

    #[test]
    fn record_latency_matches_breakdown() {
        let r = record(100, 2000, 50);
        assert_eq!(r.response_latency(), r.breakdown.total());
    }

    #[test]
    fn summary_means() {
        let mut s = BreakdownSummary::new();
        s.add(&record(100, 0, 0));
        s.add(&record(300, 200, 100));
        let (e, c, q) = s.mean_components_ms();
        assert_eq!((e, c, q), (200.0, 100.0, 50.0));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn summary_percentiles() {
        let mut s = BreakdownSummary::new();
        for i in 1..=100 {
            s.add(&record(i, 0, 0));
        }
        assert!((s.total_percentile_ms(50.0) - 50.5).abs() < 1e-9);
    }
}
