//! Service-level-objective accounting.
//!
//! The paper's headline quality metric is the percentage of requests whose
//! end-to-end response latency exceeds the SLO (fixed at 1000 ms, §4.1).
//! [`SloAccountant`] tracks violations overall and per application.

use crate::breakdown::RequestRecord;
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Tracks SLO compliance over a stream of completed requests.
///
/// # Example
///
/// ```
/// use fifer_metrics::{SloAccountant, SimDuration};
///
/// let mut acc = SloAccountant::new(SimDuration::from_millis(1000));
/// acc.observe("IPA", SimDuration::from_millis(800));
/// acc.observe("IPA", SimDuration::from_millis(1200));
/// assert_eq!(acc.violation_fraction(), 0.5);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SloAccountant {
    slo: SimDuration,
    total: u64,
    violations: u64,
    per_app: BTreeMap<String, (u64, u64)>,
}

impl SloAccountant {
    /// Creates an accountant for the given SLO.
    pub fn new(slo: SimDuration) -> Self {
        SloAccountant {
            slo,
            total: 0,
            violations: 0,
            per_app: BTreeMap::new(),
        }
    }

    /// The SLO being enforced.
    pub fn slo(&self) -> SimDuration {
        self.slo
    }

    /// Observes one completed request; returns whether it violated the SLO.
    /// Allocates only on an application's first observation.
    pub fn observe(&mut self, app: &str, latency: SimDuration) -> bool {
        let violated = latency > self.slo;
        let hit = u64::from(violated);
        self.total += 1;
        self.violations += hit;
        match self.per_app.get_mut(app) {
            Some(e) => *e = (e.0 + 1, e.1 + hit),
            None => {
                self.per_app.insert(app.to_string(), (1, hit));
            }
        }
        violated
    }

    /// Observes a full [`RequestRecord`].
    pub fn observe_record(&mut self, r: &RequestRecord) -> bool {
        self.observe(r.app, r.response_latency())
    }

    /// Total requests observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Total violations observed.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Fraction of requests violating the SLO in `[0, 1]` (0 when empty).
    pub fn violation_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.violations as f64 / self.total as f64
        }
    }

    /// Violation fraction for one application (0 when unseen).
    pub fn app_violation_fraction(&self, app: &str) -> f64 {
        match self.per_app.get(app) {
            Some(&(n, v)) if n > 0 => v as f64 / n as f64,
            _ => 0.0,
        }
    }

    /// Applications seen, in sorted order.
    pub fn apps(&self) -> impl Iterator<Item = &str> {
        self.per_app.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn empty_has_zero_violation_fraction() {
        let acc = SloAccountant::new(ms(1000));
        assert_eq!(acc.violation_fraction(), 0.0);
        assert_eq!(acc.total(), 0);
    }

    #[test]
    fn latency_equal_to_slo_is_compliant() {
        let mut acc = SloAccountant::new(ms(1000));
        assert!(!acc.observe("IMG", ms(1000)));
        assert!(acc.observe("IMG", ms(1001)));
        assert_eq!(acc.violations(), 1);
    }

    #[test]
    fn per_app_accounting() {
        let mut acc = SloAccountant::new(ms(1000));
        acc.observe("IPA", ms(500));
        acc.observe("IPA", ms(1500));
        acc.observe("IMG", ms(100));
        assert_eq!(acc.app_violation_fraction("IPA"), 0.5);
        assert_eq!(acc.app_violation_fraction("IMG"), 0.0);
        assert_eq!(acc.app_violation_fraction("UNSEEN"), 0.0);
        let apps: Vec<&str> = acc.apps().collect();
        assert_eq!(apps, vec!["IMG", "IPA"]);
    }

    #[test]
    fn observe_record_uses_response_latency() {
        use crate::breakdown::LatencyBreakdown;
        use crate::time::SimTime;
        let mut acc = SloAccountant::new(ms(100));
        let r = RequestRecord {
            job_id: 0,
            app: "FaceSecurity",
            submitted: SimTime::ZERO,
            completed: SimTime::from_millis(150),
            breakdown: LatencyBreakdown::new(),
            slo_violated: true,
        };
        assert!(acc.observe_record(&r));
        assert_eq!(acc.violation_fraction(), 1.0);
    }
}
