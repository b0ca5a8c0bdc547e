//! Applications (function chains) and workload mixes — paper Tables 4–5.
//!
//! Each application is a linear chain of microservices. The paper fixes the
//! SLO at 1000 ms and reports the measured average slack per application in
//! Table 4; the gap between `SLO - sum(exec)` and the reported slack is the
//! per-chain overhead (function transitions over the event bus, scheduling,
//! data-store access). We back that overhead out of Table 4 and spread it
//! evenly across stage transitions so the chain reproduces the paper's slack
//! numbers by construction.

use crate::catalog::Microservice;
use fifer_metrics::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Default SLO: the paper fixes response latency at 1000 ms, the maximum of
/// 5× execution time across the applications (§4.1).
pub const DEFAULT_SLO: SimDuration = SimDuration::from_millis(1000);

/// One of the four microservice-chain applications evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Application {
    /// Face Security: FACED → FACER (Table 4, slack 788 ms).
    FaceSecurity,
    /// Image recognition: IMC → NLP → QA (slack 700 ms).
    Img,
    /// Intelligent Personal Assistant: ASR → NLP → QA (slack 697 ms).
    Ipa,
    /// Detect Fatigue: HS → AP → FACED → FACER (slack 572 ms).
    DetectFatigue,
}

impl Application {
    /// All four applications in Table 4 order.
    pub const ALL: [Application; 4] = [
        Application::FaceSecurity,
        Application::Img,
        Application::Ipa,
        Application::DetectFatigue,
    ];

    /// The microservice chain for this application (Table 4).
    pub fn chain(self) -> &'static [Microservice] {
        use Microservice::*;
        match self {
            Application::FaceSecurity => &[Faced, Facer],
            Application::Img => &[Imc, Nlp, Qa],
            Application::Ipa => &[Asr, Nlp, Qa],
            Application::DetectFatigue => &[Hs, Ap, Faced, Facer],
        }
    }

    /// The measured average slack from Table 4 (at the 1000 ms SLO).
    pub fn table4_slack(self) -> SimDuration {
        let ms = match self {
            Application::FaceSecurity => 788,
            Application::Img => 700,
            Application::Ipa => 697,
            Application::DetectFatigue => 572,
        };
        SimDuration::from_millis(ms)
    }

    /// Builds the full runtime specification at the default 1000 ms SLO.
    pub fn spec(self) -> AppSpec {
        self.spec_with_slo(DEFAULT_SLO)
    }

    /// Builds the specification at a custom SLO (used by the SLO-sensitivity
    /// ablation). Chain overhead is held at its Table 4 calibration.
    pub fn spec_with_slo(self, slo: SimDuration) -> AppSpec {
        let stages: Vec<StageSpec> = self
            .chain()
            .iter()
            .map(|&m| StageSpec {
                microservice: m,
                mean_exec: m.mean_exec_time(),
            })
            .collect();
        let exec_sum: SimDuration = stages
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.mean_exec);
        // Overhead calibrated from Table 4 at the default SLO:
        // overhead = SLO_default - slack_table4 - sum(exec).
        let overhead = DEFAULT_SLO
            .saturating_sub(self.table4_slack())
            .saturating_sub(exec_sum);
        let transitions = (stages.len().max(2) - 1) as u64;
        AppSpec {
            app: self,
            stages,
            slo,
            transition_overhead: overhead / transitions,
        }
    }

    /// The application's display name, as the paper writes it (what
    /// `Display` prints and `FromStr` parses). Static, so per-request
    /// records can carry it without allocating.
    pub fn name(self) -> &'static str {
        match self {
            Application::FaceSecurity => "FaceSecurity",
            Application::Img => "IMG",
            Application::Ipa => "IPA",
            Application::DetectFatigue => "DetectFatigue",
        }
    }
}

impl fmt::Display for Application {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One stage of a chain: a microservice plus its profiled mean execution
/// time (the offline MET estimate, §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageSpec {
    /// The microservice executing at this stage.
    pub microservice: Microservice,
    /// Profiled mean execution time at reference input size.
    pub mean_exec: SimDuration,
}

/// Full runtime specification of an application: its chain, SLO, and the
/// calibrated per-transition overhead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppSpec {
    app: Application,
    stages: Vec<StageSpec>,
    slo: SimDuration,
    transition_overhead: SimDuration,
}

impl AppSpec {
    /// Which application this specifies.
    pub fn application(&self) -> Application {
        self.app
    }

    /// The stages in chain order.
    pub fn stages(&self) -> &[StageSpec] {
        &self.stages
    }

    /// Number of stages in the chain.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// The response-latency SLO for this application.
    pub fn slo(&self) -> SimDuration {
        self.slo
    }

    /// Event-bus / scheduling overhead charged per stage transition
    /// (`num_stages - 1` transitions plus ingress = `num_stages` charges is
    /// *not* used; the paper charges transitions between function pairs).
    pub fn transition_overhead(&self) -> SimDuration {
        self.transition_overhead
    }

    /// Sum of mean stage execution times.
    pub fn total_exec(&self) -> SimDuration {
        self.stages
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.mean_exec)
    }

    /// Total non-exec overhead across the whole chain.
    pub fn total_overhead(&self) -> SimDuration {
        self.transition_overhead * (self.stages.len().max(2) - 1) as u64
    }

    /// End-to-end runtime with zero queuing: exec + transition overheads.
    pub fn total_runtime(&self) -> SimDuration {
        self.total_exec() + self.total_overhead()
    }

    /// Available slack: `SLO - total_runtime` (§2.2.2 "difference between
    /// runtime and response latency"), saturating at zero for tight SLOs.
    pub fn total_slack(&self) -> SimDuration {
        self.slo.saturating_sub(self.total_runtime())
    }
}

/// The three workload mixes of Table 5, named by decreasing total available
/// slack ("Heavy" = least slack).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum WorkloadMix {
    /// IPA + Detect-Fatigue (least slack).
    Heavy,
    /// IPA + IMG.
    Medium,
    /// IMG + Face-Security (most slack).
    Light,
}

impl WorkloadMix {
    /// All mixes in Table 5 order.
    pub const ALL: [WorkloadMix; 3] = [WorkloadMix::Heavy, WorkloadMix::Medium, WorkloadMix::Light];

    /// The two applications making up this mix (Table 5).
    pub fn applications(self) -> [Application; 2] {
        match self {
            WorkloadMix::Heavy => [Application::Ipa, Application::DetectFatigue],
            WorkloadMix::Medium => [Application::Ipa, Application::Img],
            WorkloadMix::Light => [Application::Img, Application::FaceSecurity],
        }
    }

    /// Expected fraction of this mix's jobs that pass through `ms`, under
    /// the 50/50 application split the stream generator uses. A
    /// microservice appearing in both chains has share 1.0.
    pub fn stage_share(self, ms: crate::catalog::Microservice) -> f64 {
        self.applications()
            .iter()
            .map(|a| 0.5 * a.chain().iter().filter(|&&m| m == ms).count() as f64)
            .sum()
    }

    /// Mean of the two applications' Table 4 slacks; the mixes are ordered
    /// by increasing value of this quantity.
    pub fn average_slack(self) -> SimDuration {
        let [a, b] = self.applications();
        (a.table4_slack() + b.table4_slack()) / 2
    }

    /// The chain assigned to the `rank`-th most-invoked app of an
    /// Azure-style family ([`crate::azure`]) drawn from this mix: ranks
    /// alternate between the mix's two chains, so both applications appear
    /// at every popularity level and the head of the heavy tail never
    /// collapses onto a single chain.
    pub fn application_for_rank(self, rank: usize) -> Application {
        self.applications()[rank % 2]
    }
}

impl fmt::Display for WorkloadMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadMix::Heavy => f.write_str("Heavy"),
            WorkloadMix::Medium => f.write_str("Medium"),
            WorkloadMix::Light => f.write_str("Light"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_assignment_alternates_both_chains() {
        for mix in WorkloadMix::ALL {
            let [a, b] = mix.applications();
            for rank in 0..8 {
                let want = if rank % 2 == 0 { a } else { b };
                assert_eq!(mix.application_for_rank(rank), want, "{mix} #{rank}");
            }
        }
    }

    #[test]
    fn chains_match_table4() {
        use Microservice::*;
        assert_eq!(Application::FaceSecurity.chain(), &[Faced, Facer]);
        assert_eq!(Application::Img.chain(), &[Imc, Nlp, Qa]);
        assert_eq!(Application::Ipa.chain(), &[Asr, Nlp, Qa]);
        assert_eq!(Application::DetectFatigue.chain(), &[Hs, Ap, Faced, Facer]);
    }

    #[test]
    fn slack_reproduces_table4_within_rounding() {
        for app in Application::ALL {
            let spec = app.spec();
            let got = spec.total_slack().as_millis_f64();
            let want = app.table4_slack().as_millis_f64();
            // overhead division across transitions loses < 1 ms to rounding
            assert!(
                (got - want).abs() < 1.0,
                "{app}: computed slack {got} vs Table 4 {want}"
            );
        }
    }

    #[test]
    fn heavy_mix_has_least_slack() {
        let h = WorkloadMix::Heavy.average_slack();
        let m = WorkloadMix::Medium.average_slack();
        let l = WorkloadMix::Light.average_slack();
        assert!(h < m && m < l, "slack ordering Heavy < Medium < Light");
    }

    #[test]
    fn mixes_match_table5() {
        assert_eq!(
            WorkloadMix::Heavy.applications(),
            [Application::Ipa, Application::DetectFatigue]
        );
        assert_eq!(
            WorkloadMix::Medium.applications(),
            [Application::Ipa, Application::Img]
        );
        assert_eq!(
            WorkloadMix::Light.applications(),
            [Application::Img, Application::FaceSecurity]
        );
    }

    #[test]
    fn detect_fatigue_stage1_dominates() {
        // Figure 3a: HS is ~81% of Detect-Fatigue's total execution time.
        let spec = Application::DetectFatigue.spec();
        let total = spec.total_exec().as_millis_f64();
        let hs = spec.stages()[0].mean_exec.as_millis_f64();
        let frac = hs / total;
        assert!(
            (0.75..=0.85).contains(&frac),
            "HS fraction {frac} should be ~0.81"
        );
    }

    #[test]
    fn custom_slo_changes_slack_not_overhead() {
        let base = Application::Ipa.spec();
        let tight = Application::Ipa.spec_with_slo(SimDuration::from_millis(500));
        assert_eq!(base.transition_overhead(), tight.transition_overhead());
        assert!(tight.total_slack() < base.total_slack());
    }

    #[test]
    fn slack_saturates_for_impossible_slo() {
        let spec = Application::DetectFatigue.spec_with_slo(SimDuration::from_millis(100));
        assert_eq!(spec.total_slack(), SimDuration::ZERO);
    }

    #[test]
    fn runtime_is_exec_plus_overhead() {
        let spec = Application::Img.spec();
        assert_eq!(
            spec.total_runtime(),
            spec.total_exec() + spec.total_overhead()
        );
    }

    #[test]
    fn stage_share_reflects_the_mix() {
        use crate::catalog::Microservice;
        // Medium = IPA + IMG: QA is in both chains, ASR only in IPA
        assert_eq!(WorkloadMix::Medium.stage_share(Microservice::Qa), 1.0);
        assert_eq!(WorkloadMix::Medium.stage_share(Microservice::Asr), 0.5);
        assert_eq!(WorkloadMix::Medium.stage_share(Microservice::Hs), 0.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(Application::Ipa.to_string(), "IPA");
        assert_eq!(WorkloadMix::Light.to_string(), "Light");
    }
}
