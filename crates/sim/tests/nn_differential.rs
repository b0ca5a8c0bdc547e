//! Differential tests for the two NN implementations: the flat-workspace
//! prediction stack (the default) must replay the original
//! per-step-allocating implementation exactly — byte-identical pre-trained
//! weights, forecasts, decision traces and headline results. The reference
//! run injects a policy built on the reference NN path
//! (`RmConfig::build_rm_with(.., true)`) through
//! `Simulation::with_resource_manager`.
//! The accumulation order of every kernel is preserved, so equality here
//! is `==` on floats, not a tolerance.

use fifer_core::rm::RmKind;
use fifer_metrics::SimDuration;
use fifer_predict::PredictorKind;
use fifer_sim::config::SimConfig;
use fifer_sim::driver::Simulation;
use fifer_sim::trace::SimEvent;
use fifer_workloads::{JobStream, PoissonTrace, WorkloadMix};

fn stream(rate: f64, secs: u64, seed: u64) -> JobStream {
    JobStream::generate(
        &PoissonTrace::new(rate),
        WorkloadMix::Medium,
        SimDuration::from_secs(secs),
        seed,
    )
}

/// A short historical rate series with enough points to form training
/// pairs (default 20 lags), so the neural predictors actually pre-train
/// and the simulation exercises trained-forecast scaling decisions.
fn pretrain_series() -> Vec<f64> {
    (0..44)
        .map(|i| 6.0 + 3.0 * (i as f64 * 0.3).sin())
        .collect()
}

/// The optimized run goes through the registry as usual; the reference
/// run injects a policy whose predictor runs the reference NN path.
fn simulation(cfg: SimConfig, s: &JobStream, reference: bool) -> Simulation<'_> {
    if reference {
        let rm = cfg.rm.build_rm_with(cfg.seed, &cfg.pretrain_series, true);
        Simulation::with_resource_manager(cfg, s, rm)
    } else {
        Simulation::new(cfg, s)
    }
}

/// Fifer drives its proactive scaling through the pre-trained LSTM; with
/// the same seed the optimized and reference NN paths must produce the
/// same run down to the last decision-trace event.
#[test]
fn fifer_run_is_bit_identical_across_nn_paths() {
    let s = stream(5.0, 60, 17);
    let run = |reference: bool| {
        let mut cfg = SimConfig::prototype(RmKind::Fifer.config(), 5.0);
        cfg.pretrain_series = pretrain_series();
        cfg.trace.capacity = 100_000;
        simulation(cfg, &s, reference).run_with_trace()
    };
    let (opt, opt_trace) = run(false);
    let (reference, ref_trace) = run(true);
    assert_eq!(
        opt.to_json(),
        reference.to_json(),
        "headline results must be byte-identical"
    );
    let opt_events: Vec<SimEvent> = opt_trace.events().copied().collect();
    let ref_events: Vec<SimEvent> = ref_trace.events().copied().collect();
    assert_eq!(opt_events, ref_events, "decision traces must match exactly");
    assert_eq!(opt_trace.spawns, ref_trace.spawns);
    assert_eq!(opt_trace.kills, ref_trace.kills);
}

/// The same equivalence holds for every RM kind — the classical-predictor
/// RMs have no NN path, the neural ones must be unaffected by the choice.
#[test]
fn all_rm_headlines_are_identical_across_nn_paths() {
    let s = stream(4.0, 30, 23);
    for kind in RmKind::ALL {
        let run = |reference: bool| {
            let mut cfg = SimConfig::prototype(kind.config(), 4.0);
            cfg.pretrain_series = pretrain_series();
            simulation(cfg, &s, reference).run().to_json()
        };
        assert_eq!(
            run(false),
            run(true),
            "{kind}: optimized NN path must replay the reference exactly"
        );
    }
}

/// Every neural predictor kind, pre-trained through the RM plumbing on
/// several seeds, forecasts bit-identically on both paths. This covers the
/// predictor-facing surface directly, independent of which kinds the
/// registry RMs happen to select.
#[test]
fn every_neural_predictor_kind_matches_across_seeds() {
    let series = pretrain_series();
    let feed: Vec<f64> = (0..12).map(|i| 5.0 + (i as f64 * 0.7).cos()).collect();
    for kind in PredictorKind::ALL.iter().filter(|k| k.is_neural()) {
        for seed in [1_u64, 42, 2024] {
            let mut opt = kind.build_with(seed, false);
            let mut reference = kind.build_with(seed, true);
            opt.pretrain(&series);
            reference.pretrain(&series);
            for &v in &feed {
                opt.observe(v);
                reference.observe(v);
                let (a, b) = (opt.forecast(), reference.forecast());
                assert_eq!(a, b, "{kind} seed {seed}: forecasts diverged");
            }
        }
    }
}
