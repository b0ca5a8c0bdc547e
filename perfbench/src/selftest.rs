//! Self-tests of the benchmark: every workload at a tiny horizon reports
//! every named metric with its unit, its spans reconcile, its digest is
//! deterministic and independent of tracing, the correctness gate trips on
//! tampered results, and BENCHMARK.json lists what the code reports.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use super::*;
use crate::metrics::Metric;
use fifer_metrics::SimDuration;

/// Each workload shrunk to a few simulated seconds of its own shape.
fn tiny(w: Workload) -> Spec {
    let secs = match w {
        Workload::Burst50k => 4,
        Workload::WikiBline | Workload::WikiFifer => 40,
    };
    w.spec().with_horizon(SimDuration::from_secs(secs))
}

fn assert_reports_all(out: &Outcome, table: &[Metric]) {
    let names: Vec<_> = out.figures.iter().map(|f| f.metric.name).collect();
    let want: Vec<_> = table.iter().map(|m| m.name).collect();
    assert_eq!(names, want, "every named metric, in table order");
    for f in out.figures.iter().chain(&out.seed_sensitive) {
        assert!(!f.metric.unit.is_empty(), "{} has a unit", f.metric.name);
        assert!(f.summary.median.is_finite(), "{}", f.metric.name);
        assert_eq!(f.summary.n, f.samples.len());
    }
    let line = result_line(out, true);
    for m in table {
        let entry = format!("\"{}\": {{\"value\": ", m.name);
        assert!(line.contains(&entry), "{} missing from {line}", m.name);
        assert!(line.contains(&format!("\"unit\": \"{}\"", m.unit)));
    }
}

#[test]
fn every_workload_reports_every_metric_deterministically() {
    for w in Workload::ALL {
        let spec = tiny(w);
        let timed = timed_runs(&spec, 7, Duration::ZERO, None);
        assert!(
            timed.problems.is_empty(),
            "{}: {:?}",
            w.name(),
            timed.problems
        );
        assert_eq!((timed.runs, timed.failed_ops), (1, 0));
        assert!(timed.ops > 0);
        assert_reports_all(&timed, &metrics::END_TO_END);
        let sensitive: Vec<_> = timed.seed_sensitive.iter().map(|f| f.metric).collect();
        assert_eq!(sensitive, metrics::SEED_SENSITIVE);

        let again = timed_runs(&spec, 7, Duration::ZERO, None);
        assert_eq!(
            timed.digest,
            again.digest,
            "{}: same seed, same digest",
            w.name()
        );
        let other = timed_runs(&spec, 8, Duration::ZERO, None);
        assert_ne!(timed.digest, other.digest, "{}: the seed matters", w.name());

        // the traced run pins its digest to the untraced one: a
        // tracing-dependent result fails its gate
        let traced = traced_run(&spec, 7, timed.digest);
        assert!(
            traced.problems.is_empty(),
            "{}: {:?}",
            w.name(),
            traced.problems
        );
        assert_eq!(traced.runs, 4);
        assert_reports_all(&traced, &metrics::PER_LAYER);
        let spans = traced.spans.as_ref().expect("traced run records spans");
        spans.well_formed().expect("spans reconcile");
        for layer in [
            "workloads.generate",
            "predict.pretrain",
            "sim.new",
            "sim.run",
            "metrics.headline",
            "metrics.to_json",
        ] {
            assert!(spans.self_times(1).contains_key(layer), "{layer} span");
        }
        for probe in ["cluster.select_node", "stage.dispatch", "predict.forecast"] {
            assert!(spans.self_times(2).contains_key(probe), "{probe} span");
        }
    }
}

#[test]
fn gate_trips_on_tampered_results() {
    let spec = tiny(Workload::WikiBline);
    let r = replay(&spec, 3, Instrument::default(), &mut Spans::disabled());
    assert!(
        gate::check(r.jobs, &r.result).is_empty(),
        "honest replay passes"
    );

    let mut lost = replay(&spec, 3, Instrument::default(), &mut Spans::disabled());
    lost.result.slo_whole_run =
        fifer_metrics::slo::SloAccountant::new(SimDuration::from_millis(1000));
    let problems = gate::check(lost.jobs, &lost.result);
    assert!(!problems.is_empty(), "lost completions are caught");
    assert_eq!(
        gate::failed_ops(lost.jobs, &lost.result, &problems),
        lost.jobs as u64
    );

    let mut dirty = replay(&spec, 3, Instrument::default(), &mut Spans::disabled());
    dirty.result.audit_violations.push("tampered".to_string());
    assert!(!gate::check(dirty.jobs, &dirty.result).is_empty());

    // a replay whose result changed fails the digest gate and counts all
    // of its jobs as failed
    let mut out = Outcome::default();
    let mut digests = DigestGate::new(None);
    let digest = gate::fnv1a(r.result.to_json().as_bytes());
    out.gate("honest", &r, digest, &mut digests);
    let mut bent = replay(&spec, 3, Instrument::default(), &mut Spans::disabled());
    bent.result.events_processed += 1;
    let bent_digest = gate::fnv1a(bent.result.to_json().as_bytes());
    out.gate("bent", &bent, bent_digest, &mut digests);
    assert_eq!(out.problems.len(), 1, "{:?}", out.problems);
    assert_eq!(out.failed_ops, bent.jobs as u64);
}

#[test]
fn continuity_digests_are_reproduced_at_full_size() {
    for w in [Workload::WikiBline, Workload::Burst50k] {
        let pinned = gate::continuity_digest(w);
        let out = timed_runs(&w.spec(), gate::CONTINUITY_SEED, Duration::ZERO, pinned);
        assert!(out.problems.is_empty(), "{}: {:?}", w.name(), out.problems);
        assert_eq!(out.digest, pinned);
    }
}

#[test]
fn benchmark_json_lists_what_the_code_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for m in metrics::END_TO_END.iter().chain(metrics::PER_LAYER.iter()) {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name,
            m.unit,
            m.better.word()
        );
        assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = doc.matches("\"better\":").count();
    assert_eq!(
        listed,
        metrics::END_TO_END.len() + metrics::PER_LAYER.len(),
        "BENCHMARK.json lists no metric the code does not report"
    );
    for w in Workload::ALL {
        assert!(doc.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}

#[test]
fn arguments_are_validated() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let ok = parse_args(&argv(
        "--workload burst_50k --seed 9 --seconds 10 --trace 1",
    ))
    .expect("valid arguments");
    assert_eq!(
        ok,
        Args {
            workload: Workload::Burst50k,
            seed: 9,
            seconds: 10,
            trace: true
        }
    );
    for bad in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload wiki_bline --seed x --seconds 1 --trace 0",
        "--workload wiki_bline --seed 1 --seconds 0 --trace 0",
        "--workload wiki_bline --seed 1 --seconds 1 --trace 2",
        "--workload wiki_bline --seed 1 --seconds 1",
        "--workload wiki_bline --seed 1 --seconds 1 --trace 0 --extra 1",
        "--workload",
    ] {
        assert!(parse_args(&argv(bad)).is_err(), "{bad}");
    }
}
