//! Seeded, repeatable benchmark of the Fifer simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <wiki_bline|burst_50k|wiki_fifer> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` replays the workload back to back for `--seconds` and
//! reports every end-to-end metric as the median over the replays.
//! `--trace 1` runs the separate traced run: one untraced replay, one
//! span-traced replay, one with the invariant auditor on and one with the
//! decision trace on, plus per-call probes of placement, dispatch and
//! forecasting, and reports the per-layer metrics. Every replay passes the
//! correctness gate ([`gate`]). The last line of standard output is one
//! JSON object: `correct`, `attempted` (jobs submitted), `failed` (jobs
//! failed) and `metrics` (`{"name": {"value": median, "unit": ...}}`); a
//! full report with quartiles, run count and host lands in
//! `perfbench/out/`. Exit code 1 means a correctness check failed, 2 a
//! bad argument.

mod gate;
mod host;
mod layers;
mod metrics;
mod run;
#[cfg(test)]
mod selftest;
mod spans;
mod stats;
mod workload;

use gate::DigestGate;
use host::Host;
use metrics::{Figure, Samples};
use run::{replay, Instrument, Replay};
use spans::Spans;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{pretrain_series, Spec, Workload};

/// Where reports and span files are written, relative to the checkout.
const OUT_DIR: &str = "perfbench/out";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--seed wants an integer, got {value:?}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &u64| (1..=3600).contains(&s))
                        .ok_or_else(|| format!("--seconds wants 1..=3600, got {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a benchmark invocation produced.
#[derive(Debug, Default)]
struct Outcome {
    /// Replays run.
    runs: usize,
    /// Jobs submitted over all replays.
    ops: u64,
    /// Jobs failed over all replays.
    failed_ops: u64,
    /// Every failed check, labelled by replay.
    problems: Vec<String>,
    /// Reported metrics, in table order: the end-to-end or per-layer
    /// table of BENCHMARK.json.
    figures: Vec<Figure>,
    /// Simulated metrics that are reported but carry no bound, because
    /// they swing between seeds (see [`metrics::SEED_SENSITIVE`]).
    seed_sensitive: Vec<Figure>,
    /// The digest every replay agreed on.
    digest: Option<u64>,
    /// Recorded spans (traced run only).
    spans: Option<Spans>,
}

impl Outcome {
    /// Applies the correctness gate to one replay and its digest.
    fn gate(&mut self, label: &str, r: &Replay, digest: u64, digests: &mut DigestGate) {
        let mut problems = gate::check(r.jobs, &r.result);
        problems.extend(digests.check(digest));
        self.runs += 1;
        self.ops += r.jobs as u64;
        self.failed_ops += gate::failed_ops(r.jobs, &r.result, &problems);
        self.problems
            .extend(problems.into_iter().map(|p| format!("{label}: {p}")));
    }
}

/// The pinned digest for this invocation: only the full-size workload at
/// the continuity seed has one.
fn pinned_digest(args: &Args) -> Option<u64> {
    (args.seed == gate::CONTINUITY_SEED)
        .then(|| gate::continuity_digest(args.workload))
        .flatten()
}

/// Timed runs: back-to-back untraced replays for `budget`, at least one.
fn timed_runs(spec: &Spec, seed: u64, budget: Duration, pinned: Option<u64>) -> Outcome {
    let mut out = Outcome::default();
    let mut digests = DigestGate::new(pinned);
    let mut samples = Samples::default();
    let start = Instant::now();
    while out.runs == 0 || start.elapsed() < budget {
        let r = replay(spec, seed, Instrument::default(), &mut Spans::disabled());
        let digest = gate::fnv1a(r.result.to_json().as_bytes());
        out.gate(&format!("replay {}", out.runs), &r, digest, &mut digests);
        samples.push(&metrics::end_to_end(&r));
    }
    out.figures = samples.summarize(&metrics::END_TO_END);
    out.seed_sensitive = samples.summarize(&metrics::SEED_SENSITIVE);
    out.digest = digests.digest();
    out
}

/// The traced run; see the crate docs.
fn traced_run(spec: &Spec, seed: u64, pinned: Option<u64>) -> Outcome {
    let mut out = Outcome::default();
    let mut digests = DigestGate::new(pinned);
    let mut spans = Spans::enabled();
    let mut fig = BTreeMap::new();

    let plain = replay(spec, seed, Instrument::default(), &mut Spans::disabled());
    let digest = gate::fnv1a(plain.result.to_json().as_bytes());
    out.gate("untraced replay", &plain, digest, &mut digests);

    spans.set_run(1);
    let traced = replay(spec, seed, Instrument::default(), &mut spans);
    let json = spans.leaf("metrics.to_json", || traced.result.to_json());
    out.gate(
        "traced replay",
        &traced,
        gate::fnv1a(json.as_bytes()),
        &mut digests,
    );
    let selves = spans.self_times(1);
    let layer = |name: &str| selves.get(name).copied().unwrap_or(0.0);
    let events = traced.result.events_processed;
    fig.insert("workloads.generate_s", layer("workloads.generate"));
    fig.insert("sim.pretrain_series_s", layer("sim.pretrain_series"));
    fig.insert("predict.pretrain_s", layer("predict.pretrain"));
    fig.insert("predict.series_len", traced.series_len as f64);
    fig.insert("sim.new_s", layer("sim.new"));
    fig.insert("sim.run_s", layer("sim.run"));
    fig.insert("sim.events", events as f64);
    fig.insert(
        "sim.ns_per_event",
        layer("sim.run") * 1e9 / events.max(1) as f64,
    );
    fig.insert("metrics.headline_s", layer("metrics.headline"));
    fig.insert("metrics.to_json_s", layer("metrics.to_json"));
    fig.insert("metrics.json_mb", json.len() as f64 / (1 << 20) as f64);
    fig.insert("spans.overhead_s", traced.wall_s - plain.wall_s);
    drop(json);
    if let Err(e) = reconcile(&spans, &traced) {
        out.problems.push(format!("traced replay: {e}"));
    }

    let res = &traced.result;
    fig.insert("stage.peak_queue_depth", res.peak_queue_depth as f64);
    fig.insert("lifecycle.spawns", res.total_spawns as f64);
    fig.insert("lifecycle.failed_spawns", res.failed_spawns as f64);
    fig.insert(
        "lifecycle.blocking_ratio",
        res.blocking_cold_starts as f64 / res.total_spawns.max(1) as f64,
    );
    fig.insert("lifecycle.tasks_per_container", res.overall_rpc());
    fig.insert(
        "accounting.utilization_pct",
        100.0 * res.used_core_hours / res.alloc_core_hours.max(f64::MIN_POSITIVE),
    );

    // probes at the sizes the replay reached
    spans.set_run(2);
    let stream = spec.generate(seed);
    let cfg = spec.config(&stream, seed);
    let series = pretrain_series(&cfg, &stream);
    drop(stream);
    let peak_live = res
        .live_containers
        .points()
        .iter()
        .fold(0.0f64, |m, &(_, v)| m.max(v)) as usize;
    let depth = res.peak_queue_depth as usize;
    fig.insert(
        "cluster.select_ns",
        spans.leaf("cluster.select_node", || {
            layers::select_ns(&cfg, cfg.rm.placement, peak_live)
        }),
    );
    fig.insert(
        "stage.dispatch_ns",
        spans.leaf("stage.dispatch", || {
            layers::dispatch_ns(&cfg.rm, depth, seed)
        }),
    );
    fig.insert(
        "predict.forecast_ns",
        spans.leaf("predict.forecast", || {
            layers::forecast_ns(&cfg.rm, cfg.seed, &series)
        }),
    );
    let traced_replay_s = traced.replay_s;
    drop(traced);

    let audited = replay(
        spec,
        seed,
        Instrument {
            audit: true,
            ..Instrument::default()
        },
        &mut Spans::disabled(),
    );
    let digest = gate::fnv1a(audited.result.to_json().as_bytes());
    out.gate("audited replay", &audited, digest, &mut digests);
    let audited_replay_s = audited.replay_s;
    fig.insert("audit.overhead_s", audited_replay_s - plain.replay_s);
    fig.insert("audit.checks", audited.result.audit_checks as f64);
    fig.insert(
        "audit.violations",
        audited.result.audit_violations.len() as f64,
    );
    drop(audited);

    let decisions = replay(
        spec,
        seed,
        Instrument {
            decision_trace: true,
            ..Instrument::default()
        },
        &mut Spans::disabled(),
    );
    let digest = gate::fnv1a(decisions.result.to_json().as_bytes());
    out.gate("decision-traced replay", &decisions, digest, &mut digests);
    fig.insert("trace.overhead_s", decisions.replay_s - plain.replay_s);
    fig.insert("trace.events", decisions.decision_events as f64);
    println!(
        "replay seconds: untraced {:.4}, span-traced {:.4}, audited {:.4}, decision-traced {:.4}",
        plain.replay_s, traced_replay_s, audited_replay_s, decisions.replay_s
    );

    let mut samples = Samples::default();
    samples.push(&fig);
    out.figures = samples.summarize(&metrics::PER_LAYER);
    out.digest = digests.digest();
    out.spans = Some(spans);
    out
}

/// Checks that the traced replay's spans reconcile: the tree is well
/// formed and the layers' self times add up to the replay's wall clock.
fn reconcile(spans: &Spans, traced: &Replay) -> Result<(), String> {
    spans.well_formed()?;
    let pipeline: f64 = spans
        .self_times(1)
        .iter()
        .filter(|(name, _)| **name != "metrics.to_json")
        .map(|(_, s)| s)
        .sum();
    let gap = (pipeline - traced.wall_s).abs();
    if gap > 0.005 + 0.01 * traced.wall_s {
        return Err(format!(
            "span self times sum to {pipeline:.6} s but the replay took {:.6} s",
            traced.wall_s
        ));
    }
    Ok(())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The full report: host, run count, every metric's median, quartiles
/// and direction, and the failed checks.
fn report_json(args: &Args, host: &Host, out: &Outcome) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"workload\": {},", json_str(args.workload.name()));
    let _ = writeln!(s, "  \"seed\": {},", args.seed);
    let _ = writeln!(s, "  \"trace\": {},", u8::from(args.trace));
    let _ = writeln!(s, "  \"seconds\": {},", args.seconds);
    let _ = writeln!(s, "  \"runs\": {},", out.runs);
    let _ = writeln!(
        s,
        "  \"host\": {{ \"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {} }},",
        host.nproc,
        json_str(&host.cpu),
        json_str(&host.rustc),
        json_str(&host.commit)
    );
    let _ = writeln!(s, "  \"ops\": {},", out.ops);
    let _ = writeln!(s, "  \"failed_ops\": {},", out.failed_ops);
    let digest = out
        .digest
        .map_or("null".to_string(), |d| format!("\"{d:016x}\""));
    let _ = writeln!(s, "  \"digest\": {digest},");
    let problems: Vec<String> = out.problems.iter().map(|p| json_str(p)).collect();
    let _ = writeln!(s, "  \"problems\": [{}],", problems.join(", "));
    for (key, figures) in [
        ("metrics", &out.figures),
        ("seed_sensitive", &out.seed_sensitive),
    ] {
        let _ = writeln!(s, "  \"{key}\": {{");
        for (i, f) in figures.iter().enumerate() {
            let v = &f.summary;
            let samples: Vec<String> = f.samples.iter().map(|x| x.to_string()).collect();
            let _ = writeln!(
                s,
                "    \"{}\": {{ \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"unit\": \"{}\", \"better\": \"{}\", \"samples\": [{}] }}{}",
                f.metric.name,
                v.median,
                v.q1,
                v.q3,
                v.n,
                f.metric.unit,
                f.metric.better.word(),
                samples.join(", "),
                if i + 1 < figures.len() { "," } else { "" }
            );
        }
        s.push_str(if key == "metrics" { "  },\n" } else { "  }\n" });
    }
    s.push_str("}\n");
    s
}

/// The machine-readable last line of standard output.
fn result_line(out: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = out
        .figures
        .iter()
        .map(|f| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                f.metric.name, f.summary.median, f.metric.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.ops,
        out.failed_ops,
        metrics.join(", ")
    )
}

fn write_outputs(args: &Args, report: &str, out: &Outcome) -> std::io::Result<String> {
    std::fs::create_dir_all(OUT_DIR)?;
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(format!("{stem}.json"), report)?;
    if let Some(spans) = &out.spans {
        std::fs::write(format!("{stem}-spans.jsonl"), spans.to_jsonl())?;
    }
    Ok(stem)
}

fn print_figure(f: &Figure, note: &str) {
    let v = &f.summary;
    println!(
        "{:<30} {:>10} {:>7} {:>16.6} {:>16.6} {:>16.6} {:>4}{note}",
        f.metric.name,
        f.metric.unit,
        f.metric.better.word(),
        v.median,
        v.q1,
        v.q3,
        v.n
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <wiki_bline|burst_50k|wiki_fifer> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let host = Host::probe();
    let spec = args.workload.spec();
    let pinned = pinned_digest(&args);
    let mut out = if args.trace {
        traced_run(&spec, args.seed, pinned)
    } else {
        timed_runs(&spec, args.seed, Duration::from_secs(args.seconds), pinned)
    };
    if let Err(e) = gate::burst_is_the_twin() {
        out.problems.push(e);
    }
    let non_finite: Vec<_> = out
        .figures
        .iter()
        .chain(&out.seed_sensitive)
        .filter(|f| f.samples.iter().any(|v| !v.is_finite()))
        .map(|f| f.metric.name)
        .collect();
    if !non_finite.is_empty() {
        out.problems
            .push(format!("non-finite figures: {non_finite:?}"));
    }
    let correct = out.problems.is_empty();
    if !correct {
        out.failed_ops = out.ops;
    }

    println!(
        "# perfbench workload={} seed={} trace={} runs={} nproc={} cpu={:?} rustc={:?} commit={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        out.runs,
        host.nproc,
        host.cpu,
        host.rustc,
        host.commit
    );
    println!(
        "{:<30} {:>10} {:>7} {:>16} {:>16} {:>16} {:>4}",
        "metric", "unit", "better", "median", "q1", "q3", "n"
    );
    for f in &out.figures {
        print_figure(f, "");
    }
    for f in &out.seed_sensitive {
        print_figure(f, "  (simulated, seed-sensitive: no bound)");
    }
    println!(
        "ops={} failed_ops={} digest={}",
        out.ops,
        out.failed_ops,
        out.digest
            .map_or("none".to_string(), |d| format!("{d:016x}"))
    );
    for p in &out.problems {
        println!("FAILED CHECK: {p}");
    }
    let report = report_json(&args, &host, &out);
    match write_outputs(&args, &report, &out) {
        Ok(stem) => println!("report: {stem}.json"),
        Err(e) => eprintln!("warning: could not write the report under {OUT_DIR}: {e}"),
    }
    println!("{}", result_line(&out, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
