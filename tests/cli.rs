//! End-to-end tests of the `fifer` CLI binary: argument handling, a real
//! run, and the save/replay round trip.

use std::process::Command;

fn fifer() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fifer"))
}

#[test]
fn help_exits_with_usage() {
    let out = fifer().arg("--help").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--rm"), "usage must document --rm: {err}");
    assert!(err.contains("--replay"));
    assert!(
        err.contains("hybridhist"),
        "usage must list hybridhist: {err}"
    );
    assert!(
        err.contains("--workload"),
        "usage must document --workload: {err}"
    );
    assert!(
        err.contains("--harvest"),
        "usage must document --harvest: {err}"
    );
    assert!(
        err.contains("--rightsize"),
        "usage must document --rightsize: {err}"
    );
}

#[test]
fn unknown_rm_is_a_named_error() {
    let out = fifer().args(["--rm", "nonsense"]).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown rm"), "{err}");
}

#[test]
fn invalid_early_exit_rejected() {
    let out = fifer()
        .args(["--early-exit", "1.5"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--early-exit"));
}

#[test]
fn small_run_prints_summary_row() {
    let out = fifer()
        .args([
            "--rm", "bline", "--rate", "5", "--secs", "30", "--seed", "3",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Bline"), "{stdout}");
    assert!(stdout.contains("jobs over 30s"));
}

#[test]
fn save_and_replay_round_trip() {
    let dir = std::env::temp_dir().join("fifer_cli_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let wl = dir.join("wl.csv");
    let summary = dir.join("sum.csv");

    let save = fifer()
        .args([
            "--rm", "bline", "--rate", "5", "--secs", "20", "--seed", "4",
        ])
        .arg("--save-workload")
        .arg(&wl)
        .arg("--out")
        .arg(&summary)
        .output()
        .expect("spawn");
    assert!(
        save.status.success(),
        "{}",
        String::from_utf8_lossy(&save.stderr)
    );
    assert!(wl.exists() && summary.exists());

    let replay = fifer()
        .args(["--rm", "bline", "--seed", "4"])
        .arg("--replay")
        .arg(&wl)
        .output()
        .expect("spawn");
    assert!(replay.status.success());
    let stdout = String::from_utf8_lossy(&replay.stdout);
    // the replayed workload carries the same job count as the saved one
    let saved_jobs = std::fs::read_to_string(&wl).expect("read").lines().count() - 1;
    assert!(
        stdout.contains(&format!("workload: {saved_jobs} jobs")),
        "replay should re-run the {saved_jobs} saved jobs: {stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn json_export_round_trips() {
    let dir = std::env::temp_dir().join("fifer_cli_json_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let json = dir.join("r.json");
    let out = fifer()
        .args([
            "--rm", "bline", "--rate", "5", "--secs", "20", "--seed", "6",
        ])
        .arg("--json")
        .arg(&json)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&json).expect("json written");
    assert!(body.contains("\"records\""));
    assert!(body.contains("\"total_spawns\""));
    assert!(body.contains("\"energy_joules\""));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tenants_flag_is_accepted() {
    let out = fifer()
        .args([
            "--rm",
            "fifer",
            "--rate",
            "4",
            "--secs",
            "15",
            "--tenants",
            "3",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("Fifer"));
}

#[test]
fn faulted_audited_run_reports_counters_and_stays_clean() {
    let out = fifer()
        .args([
            "--rm",
            "bline",
            "--rate",
            "5",
            "--secs",
            "20",
            "--seed",
            "3",
            "--faults",
            "seed=7,crash=0.05,outage=1@5+5",
            "--audit",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("faults:"), "{stdout}");
    assert!(stdout.contains("node outages"), "{stdout}");
    assert!(stdout.contains("no violations"), "{stdout}");
}

#[test]
fn harvest_rm_reports_utilization_and_stays_audit_clean() {
    let out = fifer()
        .args([
            "--rm", "harvest", "--rate", "5", "--secs", "60", "--seed", "7", "--audit",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Harvest"), "{stdout}");
    assert!(stdout.contains("utilization:"), "{stdout}");
    assert!(
        stdout.contains("harvested"),
        "a harvesting run must report harvested core-hours: {stdout}"
    );
    assert!(stdout.contains("no violations"), "{stdout}");
}

#[test]
fn harvest_flags_bolt_onto_any_rm() {
    let out = fifer()
        .args([
            "--rm",
            "bline",
            "--rate",
            "5",
            "--secs",
            "60",
            "--seed",
            "7",
            "--harvest",
            "--rightsize",
            "--audit",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Bline"), "{stdout}");
    assert!(
        stdout.contains("harvest spawns"),
        "--harvest on bline must actually lease idle headroom: {stdout}"
    );
    assert!(stdout.contains("rightsized"), "{stdout}");
    assert!(stdout.contains("no violations"), "{stdout}");
}

#[test]
fn hybridhist_on_azure_runs_end_to_end() {
    let out = fifer()
        .args([
            "--rm",
            "hybridhist",
            "--workload",
            "azure",
            "--rate",
            "20",
            "--secs",
            "60",
            "--seed",
            "7",
            "--audit",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("HybridHist"), "{stdout}");
    assert!(stdout.contains("utilization:"), "{stdout}");
    assert!(stdout.contains("no violations"), "{stdout}");
}

#[test]
fn azure_knobs_are_parsed_and_validated() {
    // a legal custom family shape runs...
    let out = fifer()
        .args([
            "--rm",
            "bline",
            "--workload",
            "azure",
            "--apps",
            "8",
            "--tail-exp",
            "1.1",
            "--trigger-mix",
            "40,30,20,10",
            "--rate",
            "10",
            "--secs",
            "30",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // ...an unbalanced trigger mix is a named usage error
    let bad = fifer()
        .args(["--workload", "azure", "--trigger-mix", "50,30,20,10"])
        .output()
        .expect("spawn");
    assert_eq!(bad.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("sum to 100"));
    // ...and so is an unknown family
    let unknown = fifer()
        .args(["--workload", "martian"])
        .output()
        .expect("spawn");
    assert_eq!(unknown.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("unknown workload"));
}

#[test]
fn malformed_fault_spec_is_rejected() {
    let out = fifer()
        .args(["--faults", "warp=0.5"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown fault key"), "{err}");
}

/// Runs the CLI on `args` and asserts a named error (`needle` in stderr)
/// with the usage exit code 2 — never a panic (exit 101).
fn assert_rejected(args: &[&str], needle: &str) {
    let out = fifer().args(args).output().expect("spawn");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
    assert!(
        err.contains(needle),
        "{args:?}: expected {needle:?} in {err}"
    );
    assert!(!err.contains("panicked"), "{args:?}: {err}");
}

#[test]
fn unparseable_numeric_values_are_named_errors() {
    for (flag, value, expects) in [
        ("--apps", "many", "a non-negative integer"),
        ("--tail-exp", "steep", "a number"),
        ("--secs", "abc", "a non-negative integer"),
        ("--rate", "x", "a number"),
        ("--seed", "-1", "a non-negative integer"),
        ("--warmup", "1.5", "a non-negative integer"),
        ("--tenants", "two", "a non-negative integer"),
        ("--early-exit", "half", "a number"),
    ] {
        assert_rejected(
            &[flag, value],
            &format!("error: {flag} expects {expects}, got \"{value}\""),
        );
    }
}

#[test]
fn numeric_flag_without_a_value_is_a_named_error() {
    assert_rejected(&["--secs"], "error: --secs needs a value");
}

#[test]
fn removed_engine_flags_are_unknown_arguments() {
    for flag in ["--shards", "--workers", "--lookahead"] {
        assert_rejected(&[flag, "2"], &format!("error: unknown argument \"{flag}\""));
    }
}

#[test]
fn zero_rate_is_a_named_error() {
    assert_rejected(&["--rate", "0"], "--rate must be a positive request rate");
}

#[test]
fn negative_rate_is_a_named_error() {
    assert_rejected(&["--rate", "-5"], "--rate must be a positive request rate");
}

#[test]
fn azure_with_zero_apps_is_a_named_error() {
    assert_rejected(
        &["--workload", "azure", "--apps", "0"],
        "--apps must be at least 1",
    );
}

#[test]
fn azure_with_negative_tail_exponent_is_a_named_error() {
    assert_rejected(
        &["--workload", "azure", "--tail-exp", "-1"],
        "--tail-exp must be positive",
    );
}

#[test]
fn out_of_range_crash_probability_is_a_named_error() {
    assert_rejected(&["--faults", "crash=1.5"], "crash_prob must be in [0, 1]");
}

#[test]
fn outage_on_a_missing_node_is_a_named_error() {
    assert_rejected(
        &["--faults", "outage=999@100+60"],
        "outage node 999 out of range",
    );
}

#[test]
fn decision_trace_under_a_missing_directory_is_a_named_error() {
    let dir = std::env::temp_dir().join("fifer_cli_missing_trace_dir");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("trace.jsonl");
    let path = path.to_str().expect("utf-8 temp path");
    let args = ["--rm", "bline", "--secs", "30", "--decision-trace", path];
    assert_rejected(&args, "--decision-trace: cannot write");
    // rejected before the replay: not even the workload line is printed
    let out = fifer().args(args).output().expect("spawn");
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        !dir.exists(),
        "a failed trace export must not create the directory"
    );
}

#[test]
fn decision_trace_is_exported_as_jsonl() {
    let path = std::env::temp_dir().join("fifer_cli_decision_trace.jsonl");
    let _ = std::fs::remove_file(&path);
    let out = fifer()
        .args(["--rm", "bline", "--secs", "30", "--decision-trace"])
        .arg(&path)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let jsonl = std::fs::read_to_string(&path).expect("trace written");
    assert!(!jsonl.is_empty(), "a bline run spawns containers");
    assert!(jsonl
        .lines()
        .all(|l| l.starts_with('{') && l.ends_with('}')));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn replay_of_missing_file_fails_cleanly() {
    let out = fifer()
        .args(["--replay", "/nonexistent/wl.csv"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot replay"));
}

#[test]
fn model_cache_cold_then_warm_round_trip() {
    let dir = std::env::temp_dir().join("fifer_cli_model_cache_test");
    let _ = std::fs::remove_dir_all(&dir);

    let run = |label: &str| -> String {
        let out = fifer()
            .args([
                "--rm",
                "fifer",
                "--rate",
                "5",
                "--secs",
                "120",
                "--seed",
                "11",
                "--model-cache",
                dir.to_str().expect("utf-8 temp dir"),
            ])
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{label}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    // first run trains cold and must say it stored a checkpoint
    let first = run("cold run");
    assert!(
        first.contains("trained cold, checkpoint stored"),
        "first run should report a cold start: {first}"
    );
    // an identical second run must warm-start from that checkpoint
    let second = run("warm run");
    assert!(
        second.contains("warm-started from model cache"),
        "second run should warm-start: {second}"
    );
    // warm-starting must not change the simulation: the summary rows
    // (slo/containers/latency percentiles) are byte-identical
    let row = |s: &str| {
        s.lines()
            .find(|l| l.trim_start().starts_with("Fifer") && !l.contains("predictor"))
            .map(str::to_owned)
    };
    assert_eq!(row(&first), row(&second), "warm start changed the results");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_model_cache_is_a_clean_error() {
    let out = fifer()
        .args(["--rm", "fifer", "--model-cache", "/proc/nonexistent/cache"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open model cache"));
}
