//! End-to-end exit-code contract of `deeppower bench-diff` — the CI
//! perf-gate depends on it: zero against a clean candidate, non-zero
//! the moment any gated metric regresses beyond tolerance. It gates
//! both the fleet bench's artifact (`BENCH_fleet.json`) and perfbench's
//! result lines (`BENCH_perfbench.json`).

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn deeppower(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_deeppower"))
        .args(args)
        .output()
        .expect("spawn deeppower binary")
}

fn repo_root() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // workspace root
    p
}

fn baseline_path() -> String {
    committed("BENCH_fleet.json")
}

fn perfbench_path() -> String {
    committed("BENCH_perfbench.json")
}

fn committed(name: &str) -> String {
    repo_root().join(name).to_str().unwrap().to_string()
}

fn write_temp(name: &str, contents: &str) -> String {
    let dir = std::env::temp_dir().join("deeppower-bench-diff-gate");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path.to_str().unwrap().to_string()
}

/// Parse a committed baseline, apply `mutate`, write the result to a
/// temp candidate file. Mutating through the JSON tree (rather than
/// string replacement) keeps these tests alive across re-baselines.
fn mutated_candidate(baseline: &str, name: &str, mutate: impl FnOnce(&mut Value)) -> String {
    let text = std::fs::read_to_string(baseline).unwrap();
    let mut v: Value = serde_json::from_str(&text).expect("committed baseline parses");
    mutate(&mut v);
    write_temp(name, &serde_json::to_string_pretty(&v).unwrap())
}

/// `fleet[0].wall_s` of the parsed artifact, as a mutable slot.
fn first_wall_s(v: &mut Value) -> &mut Value {
    v.get_mut("fleet")
        .and_then(|f| f.at_mut(0))
        .and_then(|row| row.get_mut("wall_s"))
        .expect("baseline has fleet[0].wall_s")
}

/// `bench-diff` of `candidate` against the committed perfbench baseline
/// at the default tolerance, as CI runs it.
fn diff_perfbench(candidate: &str) -> Output {
    deeppower(&[
        "bench-diff",
        "--baseline",
        &perfbench_path(),
        "--candidate",
        candidate,
    ])
}

/// The committed perfbench baseline's `(run, result line)` pairs.
fn perfbench_runs() -> Vec<(String, Value)> {
    let text = std::fs::read_to_string(perfbench_path()).unwrap();
    match serde_json::from_str(&text).expect("committed perfbench baseline parses") {
        Value::Object(runs) => runs,
        other => panic!("perfbench baseline is not an object: {other:?}"),
    }
}

/// The value of metric `name` in `run` of a parsed perfbench artifact.
fn metric<'a>(v: &'a mut Value, run: &str, name: &str) -> &'a mut Value {
    v.get_mut(run)
        .and_then(|r| r.get_mut("metrics"))
        .and_then(|m| m.get_mut(name))
        .and_then(|m| m.get_mut("value"))
        .unwrap_or_else(|| panic!("{run} has no {name}"))
}

/// Assert the gate failed on `candidate` and flagged the leaf `path`.
fn assert_flags(candidate: &str, path: &str) {
    let out = diff_perfbench(candidate);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "{path} must fail the gate: {stdout}");
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with(&format!("{path} ")) && l.contains("REGRESSION")),
        "{path} not flagged: {stdout}"
    );
}

#[test]
fn committed_baseline_passes_against_itself() {
    let baseline = baseline_path();
    assert!(Path::new(&baseline).exists(), "BENCH_fleet.json missing");
    let out = deeppower(&[
        "bench-diff",
        "--baseline",
        &baseline,
        "--candidate",
        &baseline,
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "self-diff must pass: {stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("wall_s"));
}

#[test]
fn inflated_metric_exits_nonzero() {
    let baseline = baseline_path();
    let candidate = mutated_candidate(&baseline, "inflated.json", |v| {
        *first_wall_s(v) = Value::from(999.0);
    });
    let out = deeppower(&[
        "bench-diff",
        "--baseline",
        &baseline,
        "--candidate",
        &candidate,
    ]);
    assert!(
        !out.status.success(),
        "inflated wall_s must fail the gate; stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("REGRESSION"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("regression"));
}

#[test]
fn drift_within_tolerance_passes() {
    let baseline = baseline_path();
    let candidate = mutated_candidate(&baseline, "drifted.json", |v| {
        // +10 % on one wall-clock metric — inside the default 35 % budget.
        let slot = first_wall_s(v);
        let drifted = slot.as_f64().unwrap() * 1.10;
        *slot = Value::from(drifted);
    });
    let out = deeppower(&[
        "bench-diff",
        "--baseline",
        &baseline,
        "--candidate",
        &candidate,
    ]);
    assert!(
        out.status.success(),
        "10% drift must pass the default gate: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn perfbench_baseline_passes_against_itself() {
    let baseline = perfbench_path();
    let out = diff_perfbench(&baseline);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "self-diff must pass: {stdout}");
    assert!(stdout.contains("storm_monitored_trace0.metrics.peak_heap_mb"));
    assert!(!stdout.contains("REGRESSION") && !stdout.contains("missing"));
}

#[test]
fn perfbench_counter_off_by_one_fails() {
    let baseline = perfbench_path();
    let mut checked = 0;
    for (run, line) in perfbench_runs() {
        let Some(Value::Object(metrics)) = line.get("metrics") else {
            panic!("{run} has no metrics");
        };
        let counters = metrics
            .iter()
            .filter(|(_, m)| m.get("unit") == Some(&Value::String("count".into())));
        for (name, _) in counters {
            for delta in [-1.0, 1.0] {
                let file = format!("count-{run}-{name}-{delta}.json");
                let candidate = mutated_candidate(&baseline, &file, |v| {
                    let slot = metric(v, &run, name);
                    *slot = Value::from(slot.as_f64().unwrap() + delta);
                });
                assert_flags(&candidate, &format!("{run}.metrics.{name}"));
            }
            checked += 1;
        }
    }
    // Eight work counters on each of the three traced runs.
    assert!(checked >= 24, "only {checked} counters in the baseline");
}

#[test]
fn perfbench_one_more_allocation_fails() {
    let baseline = perfbench_path();
    let traced = [
        "train_xapian_trace1",
        "fleet8_diurnal_trace1",
        "storm_monitored_trace1",
    ];
    let rates = [
        ("engine.allocs_per_req", "engine.completions"),
        ("governor.allocs_per_tick", "governor.ticks"),
    ];
    for run in traced {
        for (rate, per) in rates {
            let candidate =
                mutated_candidate(&baseline, &format!("alloc-{run}-{rate}.json"), |v| {
                    let n = metric(v, run, per).as_f64().unwrap();
                    let slot = metric(v, run, rate);
                    *slot = Value::from(slot.as_f64().unwrap() + 1.0 / n);
                });
            assert_flags(&candidate, &format!("{run}.metrics.{rate}"));
        }
    }
}

#[test]
fn perfbench_failed_output_check_fails() {
    let baseline = perfbench_path();
    for (run, _) in perfbench_runs() {
        let candidate = mutated_candidate(&baseline, &format!("incorrect-{run}.json"), |v| {
            *v.get_mut(&run).and_then(|r| r.get_mut("correct")).unwrap() = Value::from(false);
        });
        assert_flags(&candidate, &format!("{run}.correct"));
    }
}

#[test]
fn perfbench_storm_heap_at_100_mib_fails() {
    let baseline = perfbench_path();
    let heap = |mib: f64| {
        mutated_candidate(&baseline, &format!("heap-{mib}.json"), |v| {
            *metric(v, "storm_monitored_trace0", "peak_heap_mb") = Value::from(mib);
        })
    };
    assert_flags(&heap(100.0), "storm_monitored_trace0.metrics.peak_heap_mb");
    // The 35% default tolerance over the baseline's 73.7 MiB ends at 99.5.
    let out = diff_perfbench(&heap(99.0));
    assert!(
        out.status.success(),
        "99 MiB is inside the bound: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn missing_files_and_flags_fail_cleanly() {
    let out = deeppower(&["bench-diff"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--baseline"));

    let out = deeppower(&[
        "bench-diff",
        "--baseline",
        "/nonexistent/base.json",
        "--candidate",
        "/nonexistent/cand.json",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "CLI panicked: {stderr}");
    assert!(stderr.contains("cannot read baseline"));
}

#[test]
fn malformed_candidate_fails_cleanly() {
    let baseline = baseline_path();
    let candidate = write_temp("garbage.json", "{ not json");
    let out = deeppower(&[
        "bench-diff",
        "--baseline",
        &baseline,
        "--candidate",
        &candidate,
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "CLI panicked: {stderr}");
    assert!(stderr.contains("candidate is not valid JSON"));
}
