//! Reduced-scale run of every workload, untraced and traced, on a seed
//! other than the default: every output check must pass, the result
//! line must be valid JSON carrying exactly the metrics `BENCHMARK.json`
//! declares, and simulated results and work counts must repeat exactly.
//!
//! The layer probes are process-global, so this file holds one test.

use deeppower_perfbench::{run, Config, Report, Scale, Workload};
use serde_json::Value;

const HELD_OUT_SEED: u64 = 11;

/// Metric names of one `BENCHMARK.json` section.
fn declared(contract: &Value, section: &str) -> Vec<String> {
    match contract.get(section) {
        Some(Value::Array(ms)) => ms
            .iter()
            .map(|m| match m.get("name") {
                Some(Value::String(s)) => s.clone(),
                other => panic!("{section} entry without a name: {other:?}"),
            })
            .collect(),
        other => panic!("BENCHMARK.json has no {section} list: {other:?}"),
    }
}

fn run_once(workload: Workload, trace: bool) -> Report {
    let report = run(&Config {
        workload,
        seed: HELD_OUT_SEED,
        seconds: 0.0,
        trace,
        scale: Scale::SMOKE,
    });
    assert!(
        report.correct() && report.failed == 0 && report.attempted >= 1,
        "{} trace={trace}: checks failed:\n{}",
        workload.name(),
        report.render()
    );
    report
}

/// The names in the result line, which must parse as JSON.
fn emitted(report: &Report) -> Vec<String> {
    let line: Value = serde_json::from_str(&report.result_json()).expect("result line is JSON");
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    match line.get("metrics") {
        Some(Value::Object(ms)) => ms.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("result line without metrics: {other:?}"),
    }
}

fn value(report: &Report, name: &str) -> f64 {
    report.metric(name).expect("metric present").value
}

#[test]
fn every_workload_passes_its_checks_and_emits_every_declared_metric() {
    let text =
        std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json beside perfbench/");
    let contract: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let end_to_end = declared(&contract, "end_to_end");
    let per_layer = declared(&contract, "per_layer");

    for workload in Workload::ALL {
        let a = run_once(workload, false);
        assert_eq!(emitted(&a), end_to_end, "{}", workload.name());
        for m in &a.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {}: {}",
                workload.name(),
                m.name,
                m.value
            );
        }
        let b = run_once(workload, false);
        for name in ["sim_p99_ms", "sim_power_w", "sim_goodput_frac"] {
            assert_eq!(
                value(&a, name).to_bits(),
                value(&b, name).to_bits(),
                "{} {name} is not bit-exact across runs",
                workload.name()
            );
        }

        let t = run_once(workload, true);
        assert_eq!(emitted(&t), per_layer, "{}", workload.name());
        let coverage = value(&t, "trace.coverage");
        assert!(
            coverage > 0.5 && coverage <= 1.0,
            "{}: layer times cover {coverage} of the traced run",
            workload.name()
        );
        let u = run_once(workload, true);
        for m in t.metrics.iter().filter(|m| m.unit == "count") {
            assert_eq!(
                m.value,
                value(&u, m.name),
                "{} {} differs between traced runs",
                workload.name(),
                m.name
            );
        }
    }
}
