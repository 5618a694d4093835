//! Perf-regression gate: compare a fresh bench artifact against a
//! committed baseline (`BENCH_*.json`) with per-metric tolerances.
//!
//! The bench binaries (e.g. `fleet_scaling`) write plain numeric
//! leaves, classified by their key:
//!
//! * **LowerBetter** — wall-clock-shaped metrics (`*_s`, `*_ms`, `*_us`,
//!   `*_ns`, `wall*`): a regression is the candidate exceeding the
//!   baseline by more than the tolerance.
//! * **HigherBetter** — `speedup` and delivered-goodput fractions
//!   (`*goodput_ratio`): a regression is the candidate falling below the
//!   baseline by more than the tolerance.
//! * **Exact** — determinism anchors (`requests`, `epochs`, `seed`,
//!   `nodes`, `n`): any difference is a regression regardless of
//!   tolerance, because the simulation is bit-replayable.
//! * **Info** — everything else: reported, never gated.
//!
//! perfbench's result line, `{"correct", "metrics": {name: {"value",
//! "unit"}}}`, carries a unit per metric, and such a `{"value", "unit"}`
//! leaf is classed by that unit instead:
//!
//! * `count` (work counters: completions, ticks, events, updates) —
//!   Exact.
//! * `allocs/*` (allocation rates) — LowerBetter with no tolerance: the
//!   rate may not rise above the baseline at all.
//! * `MiB` (the heap high-water mark) — LowerBetter under the tolerance.
//! * any other unit (host time and rates) — Info.
//!
//! A boolean leaf other than `smoke` (perfbench's `correct`) must match
//! the baseline. `BENCH_perfbench.json` holds one such result line per
//! perfbench run, keyed by run; CI joins its runs' result lines under
//! the same keys and diffs the two.
//!
//! Structure walk: the baseline drives it. Objects match by key, and a
//! baseline leaf the candidate lacks is reported as missing, not gated
//! (schemas change). Arrays of objects match by identity key (`n`, then
//! `nodes`), so a smoke run covering a subset of node counts still
//! lines up with the full baseline; other arrays match by index.
//!
//! Smoke-scale awareness: when the two artifacts disagree on their
//! `"smoke"` flag, absolute timings and counts are incomparable
//! (different trace lengths, different machines' CI runners), so only
//! **scale-invariant** HigherBetter leaves like `speedup` and the
//! boolean leaves stay gated; every other class demotes to Info.

use serde_json::Value;

/// How a metric is judged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Direction {
    LowerBetter,
    HigherBetter,
    Exact,
    Info,
}

/// Outcome for one numeric leaf.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Status {
    Ok,
    Regression,
    /// Leaf missing from the candidate (schema drift) — reported, not
    /// gated.
    Missing,
    /// Informational metric, never gated.
    Info,
}

/// One compared leaf.
#[derive(Clone, Debug)]
pub struct MetricDiff {
    /// Dotted path, e.g. `fleet[nodes=8].wall_s`.
    pub path: String,
    /// A boolean leaf reads as 1 (true) or 0 (false).
    pub baseline: f64,
    pub candidate: Option<f64>,
    /// Signed relative change `(candidate - baseline) / |baseline|`
    /// (0 when the baseline is 0 and they match exactly).
    pub rel_change: f64,
    pub(crate) status: Status,
}

/// A full comparison run.
#[derive(Clone, Debug)]
pub struct DiffReport {
    pub rows: Vec<MetricDiff>,
    /// The artifacts disagreed on their `"smoke"` flag, so absolute
    /// timings were demoted to Info.
    pub scale_mismatch: bool,
}

impl DiffReport {
    pub fn regressions(&self) -> impl Iterator<Item = &MetricDiff> {
        self.rows.iter().filter(|r| r.status == Status::Regression)
    }

    /// Plain-text table, regressions flagged with `REGRESSION`.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if self.scale_mismatch {
            out.push_str("note: smoke flags differ — absolute timings demoted to informational\n");
        }
        let width = self.rows.iter().map(|r| r.path.len()).fold(40, usize::max);
        out.push_str(&format!(
            "{:<width$} {:>12} {:>12} {:>8} {:<6}\n",
            "metric", "baseline", "candidate", "change", "status"
        ));
        // Allocation rates sit far below 0.01; keep their digits.
        let fmt = |x: f64| match x.abs() {
            a if a > 0.0 && a < 0.01 => format!("{x:.4e}"),
            _ => format!("{x:.4}"),
        };
        for r in &self.rows {
            let status = match r.status {
                Status::Ok => "ok",
                Status::Regression => "REGRESSION",
                Status::Missing => "missing",
                Status::Info => "info",
            };
            out.push_str(&format!(
                "{:<width$} {:>12} {:>12} {:>+7.1}% {:<6}\n",
                r.path,
                fmt(r.baseline),
                r.candidate.map_or("-".into(), fmt),
                r.rel_change * 100.0,
                status
            ));
        }
        out
    }
}

/// Classify a plain numeric leaf by its key name.
pub(crate) fn classify(key: &str) -> Direction {
    match key {
        "speedup" => Direction::HigherBetter,
        "requests" | "epochs" | "seed" | "nodes" | "n" => Direction::Exact,
        _ if key.ends_with("goodput_ratio") => Direction::HigherBetter,
        _ if key.starts_with("wall")
            || key.ends_with("_s")
            || key.ends_with("_ms")
            || key.ends_with("_us")
            || key.ends_with("_ns") =>
        {
            Direction::LowerBetter
        }
        _ => Direction::Info,
    }
}

/// Classify a perfbench `{"value", "unit"}` leaf by its unit, with the
/// relative drift it may show (see the module docs).
pub(crate) fn classify_unit(unit: &str, tolerance: f64) -> (Direction, f64) {
    match unit {
        "count" => (Direction::Exact, 0.0),
        "MiB" => (Direction::LowerBetter, tolerance),
        _ if unit.starts_with("allocs/") => (Direction::LowerBetter, 0.0),
        _ => (Direction::Info, tolerance),
    }
}

/// A perfbench metric leaf: its value and unit.
fn unit_metric(v: &Value) -> Option<(f64, &str)> {
    match (v.get("value").and_then(Value::as_f64), v.get("unit")) {
        (Some(value), Some(Value::String(unit))) => Some((value, unit)),
        _ => None,
    }
}

/// Identity key for array-of-object alignment: `n`, then `nodes`.
fn identity(v: &Value) -> Option<(&'static str, f64)> {
    for key in ["n", "nodes"] {
        if let Some(id) = v.get(key).and_then(Value::as_f64) {
            return Some((key, id));
        }
    }
    None
}

/// Compare two bench-artifact JSON documents.
///
/// `tolerance` is the allowed relative drift for LowerBetter /
/// HigherBetter metrics (e.g. `0.35` = 35 %). Exact metrics and
/// allocation rates ignore it.
pub fn diff(baseline: &Value, candidate: &Value, tolerance: f64) -> DiffReport {
    let scale_mismatch = match (baseline.get("smoke"), candidate.get("smoke")) {
        (Some(Value::Bool(a)), Some(Value::Bool(b))) => a != b,
        _ => false,
    };
    let mut walker = Walker {
        tolerance,
        scale_mismatch,
        rows: Vec::new(),
    };
    walker.walk("", baseline, candidate);
    DiffReport {
        rows: walker.rows,
        scale_mismatch,
    }
}

/// Parse both documents and diff them; `Err` on malformed JSON.
pub fn diff_str(baseline: &str, candidate: &str, tolerance: f64) -> Result<DiffReport, String> {
    let b: Value =
        serde_json::from_str(baseline).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let c: Value =
        serde_json::from_str(candidate).map_err(|e| format!("candidate is not valid JSON: {e}"))?;
    Ok(diff(&b, &c, tolerance))
}

struct Walker {
    tolerance: f64,
    scale_mismatch: bool,
    rows: Vec<MetricDiff>,
}

impl Walker {
    /// Cross-scale comparison: only scale-invariant ratios survive as
    /// gates.
    fn demote(&self, direction: Direction) -> Direction {
        if self.scale_mismatch && direction != Direction::HigherBetter {
            Direction::Info
        } else {
            direction
        }
    }

    /// Walk `baseline`'s leaves; `candidate` is `Null` below a key or
    /// index it lacks.
    fn walk(&mut self, path: &str, baseline: &Value, candidate: &Value) {
        if let Some((b, unit)) = unit_metric(baseline) {
            let (direction, tolerance) = classify_unit(unit, self.tolerance);
            let c = candidate.get("value").and_then(Value::as_f64);
            self.leaf(path, self.demote(direction), tolerance, b, c);
            return;
        }
        match baseline {
            Value::Object(pairs) => {
                for (key, bv) in pairs {
                    let sub = if path.is_empty() {
                        key.clone()
                    } else {
                        format!("{path}.{key}")
                    };
                    self.walk(&sub, bv, candidate.get(key).unwrap_or(&Value::Null));
                }
            }
            Value::Array(ba) => {
                let ca: &[Value] = match candidate {
                    Value::Array(ca) => ca,
                    _ => &[],
                };
                // Arrays of objects align by identity key so a subset run
                // (smoke covers fewer node counts) still matches up.
                let by_identity = ba.iter().chain(ca).all(|v| identity(v).is_some());
                for (i, bv) in ba.iter().enumerate() {
                    if by_identity {
                        let (key, id) = identity(bv).expect("checked above");
                        // Rows absent from the candidate are expected in
                        // subset (smoke) runs; not even reported.
                        if let Some(cv) = ca.iter().find(|cv| identity(cv) == Some((key, id))) {
                            self.walk(&format!("{path}[{key}={id}]"), bv, cv);
                        }
                    } else {
                        let cv = ca.get(i).unwrap_or(&Value::Null);
                        self.walk(&format!("{path}[{i}]"), bv, cv);
                    }
                }
            }
            Value::Number(b) => {
                let direction = self.demote(classify(last_key(path)));
                self.leaf(
                    path,
                    direction,
                    self.tolerance,
                    b.as_f64(),
                    candidate.as_f64(),
                );
            }
            // The smoke flag is the scale marker; any other boolean
            // (perfbench's `correct`) must match at any scale.
            Value::Bool(b) if last_key(path) != "smoke" => {
                let bit = |x: bool| f64::from(u8::from(x));
                let c = match candidate {
                    Value::Bool(c) => Some(bit(*c)),
                    _ => None,
                };
                self.leaf(path, Direction::Exact, 0.0, bit(*b), c);
            }
            // Strings and nulls are structural, not metrics.
            _ => {}
        }
    }

    fn leaf(&mut self, path: &str, direction: Direction, tolerance: f64, b: f64, c: Option<f64>) {
        let (rel_change, status) = match c {
            Some(c) => {
                let rel = if b == c {
                    0.0
                } else if b == 0.0 {
                    f64::INFINITY.copysign(c)
                } else {
                    (c - b) / b.abs()
                };
                let status = match direction {
                    Direction::Info => Status::Info,
                    Direction::Exact if b != c => Status::Regression,
                    Direction::LowerBetter if rel > tolerance => Status::Regression,
                    Direction::HigherBetter if rel < -tolerance => Status::Regression,
                    _ => Status::Ok,
                };
                (rel, status)
            }
            None => (0.0, Status::Missing),
        };
        self.rows.push(MetricDiff {
            path: path.to_string(),
            baseline: b,
            candidate: c,
            rel_change,
            status,
        });
    }
}

/// The metric name of a dotted/indexed path: the last `.`-component with
/// any `[...]` suffix stripped.
fn last_key(path: &str) -> &str {
    let tail = path.rsplit('.').next().unwrap_or(path);
    match tail.find('[') {
        Some(i) => &tail[..i],
        None => tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The leaf key a row was classified by: its path's last segment.
    fn key(path: &str) -> &str {
        path.rsplit('.').next().unwrap()
    }

    const BASE: &str = r#"{
        "smoke": false,
        "inference": [{"n": 2, "loop_us": 1.5, "batch_us": 1.1, "speedup": 1.35},
                      {"n": 8, "loop_us": 6.1, "batch_us": 3.6, "speedup": 1.72}],
        "fleet": [{"nodes": 1, "wall_s": 0.24, "requests": 284111, "epochs": 13},
                  {"nodes": 8, "wall_s": 2.14, "requests": 2275329, "epochs": 13}],
        "hetero": {"power_aware_p99_ms": 0.40, "round_robin_p99_ms": 22.1}
    }"#;

    /// Two perfbench runs' result lines, keyed by run as CI joins them.
    const PERFBENCH: &str = r#"{
        "train": {"correct": true, "attempted": 3, "failed": 0, "metrics": {
            "engine.ns_per_req": {"value": 431.6, "unit": "ns/req"},
            "engine.allocs_per_req": {"value": 1.4091236056386416e-5, "unit": "allocs/req"},
            "engine.completions": {"value": 2980576.0, "unit": "count"},
            "governor.allocs_per_tick": {"value": 0.0, "unit": "allocs/tick"}}},
        "storm": {"correct": true, "attempted": 4, "failed": 0, "metrics": {
            "sim_req_per_s": {"value": 2690032.6, "unit": "req/s"},
            "peak_heap_mb": {"value": 73.73516368865967, "unit": "MiB"}}}
    }"#;

    fn regressed_paths(baseline: &str, candidate: &str) -> Vec<String> {
        let report = diff_str(baseline, candidate, 0.35).unwrap();
        report.regressions().map(|r| r.path.clone()).collect()
    }

    #[test]
    fn identical_artifacts_pass() {
        let report = diff_str(BASE, BASE, 0.35).unwrap();
        assert!(
            report.regressions().next().is_none(),
            "{}",
            report.render_table()
        );
        assert!(report
            .rows
            .iter()
            .any(|r| r.path == "fleet[nodes=8].wall_s"));
        assert!(report.rows.iter().all(|r| r.rel_change == 0.0));
    }

    #[test]
    fn inflated_wall_time_is_a_regression() {
        let cand = BASE.replace("\"wall_s\": 2.14", "\"wall_s\": 9.99");
        let report = diff_str(BASE, &cand, 0.35).unwrap();
        let bad: Vec<_> = report.regressions().collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].path, "fleet[nodes=8].wall_s");
        assert_eq!(classify(key(&bad[0].path)), Direction::LowerBetter);
        assert!(report.render_table().contains("REGRESSION"));
    }

    #[test]
    fn collapsed_speedup_is_a_regression() {
        let cand = BASE.replace("\"speedup\": 1.72", "\"speedup\": 0.40");
        let report = diff_str(BASE, &cand, 0.35).unwrap();
        assert!(report
            .regressions()
            .any(|r| r.path == "inference[n=8].speedup"));
        // A higher speedup is never a regression.
        let better = BASE.replace("\"speedup\": 1.72", "\"speedup\": 3.00");
        assert!(diff_str(BASE, &better, 0.35)
            .unwrap()
            .regressions()
            .next()
            .is_none());
    }

    #[test]
    fn exact_metrics_ignore_tolerance() {
        let cand = BASE.replace("\"requests\": 284111", "\"requests\": 284112");
        let report = diff_str(BASE, &cand, 0.35).unwrap();
        let bad: Vec<_> = report.regressions().collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].path, "fleet[nodes=1].requests");
        assert_eq!(classify(key(&bad[0].path)), Direction::Exact);
    }

    #[test]
    fn drift_within_tolerance_passes() {
        let cand = BASE.replace("\"wall_s\": 2.14", "\"wall_s\": 2.60"); // +21 %
        assert!(diff_str(BASE, &cand, 0.35)
            .unwrap()
            .regressions()
            .next()
            .is_none());
    }

    #[test]
    fn smoke_mismatch_gates_only_scale_invariant_metrics() {
        // Candidate is a smoke run: shorter traces, so wall times and
        // request counts differ wildly — but a collapsed speedup still
        // signals a real regression.
        let cand = BASE
            .replace("\"smoke\": false", "\"smoke\": true")
            .replace("\"wall_s\": 2.14", "\"wall_s\": 0.30")
            .replace("\"requests\": 2275329", "\"requests\": 99")
            .replace("\"speedup\": 1.72", "\"speedup\": 0.40");
        let report = diff_str(BASE, &cand, 0.35).unwrap();
        assert!(report.scale_mismatch);
        let bad: Vec<_> = report.regressions().collect();
        assert_eq!(bad.len(), 1, "{}", report.render_table());
        assert_eq!(bad[0].path, "inference[n=8].speedup");
    }

    #[test]
    fn subset_candidate_aligns_by_identity_key() {
        // Smoke runs cover fewer node counts; the overlap still gates.
        let cand = r#"{
            "smoke": false,
            "inference": [{"n": 8, "loop_us": 6.1, "batch_us": 3.6, "speedup": 1.72}],
            "fleet": [{"nodes": 8, "wall_s": 99.0, "requests": 2275329, "epochs": 13}],
            "hetero": {"power_aware_p99_ms": 0.41, "round_robin_p99_ms": 22.1}
        }"#;
        let report = diff_str(BASE, cand, 0.35).unwrap();
        let bad: Vec<_> = report.regressions().collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].path, "fleet[nodes=8].wall_s");
        // nodes=1 rows are absent from the candidate: skipped, not gated.
        assert!(!report.rows.iter().any(|r| r.path.contains("nodes=1")));
    }

    #[test]
    fn missing_key_reports_but_does_not_gate() {
        let cand = BASE.replace("\"power_aware_p99_ms\": 0.40, ", "");
        let report = diff_str(BASE, &cand, 0.35).unwrap();
        assert!(report.regressions().next().is_none());
        let row = report
            .rows
            .iter()
            .find(|r| r.path == "hetero.power_aware_p99_ms")
            .expect("missing leaf reported");
        assert_eq!(row.status, Status::Missing);
        assert_eq!(row.candidate, None);
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(diff_str("{", BASE, 0.35).is_err());
        assert!(diff_str(BASE, "not json", 0.35).is_err());
    }

    #[test]
    fn classify_covers_the_artifact_schema() {
        assert_eq!(classify("speedup"), Direction::HigherBetter);
        assert_eq!(classify("wall_s"), Direction::LowerBetter);
        assert_eq!(classify("loop_us"), Direction::LowerBetter);
        assert_eq!(classify("power_aware_p99_ms"), Direction::LowerBetter);
        assert_eq!(classify("requests"), Direction::Exact);
        assert_eq!(classify("epochs"), Direction::Exact);
        assert_eq!(classify("label"), Direction::Info);
        // Goodput fractions are higher-better baseline gates; any other
        // ratio is informational.
        assert_eq!(classify("goodput_ratio"), Direction::HigherBetter);
        assert_eq!(classify("managed_goodput_ratio"), Direction::HigherBetter);
        assert_eq!(classify("unmanaged_goodput_frac"), Direction::Info);
        assert_eq!(classify("overhead_ratio"), Direction::Info);
    }

    #[test]
    fn goodput_ratio_regresses_only_downward() {
        let base = r#"{"smoke": false, "collapse": {"goodput_ratio": 0.8}}"#;
        let worse = r#"{"smoke": false, "collapse": {"goodput_ratio": 0.4}}"#;
        let better = r#"{"smoke": false, "collapse": {"goodput_ratio": 0.95}}"#;
        let report = diff_str(base, worse, 0.35).unwrap();
        let bad: Vec<_> = report.regressions().collect();
        assert_eq!(bad.len(), 1, "{}", report.render_table());
        assert_eq!(bad[0].path, "collapse.goodput_ratio");
        assert_eq!(classify(key(&bad[0].path)), Direction::HigherBetter);
        // Improvement never gates, even far above the baseline.
        assert!(diff_str(base, better, 0.35)
            .unwrap()
            .regressions()
            .next()
            .is_none());
    }

    #[test]
    fn perfbench_metrics_gate_by_unit() {
        assert!(regressed_paths(PERFBENCH, PERFBENCH).is_empty());
        // A counter off by one, however small the change.
        let cand = PERFBENCH.replace("2980576.0", "2980577.0");
        assert_eq!(
            regressed_paths(PERFBENCH, &cand),
            ["train.metrics.engine.completions"]
        );
        // An allocation rate may not rise at all, from zero or not; a
        // lower one passes.
        let cand = PERFBENCH
            .replace("1.4091236056386416e-5", "1.4091236056386417e-5")
            .replace(
                "\"value\": 0.0, \"unit\": \"allocs/tick\"",
                "\"value\": 1e-9, \"unit\": \"allocs/tick\"",
            );
        assert_eq!(
            regressed_paths(PERFBENCH, &cand),
            [
                "train.metrics.engine.allocs_per_req",
                "train.metrics.governor.allocs_per_tick"
            ]
        );
        let cand = PERFBENCH.replace("1.4091236056386416e-5", "1e-6");
        assert!(regressed_paths(PERFBENCH, &cand).is_empty());
        // The heap gets the tolerance; host time is informational.
        let cand = PERFBENCH
            .replace("73.73516368865967", "99.0")
            .replace("431.6", "9999.0")
            .replace("2690032.6", "1.0");
        assert!(regressed_paths(PERFBENCH, &cand).is_empty());
        let cand = PERFBENCH.replace("73.73516368865967", "100.0");
        assert_eq!(
            regressed_paths(PERFBENCH, &cand),
            ["storm.metrics.peak_heap_mb"]
        );
        // A failed output check fails the gate whatever the numbers.
        let cand = PERFBENCH.replacen("\"correct\": true", "\"correct\": false", 1);
        assert_eq!(regressed_paths(PERFBENCH, &cand), ["train.correct"]);
    }

    #[test]
    fn committed_fleet_baseline_passes_against_itself() {
        // Guards the committed artifact's schema: every leaf classifies,
        // parses and self-compares clean. If BENCH_fleet.json changes
        // shape, this test catches it before CI's perf-gate does.
        let text = include_str!("../../../BENCH_fleet.json");
        let report = diff_str(text, text, 0.35).unwrap();
        assert!(report.regressions().next().is_none());
        for direction in [
            Direction::LowerBetter,
            Direction::HigherBetter,
            Direction::Exact,
        ] {
            assert!(report
                .rows
                .iter()
                .any(|r| classify(key(&r.path)) == direction));
        }
    }

    #[test]
    fn committed_perfbench_baseline_passes_against_itself() {
        // Every leaf gates: each run's output check, the traced runs'
        // counters and allocation rates, the untraced storm run's heap.
        let text = include_str!("../../../BENCH_perfbench.json");
        let report = diff_str(text, text, 0.35).unwrap();
        assert!(report.rows.iter().all(|r| r.status == Status::Ok));
        let count = |suffix: &str| {
            report
                .rows
                .iter()
                .filter(|r| r.path.ends_with(suffix))
                .count()
        };
        assert_eq!(count(".correct"), 4);
        assert_eq!(count(".engine.completions"), 3);
        assert_eq!(count(".engine.allocs_per_req"), 3);
        assert_eq!(count(".governor.allocs_per_tick"), 3);
        assert_eq!(count(".peak_heap_mb"), 1);
    }
}
