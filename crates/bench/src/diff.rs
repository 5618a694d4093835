//! Perf-regression gate: compare a fresh bench-artifact JSON against a
//! committed baseline (`BENCH_*.json`) with per-metric tolerances.
//!
//! The bench binaries (e.g. `fleet_scaling`) write machine-readable
//! artifacts; this module diffs such an artifact against its committed
//! baseline and classifies every numeric leaf:
//!
//! * **LowerBetter** — wall-clock-shaped metrics (`*_s`, `*_ms`, `*_us`,
//!   `*_ns`, `wall*`): a regression is the candidate exceeding the
//!   baseline by more than the tolerance.
//! * **HigherBetter** — throughput-shaped metrics (`speedup`, `*_rate`
//!   when it measures goodput): a regression is the candidate falling
//!   below the baseline by more than the tolerance.
//! * **Exact** — determinism anchors (`requests`, `epochs`, `seed`,
//!   `nodes`, `n`): any difference is a regression regardless of
//!   tolerance, because the simulation is bit-replayable.
//! * **Ratio** — paired-measurement ratios (`*_ratio`, e.g.
//!   `batched_over_reference_ratio`): gated against **unity**, not the
//!   baseline. A candidate above `1.0 + tolerance` is a regression even
//!   if the baseline was just as bad — this is what catches "the
//!   optimized path lost to the path it replaced", which per-leaf
//!   baseline comparison structurally cannot (both sides drift together
//!   on a slow runner).
//! * **Info** — everything else: reported, never gated.
//!
//! Structure walk: objects match by key (missing keys are reported,
//! not gated — schemas may grow); arrays of objects match by identity
//! key (`n`, then `nodes`) so a smoke run covering a subset of node
//! counts still lines up with the full baseline; other arrays match by
//! index.
//!
//! Smoke-scale awareness: when the two artifacts disagree on their
//! `"smoke"` flag, absolute timings are incomparable (different trace
//! lengths, different machines' CI runners), so only **scale-invariant**
//! metrics — HigherBetter ratios like `speedup`, and Ratio leaves —
//! stay gated; LowerBetter and Exact leaves demote to Info.

use serde_json::Value;

/// How a metric is judged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Direction {
    LowerBetter,
    HigherBetter,
    Exact,
    /// Paired-measurement ratio gated against unity (see module docs).
    Ratio,
    Info,
}

/// Outcome for one numeric leaf.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Status {
    Ok,
    Regression,
    /// Leaf exists on only one side (schema drift) — reported, not gated.
    Missing,
    /// Informational metric, never gated.
    Info,
}

/// One compared leaf.
#[derive(Clone, Debug)]
pub struct MetricDiff {
    /// Dotted path, e.g. `fleet[nodes=8].wall_s`.
    pub path: String,
    pub baseline: Option<f64>,
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
        out.push_str(&format!(
            "{:<40} {:>12} {:>12} {:>8} {:<6}\n",
            "metric", "baseline", "candidate", "change", "status"
        ));
        for r in &self.rows {
            let fmt = |v: Option<f64>| match v {
                Some(x) => format!("{x:.4}"),
                None => "-".into(),
            };
            let status = match r.status {
                Status::Ok => "ok",
                Status::Regression => "REGRESSION",
                Status::Missing => "missing",
                Status::Info => "info",
            };
            out.push_str(&format!(
                "{:<40} {:>12} {:>12} {:>+7.1}% {:<6}\n",
                r.path,
                fmt(r.baseline),
                fmt(r.candidate),
                r.rel_change * 100.0,
                status
            ));
        }
        out
    }
}

/// Classify a leaf by its key name.
pub(crate) fn classify(key: &str) -> Direction {
    match key {
        "speedup" => Direction::HigherBetter,
        "requests" | "epochs" | "seed" | "nodes" | "n" => Direction::Exact,
        // Delivered-goodput fractions: higher is better and the gate is
        // against the baseline, not unity — must precede the generic
        // `_ratio` arm.
        _ if key.ends_with("goodput_ratio") => Direction::HigherBetter,
        _ if key.ends_with("_ratio") => Direction::Ratio,
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

fn as_number(v: &Value) -> Option<f64> {
    match v {
        Value::Number(n) => Some(n.as_f64()),
        _ => None,
    }
}

/// Identity key for array-of-object alignment: `n`, then `nodes`.
fn identity(v: &Value) -> Option<(&'static str, f64)> {
    for key in ["n", "nodes"] {
        if let Some(id) = v.get(key).and_then(as_number) {
            return Some((key, id));
        }
    }
    None
}

/// Compare two bench-artifact JSON documents.
///
/// `tolerance` is the allowed relative drift for LowerBetter /
/// HigherBetter metrics (e.g. `0.35` = 35 %). Exact metrics ignore it.
pub fn diff(baseline: &Value, candidate: &Value, tolerance: f64) -> DiffReport {
    let scale_mismatch = match (baseline.get("smoke"), candidate.get("smoke")) {
        (Some(Value::Bool(a)), Some(Value::Bool(b))) => a != b,
        _ => false,
    };
    let mut rows = Vec::new();
    walk(
        "",
        baseline,
        candidate,
        tolerance,
        scale_mismatch,
        &mut rows,
    );
    DiffReport {
        rows,
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

fn leaf(
    path: String,
    key: &str,
    b: Option<f64>,
    c: Option<f64>,
    tolerance: f64,
    scale_mismatch: bool,
    rows: &mut Vec<MetricDiff>,
) {
    let mut direction = classify(key);
    // Cross-scale comparison: only scale-invariant ratios survive as gates.
    if scale_mismatch && direction != Direction::HigherBetter && direction != Direction::Ratio {
        direction = Direction::Info;
    }
    let (rel_change, status) = match (b, c) {
        (Some(b), Some(c)) => {
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
                Direction::Ratio if c > 1.0 + tolerance => Status::Regression,
                _ => Status::Ok,
            };
            (rel, status)
        }
        _ => (0.0, Status::Missing),
    };
    rows.push(MetricDiff {
        path,
        baseline: b,
        candidate: c,
        rel_change,
        status,
    });
}

fn walk(
    path: &str,
    baseline: &Value,
    candidate: &Value,
    tolerance: f64,
    scale_mismatch: bool,
    rows: &mut Vec<MetricDiff>,
) {
    match (baseline, candidate) {
        (Value::Object(bp), Value::Object(_)) => {
            for (key, bv) in bp {
                let sub = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                match candidate.get(key) {
                    Some(cv) => walk(&sub, bv, cv, tolerance, scale_mismatch, rows),
                    None => {
                        if let Some(b) = as_number(bv) {
                            leaf(sub, key, Some(b), None, tolerance, scale_mismatch, rows);
                        }
                    }
                }
            }
        }
        (Value::Array(ba), Value::Array(ca)) => {
            // Arrays of objects align by identity key so a subset run
            // (smoke covers fewer node counts) still matches up.
            let by_identity = ba.iter().all(|v| identity(v).is_some())
                && ca.iter().all(|v| identity(v).is_some());
            if by_identity {
                for bv in ba {
                    let (key, id) = identity(bv).expect("checked above");
                    let sub = format!("{path}[{key}={id}]");
                    // Rows absent from the candidate are expected in
                    // subset (smoke) runs; not even reported.
                    if let Some(cv) = ca.iter().find(|cv| identity(cv) == Some((key, id))) {
                        walk(&sub, bv, cv, tolerance, scale_mismatch, rows);
                    }
                }
            } else {
                for (i, bv) in ba.iter().enumerate() {
                    let sub = format!("{path}[{i}]");
                    match ca.get(i) {
                        Some(cv) => walk(&sub, bv, cv, tolerance, scale_mismatch, rows),
                        None => {
                            if let Some(b) = as_number(bv) {
                                leaf(
                                    sub,
                                    last_key(path),
                                    Some(b),
                                    None,
                                    tolerance,
                                    scale_mismatch,
                                    rows,
                                );
                            }
                        }
                    }
                }
            }
        }
        _ => {
            let key = last_key(path);
            // Non-numeric leaves (strings, bools — e.g. the smoke
            // flag itself) are structural, not metrics.
            if let (Some(b), Some(c)) = (as_number(baseline), as_number(candidate)) {
                leaf(
                    path.to_string(),
                    key,
                    Some(b),
                    Some(c),
                    tolerance,
                    scale_mismatch,
                    rows,
                );
            }
        }
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
        "end_to_end_8_nodes": {"batched_s": 1.88, "reference_s": 1.92,
                               "batched_over_reference_ratio": 0.979}
    }"#;

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
            "end_to_end_8_nodes": {"batched_s": 1.97, "reference_s": 1.92}
        }"#;
        let report = diff_str(BASE, cand, 0.35).unwrap();
        let bad: Vec<_> = report.regressions().collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].path, "fleet[nodes=8].wall_s");
        // nodes=1 rows are absent from the candidate: skipped, not gated.
        assert!(!report.rows.iter().any(|r| r.path.contains("nodes=1")));
    }

    #[test]
    fn ratio_above_unity_plus_tolerance_is_a_regression() {
        // The PR-4 escape: batched lost to reference (ratio > 1) while
        // both absolute timings stayed within tolerance of their own
        // baselines. The Ratio class gates against unity instead.
        let cand = BASE.replace(
            "\"batched_over_reference_ratio\": 0.979",
            "\"batched_over_reference_ratio\": 1.9",
        );
        let report = diff_str(BASE, &cand, 0.35).unwrap();
        let bad: Vec<_> = report.regressions().collect();
        assert_eq!(bad.len(), 1, "{}", report.render_table());
        assert_eq!(
            bad[0].path,
            "end_to_end_8_nodes.batched_over_reference_ratio"
        );
        assert_eq!(classify(key(&bad[0].path)), Direction::Ratio);

        // Near-unity noise passes: the gate is tolerance-padded so a
        // statistical tie between the two drivers cannot flake CI.
        let cand = BASE.replace(
            "\"batched_over_reference_ratio\": 0.979",
            "\"batched_over_reference_ratio\": 1.02",
        );
        assert!(diff_str(BASE, &cand, 0.35)
            .unwrap()
            .regressions()
            .next()
            .is_none());
    }

    #[test]
    fn ratio_gate_survives_smoke_mismatch() {
        // Absolute timings demote to Info across scales, but a ratio of
        // two same-scale measurements is scale-invariant and stays gated.
        let cand = BASE.replace("\"smoke\": false", "\"smoke\": true").replace(
            "\"batched_over_reference_ratio\": 0.979",
            "\"batched_over_reference_ratio\": 1.9",
        );
        let report = diff_str(BASE, &cand, 0.35).unwrap();
        assert!(report.scale_mismatch);
        assert!(report
            .regressions()
            .any(|r| r.path == "end_to_end_8_nodes.batched_over_reference_ratio"));
    }

    #[test]
    fn missing_key_reports_but_does_not_gate() {
        let cand = BASE.replace("\"batched_s\": 1.88, ", "");
        let report = diff_str(BASE, &cand, 0.35).unwrap();
        assert!(report.regressions().next().is_none());
        let row = report
            .rows
            .iter()
            .find(|r| r.path == "end_to_end_8_nodes.batched_s")
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
        assert_eq!(classify("batched_s"), Direction::LowerBetter);
        assert_eq!(classify("batched_over_reference_ratio"), Direction::Ratio);
        // The heterogeneous-fleet leaves: grouped-vs-pernode is a paired
        // unity-gated ratio, the balancer p99s are plain lower-better.
        assert_eq!(
            classify("hetero_grouped_over_pernode_ratio"),
            Direction::Ratio
        );
        assert_eq!(classify("power_aware_p99_ms"), Direction::LowerBetter);
        assert_eq!(classify("requests"), Direction::Exact);
        assert_eq!(classify("epochs"), Direction::Exact);
        assert_eq!(classify("label"), Direction::Info);
        // Goodput fractions are higher-better baseline gates, not
        // unity-gated pair ratios.
        assert_eq!(classify("goodput_ratio"), Direction::HigherBetter);
        assert_eq!(classify("managed_goodput_ratio"), Direction::HigherBetter);
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
        // Improvement never gates, even far above the baseline (a plain
        // Ratio leaf would flag > 1.0 + tolerance).
        assert!(diff_str(base, better, 0.35)
            .unwrap()
            .regressions()
            .next()
            .is_none());
    }

    #[test]
    fn committed_fleet_baseline_passes_against_itself() {
        // Guards the committed artifact's schema: every leaf classifies,
        // parses and self-compares clean. If BENCH_fleet.json changes
        // shape, this test catches it before CI's perf-gate does.
        let text = include_str!("../../../BENCH_fleet.json");
        let report = diff_str(text, text, 0.35).unwrap();
        assert!(report.regressions().next().is_none());
        assert!(report
            .rows
            .iter()
            .any(|r| classify(key(&r.path)) == Direction::LowerBetter));
        assert!(report
            .rows
            .iter()
            .any(|r| classify(key(&r.path)) == Direction::HigherBetter));
        assert!(report
            .rows
            .iter()
            .any(|r| classify(key(&r.path)) == Direction::Exact));
    }
}
