//! The fleet health monitor: windowed SLO tracking, burn-rate
//! alerting, and incident timelines.
//!
//! A [`FleetMonitor`] consumes per-node [`Event`] streams — primarily
//! the [`WindowRollup`]s the server session emits once per tumbling
//! window — and merges windows with equal index across nodes into a
//! fleet-level series. At [`FleetMonitor::finish`] it evaluates the
//! configured [`SloSpec`] over that series:
//!
//! * each window gets a per-objective **burn rate** (how fast it burns
//!   the error budget; 1.0 = exactly on budget) and an instantaneous
//!   violation check, emitted as typed `SloViolation` events;
//! * every [`BurnRateRule`] runs as a fire/resolve state machine over
//!   the trailing burn averages, emitting `Alert`/`AlertResolved`
//!   events — alerts carry an **incident timeline**: the
//!   `FaultInjected`/`SafetyAction`/`DrlStep` context observed in the
//!   windows preceding the trip, aggregated per (window, node, kind);
//! * EWMA z-score detectors flag anomalies on the fleet power and p99
//!   series and on per-node training loss/grad-norm series.
//!
//! Determinism: merged state is keyed `(window index, node)` and every
//! fold at `finish` runs in ascending node order, so the produced
//! [`HealthReport`] is a pure function of the *set* of per-node
//! streams — independent of node interleaving (asserted by proptest)
//! and therefore byte-identical between the serial and threaded fleet
//! drivers.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use serde::{Deserialize, Serialize};

use crate::event::{Alert, AlertResolved, Event, IncidentEntry, SloViolation, WindowRollup};
use crate::histogram::Histogram;
use crate::recorder::TelemetrySink;
use crate::slo::{
    EwmaConfig, EwmaDetector, SloSpec, LATENCY_BUDGET, METRIC_GOODPUT, METRIC_P99, METRIC_POWER,
    METRIC_TIMEOUT,
};

/// Monitor configuration: the SLO under evaluation plus alerting knobs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MonitorConfig {
    pub slo: SloSpec,
    pub anomaly: EwmaConfig,
    /// Max incident-timeline entries attached to one alert.
    pub timeline_cap: usize,
    /// Windows of context (ending at the tripping window) a timeline
    /// draws from.
    pub context_windows: u64,
    /// Flight-recorder depth: request traces of the last N windows are
    /// retained per node for dump-on-alert (0 disables the ring).
    #[serde(default = "default_flight_windows")]
    pub flight_windows: u64,
}

fn default_flight_windows() -> u64 {
    8
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            slo: SloSpec::default(),
            anomaly: EwmaConfig::default(),
            timeline_cap: 16,
            context_windows: 3,
            flight_windows: default_flight_windows(),
        }
    }
}

impl MonitorConfig {
    pub fn with_slo(slo: SloSpec) -> Self {
        Self {
            slo,
            ..Self::default()
        }
    }
}

/// Context aggregate: occurrences of one event kind on one node inside
/// one window.
#[derive(Clone, Debug)]
struct CtxAgg {
    t_last: u64,
    count: u64,
    detail: String,
}

/// Per-node training diagnostics sample (from `TrainUpdate`).
#[derive(Clone, Copy, Debug)]
struct TrainSample {
    t: u64,
    critic_loss: f64,
    actor_grad_norm: f64,
}

/// The fleet health monitor. See the module docs.
#[derive(Clone, Debug)]
pub struct FleetMonitor {
    cfg: MonitorConfig,
    /// window index -> node -> that node's rollup.
    windows: BTreeMap<u64, BTreeMap<u64, WindowRollup>>,
    /// (window index, node, kind) -> aggregated context.
    context: BTreeMap<(u64, u64, &'static str), CtxAgg>,
    /// node -> window index new context is attributed to (advances when
    /// the node's rollup for a window arrives).
    cur_window: BTreeMap<u64, u64>,
    /// node -> training diagnostics series, stream order.
    train: BTreeMap<u64, Vec<TrainSample>>,
    /// Bounded ring of received request traces (dump-on-alert source).
    flight: crate::trace::FlightRecorder,
}

impl FleetMonitor {
    pub fn new(cfg: MonitorConfig) -> Self {
        Self {
            cfg,
            windows: BTreeMap::new(),
            context: BTreeMap::new(),
            cur_window: BTreeMap::new(),
            train: BTreeMap::new(),
            flight: crate::trace::FlightRecorder::new(),
        }
    }

    pub fn config(&self) -> &MonitorConfig {
        &self.cfg
    }

    /// Feed one event from `node`'s stream. Events must arrive in each
    /// node's stream order; different nodes may interleave arbitrarily.
    pub fn observe(&mut self, node: u64, event: &Event) {
        match event {
            Event::WindowRollup(w) => {
                // Tail-exemplar links land on the *closing* window's
                // context (cur_window still points at it here), so an
                // alert tripping on this window carries the trace ids.
                if !w.exemplars.is_empty() {
                    self.context_entry(
                        node,
                        w.t,
                        "tail-exemplar",
                        format!("trace ids {:?}", w.exemplars),
                    );
                }
                self.cur_window.insert(node, w.index + 1);
                if self.cfg.flight_windows > 0 {
                    self.flight.seal(node, w.index, self.cfg.flight_windows);
                }
                self.windows
                    .entry(w.index)
                    .or_default()
                    .insert(node, w.clone());
            }
            Event::RequestTrace(tr) if self.cfg.flight_windows > 0 => {
                self.flight.push(node, tr.clone());
            }
            Event::FaultInjected(f) => {
                self.context_entry(
                    node,
                    f.t,
                    f.kind.as_str(),
                    format!("core {}, magnitude {}", f.core, f.magnitude),
                );
            }
            Event::SafetyAction(a) => {
                self.context_entry(node, a.t, a.action.as_str(), format!("core {}", a.core));
            }
            Event::DrlStep(s) => {
                self.context_entry(
                    node,
                    s.t,
                    "drl-step",
                    format!(
                        "base_freq {:.3}, coef {:.3}, queue {}, timeouts {}",
                        s.base_freq, s.scaling_coef, s.queue_len, s.timeouts
                    ),
                );
            }
            Event::TrainUpdate(u) => {
                self.train.entry(node).or_default().push(TrainSample {
                    t: u.t,
                    critic_loss: u.critic_loss,
                    actor_grad_norm: u.actor_grad_norm,
                });
            }
            _ => {}
        }
    }

    /// Feed a whole per-node stream (stream order).
    pub fn ingest(&mut self, node: u64, events: &[Event]) {
        for ev in events {
            self.observe(node, ev);
        }
    }

    /// Fold another monitor's state in. The two monitors must have
    /// observed **disjoint node sets** (the threaded fleet driver gives
    /// each worker its own monitor over its owned nodes); merged state
    /// is identical to one monitor having observed every stream.
    pub fn merge(&mut self, other: FleetMonitor) {
        for (idx, per_node) in other.windows {
            self.windows.entry(idx).or_default().extend(per_node);
        }
        self.context.extend(other.context);
        self.cur_window.extend(other.cur_window);
        self.train.extend(other.train);
        self.flight.merge(other.flight);
    }

    /// The flight recorder's retained traces (bounded to the last
    /// `flight_windows` windows per node).
    pub fn flight(&self) -> &crate::trace::FlightRecorder {
        &self.flight
    }

    fn context_entry(&mut self, node: u64, t: u64, kind: &'static str, detail: String) {
        let window = self.cur_window.get(&node).copied().unwrap_or(0);
        let agg = self
            .context
            .entry((window, node, kind))
            .or_insert_with(|| CtxAgg {
                t_last: 0,
                count: 0,
                detail: String::new(),
            });
        agg.t_last = t;
        agg.count += 1;
        agg.detail = detail;
    }

    /// Incident timeline for an alert tripping at `window`: context
    /// from the trailing `context_windows` windows, time-ordered,
    /// newest `timeline_cap` entries kept.
    fn timeline_for(&self, window: u64) -> Vec<IncidentEntry> {
        let lo = window.saturating_sub(self.cfg.context_windows.saturating_sub(1));
        let mut entries: Vec<IncidentEntry> = self
            .context
            .iter()
            .filter(|((w, _, _), _)| *w >= lo && *w <= window)
            .map(|((_, node, kind), agg)| IncidentEntry {
                t: agg.t_last,
                node: *node,
                kind: kind.to_string(),
                count: agg.count,
                detail: agg.detail.clone(),
            })
            .collect();
        entries.sort_by(|a, b| (a.t, a.node, &a.kind).cmp(&(b.t, b.node, &b.kind)));
        if entries.len() > self.cfg.timeline_cap {
            entries.drain(..entries.len() - self.cfg.timeline_cap);
        }
        entries
    }

    /// Merge each window index across nodes, folding in ascending node
    /// order (deterministic for any ingestion interleaving).
    fn merged_windows(&self) -> Vec<MergedWindow> {
        self.windows
            .iter()
            .map(|(&index, per_node)| {
                let mut m = MergedWindow {
                    index,
                    ..MergedWindow::empty()
                };
                for (_, w) in per_node.iter() {
                    m.t_end = m.t_end.max(w.t);
                    m.span_ns = m.span_ns.max(w.window_ns);
                    m.count += w.count;
                    m.timeouts += w.timeouts;
                    if w.count > 0 {
                        m.min_ns = m.min_ns.min(w.min_ns);
                        m.max_ns = m.max_ns.max(w.max_ns);
                        m.lat_sum += w.mean_ns * w.count as f64;
                    }
                    for (&ub, &c) in w.bucket_ubs.iter().zip(w.bucket_counts.iter()) {
                        m.hist.record_n(ub, c);
                    }
                    m.power_w += w.power_w;
                    if w.avg_freq_mhz > 0.0 {
                        m.freq_sum += w.avg_freq_mhz;
                        m.freq_nodes += 1;
                    }
                    m.queue_len += w.queue_len;
                    m.good += w.good;
                    m.wasted += w.wasted;
                    m.shed += w.shed;
                    m.nodes += 1;
                }
                m
            })
            .collect()
    }

    /// Evaluate the SLO over everything observed and assemble the
    /// health report. Pure read: callable repeatedly, and two monitors
    /// with the same observed streams produce byte-identical reports.
    pub fn finish(&self) -> HealthReport {
        let merged = self.merged_windows();
        let slo = &self.cfg.slo;
        let mut events: Vec<Event> = Vec::new();
        let mut outcomes: Vec<SloOutcome> = Vec::new();
        let mut alerts: Vec<AlertRecord> = Vec::new();

        for (metric, target) in slo.objectives() {
            let mut burns: Vec<f64> = Vec::with_capacity(merged.len());
            let mut outcome = SloOutcome {
                metric: metric.into(),
                target,
                windows_evaluated: merged.len() as u64,
                violations: 0,
                time_in_violation_ns: 0,
                worst_burn: 0.0,
                worst_observed: 0.0,
                alerts: 0,
            };
            for w in &merged {
                let (observed, burn, violated) = w.evaluate(metric, target);
                burns.push(burn);
                outcome.worst_burn = outcome.worst_burn.max(burn);
                outcome.worst_observed = outcome.worst_observed.max(observed);
                if violated {
                    outcome.violations += 1;
                    outcome.time_in_violation_ns += w.span_ns;
                    events.push(Event::SloViolation(SloViolation {
                        t: w.t_end,
                        window: w.index,
                        metric: metric.into(),
                        observed,
                        target,
                        burn,
                    }));
                }
            }
            for rule in &slo.rules {
                let long = rule.long_windows as usize;
                let short = rule.short_windows as usize;
                let mut active: Option<AlertRecord> = None;
                for (k, w) in merged.iter().enumerate() {
                    if k + 1 < long {
                        continue;
                    }
                    let long_avg = mean_of(&burns[k + 1 - long..=k]);
                    let short_avg = mean_of(&burns[k + 1 - short..=k]);
                    match active.as_mut() {
                        None => {
                            if long_avg >= rule.max_burn && short_avg >= rule.max_burn {
                                let timeline = self.timeline_for(w.index);
                                events.push(Event::Alert(Alert {
                                    t: w.t_end,
                                    metric: metric.into(),
                                    rule: rule.label(),
                                    burn: short_avg,
                                    timeline: timeline.clone(),
                                }));
                                outcome.alerts += 1;
                                active = Some(AlertRecord {
                                    metric: metric.into(),
                                    rule: rule.label(),
                                    t_fire: w.t_end,
                                    t_resolve: 0,
                                    window: w.index,
                                    peak_burn: short_avg,
                                    timeline,
                                    flight_dump: String::new(),
                                });
                            }
                        }
                        Some(a) => {
                            if short_avg < rule.max_burn {
                                a.t_resolve = w.t_end;
                                events.push(Event::AlertResolved(AlertResolved {
                                    t: w.t_end,
                                    metric: metric.into(),
                                    rule: rule.label(),
                                    duration_ns: w.t_end.saturating_sub(a.t_fire),
                                }));
                                alerts.push(active.take().unwrap());
                            } else {
                                a.peak_burn = a.peak_burn.max(short_avg);
                            }
                        }
                    }
                }
                if let Some(open) = active {
                    alerts.push(open);
                }
            }
            outcomes.push(outcome);
        }
        events.sort_by_key(event_time);
        alerts.sort_by(|a, b| (a.t_fire, &a.metric, &a.rule).cmp(&(b.t_fire, &b.metric, &b.rule)));

        let anomalies = self.anomalies(&merged);
        let healthy = alerts.is_empty() && outcomes.iter().all(|o| o.violations == 0);
        let nodes: std::collections::BTreeSet<u64> = self
            .windows
            .values()
            .flat_map(|m| m.keys().copied())
            .collect();
        HealthReport {
            slo: slo.clone(),
            nodes: nodes.len() as u64,
            windows: merged.len() as u64,
            window_ns: merged.iter().map(|w| w.span_ns).max().unwrap_or(0),
            sim_ns: merged.iter().map(|w| w.t_end).max().unwrap_or(0),
            requests: merged.iter().map(|w| w.count).sum(),
            timeouts: merged.iter().map(|w| w.timeouts).sum(),
            window_series: merged.iter().map(|w| w.summary()).collect(),
            outcomes,
            alerts,
            anomalies,
            events,
            healthy,
        }
    }

    fn anomalies(&self, merged: &[MergedWindow]) -> Vec<AnomalyRecord> {
        let mut out = Vec::new();
        let mut power_det = EwmaDetector::new(self.cfg.anomaly);
        let mut p99_det = EwmaDetector::new(self.cfg.anomaly);
        for w in merged {
            if let Some(z) = power_det.observe_anomalous(w.power_w) {
                out.push(AnomalyRecord::fleet("power-w", w.t_end, w.power_w, z));
            }
            if w.count > 0 {
                let p99_ms = w.percentile(0.99) as f64 / 1e6;
                if let Some(z) = p99_det.observe_anomalous(p99_ms) {
                    out.push(AnomalyRecord::fleet("p99-ms", w.t_end, p99_ms, z));
                }
            }
        }
        for (&node, series) in &self.train {
            let mut loss_det = EwmaDetector::new(self.cfg.anomaly);
            let mut grad_det = EwmaDetector::new(self.cfg.anomaly);
            for s in series {
                if let Some(z) = loss_det.observe_anomalous(s.critic_loss) {
                    out.push(AnomalyRecord::node(
                        "critic-loss",
                        node,
                        s.t,
                        s.critic_loss,
                        z,
                    ));
                }
                if let Some(z) = grad_det.observe_anomalous(s.actor_grad_norm) {
                    out.push(AnomalyRecord::node(
                        "actor-grad-norm",
                        node,
                        s.t,
                        s.actor_grad_norm,
                        z,
                    ));
                }
            }
        }
        out.sort_by(|a, b| (a.t, &a.series, a.node).cmp(&(b.t, &b.series, b.node)));
        out
    }
}

/// Simulated timestamp of a monitor-produced event (sort key).
fn event_time(ev: &Event) -> u64 {
    match ev {
        Event::SloViolation(v) => v.t,
        Event::Alert(a) => a.t,
        Event::AlertResolved(r) => r.t,
        _ => 0,
    }
}

fn mean_of(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// JSON-safe float: non-finite values (a diverged training loss, an
/// infinite z-score) are capped so the report always serializes.
fn json_safe(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        1e30
    }
}

/// One window index merged across nodes.
#[derive(Clone, Debug)]
struct MergedWindow {
    index: u64,
    t_end: u64,
    span_ns: u64,
    count: u64,
    timeouts: u64,
    /// Exact extremes across nodes (rollups carry exact min/max).
    min_ns: u64,
    max_ns: u64,
    lat_sum: f64,
    /// Fleet power: sum of per-node window means.
    power_w: f64,
    freq_sum: f64,
    freq_nodes: u64,
    queue_len: u64,
    /// Closed-loop overload accounting summed across nodes.
    good: u64,
    wasted: u64,
    shed: u64,
    nodes: u64,
    hist: Histogram,
}

impl MergedWindow {
    fn empty() -> Self {
        Self {
            index: 0,
            t_end: 0,
            span_ns: 0,
            count: 0,
            timeouts: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            lat_sum: 0.0,
            power_w: 0.0,
            freq_sum: 0.0,
            freq_nodes: 0,
            queue_len: 0,
            good: 0,
            wasted: 0,
            shed: 0,
            nodes: 0,
            hist: Histogram::new(),
        }
    }

    /// Merged percentile, clamped to the exact extremes — when one
    /// window spans a whole run this reproduces one whole-run
    /// histogram's percentiles exactly (asserted by proptest in
    /// `simd-server`).
    fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.hist.percentile(q).clamp(self.min_ns, self.max_ns)
        }
    }

    /// `(observed, burn rate, instantaneously violated)` for one
    /// objective over this window.
    fn evaluate(&self, metric: &str, target: f64) -> (f64, f64, bool) {
        match metric {
            METRIC_P99 => {
                if self.count == 0 {
                    return (0.0, 0.0, false);
                }
                let target_ns = (target * 1e6) as u64;
                let observed = self.percentile(0.99) as f64 / 1e6;
                let bad = self.count - self.hist.count_at_or_below(target_ns).min(self.count);
                let burn = (bad as f64 / self.count as f64) / LATENCY_BUDGET;
                (observed, burn, observed > target)
            }
            METRIC_TIMEOUT => {
                if self.count == 0 {
                    return (0.0, 0.0, false);
                }
                let observed = self.timeouts as f64 / self.count as f64;
                (observed, observed / target, observed > target)
            }
            METRIC_POWER => {
                let observed = self.power_w;
                (observed, observed / target, observed > target)
            }
            METRIC_GOODPUT => {
                // Higher-is-better floor: the error budget is the
                // tolerated useless fraction (1 - target), burned by the
                // observed useless fraction. Open-loop windows offer no
                // shed/wasted signal and never violate.
                let offered = self.good + self.wasted + self.shed;
                if offered == 0 {
                    return (1.0, 0.0, false);
                }
                let observed = self.good as f64 / offered as f64;
                let burn = (1.0 - observed) / (1.0 - target).max(1e-9);
                (observed, burn, observed < target)
            }
            _ => (0.0, 0.0, false),
        }
    }
}

/// One fleet-merged window as reported in [`HealthReport`]: counts and
/// extremes are exact sums/extremes over the contributing nodes,
/// percentiles are merged-histogram reads clamped to the exact
/// extremes, power is the fleet sum of per-node window means.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WindowSummary {
    pub index: u64,
    pub t: u64,
    pub window_ns: u64,
    pub nodes: u64,
    pub count: u64,
    pub timeouts: u64,
    pub mean_ns: f64,
    pub min_ns: u64,
    pub max_ns: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub power_w: f64,
    pub avg_freq_mhz: f64,
    pub queue_len: u64,
}

impl MergedWindow {
    fn summary(&self) -> WindowSummary {
        WindowSummary {
            index: self.index,
            t: self.t_end,
            window_ns: self.span_ns,
            nodes: self.nodes,
            count: self.count,
            timeouts: self.timeouts,
            mean_ns: if self.count == 0 {
                0.0
            } else {
                self.lat_sum / self.count as f64
            },
            min_ns: if self.count == 0 { 0 } else { self.min_ns },
            max_ns: if self.count == 0 { 0 } else { self.max_ns },
            p50_ns: self.percentile(0.50),
            p95_ns: self.percentile(0.95),
            p99_ns: self.percentile(0.99),
            power_w: self.power_w,
            avg_freq_mhz: if self.freq_nodes == 0 {
                0.0
            } else {
                self.freq_sum / self.freq_nodes as f64
            },
            queue_len: self.queue_len,
        }
    }
}

/// Per-objective evaluation summary.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SloOutcome {
    pub metric: String,
    pub target: f64,
    pub windows_evaluated: u64,
    /// Windows instantaneously over target.
    pub violations: u64,
    /// Simulated time spent in violation.
    pub time_in_violation_ns: u64,
    pub worst_burn: f64,
    pub worst_observed: f64,
    /// Burn-rate alerts fired for this objective.
    pub alerts: u64,
}

/// One fired burn-rate alert (`t_resolve == 0` means still open at run
/// end).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AlertRecord {
    pub metric: String,
    pub rule: String,
    pub t_fire: u64,
    pub t_resolve: u64,
    /// Tumbling-window ordinal of the tripping window.
    #[serde(default)]
    pub window: u64,
    pub peak_burn: f64,
    pub timeline: Vec<IncidentEntry>,
    /// Path of the flight-recorder dump written for this incident
    /// (empty when no dump was requested or nothing was retained).
    #[serde(default)]
    pub flight_dump: String,
}

/// One EWMA z-score anomaly. `node == -1` marks a fleet-level series.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AnomalyRecord {
    pub series: String,
    pub node: i64,
    pub t: u64,
    pub value: f64,
    pub z: f64,
}

impl AnomalyRecord {
    fn fleet(series: &str, t: u64, value: f64, z: f64) -> Self {
        Self {
            series: series.into(),
            node: -1,
            t,
            value: json_safe(value),
            z: json_safe(z),
        }
    }

    fn node(series: &str, node: u64, t: u64, value: f64, z: f64) -> Self {
        Self {
            series: series.into(),
            node: node as i64,
            t,
            value: json_safe(value),
            z: json_safe(z),
        }
    }
}

/// The monitor's output: SLO outcomes, fired alerts with incident
/// timelines, anomalies, and the typed violation/alert events — all
/// derived purely from simulated-time data.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    pub slo: SloSpec,
    pub nodes: u64,
    pub windows: u64,
    /// Longest window span observed (the nominal window size).
    pub window_ns: u64,
    /// Close time of the last window.
    pub sim_ns: u64,
    pub requests: u64,
    pub timeouts: u64,
    /// The fleet-merged window series, index order.
    pub window_series: Vec<WindowSummary>,
    pub outcomes: Vec<SloOutcome>,
    pub alerts: Vec<AlertRecord>,
    pub anomalies: Vec<AnomalyRecord>,
    /// Typed `SloViolation`/`Alert`/`AlertResolved` events, time order.
    pub events: Vec<Event>,
    /// No alerts fired and no window violated any objective.
    pub healthy: bool,
}

impl HealthReport {
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("health report serializes")
    }

    /// Human-readable summary + incident log.
    pub fn render_incident_log(&self) -> String {
        let mut out = String::new();
        let state = if self.healthy { "HEALTHY" } else { "DEGRADED" };
        out.push_str(&format!(
            "health: {state} — {} alert(s), SLO `{}` over {} window(s) ({:.1}s each), {} node(s)\n",
            self.alerts.len(),
            self.slo.name,
            self.windows,
            self.window_ns as f64 / 1e9,
            self.nodes,
        ));
        out.push_str(&format!(
            "traffic: {} request(s), {} timeout(s), {:.2}s simulated\n",
            self.requests,
            self.timeouts,
            self.sim_ns as f64 / 1e9
        ));
        for o in &self.outcomes {
            out.push_str(&format!(
                "  {:<13} target {:>9.3}  violations {:>3}/{} ({:.1}s)  worst burn {:>7.2}  alerts {}\n",
                o.metric,
                o.target,
                o.violations,
                o.windows_evaluated,
                o.time_in_violation_ns as f64 / 1e9,
                o.worst_burn,
                o.alerts,
            ));
        }
        if !self.alerts.is_empty() || !self.anomalies.is_empty() {
            out.push_str("-- incident log --\n");
        }
        for a in &self.alerts {
            out.push_str(&format!(
                "[{:>8.2}s] ALERT {} {} fired (peak burn {:.2})\n",
                a.t_fire as f64 / 1e9,
                a.metric,
                a.rule,
                a.peak_burn
            ));
            for e in &a.timeline {
                out.push_str(&format!(
                    "            | {:>8.2}s node {} {} x{}: {}\n",
                    e.t as f64 / 1e9,
                    e.node,
                    e.kind,
                    e.count,
                    e.detail
                ));
            }
            if !a.flight_dump.is_empty() {
                out.push_str(&format!(
                    "            | flight-recorder dump: {}\n",
                    a.flight_dump
                ));
            }
            if a.t_resolve > 0 {
                out.push_str(&format!(
                    "[{:>8.2}s] RESOLVED {} {} after {:.2}s\n",
                    a.t_resolve as f64 / 1e9,
                    a.metric,
                    a.rule,
                    (a.t_resolve.saturating_sub(a.t_fire)) as f64 / 1e9
                ));
            } else {
                out.push_str(&format!(
                    "            | still open at run end ({:.2}s)\n",
                    self.sim_ns as f64 / 1e9
                ));
            }
        }
        for an in &self.anomalies {
            out.push_str(&format!(
                "[{:>8.2}s] ANOMALY {}{} value {:.4} (z {:.1})\n",
                an.t as f64 / 1e9,
                an.series,
                if an.node >= 0 {
                    format!(" node {}", an.node)
                } else {
                    String::new()
                },
                an.value,
                an.z
            ));
        }
        out
    }
}

/// A [`TelemetrySink`] that feeds a shared [`FleetMonitor`] inline —
/// events stream straight into monitor state without buffering.
pub struct MonitorSink {
    monitor: Rc<RefCell<FleetMonitor>>,
    node: u64,
}

impl MonitorSink {
    pub fn new(monitor: Rc<RefCell<FleetMonitor>>, node: u64) -> Self {
        Self { monitor, node }
    }
}

impl TelemetrySink for MonitorSink {
    #[inline]
    fn record(&mut self, event: Event) {
        self.monitor.borrow_mut().observe(self.node, &event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FaultInjected, FaultKind};
    use crate::slo::BurnRateRule;
    use proptest::prelude::*;

    const WIN: u64 = 1_000_000_000;

    /// Rollup from raw latencies through the same constructor the
    /// server uses.
    fn rollup(index: u64, lats: &[u64], timeouts: u64, power_w: f64) -> Event {
        let mut h = Histogram::new();
        for &l in lats {
            h.record(l);
        }
        Event::WindowRollup(WindowRollup::from_histogram(
            (index + 1) * WIN,
            index,
            WIN,
            &h,
            timeouts,
            power_w,
            1800.0,
            0,
        ))
    }

    fn fault(t: u64, kind: FaultKind) -> Event {
        Event::FaultInjected(FaultInjected {
            t,
            kind,
            core: 2,
            magnitude: 20.0,
        })
    }

    fn timeout_cfg() -> MonitorConfig {
        MonitorConfig::with_slo(SloSpec {
            name: "test".into(),
            p99_ms: 0.0,
            timeout_rate: 0.05,
            power_w: 0.0,
            goodput_ratio: 0.0,
            rules: vec![BurnRateRule {
                long_windows: 3,
                short_windows: 1,
                max_burn: 2.0,
            }],
        })
    }

    #[test]
    fn clean_stream_is_healthy_with_zero_alerts() {
        let mut m = FleetMonitor::new(timeout_cfg());
        for i in 0..10 {
            m.observe(0, &rollup(i, &[500_000, 700_000, 900_000], 0, 60.0));
        }
        let report = m.finish();
        assert!(report.healthy, "{}", report.to_json());
        assert!(report.alerts.is_empty());
        assert_eq!(report.windows, 10);
        assert_eq!(report.requests, 30);
        assert_eq!(
            report.outcomes[0].violations,
            0,
            "{}",
            report.render_incident_log()
        );
    }

    #[test]
    fn sustained_timeouts_fire_and_resolve_with_timeline() {
        let mut m = FleetMonitor::new(timeout_cfg());
        // 3 clean windows, then 4 burning (50% timeouts = burn 10),
        // then clean again — the 3w:1w rule needs 3 windows of history,
        // fires inside the burn, resolves after it.
        for i in 0..3 {
            m.observe(0, &rollup(i, &[1000, 1000], 0, 60.0));
        }
        for i in 3..7 {
            m.observe(0, &fault(i * WIN + WIN / 2, FaultKind::CoreStall));
            m.observe(0, &rollup(i, &[1000, 9_000_000], 1, 60.0));
        }
        for i in 7..12 {
            m.observe(0, &rollup(i, &[1000, 1000], 0, 60.0));
        }
        let report = m.finish();
        assert!(!report.healthy);
        assert_eq!(report.alerts.len(), 1, "{}", report.render_incident_log());
        let alert = &report.alerts[0];
        assert_eq!(alert.metric, METRIC_TIMEOUT);
        assert!(alert.t_resolve > alert.t_fire);
        assert!(
            alert.timeline.iter().any(|e| e.kind == "core-stall"),
            "timeline missing fault context: {:?}",
            alert.timeline
        );
        // Violations: the 4 burning windows, each a SloViolation event.
        assert_eq!(report.outcomes[0].violations, 4);
        assert_eq!(report.outcomes[0].time_in_violation_ns, 4 * WIN);
        let kinds: Vec<&str> = report.events.iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"SloViolation"));
        assert!(kinds.contains(&"Alert"));
        assert!(kinds.contains(&"AlertResolved"));
        // Events are time-ordered.
        let ts: Vec<u64> = report.events.iter().map(event_time).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted);
    }

    #[test]
    fn power_budget_objective_tracks_fleet_sum() {
        let cfg = MonitorConfig::with_slo(SloSpec {
            name: "power".into(),
            p99_ms: 0.0,
            timeout_rate: 0.0,
            power_w: 100.0,
            goodput_ratio: 0.0,
            rules: vec![BurnRateRule {
                long_windows: 2,
                short_windows: 1,
                max_burn: 1.0,
            }],
        });
        let mut m = FleetMonitor::new(cfg);
        // Two nodes at 60 W each: fleet power 120 W > 100 W budget.
        for i in 0..4 {
            m.observe(0, &rollup(i, &[1000], 0, 60.0));
            m.observe(1, &rollup(i, &[1000], 0, 60.0));
        }
        let report = m.finish();
        assert_eq!(report.nodes, 2);
        let o = &report.outcomes[0];
        assert_eq!(o.metric, METRIC_POWER);
        assert_eq!(o.violations, 4);
        assert!((o.worst_observed - 120.0).abs() < 1e-9);
        assert_eq!(report.alerts.len(), 1);
        assert_eq!(report.alerts[0].t_resolve, 0, "alert stays open");
    }

    #[test]
    fn goodput_collapse_fires_and_resolves() {
        let cfg = MonitorConfig::with_slo(SloSpec {
            name: "goodput".into(),
            p99_ms: 0.0,
            timeout_rate: 0.0,
            power_w: 0.0,
            goodput_ratio: 0.5,
            rules: vec![BurnRateRule {
                long_windows: 2,
                short_windows: 1,
                max_burn: 1.5,
            }],
        });
        let mut m = FleetMonitor::new(cfg);
        let mk = |i: u64, good: u64, wasted: u64, shed: u64| {
            let Event::WindowRollup(mut w) = rollup(i, &[1000, 1000, 1000, 1000], 0, 50.0) else {
                unreachable!()
            };
            w.good = good;
            w.wasted = wasted;
            w.shed = shed;
            Event::WindowRollup(w)
        };
        // 2 healthy windows, then 3 collapsed ones (goodput 20% against
        // a 50% floor: burn (1-0.2)/(1-0.5) = 1.6), then recovery.
        for i in 0..2 {
            m.observe(0, &mk(i, 4, 0, 0));
        }
        for i in 2..5 {
            m.observe(0, &mk(i, 1, 2, 2));
        }
        for i in 5..9 {
            m.observe(0, &mk(i, 4, 0, 0));
        }
        let report = m.finish();
        let o = report
            .outcomes
            .iter()
            .find(|o| o.metric == METRIC_GOODPUT)
            .expect("goodput objective evaluated");
        assert_eq!(o.violations, 3, "{}", report.render_incident_log());
        assert_eq!(report.alerts.len(), 1);
        let a = &report.alerts[0];
        assert_eq!(a.metric, METRIC_GOODPUT);
        assert!(
            a.t_resolve > a.t_fire,
            "collapse alert must resolve once goodput recovers"
        );
    }

    #[test]
    fn open_loop_windows_never_violate_goodput() {
        let mut cfg = timeout_cfg();
        cfg.slo.goodput_ratio = 0.9;
        let mut m = FleetMonitor::new(cfg);
        // Plain rollups carry good == wasted == shed == 0 (open loop).
        for i in 0..6 {
            m.observe(0, &rollup(i, &[1000, 2000], 0, 60.0));
        }
        let report = m.finish();
        let o = report
            .outcomes
            .iter()
            .find(|o| o.metric == METRIC_GOODPUT)
            .expect("goodput objective evaluated");
        assert_eq!(o.violations, 0);
        assert_eq!(o.worst_burn, 0.0);
        assert!(report.healthy);
    }

    #[test]
    fn merge_equals_single_monitor_over_all_streams() {
        let node0: Vec<Event> = (0..6).map(|i| rollup(i, &[1000, 2000], 1, 55.0)).collect();
        let node1: Vec<Event> = (0..6)
            .map(|i| rollup(i, &[4000, 8000, 100_000], 0, 65.0))
            .collect();
        let mut whole = FleetMonitor::new(timeout_cfg());
        whole.ingest(0, &node0);
        whole.ingest(1, &node1);
        let mut a = FleetMonitor::new(timeout_cfg());
        a.ingest(0, &node0);
        let mut b = FleetMonitor::new(timeout_cfg());
        b.ingest(1, &node1);
        a.merge(b);
        assert_eq!(whole.finish().to_json(), a.finish().to_json());
    }

    proptest! {
        /// Window merge is order-independent across nodes: any
        /// interleaving of per-node streams (each stream's own order
        /// preserved) produces a byte-identical health report.
        #[test]
        fn report_independent_of_node_interleaving(
            picks in proptest::collection::vec(0usize..3, 0..64),
            timeouts in proptest::collection::vec(0u64..3, 8),
        ) {
            let streams: Vec<Vec<Event>> = (0..3u64)
                .map(|node| {
                    let mut evs = Vec::new();
                    for i in 0..8u64 {
                        let idx = (node + i) as usize % timeouts.len();
                        evs.push(fault(i * WIN + node, FaultKind::DvfsFail));
                        evs.push(rollup(
                            i,
                            &[1000 * (node + 1), 50_000 + 1000 * i],
                            timeouts[idx],
                            50.0 + node as f64,
                        ));
                    }
                    evs
                })
                .collect();

            // Reference: node streams fed whole, in node order.
            let mut reference = FleetMonitor::new(timeout_cfg());
            for (node, evs) in streams.iter().enumerate() {
                reference.ingest(node as u64, evs);
            }

            // Candidate: interleave according to `picks`, then drain
            // remainders in reverse node order.
            let mut cursors = vec![0usize; streams.len()];
            let mut shuffled = FleetMonitor::new(timeout_cfg());
            for &p in &picks {
                if cursors[p] < streams[p].len() {
                    shuffled.observe(p as u64, &streams[p][cursors[p]]);
                    cursors[p] += 1;
                }
            }
            for node in (0..streams.len()).rev() {
                while cursors[node] < streams[node].len() {
                    shuffled.observe(node as u64, &streams[node][cursors[node]]);
                    cursors[node] += 1;
                }
            }
            prop_assert_eq!(reference.finish().to_json(), shuffled.finish().to_json());
        }
    }

    #[test]
    fn monitor_sink_feeds_monitor_inline() {
        let monitor = Rc::new(RefCell::new(FleetMonitor::new(timeout_cfg())));
        let rec = crate::Recorder::with_sink(Box::new(MonitorSink::new(Rc::clone(&monitor), 3)));
        if let Event::WindowRollup(w) = rollup(0, &[1000], 0, 42.0) {
            rec.emit(|| Event::WindowRollup(w.clone()));
        }
        let report = monitor.borrow().finish();
        assert_eq!(report.windows, 1);
        assert_eq!(report.nodes, 1);
    }
}
