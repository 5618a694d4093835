//! The typed event stream.
//!
//! Each variant wraps a named payload struct (the vendored serde derive
//! supports unit and tuple enum variants, so payloads live in their own
//! structs), serializing externally tagged:
//! `{"DrlStep":{"t":1000000000,...}}` — one JSON object per line in the
//! JSONL artifacts. Field names and meanings are documented in
//! EXPERIMENTS.md ("Telemetry artifacts"); changing them is a schema
//! change and must update that section (CI uploads an artifact so drift
//! is visible in review).
//!
//! All timestamps are **simulated** nanoseconds since run start. Events
//! deliberately carry no wall-clock data so an event stream is a pure
//! function of the job spec (the harness's byte-identical-across-
//! threads guarantee extends to telemetry artifacts).

use serde::{Deserialize, Error, Serialize, Value};

/// One DRL step of the hierarchical governor: the action taken for the
/// next `LongTime` window plus the reward decomposition of the window
/// that just closed. The raw material for Fig. 8's time series.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DrlStep {
    /// Step end time (simulated ns).
    pub t: u64,
    /// Arrivals during the step (the RPS curve).
    pub num_req: u64,
    /// Average socket power over the step, watts.
    pub power_w: f64,
    /// Action applied for the *next* window.
    pub base_freq: f64,
    pub scaling_coef: f64,
    /// Commanded admission threshold (1.0 for freq-only agents).
    pub admit_frac: f64,
    /// Mean commanded core frequency at the step boundary, MHz.
    pub avg_freq_mhz: f64,
    pub queue_len: u64,
    /// Timeouts during the step.
    pub timeouts: u64,
    /// Total reward granted for the elapsed step.
    pub reward: f64,
    /// Reward decomposition (pre-weighting, all >= 0).
    pub r_energy: f64,
    pub r_timeout: f64,
    pub r_queue: f64,
    /// Wasted-work term (overload extension; 0 without an overload plan).
    pub r_wasted: f64,
}

/// A core's commanded frequency actually changed (a command equal to
/// the current frequency is not a transition). Gated on
/// `TraceConfig::events`; [`crate::freq_series`] rebuilds a core's
/// series from these.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FreqTransition {
    pub t: u64,
    pub core: u64,
    pub from_mhz: u32,
    pub to_mhz: u32,
}

/// Time one core spent at one frequency level over the whole run
/// (emitted once per visited `(core, mhz)` pair at run end, cores then
/// levels ascending). The Figs. 9/10 residency data.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CoreResidency {
    pub core: u64,
    pub mhz: u32,
    pub ns: u64,
}

/// A core dequeued a request and started processing it (Fig. 4's green
/// marks). Gated on `TraceConfig::events`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RequestDispatch {
    pub t: u64,
    pub core: u64,
    pub id: u64,
}

/// A request completed (Fig. 4's blue marks). Gated on
/// `TraceConfig::events`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RequestComplete {
    pub t: u64,
    pub core: u64,
    pub id: u64,
    pub latency_ns: u64,
    pub timed_out: bool,
}

/// Periodic snapshot of the run-so-far latency distribution, read from
/// the server's closed monitor windows folded into one
/// [`crate::Histogram`] (percentiles are histogram upper bounds, within
/// one log-bucket of exact). Emitted just before each tick-closed
/// [`WindowRollup`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LatencySnapshot {
    pub t: u64,
    pub count: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub timeouts: u64,
}

/// DDPG training internals after the updates of one DRL step (one event
/// per step, not per gradient step — `updates` is cumulative, so update
/// throughput is its slope over `t`).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrainUpdate {
    pub t: u64,
    /// Cumulative DDPG updates performed so far.
    pub updates: u64,
    /// Diagnostics of the last update of the step.
    pub critic_loss: f64,
    /// Mean `Q(s, pi(s))` over the batch — what the actor ascends.
    pub actor_q: f64,
    /// Global L2 gradient norms before clipping.
    pub actor_grad_norm: f64,
    pub critic_grad_norm: f64,
    /// Replay-pool occupancy.
    pub replay_len: u64,
    pub replay_capacity: u64,
}

/// One training episode finished.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EpisodeEnd {
    pub episode: u64,
    /// DRL steps logged during the episode.
    pub steps: u64,
    pub mean_reward: f64,
    pub avg_power_w: f64,
    pub timeout_rate: f64,
    /// Cumulative DDPG updates after the episode.
    pub updates: u64,
}

/// A harness job began (first event of a per-job artifact).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobStart {
    pub job: u64,
    pub app: String,
    pub governor: String,
    pub seed: u64,
}

/// A harness job finished (last event of a per-job artifact). Carries
/// simulated-time lifecycle data only; wall-clock timings go through
/// the logger, never into artifacts.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobEnd {
    pub job: u64,
    /// Simulated run length (t=0 to last completion).
    pub sim_ns: u64,
    pub requests: u64,
    pub energy_j: f64,
    pub drl_steps: u64,
}

/// A fieldless enum over stable kebab-case tags: `ALL`, `as_str()`,
/// and (de)serialization as the tag, so JSONL artifacts carry the tag
/// string and an unknown tag is a one-line parse error.
macro_rules! tag_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident ($what:literal) {
            $($(#[$vmeta:meta])* $variant:ident => $tag:literal,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Every variant, in declaration order.
            pub(crate) const ALL: [$name; [$($tag),+].len()] = [$(Self::$variant),+];

            /// The stable tag.
            pub(crate) fn as_str(self) -> &'static str {
                match self {
                    $(Self::$variant => $tag,)+
                }
            }
        }

        impl Serialize for $name {
            fn serialize_value(&self) -> Value {
                Value::String(self.as_str().to_string())
            }
        }

        impl Deserialize for $name {
            fn deserialize_value(value: &Value) -> Result<Self, Error> {
                let tag = String::deserialize_value(value)?;
                Self::ALL
                    .into_iter()
                    .find(|v| v.as_str() == tag)
                    .ok_or_else(|| {
                        Error::custom(format!(
                            concat!("unknown ", $what, " `{}` ({})"),
                            tag,
                            Self::ALL.map(Self::as_str).join("|")
                        ))
                    })
            }
        }
    };
}

tag_enum! {
    /// Why an attempt was shed.
    pub enum ShedReason ("shed reason") {
        /// The bounded queue was full and the policy sheds the arrival.
        QueueFull => "queue-full",
        /// The admission controller rejected the arrival.
        Admission => "admission",
        /// `DropOldest` evicted the attempt from the queue to make room.
        Evicted => "evicted",
    }
}

tag_enum! {
    /// What a [`FaultInjected`] event reports: a discrete fault the
    /// simulator's `FaultPlan` injected, or an internal fault the
    /// DeepPower governor detected.
    pub enum FaultKind ("fault kind") {
        /// A DVFS write was dropped; the core kept its frequency.
        DvfsFail => "dvfs-fail",
        /// A DVFS write paid an extra-latency spike.
        DvfsSpike => "dvfs-spike",
        /// A core stall window opened.
        CoreStall => "core-stall",
        /// The stalled core came back (not counted as an injection).
        CoreOnline => "core-online",
        /// A sensor refresh was dropped; the governor saw stale counters.
        SensorStale => "sensor-stale",
        /// A DDPG update diverged and the agent rolled back.
        TrainDiverged => "train-diverged",
        /// The replay pool rejected a non-finite transition.
        ReplayReject => "replay-reject",
        /// The actor emitted a non-finite action.
        ActionNan => "action-nan",
    }
}

tag_enum! {
    /// What a [`SafetyAction`] event reports.
    pub enum SafetyKind ("safety action") {
        /// The SLA watchdog tripped and snapped busy cores to turbo.
        WatchdogTurbo => "watchdog-turbo",
        /// A held command decayed toward the maximum frequency.
        HoldDecay => "hold-decay",
        /// An unhealthy policy fell back to the maximum frequency.
        MaxfreqFallback => "maxfreq-fallback",
    }
}

/// A request was rejected at admission time — bounded-queue overflow,
/// an admission-controller decision, or eviction by `DropOldest` —
/// and its client received an immediate failure.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Shed {
    pub t: u64,
    /// Server-side id of the rejected attempt.
    pub id: u64,
    /// Stable client-visible id (survives retries).
    pub client: u64,
    /// Attempt ordinal (0 = first submission).
    pub attempt: u32,
    pub reason: ShedReason,
}

/// A client's per-attempt deadline expired before the server answered:
/// the client walked away. Any later completion of this attempt is
/// wasted work.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Abandoned {
    pub t: u64,
    pub id: u64,
    pub client: u64,
    pub attempt: u32,
    /// How long the client waited before giving up, ns.
    pub waited_ns: u64,
}

/// A client scheduled a retry after a shed or an abandonment. Emitted
/// at scheduling time; the retried attempt arrives `delay_ns` later
/// under the new server-side `id` (the client id is unchanged).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Retry {
    pub t: u64,
    /// Server-side id the retried attempt will arrive under.
    pub id: u64,
    pub client: u64,
    /// Attempt ordinal of the *retry* (≥ 1).
    pub attempt: u32,
    /// Backoff + jitter until the retry arrives, ns.
    pub delay_ns: u64,
}

/// One discrete injected fault (from the simulator's `FaultPlan`) or a
/// detected internal fault (training divergence, rejected replay
/// transition), serialized with `kind` as its [`FaultKind`] tag.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultInjected {
    pub t: u64,
    pub kind: FaultKind,
    /// Affected core, or -1 when the fault is not core-scoped.
    pub core: i64,
    /// Fault-specific magnitude (spike/stall ns, dropped target MHz…),
    /// 0 when not applicable.
    pub magnitude: f64,
}

/// The `SafetyGovernor` intervened on behalf of its wrapped policy,
/// serialized with `action` as its [`SafetyKind`] tag.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SafetyAction {
    pub t: u64,
    pub action: SafetyKind,
    /// Affected core, or -1 when the action covers the whole socket.
    pub core: i64,
}

/// Tumbling-window rollup emitted by the server session once per
/// monitor window (default one simulated second, tick-aligned). The
/// raw material of the fleet health plane: windows with equal `index`
/// across nodes cover the same simulated interval, so a fleet monitor
/// can merge them commutatively. `bucket_ubs`/`bucket_counts` are the
/// nonzero log-histogram buckets of the window's latency distribution
/// (parallel arrays), enough to rebuild merged percentiles exactly as
/// [`crate::Histogram`] would report them; `min_ns`/`max_ns` are exact
/// so merged percentiles clamp to true extremes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WindowRollup {
    /// Window close time (simulated ns).
    pub t: u64,
    /// Tumbling-window ordinal since run start (aligned across nodes).
    pub index: u64,
    /// Actual covered span, ns (the final window may be partial).
    pub window_ns: u64,
    /// Completions inside the window.
    pub count: u64,
    pub timeouts: u64,
    /// Exact latency extremes over the window (0 when `count == 0`).
    pub min_ns: u64,
    pub max_ns: u64,
    pub mean_ns: f64,
    /// Histogram-bucket percentiles clamped to the exact extremes.
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    /// Mean socket power over the window, watts (true meter, un-noised).
    pub power_w: f64,
    /// Tick-sampled mean commanded core frequency, MHz.
    pub avg_freq_mhz: f64,
    /// Queue length at window close.
    pub queue_len: u64,
    /// Completions whose client was still waiting (goodput).
    pub good: u64,
    /// Completions after the client abandoned (wasted work).
    pub wasted: u64,
    /// Requests shed at admission inside the window.
    pub shed: u64,
    /// Nonzero latency-histogram buckets: upper bounds and counts.
    pub bucket_ubs: Vec<u64>,
    pub bucket_counts: Vec<u64>,
    /// Tail-exemplar trace links: client ids of the window's slowest
    /// traced chains, latency-descending (empty when request tracing is
    /// off). Each id resolves to a `RequestTrace` event emitted just
    /// before this rollup.
    #[serde(default)]
    pub exemplars: Vec<u64>,
}

impl WindowRollup {
    /// Assemble a rollup from a window's latency histogram plus the
    /// window scalars — the single code path used by the server session
    /// and by tests, so merged percentiles stay reproducible.
    #[allow(clippy::too_many_arguments)]
    pub fn from_histogram(
        t: u64,
        index: u64,
        window_ns: u64,
        hist: &crate::histogram::Histogram,
        timeouts: u64,
        power_w: f64,
        avg_freq_mhz: f64,
        queue_len: u64,
    ) -> Self {
        let (bucket_ubs, bucket_counts) = hist.nonzero_buckets().into_iter().unzip();
        Self {
            t,
            index,
            window_ns,
            count: hist.count(),
            timeouts,
            min_ns: hist.min(),
            max_ns: hist.max(),
            mean_ns: hist.mean(),
            p50_ns: hist.percentile(0.50),
            p95_ns: hist.percentile(0.95),
            p99_ns: hist.percentile(0.99),
            power_w,
            avg_freq_mhz,
            queue_len,
            good: 0,
            wasted: 0,
            shed: 0,
            bucket_ubs,
            bucket_counts,
            exemplars: Vec::new(),
        }
    }
}

/// One monitor window breached an SLO threshold (instantaneous, per
/// window — sustained breaches escalate to [`Alert`] via burn-rate
/// rules). `metric` is a stable tag: `p99-latency`, `timeout-rate`,
/// `power`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SloViolation {
    /// Close time of the violating window (simulated ns).
    pub t: u64,
    /// Tumbling-window ordinal.
    pub window: u64,
    pub metric: String,
    /// Observed value in the metric's native unit (ms, rate, watts).
    pub observed: f64,
    pub target: f64,
    /// Error-budget burn rate of the window (1.0 = exactly on budget).
    pub burn: f64,
}

/// One line of an [`Alert`]'s incident timeline: context events
/// (`FaultInjected` / `SafetyAction` / `DrlStep`) aggregated per
/// window, node and kind in the windows preceding the trip.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IncidentEntry {
    /// Simulated time of the last occurrence.
    pub t: u64,
    pub node: u64,
    /// Context tag (`dvfs-fail`, `core-stall`, `watchdog-turbo`,
    /// `drl-step`, …).
    pub kind: String,
    /// Occurrences of this kind on this node in this window.
    pub count: u64,
    /// Human-readable detail of the last occurrence.
    pub detail: String,
}

/// A burn-rate rule tripped: both its long and short trailing window
/// averages of the error-budget burn rate met the threshold. Carries
/// the incident timeline — recent fault/safety/decision context
/// preceding the trip.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// Close time of the window that tripped the rule (simulated ns).
    pub t: u64,
    pub metric: String,
    /// Rule label, e.g. `burn>=2/5w:2w`.
    pub rule: String,
    /// Short-window average burn at the trip.
    pub burn: f64,
    pub timeline: Vec<IncidentEntry>,
}

/// A previously fired [`Alert`] recovered: the short-window average
/// burn fell back below the rule threshold.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AlertResolved {
    /// Close time of the recovering window (simulated ns).
    pub t: u64,
    pub metric: String,
    pub rule: String,
    /// Time from trip to recovery, simulated ns.
    pub duration_ns: u64,
}

/// The unified telemetry event.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Event {
    DrlStep(DrlStep),
    FreqTransition(FreqTransition),
    CoreResidency(CoreResidency),
    RequestDispatch(RequestDispatch),
    RequestComplete(RequestComplete),
    LatencySnapshot(LatencySnapshot),
    TrainUpdate(TrainUpdate),
    EpisodeEnd(EpisodeEnd),
    JobStart(JobStart),
    JobEnd(JobEnd),
    FaultInjected(FaultInjected),
    SafetyAction(SafetyAction),
    Shed(Shed),
    Abandoned(Abandoned),
    Retry(Retry),
    WindowRollup(WindowRollup),
    SloViolation(SloViolation),
    Alert(Alert),
    AlertResolved(AlertResolved),
    RequestTrace(crate::trace::RequestTrace),
}

impl Event {
    /// Stable kind tag (matches the JSONL object key).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::DrlStep(_) => "DrlStep",
            Event::FreqTransition(_) => "FreqTransition",
            Event::CoreResidency(_) => "CoreResidency",
            Event::RequestDispatch(_) => "RequestDispatch",
            Event::RequestComplete(_) => "RequestComplete",
            Event::LatencySnapshot(_) => "LatencySnapshot",
            Event::TrainUpdate(_) => "TrainUpdate",
            Event::EpisodeEnd(_) => "EpisodeEnd",
            Event::JobStart(_) => "JobStart",
            Event::JobEnd(_) => "JobEnd",
            Event::FaultInjected(_) => "FaultInjected",
            Event::SafetyAction(_) => "SafetyAction",
            Event::Shed(_) => "Shed",
            Event::Abandoned(_) => "Abandoned",
            Event::Retry(_) => "Retry",
            Event::WindowRollup(_) => "WindowRollup",
            Event::SloViolation(_) => "SloViolation",
            Event::Alert(_) => "Alert",
            Event::AlertResolved(_) => "AlertResolved",
            Event::RequestTrace(_) => "RequestTrace",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_roundtrip_through_json() {
        let events = vec![
            Event::DrlStep(DrlStep {
                t: 1_000_000_000,
                num_req: 1200,
                power_w: 87.5,
                base_freq: 0.3,
                scaling_coef: 0.9,
                admit_frac: 1.0,
                avg_freq_mhz: 1450.0,
                queue_len: 4,
                timeouts: 0,
                reward: -0.25,
                r_energy: 0.4,
                r_timeout: 0.0,
                r_queue: 0.1,
                r_wasted: 0.0,
            }),
            Event::FreqTransition(FreqTransition {
                t: 5,
                core: 3,
                from_mhz: 800,
                to_mhz: 2100,
            }),
            Event::JobStart(JobStart {
                job: 7,
                app: "xapian".into(),
                governor: "deeppower".into(),
                seed: 42,
            }),
            Event::FaultInjected(FaultInjected {
                t: 2_000_000,
                kind: FaultKind::DvfsFail,
                core: 3,
                magnitude: 2100.0,
            }),
            Event::SafetyAction(SafetyAction {
                t: 3_000_000,
                action: SafetyKind::WatchdogTurbo,
                core: -1,
            }),
            Event::WindowRollup(WindowRollup {
                t: 1_000_000_000,
                index: 0,
                window_ns: 1_000_000_000,
                count: 1200,
                timeouts: 3,
                min_ns: 90_000,
                max_ns: 9_100_000,
                mean_ns: 640_000.0,
                p50_ns: 540_000,
                p95_ns: 2_100_000,
                p99_ns: 8_900_000,
                power_w: 84.0,
                avg_freq_mhz: 1900.0,
                queue_len: 2,
                good: 1190,
                wasted: 10,
                shed: 7,
                bucket_ubs: vec![98_303, 589_823, 9_437_183],
                bucket_counts: vec![1, 1195, 4],
                exemplars: vec![41, 12],
            }),
            Event::Shed(Shed {
                t: 1_500_000,
                id: (1 << 48) + 3,
                client: 41,
                attempt: 1,
                reason: ShedReason::QueueFull,
            }),
            Event::Abandoned(Abandoned {
                t: 2_500_000,
                id: 41,
                client: 41,
                attempt: 0,
                waited_ns: 2_000_000,
            }),
            Event::Retry(Retry {
                t: 2_500_000,
                id: (1 << 48) + 4,
                client: 41,
                attempt: 1,
                delay_ns: 650_000,
            }),
            Event::SloViolation(SloViolation {
                t: 2_000_000_000,
                window: 1,
                metric: "timeout-rate".into(),
                observed: 0.12,
                target: 0.05,
                burn: 2.4,
            }),
            Event::Alert(Alert {
                t: 5_000_000_000,
                metric: "p99-latency".into(),
                rule: "burn>=2/5w:2w".into(),
                burn: 3.1,
                timeline: vec![IncidentEntry {
                    t: 4_400_000_000,
                    node: 1,
                    kind: "core-stall".into(),
                    count: 2,
                    detail: "core 5, 20.0 ms".into(),
                }],
            }),
            Event::AlertResolved(AlertResolved {
                t: 9_000_000_000,
                metric: "p99-latency".into(),
                rule: "burn>=2/5w:2w".into(),
                duration_ns: 4_000_000_000,
            }),
            Event::RequestTrace(crate::trace::RequestTrace {
                client: 41,
                node: 2,
                first_submit: 1_500_000,
                end: 4_100_000,
                latency_ns: 2_600_000,
                sla_ns: 2_000_000,
                timed_out: true,
                outcome: "completed".into(),
                sampled: "exemplar".into(),
                attempts: vec![crate::trace::AttemptTrace {
                    id: (1 << 48) + 4,
                    attempt: 1,
                    outcome: "completed".into(),
                    spans: vec![crate::trace::TraceSpan {
                        name: "service".into(),
                        start: 3_600_000,
                        end: 4_100_000,
                        core: 3,
                        freq_mhz: 1800,
                        admit_frac: 0.5,
                        detail: String::new(),
                    }],
                }],
            }),
        ];
        for ev in &events {
            let json = serde_json::to_string(ev).unwrap();
            assert!(json.contains(ev.kind()), "{json}");
            let back: Event = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, ev);
        }
    }

    #[test]
    fn kind_matches_serialized_tag() {
        let ev = Event::CoreResidency(CoreResidency {
            core: 0,
            mhz: 800,
            ns: 10,
        });
        let json = serde_json::to_string(&ev).unwrap();
        assert!(json.starts_with(&format!("{{\"{}\"", ev.kind())));
    }
}
