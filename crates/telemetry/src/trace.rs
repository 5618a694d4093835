//! Deterministic request-lifecycle tracing.
//!
//! Each sampled client request becomes one [`RequestTrace`]: every
//! attempt of the retry chain (the engine's stable `client_id`/`attempt`
//! machinery) hangs under the client id, with spans for queue
//! residency, service (carrying the core id, commanded frequency and
//! the admission threshold in effect at dispatch), sheds, abandonments
//! and retry backoff. The chain's `latency_ns` is the *client-visible*
//! latency the SLA is charged against — completion (or final give-up)
//! minus first submission — which by construction equals the latency
//! the engine's overload accounting computes from
//! `Request::client_arrival()` (pinned by proptest in `simd-server`).
//!
//! Sampling is seeded and deterministic, from two complementary
//! directions:
//!
//! * **Head sampling** — a splitmix64 hash of `(client_id, seed)`
//!   against `sample · 2⁶⁴`; a sampled chain is emitted the moment it
//!   finalizes.
//! * **Tail exemplars** — the slowest `exemplars` chain finalizations
//!   of every tumbling window are *always* emitted, retroactively, so
//!   the worst requests are traced even at a 0% head-sampling rate. The
//!   chosen client ids ride on the window's [`crate::WindowRollup`]
//!   (`exemplars` field), linking fleet-merged percentiles to concrete
//!   traces.
//!
//! Pending state is only what can still be emitted: the open chains,
//! and the window's `exemplars` slowest finalized chains so far, held
//! in a bounded heap as exemplar candidates. A chain that finalizes
//! outside that top-k, or is evicted from it, can never be emitted
//! again, so its records are dropped on the spot. Every record is
//! `Copy`: one per attempt, keyed by server id and linked to the
//! chain's previous attempt, and one per chain, keyed by client id.
//! Spans and strings exist only in emitted traces, built from those
//! records by one function.
//!
//! Trace events are emitted only at boundaries the engine visits anyway
//! (finalization inside an existing phase, exemplars at the window
//! roll), carry only simulated-time data, and the tracer writes nothing
//! back into the simulation — results are bit-identical with tracing on
//! or off, and trace streams are byte-identical at any `--threads`
//! (asserted in `fleet`). An inactive plan reduces every hook to one
//! branch.
//!
//! The [`FlightRecorder`] is the monitor-side ring: it files every
//! received trace under `(window, node)`, keeps the last N windows per
//! node, and is merged across the threaded fleet driver's workers like
//! the rest of [`crate::FleetMonitor`] state. When an alert fires, the
//! CLI dumps the retained traces around the tripping window (JSONL +
//! Chrome trace via [`traces_to_chrome`]) and attaches the dump path to
//! the incident timeline.

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};
use serde_json::{Number, Value};

use crate::event::{Event, ShedReason};
use crate::recorder::Recorder;

/// Span name: time an admitted attempt waited in the server queue.
pub const SPAN_QUEUE: &str = "queue";
/// Span name: dispatch to completion on a core.
pub const SPAN_SERVICE: &str = "service";
/// Span name (instant): the attempt was shed at admission.
pub const SPAN_SHED: &str = "shed";
/// Span name (instant): the client's deadline expired.
pub const SPAN_ABANDON: &str = "abandon";
/// Span name: client-side backoff between a failed attempt and its
/// retry's arrival.
pub const SPAN_BACKOFF: &str = "backoff";

/// Why a trace was emitted.
pub(crate) const SAMPLED_HEAD: &str = "head";
pub(crate) const SAMPLED_EXEMPLAR: &str = "exemplar";

/// Deterministic request-tracing knobs. Inactive by default.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TracePlan {
    /// Head-sampling probability in `[0, 1]`, decided per client id by
    /// seeded hash (every attempt of a chain shares the decision).
    pub sample: f64,
    /// Guaranteed tail exemplars: the slowest K chain finalizations of
    /// every tumbling window are always emitted.
    pub exemplars: u32,
    /// Seed folded into the head-sampling hash.
    pub seed: u64,
    /// Node id stamped into emitted traces (fleet drivers set this;
    /// single-node runs stay 0).
    pub node: u64,
}

impl TracePlan {
    /// Tracing off: every hook is one branch.
    pub fn none() -> Self {
        Self {
            sample: 0.0,
            exemplars: 0,
            seed: 0,
            node: 0,
        }
    }

    /// Head sampling at `sample` plus `exemplars` tail exemplars per
    /// window.
    pub fn sampled(sample: f64, exemplars: u32, seed: u64) -> Self {
        Self {
            sample,
            exemplars,
            seed,
            node: 0,
        }
    }

    pub(crate) fn is_active(&self) -> bool {
        self.sample > 0.0 || self.exemplars > 0
    }

    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.sample) {
            return Err(format!(
                "trace sample must be in [0, 1], got {}",
                self.sample
            ));
        }
        Ok(())
    }
}

impl Default for TracePlan {
    fn default() -> Self {
        Self::none()
    }
}

/// One span of an attempt's lifecycle. Instant spans (`shed`,
/// `abandon`) have `start == end`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceSpan {
    /// `queue` | `service` | `shed` | `abandon` | `backoff`.
    pub name: String,
    /// Simulated ns.
    pub start: u64,
    pub end: u64,
    /// Core the span ran on, or -1 when not core-scoped.
    pub core: i64,
    /// Commanded frequency of that core at dispatch (0 when n/a).
    pub freq_mhz: u32,
    /// Admission threshold in effect at dispatch (1.0 when n/a).
    pub admit_frac: f64,
    /// Shed reason, abandon wait, `wasted` marker, … — stable-ish
    /// human-readable context.
    pub detail: String,
}

impl TraceSpan {
    fn plain(name: &str, start: u64, end: u64, detail: &str) -> Self {
        Self {
            name: name.to_string(),
            start,
            end,
            core: -1,
            freq_mhz: 0,
            admit_frac: 1.0,
            detail: detail.to_string(),
        }
    }

    pub(crate) fn dur_ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// One attempt (server-side id) of a retry chain.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AttemptTrace {
    /// Server-side id of this attempt.
    pub id: u64,
    /// Attempt ordinal (0 = first submission).
    pub attempt: u32,
    /// `completed` | `shed` | `abandoned` | `open` (still in flight
    /// when the chain was flushed).
    pub outcome: String,
    pub spans: Vec<TraceSpan>,
}

/// One client request's full lifecycle across all retry attempts.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RequestTrace {
    /// Stable client-visible id the chain hangs under.
    pub client: u64,
    /// Node the chain ran on (retries never change nodes — the
    /// closed-loop client lives inside one node's session).
    pub node: u64,
    /// First submission time — what the SLA latency is charged from.
    pub first_submit: u64,
    /// Chain end: final completion, or the moment the client gave up.
    pub end: u64,
    /// Client-visible latency: `end - first_submit`.
    pub latency_ns: u64,
    pub sla_ns: u64,
    pub timed_out: bool,
    /// `completed` | `failed` (every attempt shed/abandoned and no
    /// retry budget left).
    pub outcome: String,
    /// Why the trace was emitted: `head` | `exemplar`.
    pub sampled: String,
    pub attempts: Vec<AttemptTrace>,
}

impl RequestTrace {
    /// Total simulated time spent in spans named `name`, across all
    /// attempts (the queue-vs-service breakdown's raw read).
    pub fn span_total_ns(&self, name: &str) -> u64 {
        self.attempts
            .iter()
            .flat_map(|a| &a.spans)
            .filter(|s| s.name == name)
            .map(TraceSpan::dur_ns)
            .sum()
    }

    /// Spans of `name` across all attempts, chain order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a TraceSpan> {
        self.attempts
            .iter()
            .flat_map(|a| &a.spans)
            .filter(move |s| s.name == name)
    }
}

/// splitmix64 — the standard 64-bit finalizer; uniform enough that
/// comparing against `sample · 2⁶⁴` head-samples an unbiased,
/// seed-stable fraction of client ids.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Map hasher for server/client ids: one splitmix64 round. The hooks
/// run once per request on the engine's hot path, where the default
/// SipHash costs more than the rest of the bookkeeping. Unlike std's
/// `RandomState` it is unseeded, so a table's probe sequence, and with
/// it when the table grows and allocates, repeats exactly run to run.
#[derive(Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = splitmix64(self.0 ^ b as u64);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = splitmix64(x);
    }
}

/// `u64`-keyed map hashed with [`IdHasher`].
pub(crate) type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;
/// `u64` set hashed with [`IdHasher`].
pub type IdSet = HashSet<u64, BuildHasherDefault<IdHasher>>;

/// Dispatch context of an attempt: when it left the queue, the core it
/// ran on, and the commanded frequency and admission threshold then in
/// effect.
#[derive(Clone, Copy, Debug)]
struct Dispatch {
    t: u64,
    core: usize,
    freq_mhz: u32,
    admit_frac: f64,
}

/// How an attempt ended.
#[derive(Clone, Copy, Debug)]
enum End {
    /// Still queued or running.
    Open,
    Shed {
        t: u64,
        reason: ShedReason,
    },
    /// Left its core; `wasted` when the client had already abandoned it.
    Completed {
        t: u64,
        wasted: bool,
    },
}

/// One attempt, keyed by its server id, kept while its chain is open
/// or an exemplar candidate.
#[derive(Clone, Copy, Debug)]
struct Attempt {
    client: u64,
    ordinal: u32,
    /// Server id of the chain's previous attempt.
    prev: Option<u64>,
    /// Start of the client-side backoff before this attempt's offer
    /// (the offer time itself when there was none).
    backoff_from: u64,
    offered_at: u64,
    dispatch: Option<Dispatch>,
    /// `(t, waited_ns)` when the client's deadline expired.
    abandoned: Option<(u64, u64)>,
    end: End,
}

impl Attempt {
    /// `completed` > `abandoned` > `shed` > `open`.
    fn outcome(&self) -> &'static str {
        match (self.end, self.abandoned) {
            (End::Completed { wasted: false, .. }, _) => "completed",
            (_, Some(_)) => "abandoned",
            (End::Shed { .. }, None) => "shed",
            _ => "open",
        }
    }

    /// The attempt's emitted form. Spans run in event order: backoff,
    /// abandon, then `queue`("evicted") + `shed`, `shed`, or `queue` +
    /// `service`.
    fn trace(&self, id: u64) -> AttemptTrace {
        let mut spans = Vec::new();
        if self.backoff_from < self.offered_at {
            spans.push(TraceSpan::plain(
                SPAN_BACKOFF,
                self.backoff_from,
                self.offered_at,
                "",
            ));
        }
        if let Some((t, waited_ns)) = self.abandoned {
            let detail = format!("waited {waited_ns} ns");
            spans.push(TraceSpan::plain(SPAN_ABANDON, t, t, &detail));
        }
        match self.end {
            End::Open => {}
            End::Shed { t, reason } => {
                // An evicted attempt sat in the queue until now; a fresh
                // shed never entered it.
                if reason == ShedReason::Evicted {
                    spans.push(TraceSpan::plain(
                        SPAN_QUEUE,
                        self.offered_at,
                        t,
                        reason.as_str(),
                    ));
                }
                spans.push(TraceSpan::plain(SPAN_SHED, t, t, reason.as_str()));
            }
            End::Completed { t, wasted } => {
                if let Some(d) = self.dispatch {
                    spans.push(TraceSpan::plain(SPAN_QUEUE, self.offered_at, d.t, ""));
                    spans.push(TraceSpan {
                        core: d.core as i64,
                        freq_mhz: d.freq_mhz,
                        admit_frac: d.admit_frac,
                        ..TraceSpan::plain(SPAN_SERVICE, d.t, t, if wasted { "wasted" } else { "" })
                    });
                }
            }
        }
        AttemptTrace {
            id,
            attempt: self.ordinal,
            outcome: self.outcome().into(),
            spans,
        }
    }
}

/// One retry chain: keyed by client id while open, then, once
/// finalized, an exemplar candidate until the window rolls or a slower
/// chain evicts it.
#[derive(Clone, Copy, Debug)]
struct Chain {
    client: u64,
    /// Server id of the latest attempt (the head of the `prev` links).
    last: u64,
    first_submit: u64,
    sla_ns: u64,
    /// Where the next retry's backoff span starts: the end of the last
    /// failed attempt.
    backoff_from: u64,
    /// Finalization time (0 while open).
    end: u64,
    /// Finalized as `failed` rather than `completed`.
    failed: bool,
}

impl Chain {
    fn latency_ns(&self) -> u64 {
        self.end.saturating_sub(self.first_submit)
    }
}

/// A finalized chain ranked for tail exemplars: greater is slower, ties
/// broken by the lower client id. The key is unique per chain, so the
/// window's top k are one well-defined set.
#[derive(Clone, Copy, Debug)]
struct Candidate(Chain);

impl Candidate {
    fn key(&self) -> (u64, Reverse<u64>) {
        (self.0.latency_ns(), Reverse(self.0.client))
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// The session-side tracer. Owned by the engine; hooks take primitives
/// so `telemetry` needs no view of the server's `Request` type. All
/// state is keyed on ids and updated in engine event order, so the
/// trace stream is a pure function of the run spec.
///
/// Pending state is all `Copy`: one record per attempt (keyed by server
/// id, linked to the chain's previous attempt) and one per chain (keyed
/// by client id). Records live only while they can still be emitted:
/// those of open chains, and of the at most `exemplars` finalized
/// chains that are the window's slowest so far. A finalizing chain that
/// ranks below all of them, or the candidate it displaces, has its
/// records dropped at once, so pending state scales with the chains in
/// flight, not with the window. The hooks only update those records and
/// never touch the allocator once the maps have grown to that working
/// set. A [`RequestTrace`], with its spans and strings, is built from
/// the records only when a chain is emitted — as a head sample when it
/// finalizes, or as a tail exemplar at the window roll.
#[derive(Debug)]
pub struct RequestTracer {
    plan: TracePlan,
    enabled: bool,
    /// `sample · 2⁶⁴`, saturating.
    threshold: u64,
    /// server attempt id -> attempt, while its chain is open or a
    /// candidate.
    attempts: IdMap<Attempt>,
    /// client id -> open chain.
    chains: IdMap<Chain>,
    /// The window's slowest `exemplars` finalized chains so far, the
    /// lowest-ranked on top, to be evicted first.
    candidates: BinaryHeap<Reverse<Candidate>>,
}

impl RequestTracer {
    /// `rec_enabled` gates the tracer alongside the plan: without a
    /// live recorder there is nowhere to emit, so all bookkeeping is
    /// skipped and every hook is one branch.
    pub fn new(plan: TracePlan, rec_enabled: bool) -> Self {
        plan.validate().expect("invalid trace plan");
        let threshold = if plan.sample >= 1.0 {
            u64::MAX
        } else {
            (plan.sample * u64::MAX as f64) as u64
        };
        Self {
            plan,
            enabled: plan.is_active() && rec_enabled,
            threshold,
            attempts: IdMap::default(),
            chains: IdMap::default(),
            candidates: BinaryHeap::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self::new(TracePlan::none(), false)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn head_sampled(&self, client: u64) -> bool {
        self.plan.sample > 0.0 && splitmix64(client ^ self.plan.seed) <= self.threshold
    }

    /// An attempt that has not ended, with its open chain. Events for
    /// the attempts of a finalized chain (a wasted completion landing
    /// after the client walked away for good) find none and are
    /// dropped.
    fn live(&mut self, id: u64) -> Option<(&mut Attempt, &mut Chain)> {
        let attempt = self
            .attempts
            .get_mut(&id)
            .filter(|a| matches!(a.end, End::Open))?;
        let chain = self.chains.get_mut(&attempt.client)?;
        Some((attempt, chain))
    }

    /// An attempt was offered to the server (workload arrival, burst
    /// clone or retry), before the admission decision. A retry extends
    /// its client's open chain after the backoff since the failed
    /// attempt; a first submission opens a chain.
    pub fn on_offer(
        &mut self,
        now: u64,
        id: u64,
        client: u64,
        attempt: u32,
        first_arrival: u64,
        sla_ns: u64,
    ) {
        if !self.enabled {
            return;
        }
        let (prev, backoff_from) = match self.chains.get_mut(&client) {
            Some(chain) => (
                Some(std::mem::replace(&mut chain.last, id)),
                chain.backoff_from,
            ),
            None => {
                self.chains.insert(
                    client,
                    Chain {
                        client,
                        last: id,
                        first_submit: first_arrival,
                        sla_ns,
                        backoff_from: first_arrival,
                        end: 0,
                        failed: false,
                    },
                );
                (None, now)
            }
        };
        self.attempts.insert(
            id,
            Attempt {
                client,
                ordinal: attempt,
                prev,
                backoff_from,
                offered_at: now,
                dispatch: None,
                abandoned: None,
                end: End::Open,
            },
        );
    }

    /// The attempt was shed at admission or evicted from the queue. The
    /// retry decision follows separately ([`Self::on_give_up`] closes
    /// the chain when none comes).
    pub fn on_shed(&mut self, now: u64, id: u64, reason: ShedReason) {
        if !self.enabled {
            return;
        }
        if let Some((attempt, chain)) = self.live(id) {
            attempt.end = End::Shed { t: now, reason };
            // Evicting an abandoned attempt is no news to its client:
            // the retry's backoff runs from the abandonment.
            if attempt.abandoned.is_none() {
                chain.backoff_from = now;
            }
        }
    }

    /// The attempt left the queue for a core. Captures the controller
    /// context in effect: commanded core frequency and the admission
    /// threshold.
    pub fn on_dispatch(&mut self, now: u64, id: u64, core: usize, freq_mhz: u32, admit_frac: f64) {
        if !self.enabled {
            return;
        }
        if let Some(attempt) = self.attempts.get_mut(&id) {
            attempt.dispatch = Some(Dispatch {
                t: now,
                core,
                freq_mhz,
                admit_frac,
            });
        }
    }

    /// The client's per-attempt deadline expired. The attempt may still
    /// be queued or running — its queue/service spans close later, as
    /// wasted work.
    pub fn on_abandon(&mut self, now: u64, id: u64, waited_ns: u64) {
        if !self.enabled {
            return;
        }
        if let Some((attempt, chain)) = self.live(id) {
            attempt.abandoned = Some((now, waited_ns));
            chain.backoff_from = now;
        }
    }

    /// A server completion for `id`. `wasted == false` (the client was
    /// still waiting) finalizes the chain as `completed`; a wasted
    /// completion only ends the attempt — the chain already moved on
    /// (retry in flight).
    pub fn on_complete(&mut self, now: u64, id: u64, wasted: bool, rec: &Recorder) {
        if !self.enabled {
            return;
        }
        let Some((attempt, chain)) = self.live(id) else {
            return;
        };
        attempt.end = End::Completed { t: now, wasted };
        if !wasted {
            let client = chain.client;
            self.finalize(client, now, false, rec);
        }
    }

    /// The client's retry budget ran out (or the retry draw failed)
    /// after a shed/abandonment: the chain is over, as a failure, at
    /// `now`.
    pub fn on_give_up(&mut self, now: u64, client: u64, rec: &Recorder) {
        if !self.enabled {
            return;
        }
        self.finalize(client, now, true, rec);
    }

    /// Close the client's open chain, emit it if head-sampled, and offer
    /// it to the window's exemplar candidates. Whichever chain that
    /// leaves out — this one, or the candidate it displaces — can never
    /// be emitted, so its attempts are dropped.
    fn finalize(&mut self, client: u64, now: u64, failed: bool, rec: &Recorder) {
        let Some(mut chain) = self.chains.remove(&client) else {
            return;
        };
        chain.end = now;
        chain.failed = failed;
        if self.head_sampled(client) {
            rec.emit(|| Event::RequestTrace(self.trace(&chain, SAMPLED_HEAD)));
        }
        let offered = Candidate(chain);
        if self.candidates.len() < self.plan.exemplars as usize {
            self.candidates.push(Reverse(offered));
            return;
        }
        let left_out = match self.candidates.peek_mut() {
            Some(mut lowest) if offered > lowest.0 => std::mem::replace(&mut lowest.0, offered),
            _ => offered,
        };
        self.forget(left_out.0.last);
    }

    /// Drop the attempts of a chain, walking back from its latest.
    fn forget(&mut self, last: u64) {
        let mut next = Some(last);
        while let Some(id) = next {
            next = self.attempts.remove(&id).and_then(|a| a.prev);
        }
    }

    /// Build the emitted form of a finalized chain from its records.
    fn trace(&self, chain: &Chain, sampled: &str) -> RequestTrace {
        let mut attempts = Vec::new();
        let mut next = Some(chain.last);
        while let Some(id) = next {
            let attempt = &self.attempts[&id];
            attempts.push(attempt.trace(id));
            next = attempt.prev;
        }
        attempts.reverse();
        let latency_ns = chain.latency_ns();
        RequestTrace {
            client: chain.client,
            node: self.plan.node,
            first_submit: chain.first_submit,
            end: chain.end,
            latency_ns,
            sla_ns: chain.sla_ns,
            timed_out: latency_ns > chain.sla_ns,
            outcome: if chain.failed { "failed" } else { "completed" }.into(),
            sampled: sampled.into(),
            attempts,
        }
    }

    /// Window roll: emit the window's exemplar candidates, slowest first
    /// (ties by client id), except those already emitted as head
    /// samples, and return their client ids — the rollup's exemplar
    /// links. Then drop the candidates and their attempts.
    pub fn roll(&mut self, rec: &Recorder) -> Vec<u64> {
        if !self.enabled || self.candidates.is_empty() {
            return Vec::new();
        }
        // Ascending `Reverse` order is descending rank: slowest first.
        let mut ranked = std::mem::take(&mut self.candidates).into_vec();
        ranked.sort_unstable();
        let ids = ranked.iter().map(|Reverse(c)| c.0.client).collect();
        for Reverse(Candidate(chain)) in &ranked {
            // A head-sampled chain was emitted when it finalized.
            if !self.head_sampled(chain.client) {
                rec.emit(|| Event::RequestTrace(self.trace(chain, SAMPLED_EXEMPLAR)));
            }
        }
        for Reverse(Candidate(chain)) in ranked.drain(..) {
            self.forget(chain.last);
        }
        // Hand the emptied buffer back, so later windows reuse it.
        self.candidates = ranked.into();
        ids
    }

    /// Attempt records held: those of open chains and of candidates.
    #[cfg(test)]
    fn retained_attempts(&self) -> usize {
        self.attempts.len()
    }
}

/// The monitor-side flight recorder: traces filed under
/// `(window, node)`, last `windows` window indices retained per node.
/// Merging (threaded fleet drivers hand each worker its own monitor
/// over disjoint node sets) is key-disjoint, so the merged ring is
/// identical to one recorder having seen every stream.
#[derive(Clone, Debug, Default)]
pub struct FlightRecorder {
    /// (window index, node) -> traces in stream order.
    traces: BTreeMap<(u64, u64), Vec<RequestTrace>>,
    /// node -> open window index (advances on the node's rollup).
    cur: BTreeMap<u64, u64>,
}

impl FlightRecorder {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// File one received trace under the node's open window.
    pub(crate) fn push(&mut self, node: u64, trace: RequestTrace) {
        let window = self.cur.get(&node).copied().unwrap_or(0);
        self.traces.entry((window, node)).or_default().push(trace);
    }

    /// The node's rollup for `index` arrived: advance its open window
    /// and prune windows older than the last `keep_windows`.
    pub(crate) fn seal(&mut self, node: u64, index: u64, keep_windows: u64) {
        self.cur.insert(node, index + 1);
        let lo = (index + 1).saturating_sub(keep_windows);
        self.traces.retain(|&(w, n), _| n != node || w >= lo);
    }

    /// Fold another recorder's (node-disjoint) state in.
    pub(crate) fn merge(&mut self, other: FlightRecorder) {
        for (key, traces) in other.traces {
            self.traces.entry(key).or_default().extend(traces);
        }
        self.cur.extend(other.cur);
    }

    pub fn is_empty(&self) -> bool {
        self.traces.values().all(Vec::is_empty)
    }

    /// Retained traces with window index in `[lo, hi]`, ordered by
    /// (window, node, stream order).
    pub fn traces_in(&self, lo: u64, hi: u64) -> Vec<(u64, u64, &RequestTrace)> {
        self.traces
            .range((lo, 0)..=(hi, u64::MAX))
            .flat_map(|(&(w, n), traces)| traces.iter().map(move |t| (w, n, t)))
            .collect()
    }

    /// Every retained trace, ordered by (window, node, stream order).
    pub fn all(&self) -> Vec<(u64, u64, &RequestTrace)> {
        self.traces_in(0, u64::MAX)
    }
}

/// Render traces as Chrome trace-event JSON (complete events, `ph:
/// "X"`, microsecond times; same shape as the span profiler's export,
/// loadable at ui.perfetto.dev). One process row per node, one thread
/// row per client chain; span names are suffixed with the attempt
/// ordinal so retries read as a ladder.
pub fn traces_to_chrome(traces: &[(u64, u64, &RequestTrace)]) -> String {
    let us = |ns: u64| Value::Number(Number::F64(ns as f64 / 1000.0));
    let mut events: Vec<Value> = Vec::new();
    for &(_, node, tr) in traces {
        for at in &tr.attempts {
            for sp in &at.spans {
                // Chrome renders zero-duration complete events
                // invisibly; stretch instants to 1 µs.
                let dur_ns = if sp.dur_ns() == 0 { 1_000 } else { sp.dur_ns() };
                events.push(Value::Object(vec![
                    (
                        "name".to_string(),
                        Value::String(format!("{}#{}", sp.name, at.attempt)),
                    ),
                    (
                        "cat".to_string(),
                        Value::String(format!("rtrace-{}", tr.outcome)),
                    ),
                    ("ph".to_string(), Value::String("X".to_string())),
                    ("ts".to_string(), us(sp.start)),
                    ("dur".to_string(), us(dur_ns)),
                    ("pid".to_string(), Value::Number(Number::U64(node))),
                    ("tid".to_string(), Value::Number(Number::U64(tr.client))),
                ]));
            }
        }
    }
    let root = Value::Object(vec![
        ("traceEvents".to_string(), Value::Array(events)),
        (
            "displayTimeUnit".to_string(),
            Value::String("ms".to_string()),
        ),
    ]);
    serde_json::to_string_pretty(&root).expect("chrome trace serialization")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_traces(rec: &Recorder) -> Vec<RequestTrace> {
        rec.drain_events()
            .into_iter()
            .filter_map(|e| match e {
                Event::RequestTrace(t) => Some(t),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn inactive_plan_traces_nothing() {
        let rec = Recorder::ring(64);
        let mut tr = RequestTracer::new(TracePlan::none(), rec.enabled());
        assert!(!tr.enabled());
        tr.on_offer(0, 1, 1, 0, 0, 1000);
        tr.on_dispatch(10, 1, 0, 2100, 1.0);
        tr.on_complete(50, 1, false, &rec);
        assert!(tr.roll(&rec).is_empty());
        assert!(rec.drain_events().is_empty());
    }

    #[test]
    fn completed_chain_has_queue_and_service_spans() {
        let rec = Recorder::ring(64);
        let mut tr = RequestTracer::new(TracePlan::sampled(1.0, 0, 7), rec.enabled());
        tr.on_offer(100, 1, 1, 0, 100, 10_000);
        tr.on_dispatch(400, 1, 3, 1800, 0.5);
        tr.on_complete(900, 1, false, &rec);
        let traces = drain_traces(&rec);
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.client, 1);
        assert_eq!(t.outcome, "completed");
        assert_eq!(t.sampled, SAMPLED_HEAD);
        assert_eq!(t.latency_ns, 800);
        assert!(!t.timed_out);
        assert_eq!(t.span_total_ns(SPAN_QUEUE), 300);
        assert_eq!(t.span_total_ns(SPAN_SERVICE), 500);
        let svc = t.spans_named(SPAN_SERVICE).next().unwrap();
        assert_eq!(svc.core, 3);
        assert_eq!(svc.freq_mhz, 1800);
        assert_eq!(svc.admit_frac, 0.5);
    }

    #[test]
    fn retry_chain_links_attempts_with_backoff() {
        let rec = Recorder::ring(64);
        let mut tr = RequestTracer::new(TracePlan::sampled(1.0, 0, 7), rec.enabled());
        // Attempt 0 shed at admission, retry after backoff, completes.
        tr.on_offer(100, 1, 1, 0, 100, 100_000);
        tr.on_shed(100, 1, ShedReason::QueueFull);
        tr.on_offer(600, 77, 1, 1, 100, 100_000);
        tr.on_dispatch(700, 77, 0, 2100, 1.0);
        tr.on_complete(1000, 77, false, &rec);
        let traces = drain_traces(&rec);
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.attempts.len(), 2);
        assert_eq!(t.attempts[0].outcome, "shed");
        assert_eq!(t.attempts[1].outcome, "completed");
        // Client-visible latency spans the whole chain.
        assert_eq!(t.first_submit, 100);
        assert_eq!(t.latency_ns, 900);
        assert_eq!(t.span_total_ns(SPAN_BACKOFF), 500);
        assert_eq!(t.span_total_ns(SPAN_SHED), 0); // instant
        assert_eq!(t.spans_named(SPAN_SHED).count(), 1);
    }

    #[test]
    fn give_up_finalizes_as_failed() {
        let rec = Recorder::ring(64);
        let mut tr = RequestTracer::new(TracePlan::sampled(1.0, 0, 7), rec.enabled());
        tr.on_offer(100, 1, 1, 0, 100, 200);
        tr.on_abandon(600, 1, 500);
        tr.on_give_up(600, 1, &rec);
        let traces = drain_traces(&rec);
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].outcome, "failed");
        assert_eq!(traces[0].latency_ns, 500);
        assert!(traces[0].timed_out);
        assert_eq!(traces[0].attempts[0].outcome, "abandoned");
        // A wasted completion after the chain failed must not resurrect
        // or mutate it.
        tr.on_complete(2000, 1, true, &rec);
        assert!(drain_traces(&rec).is_empty());
    }

    #[test]
    fn tail_exemplars_pick_slowest_without_head_sampling() {
        let rec = Recorder::ring(64);
        let mut tr = RequestTracer::new(TracePlan::sampled(0.0, 2, 7), rec.enabled());
        for (client, dur) in [(1u64, 100u64), (2, 900), (3, 500)] {
            tr.on_offer(1000, client, client, 0, 1000, 10_000);
            tr.on_dispatch(1000, client, 0, 2100, 1.0);
            tr.on_complete(1000 + dur, client, false, &rec);
        }
        // Nothing emitted pre-roll at 0% head sampling.
        assert!(drain_traces(&rec).is_empty());
        let ids = tr.roll(&rec);
        assert_eq!(ids, vec![2, 3], "slowest-K, latency-descending");
        let traces = drain_traces(&rec);
        assert_eq!(traces.len(), 2);
        assert!(traces.iter().all(|t| t.sampled == SAMPLED_EXEMPLAR));
        // Ring cleared: the next roll has no candidates.
        assert!(tr.roll(&rec).is_empty());
    }

    #[test]
    fn head_sampled_exemplar_is_not_emitted_twice() {
        let rec = Recorder::ring(64);
        let mut tr = RequestTracer::new(TracePlan::sampled(1.0, 4, 7), rec.enabled());
        tr.on_offer(0, 1, 1, 0, 0, 10_000);
        tr.on_dispatch(0, 1, 0, 2100, 1.0);
        tr.on_complete(700, 1, false, &rec);
        let ids = tr.roll(&rec);
        assert_eq!(ids, vec![1], "head-sampled chains still rank as exemplars");
        let traces = drain_traces(&rec);
        assert_eq!(traces.len(), 1, "one emission, not two");
        assert_eq!(traces[0].sampled, SAMPLED_HEAD);
    }

    #[test]
    fn head_sampling_is_a_pure_function_of_client_and_seed() {
        let a = RequestTracer::new(TracePlan::sampled(0.5, 0, 42), true);
        let b = RequestTracer::new(TracePlan::sampled(0.5, 0, 42), true);
        let hits: Vec<bool> = (0..1000).map(|c| a.head_sampled(c)).collect();
        assert_eq!(
            hits,
            (0..1000).map(|c| b.head_sampled(c)).collect::<Vec<_>>()
        );
        let n = hits.iter().filter(|&&h| h).count();
        assert!((300..700).contains(&n), "~half sampled, got {n}");
        // A different seed selects a different subset.
        let c = RequestTracer::new(TracePlan::sampled(0.5, 0, 43), true);
        assert_ne!(
            hits,
            (0..1000).map(|x| c.head_sampled(x)).collect::<Vec<_>>()
        );
    }

    /// The tracer as it was before pending state was bounded: it keeps
    /// every finalized chain and its attempts until the window rolls,
    /// then selects and sorts the window's top `exemplars`. The
    /// equivalence proptest drives it beside [`RequestTracer`].
    struct WindowTracer {
        plan: TracePlan,
        enabled: bool,
        threshold: u64,
        attempts: IdMap<Attempt>,
        chains: IdMap<Chain>,
        done: Vec<Chain>,
    }

    impl WindowTracer {
        fn new(plan: TracePlan, rec_enabled: bool) -> Self {
            let threshold = if plan.sample >= 1.0 {
                u64::MAX
            } else {
                (plan.sample * u64::MAX as f64) as u64
            };
            Self {
                plan,
                enabled: plan.is_active() && rec_enabled,
                threshold,
                attempts: IdMap::default(),
                chains: IdMap::default(),
                done: Vec::new(),
            }
        }

        fn head_sampled(&self, client: u64) -> bool {
            self.plan.sample > 0.0 && splitmix64(client ^ self.plan.seed) <= self.threshold
        }

        fn live(&mut self, id: u64) -> Option<(&mut Attempt, &mut Chain)> {
            let attempt = self
                .attempts
                .get_mut(&id)
                .filter(|a| matches!(a.end, End::Open))?;
            let chain = self.chains.get_mut(&attempt.client)?;
            Some((attempt, chain))
        }

        fn on_offer(&mut self, now: u64, id: u64, client: u64, attempt: u32, first: u64, sla: u64) {
            if !self.enabled {
                return;
            }
            let (prev, backoff_from) = match self.chains.get_mut(&client) {
                Some(chain) => (
                    Some(std::mem::replace(&mut chain.last, id)),
                    chain.backoff_from,
                ),
                None => {
                    let chain = Chain {
                        client,
                        last: id,
                        first_submit: first,
                        sla_ns: sla,
                        backoff_from: first,
                        end: 0,
                        failed: false,
                    };
                    self.chains.insert(client, chain);
                    (None, now)
                }
            };
            let record = Attempt {
                client,
                ordinal: attempt,
                prev,
                backoff_from,
                offered_at: now,
                dispatch: None,
                abandoned: None,
                end: End::Open,
            };
            self.attempts.insert(id, record);
        }

        fn on_shed(&mut self, now: u64, id: u64, reason: ShedReason) {
            if !self.enabled {
                return;
            }
            if let Some((attempt, chain)) = self.live(id) {
                attempt.end = End::Shed { t: now, reason };
                if attempt.abandoned.is_none() {
                    chain.backoff_from = now;
                }
            }
        }

        fn on_dispatch(&mut self, now: u64, id: u64, core: usize, freq_mhz: u32, admit_frac: f64) {
            if !self.enabled {
                return;
            }
            if let Some(attempt) = self.attempts.get_mut(&id) {
                attempt.dispatch = Some(Dispatch {
                    t: now,
                    core,
                    freq_mhz,
                    admit_frac,
                });
            }
        }

        fn on_abandon(&mut self, now: u64, id: u64, waited_ns: u64) {
            if !self.enabled {
                return;
            }
            if let Some((attempt, chain)) = self.live(id) {
                attempt.abandoned = Some((now, waited_ns));
                chain.backoff_from = now;
            }
        }

        fn on_complete(&mut self, now: u64, id: u64, wasted: bool, rec: &Recorder) {
            if !self.enabled {
                return;
            }
            let Some((attempt, chain)) = self.live(id) else {
                return;
            };
            attempt.end = End::Completed { t: now, wasted };
            if !wasted {
                let client = chain.client;
                self.finalize(client, now, false, rec);
            }
        }

        fn on_give_up(&mut self, now: u64, client: u64, rec: &Recorder) {
            if !self.enabled {
                return;
            }
            self.finalize(client, now, true, rec);
        }

        fn finalize(&mut self, client: u64, now: u64, failed: bool, rec: &Recorder) {
            let Some(mut chain) = self.chains.remove(&client) else {
                return;
            };
            chain.end = now;
            chain.failed = failed;
            if self.head_sampled(client) {
                rec.emit(|| Event::RequestTrace(self.trace(&chain, SAMPLED_HEAD)));
            }
            self.done.push(chain);
        }

        fn trace(&self, chain: &Chain, sampled: &str) -> RequestTrace {
            let mut attempts = Vec::new();
            let mut next = Some(chain.last);
            while let Some(id) = next {
                let attempt = &self.attempts[&id];
                attempts.push(attempt.trace(id));
                next = attempt.prev;
            }
            attempts.reverse();
            let latency_ns = chain.latency_ns();
            RequestTrace {
                client: chain.client,
                node: self.plan.node,
                first_submit: chain.first_submit,
                end: chain.end,
                latency_ns,
                sla_ns: chain.sla_ns,
                timed_out: latency_ns > chain.sla_ns,
                outcome: if chain.failed { "failed" } else { "completed" }.into(),
                sampled: sampled.into(),
                attempts,
            }
        }

        fn roll(&mut self, rec: &Recorder) -> Vec<u64> {
            if !self.enabled || self.done.is_empty() {
                return Vec::new();
            }
            let k = self.plan.exemplars as usize;
            let mut ids = Vec::new();
            if k > 0 {
                let cmp = |a: &Chain, b: &Chain| {
                    (b.latency_ns(), a.client).cmp(&(a.latency_ns(), b.client))
                };
                if self.done.len() > k {
                    self.done.select_nth_unstable_by(k - 1, cmp);
                }
                let top = k.min(self.done.len());
                self.done[..top].sort_by(cmp);
                for chain in &self.done[..top] {
                    ids.push(chain.client);
                    if !self.head_sampled(chain.client) {
                        rec.emit(|| Event::RequestTrace(self.trace(chain, SAMPLED_EXEMPLAR)));
                    }
                }
            }
            for chain in self.done.drain(..) {
                let mut next = Some(chain.last);
                while let Some(id) = next {
                    next = self.attempts.remove(&id).and_then(|a| a.prev);
                }
            }
            ids
        }
    }

    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        /// Drive both tracers with hooks decoded from `ops` and assert
        /// that every roll returns the same ids and both recorders
        /// drained the same traces since the previous roll.
        ///
        /// Ids follow the engine's rules: server and client ids are
        /// never reused, and a retry extends only a chain the driver
        /// has not seen complete or give up. Shed, dispatch, abandon and
        /// completion hit any attempt ever offered, so late hooks on
        /// finalized chains (a wasted completion, or a dispatch after a
        /// give-up) occur often.
        fn drive(plan: TracePlan, ops: &[u64]) {
            let (rec, oracle_rec) = (Recorder::ring(1 << 16), Recorder::ring(1 << 16));
            let mut tracer = RequestTracer::new(plan, rec.enabled());
            let mut oracle = WindowTracer::new(plan, oracle_rec.enabled());
            // (server id, client id) of every attempt offered.
            let mut offered: Vec<(u64, u64)> = Vec::new();
            // client id -> (first submission, attempts so far), for
            // chains not yet completed or given up.
            let mut open: BTreeMap<u64, (u64, u32)> = BTreeMap::new();
            let mut clients: Vec<u64> = Vec::new();
            let (mut now, mut next_id) = (0u64, 1u64);
            let check_roll = |tracer: &mut RequestTracer, oracle: &mut WindowTracer| {
                let ids = tracer.roll(&rec);
                assert_eq!(ids, oracle.roll(&oracle_rec), "roll ids");
                assert_eq!(drain_traces(&rec), drain_traces(&oracle_rec), "traces");
            };
            for &op in ops {
                let arg = op >> 8;
                // Coarse steps, so chains often tie on latency and the
                // client id breaks the tie.
                now += arg % 3 * 250;
                let pick = |n: usize| (arg >> 16) as usize % n;
                match op % 16 {
                    0..=2 => {
                        let (id, client) = (next_id, 1_000_000 + 3 * next_id);
                        next_id += 1;
                        let sla = if arg % 2 == 0 { 400 } else { 5_000 };
                        tracer.on_offer(now, id, client, 0, now, sla);
                        oracle.on_offer(now, id, client, 0, now, sla);
                        offered.push((id, client));
                        open.insert(client, (now, 1));
                        clients.push(client);
                    }
                    3 | 4 if !open.is_empty() => {
                        let nth = pick(open.len());
                        let (&client, state) = open.iter_mut().nth(nth).unwrap();
                        let (first, ordinal) = (state.0, state.1);
                        state.1 += 1;
                        let id = next_id;
                        next_id += 1;
                        tracer.on_offer(now, id, client, ordinal, first, 5_000);
                        oracle.on_offer(now, id, client, ordinal, first, 5_000);
                        offered.push((id, client));
                    }
                    5 | 6 if !offered.is_empty() => {
                        let (id, _) = offered[pick(offered.len())];
                        let reason = match arg % 3 {
                            0 => ShedReason::QueueFull,
                            1 => ShedReason::Admission,
                            _ => ShedReason::Evicted,
                        };
                        tracer.on_shed(now, id, reason);
                        oracle.on_shed(now, id, reason);
                    }
                    7 | 8 if !offered.is_empty() => {
                        let (id, _) = offered[pick(offered.len())];
                        let (core, mhz, admit) =
                            (arg as usize % 8, 1200 + (arg % 10) as u32 * 100, 0.5);
                        tracer.on_dispatch(now, id, core, mhz, admit);
                        oracle.on_dispatch(now, id, core, mhz, admit);
                    }
                    9 if !offered.is_empty() => {
                        let (id, _) = offered[pick(offered.len())];
                        tracer.on_abandon(now, id, arg % 1_000);
                        oracle.on_abandon(now, id, arg % 1_000);
                    }
                    10..=12 if !offered.is_empty() => {
                        let (id, client) = offered[pick(offered.len())];
                        let wasted = arg % 3 == 0;
                        tracer.on_complete(now, id, wasted, &rec);
                        oracle.on_complete(now, id, wasted, &oracle_rec);
                        if !wasted {
                            open.remove(&client);
                        }
                    }
                    13 if !clients.is_empty() => {
                        let client = clients[pick(clients.len())];
                        tracer.on_give_up(now, client, &rec);
                        oracle.on_give_up(now, client, &oracle_rec);
                        open.remove(&client);
                    }
                    // About a dozen chains open per window.
                    14 if arg % 4 == 0 => check_roll(&mut tracer, &mut oracle),
                    _ => {}
                }
            }
            check_roll(&mut tracer, &mut oracle);
        }

        fn plan(exemplars: usize, sample: usize) -> TracePlan {
            // `u32::MAX` is more candidates than any window holds.
            let exemplars = [0, 1, 2, u32::MAX][exemplars];
            TracePlan::sampled([0.0, 0.3, 1.0][sample], exemplars, 11)
        }

        proptest! {
            #[test]
            fn bounded_tracer_emits_what_the_window_tracer_emits(
                exemplars in 0usize..4,
                sample in 0usize..3,
                ops in collection::vec(0u64..u64::MAX, 0..600),
            ) {
                drive(plan(exemplars, sample), &ops);
            }
        }
    }

    #[test]
    fn retained_attempts_scale_with_open_chains_not_the_window() {
        const K: usize = 2;
        for n in [1_000u64, 10_000] {
            let rec = Recorder::ring(64);
            let mut tr = RequestTracer::new(TracePlan::sampled(0.01, K as u32, 5), rec.enabled());
            let mut open_attempts = 0;
            for i in 0..n {
                let (t, first, retry) = (100 * i, 2 * i, 2 * i + 1);
                tr.on_offer(t, first, i, 0, t, 1_000);
                if i % 10 == 0 {
                    // Still queued at the roll.
                    open_attempts += 1;
                    continue;
                }
                tr.on_shed(t, first, ShedReason::QueueFull);
                tr.on_offer(t + 50, retry, i, 1, t, 1_000);
                tr.on_dispatch(t + 60, retry, 0, 2100, 1.0);
                // Scattered latencies, so candidates keep changing.
                tr.on_complete(t + 70 + splitmix64(i) % 5_000, retry, false, &rec);
            }
            // Every candidate chain has two attempts.
            let bound = open_attempts + 2 * K;
            assert!(
                tr.retained_attempts() <= bound,
                "{n} chains: {} attempt records held, bound {bound}",
                tr.retained_attempts()
            );
            assert_eq!(tr.roll(&rec).len(), K);
            assert_eq!(
                tr.retained_attempts(),
                open_attempts,
                "only open chains remain"
            );
        }
    }

    #[test]
    fn flight_recorder_keeps_last_n_windows_per_node() {
        let mut fr = FlightRecorder::new();
        let mk = |client: u64| RequestTrace {
            client,
            node: 0,
            first_submit: 0,
            end: 10,
            latency_ns: 10,
            sla_ns: 100,
            timed_out: false,
            outcome: "completed".into(),
            sampled: SAMPLED_EXEMPLAR.into(),
            attempts: vec![],
        };
        for w in 0..5u64 {
            fr.push(0, mk(w));
            fr.seal(0, w, 2);
        }
        let kept: Vec<u64> = fr.all().iter().map(|&(w, _, _)| w).collect();
        assert_eq!(kept, vec![3, 4], "only the last 2 windows retained");
        // Merge with a disjoint node (its windows 0..=3 rolled empty,
        // so the push files under window 4).
        let mut other = FlightRecorder::new();
        other.seal(1, 3, 2);
        other.push(1, mk(99));
        fr.merge(other);
        assert_eq!(fr.traces_in(4, 4).len(), 2);
    }

    #[test]
    fn chrome_export_round_trips_span_shape() {
        let rec = Recorder::ring(64);
        let mut tr = RequestTracer::new(TracePlan::sampled(1.0, 0, 7), rec.enabled());
        tr.on_offer(100, 1, 5, 0, 100, 10_000);
        tr.on_dispatch(400, 1, 2, 1800, 1.0);
        tr.on_complete(900, 1, false, &rec);
        let traces = drain_traces(&rec);
        let refs: Vec<(u64, u64, &RequestTrace)> = traces.iter().map(|t| (0u64, 3u64, t)).collect();
        let json = traces_to_chrome(&refs);
        let events = crate::profile::tests::from_chrome_trace(&json).unwrap();
        assert_eq!(events.len(), 2);
        assert!(events
            .iter()
            .any(|e| e.name == "queue#0" && e.dur_ns == 300));
        assert!(events
            .iter()
            .any(|e| e.name == "service#0" && e.dur_ns == 500));
        assert!(events.iter().all(|e| e.tid == 5), "tid is the client id");
    }
}
