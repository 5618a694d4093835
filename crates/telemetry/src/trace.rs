//! Deterministic request-lifecycle tracing.
//!
//! Each sampled client request becomes one [`RequestTrace`]: every
//! attempt of the retry chain (PR 8's stable `client_id`/`attempt`
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
//!   against `sample · 2⁶⁴`, decided at first submission; a sampled
//!   chain is emitted the moment it finalizes.
//! * **Tail exemplars** — the slowest `exemplars` chain finalizations
//!   of every tumbling window are *always* emitted, retroactively: the
//!   tracer keeps every open chain as a pending record and ranks the
//!   window's finalizations at the roll boundary, so the worst requests
//!   are traced even at a 0% head-sampling rate. The chosen client ids
//!   ride on the window's [`crate::WindowRollup`] (`exemplars` field),
//!   linking fleet-merged percentiles to concrete traces.
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

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};
use serde_json::{Number, Value};

use crate::event::Event;
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
pub const SAMPLED_HEAD: &str = "head";
pub const SAMPLED_EXEMPLAR: &str = "exemplar";

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

    pub fn is_active(&self) -> bool {
        self.sample > 0.0 || self.exemplars > 0
    }

    pub fn validate(&self) -> Result<(), String> {
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
    fn plain(name: &str, start: u64, end: u64, detail: String) -> Self {
        Self {
            name: name.to_string(),
            start,
            end,
            core: -1,
            freq_mhz: 0,
            admit_frac: 1.0,
            detail,
        }
    }

    pub fn dur_ns(&self) -> u64 {
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
pub type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;
/// `u64` set hashed with [`IdHasher`].
pub type IdSet = HashSet<u64, BuildHasherDefault<IdHasher>>;

/// In-flight bookkeeping for one attempt. `Copy` on purpose: the happy
/// path (offer → dispatch → complete, no shed/abandon/retry) must not
/// allocate, because with `exemplars > 0` *every* request is a tail
/// candidate and pays this bookkeeping.
#[derive(Clone, Copy, Debug)]
struct LiteOpen {
    client: u64,
    attempt: u32,
    /// The client's chain already lives in `chains` (a shed, abandon or
    /// retry promoted it) — span assembly goes through the full record.
    chained: bool,
    offered_at: u64,
    first_submit: u64,
    sla_ns: u64,
    /// Set at dispatch: `(t, core, freq_mhz, admit_frac)`.
    dispatched: Option<(u64, usize, u32, f64)>,
}

/// A finalized single-attempt completed chain, still span-free: the
/// full [`RequestTrace`] is materialized (from these timestamps alone)
/// only if the chain is actually emitted — as a head sample at
/// completion, or as a tail exemplar at the window roll.
#[derive(Clone, Copy, Debug)]
struct LiteDone {
    client: u64,
    id: u64,
    first_submit: u64,
    end: u64,
    latency_ns: u64,
    sla_ns: u64,
    offered_at: u64,
    dispatched: Option<(u64, usize, u32, f64)>,
    emitted: bool,
}

/// One chain being built (every chain is pending until it finalizes —
/// the ring of pending records the tail exemplars are cut from).
#[derive(Clone, Debug)]
struct Chain {
    trace: RequestTrace,
    /// Head-sampled (emitted at finalization).
    head: bool,
    /// Already emitted (head) — an exemplar pick must not re-emit.
    emitted: bool,
    /// End of the last failed attempt, for the next retry's backoff
    /// span.
    last_event: u64,
}

/// A finalized chain awaiting the window roll's exemplar cut. Chains
/// that saw a retry/shed/abandon carry their full trace (boxed — the
/// ring is dominated by lite entries and moves by value).
#[derive(Debug)]
enum Done {
    Lite(LiteDone),
    Full(Box<Chain>),
}

/// Exemplar ranking key: client-visible latency, ties by client id.
fn done_key(d: &Done) -> (u64, u64) {
    match d {
        Done::Lite(l) => (l.latency_ns, l.client),
        Done::Full(c) => (c.trace.latency_ns, c.trace.client),
    }
}

/// Materialize the trace of a lite (single-attempt, completed) chain.
fn lite_trace(l: &LiteDone, node: u64, sampled: &str) -> RequestTrace {
    let mut spans = Vec::new();
    if let Some((t_disp, core, freq_mhz, admit_frac)) = l.dispatched {
        spans.push(TraceSpan::plain(
            SPAN_QUEUE,
            l.offered_at,
            t_disp,
            String::new(),
        ));
        spans.push(TraceSpan {
            name: SPAN_SERVICE.to_string(),
            start: t_disp,
            end: l.end,
            core: core as i64,
            freq_mhz,
            admit_frac,
            detail: String::new(),
        });
    }
    RequestTrace {
        client: l.client,
        node,
        first_submit: l.first_submit,
        end: l.end,
        latency_ns: l.latency_ns,
        sla_ns: l.sla_ns,
        timed_out: l.latency_ns > l.sla_ns,
        outcome: "completed".into(),
        sampled: sampled.into(),
        attempts: vec![AttemptTrace {
            id: l.id,
            attempt: 0,
            outcome: "completed".into(),
            spans,
        }],
    }
}

/// Promote a lite attempt-0 record into a full chain: the record the
/// old attempt would have opened had span assembly started at offer.
fn promote(
    chains: &mut IdMap<Chain>,
    id: u64,
    lite: LiteOpen,
    head: bool,
    node: u64,
) -> &mut Chain {
    chains.entry(lite.client).or_insert_with(|| Chain {
        trace: RequestTrace {
            client: lite.client,
            node,
            first_submit: lite.first_submit,
            end: 0,
            latency_ns: 0,
            sla_ns: lite.sla_ns,
            timed_out: false,
            outcome: String::new(),
            sampled: String::new(),
            attempts: vec![AttemptTrace {
                id,
                attempt: lite.attempt,
                outcome: "open".into(),
                spans: Vec::new(),
            }],
        },
        head,
        emitted: false,
        last_event: lite.first_submit,
    })
}

/// The session-side tracer. Owned by the engine; hooks take primitives
/// so `telemetry` needs no view of the server's `Request` type. All
/// state is keyed on ids and updated in engine event order, so the
/// trace stream is a pure function of the run spec.
///
/// Two-tier bookkeeping keeps the hooks off the allocator: an attempt
/// lives as a `Copy` [`LiteOpen`] record until its chain hits a
/// complication (shed, abandon, retry), at which point the chain is
/// promoted to a full span-assembling [`Chain`]. A clean completion
/// never allocates — its trace is materialized from timestamps only if
/// it is actually emitted.
#[derive(Debug)]
pub struct RequestTracer {
    plan: TracePlan,
    enabled: bool,
    /// `sample · 2⁶⁴`, saturating.
    threshold: u64,
    /// client id -> promoted (complicated) chain.
    chains: IdMap<Chain>,
    /// server attempt id -> in-flight bookkeeping.
    open: IdMap<LiteOpen>,
    /// Chains finalized since the last window roll (ranked for tail
    /// exemplars, then dropped).
    done: Vec<Done>,
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
            chains: IdMap::default(),
            open: IdMap::default(),
            done: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self::new(TracePlan::none(), false)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn plan(&self) -> &TracePlan {
        &self.plan
    }

    fn head_sampled(&self, client: u64) -> bool {
        self.plan.sample > 0.0 && splitmix64(client ^ self.plan.seed) <= self.threshold
    }

    /// An attempt was offered to the server (workload arrival, burst
    /// clone or retry), before the admission decision. Opens the chain
    /// on the first attempt; chains a retry (with its backoff span)
    /// under the existing client id otherwise.
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
        if attempt == 0 {
            // First submission: lite record only. The chain is promoted
            // the moment a shed/abandon/retry complicates it.
            self.open.insert(
                id,
                LiteOpen {
                    client,
                    attempt,
                    chained: false,
                    offered_at: now,
                    first_submit: first_arrival,
                    sla_ns,
                    dispatched: None,
                },
            );
            return;
        }
        // A retry extends the chain its failed predecessor promoted
        // (defensively created here if the engine ever offers a bare
        // retry), with a backoff span covering the client-side gap.
        let node = self.plan.node;
        let head = self.head_sampled(client);
        let chain = self.chains.entry(client).or_insert_with(|| Chain {
            trace: RequestTrace {
                client,
                node,
                first_submit: first_arrival,
                end: 0,
                latency_ns: 0,
                sla_ns,
                timed_out: false,
                outcome: String::new(),
                sampled: String::new(),
                attempts: Vec::new(),
            },
            head,
            emitted: false,
            last_event: first_arrival,
        });
        let mut spans = Vec::new();
        if chain.last_event < now {
            spans.push(TraceSpan::plain(
                SPAN_BACKOFF,
                chain.last_event,
                now,
                String::new(),
            ));
        }
        chain.trace.attempts.push(AttemptTrace {
            id,
            attempt,
            outcome: "open".into(),
            spans,
        });
        self.open.insert(
            id,
            LiteOpen {
                client,
                attempt,
                chained: true,
                offered_at: now,
                first_submit: first_arrival,
                sla_ns,
                dispatched: None,
            },
        );
    }

    /// The attempt was shed at admission (`queue-full`, `admission`) or
    /// evicted from the queue (`evicted`). The retry decision follows
    /// separately ([`Self::on_give_up`] closes the chain when none
    /// comes).
    pub fn on_shed(&mut self, now: u64, id: u64, reason: &str) {
        if !self.enabled {
            return;
        }
        let Some(lite) = self.open.remove(&id) else {
            return;
        };
        let chain = if lite.chained {
            match self.chains.get_mut(&lite.client) {
                Some(c) => c,
                None => return,
            }
        } else {
            let head = self.head_sampled(lite.client);
            let node = self.plan.node;
            promote(&mut self.chains, id, lite, head, node)
        };
        let Some(at) = chain.trace.attempts.iter_mut().rev().find(|a| a.id == id) else {
            return;
        };
        // An evicted attempt sat in the queue until now; a fresh shed
        // never entered it.
        if reason == "evicted" {
            at.spans.push(TraceSpan::plain(
                SPAN_QUEUE,
                lite.offered_at,
                now,
                "evicted".into(),
            ));
        }
        at.spans
            .push(TraceSpan::plain(SPAN_SHED, now, now, reason.to_string()));
        if at.outcome == "open" {
            at.outcome = "shed".into();
        }
        chain.last_event = now;
    }

    /// The attempt left the queue for a core. Captures the controller
    /// context in effect: commanded core frequency and the admission
    /// threshold.
    pub fn on_dispatch(&mut self, now: u64, id: u64, core: usize, freq_mhz: u32, admit_frac: f64) {
        if !self.enabled {
            return;
        }
        if let Some(open) = self.open.get_mut(&id) {
            open.dispatched = Some((now, core, freq_mhz, admit_frac));
        }
    }

    /// The client's per-attempt deadline expired. The attempt may still
    /// be queued or running — its queue/service spans close later, as
    /// wasted work.
    pub fn on_abandon(&mut self, now: u64, id: u64, waited_ns: u64) {
        if !self.enabled {
            return;
        }
        // The attempt stays open (its queue/service spans close later,
        // as wasted work) but its chain is promoted now.
        let Some(open_ref) = self.open.get_mut(&id) else {
            return;
        };
        let lite = *open_ref;
        open_ref.chained = true;
        let chain = if lite.chained {
            match self.chains.get_mut(&lite.client) {
                Some(c) => c,
                None => return,
            }
        } else {
            let head = self.head_sampled(lite.client);
            let node = self.plan.node;
            promote(&mut self.chains, id, lite, head, node)
        };
        let Some(at) = chain.trace.attempts.iter_mut().rev().find(|a| a.id == id) else {
            return;
        };
        at.spans.push(TraceSpan::plain(
            SPAN_ABANDON,
            now,
            now,
            format!("waited {waited_ns} ns"),
        ));
        if at.outcome == "open" {
            at.outcome = "abandoned".into();
        }
        chain.last_event = now;
    }

    /// A server completion for `id`. `wasted == false` (the client was
    /// still waiting) finalizes the chain as `completed`; a wasted
    /// completion only closes the attempt's spans — the chain already
    /// moved on (retry in flight) or already failed.
    pub fn on_complete(&mut self, now: u64, id: u64, wasted: bool, rec: &Recorder) {
        if !self.enabled {
            return;
        }
        let Some(lite) = self.open.remove(&id) else {
            return;
        };
        if !lite.chained {
            // Happy path: a single clean attempt. Finalize without
            // touching the allocator — the trace is materialized only
            // if this chain is head-sampled (or picked as an exemplar
            // at the roll). A wasted completion implies the client
            // moved on, which always promotes first; stay defensive.
            if wasted {
                return;
            }
            let mut done = LiteDone {
                client: lite.client,
                id,
                first_submit: lite.first_submit,
                end: now,
                latency_ns: now.saturating_sub(lite.first_submit),
                sla_ns: lite.sla_ns,
                offered_at: lite.offered_at,
                dispatched: lite.dispatched,
                emitted: false,
            };
            if self.head_sampled(lite.client) {
                done.emitted = true;
                let node = self.plan.node;
                rec.emit(|| Event::RequestTrace(lite_trace(&done, node, SAMPLED_HEAD)));
            }
            self.done.push(Done::Lite(done));
            return;
        }
        let Some(chain) = self.chains.get_mut(&lite.client) else {
            return;
        };
        if let Some(at) = chain.trace.attempts.iter_mut().rev().find(|a| a.id == id) {
            if let Some((t_disp, core, freq_mhz, admit_frac)) = lite.dispatched {
                at.spans.push(TraceSpan::plain(
                    SPAN_QUEUE,
                    lite.offered_at,
                    t_disp,
                    String::new(),
                ));
                at.spans.push(TraceSpan {
                    name: SPAN_SERVICE.to_string(),
                    start: t_disp,
                    end: now,
                    core: core as i64,
                    freq_mhz,
                    admit_frac,
                    detail: if wasted {
                        "wasted".into()
                    } else {
                        String::new()
                    },
                });
            }
            if !wasted {
                at.outcome = "completed".into();
            }
        }
        if !wasted {
            self.finalize(lite.client, now, "completed", rec);
        }
    }

    /// The client's retry budget ran out (or the retry draw failed)
    /// after a shed/abandonment: the chain is over, as a failure, at
    /// `now`.
    pub fn on_give_up(&mut self, now: u64, client: u64, rec: &Recorder) {
        if !self.enabled {
            return;
        }
        if self.chains.contains_key(&client) {
            self.finalize(client, now, "failed", rec);
        }
    }

    /// Close the chain, emit it if head-sampled, move it to the pending
    /// (exemplar-candidate) ring.
    fn finalize(&mut self, client: u64, now: u64, outcome: &str, rec: &Recorder) {
        let Some(mut chain) = self.chains.remove(&client) else {
            return;
        };
        chain.trace.end = now;
        chain.trace.latency_ns = now.saturating_sub(chain.trace.first_submit);
        chain.trace.timed_out = chain.trace.latency_ns > chain.trace.sla_ns;
        chain.trace.outcome = outcome.to_string();
        // Later events for this chain's attempts (a wasted completion
        // landing after the client walked away for good) must not
        // mutate an already-emitted trace: drop the id mappings.
        for at in &chain.trace.attempts {
            self.open.remove(&at.id);
        }
        if chain.head {
            chain.trace.sampled = SAMPLED_HEAD.to_string();
            chain.emitted = true;
            let tr = chain.trace.clone();
            rec.emit(|| Event::RequestTrace(tr));
        }
        self.done.push(Done::Full(Box::new(chain)));
    }

    /// Window roll: rank the window's finalized chains by client-visible
    /// latency (slowest first, ties by client id), emit the top
    /// `exemplars` not already emitted as head samples, and return the
    /// chosen client ids — the rollup's exemplar links. Clears the ring.
    pub fn roll(&mut self, rec: &Recorder) -> Vec<u64> {
        if !self.enabled {
            return Vec::new();
        }
        if self.done.is_empty() {
            return Vec::new();
        }
        let k = self.plan.exemplars as usize;
        let mut ids = Vec::new();
        if k > 0 {
            // Slowest first, ties by client id. The key is unique per
            // chain, so select-then-sort of the top k is deterministic
            // without ordering the whole window.
            let cmp = |a: &Done, b: &Done| {
                let (la, ca) = done_key(a);
                let (lb, cb) = done_key(b);
                (lb, ca).cmp(&(la, cb))
            };
            if self.done.len() > k {
                self.done.select_nth_unstable_by(k - 1, cmp);
            }
            let top = k.min(self.done.len());
            self.done[..top].sort_by(cmp);
            let node = self.plan.node;
            for done in self.done.iter_mut().take(top) {
                match done {
                    Done::Lite(l) => {
                        ids.push(l.client);
                        if !l.emitted {
                            l.emitted = true;
                            let tr = lite_trace(l, node, SAMPLED_EXEMPLAR);
                            rec.emit(|| Event::RequestTrace(tr));
                        }
                    }
                    Done::Full(chain) => {
                        ids.push(chain.trace.client);
                        if !chain.emitted {
                            chain.emitted = true;
                            chain.trace.sampled = SAMPLED_EXEMPLAR.to_string();
                            let tr = chain.trace.clone();
                            rec.emit(|| Event::RequestTrace(tr));
                        }
                    }
                }
            }
        }
        self.done.clear();
        ids
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
    pub fn new() -> Self {
        Self::default()
    }

    /// File one received trace under the node's open window.
    pub fn push(&mut self, node: u64, trace: RequestTrace) {
        let window = self.cur.get(&node).copied().unwrap_or(0);
        self.traces.entry((window, node)).or_default().push(trace);
    }

    /// The node's rollup for `index` arrived: advance its open window
    /// and prune windows older than the last `keep_windows`.
    pub fn seal(&mut self, node: u64, index: u64, keep_windows: u64) {
        self.cur.insert(node, index + 1);
        let lo = (index + 1).saturating_sub(keep_windows);
        self.traces.retain(|&(w, n), _| n != node || w >= lo);
    }

    /// Fold another recorder's (node-disjoint) state in.
    pub fn merge(&mut self, other: FlightRecorder) {
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
        tr.on_shed(100, 1, "queue-full");
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
        let events = crate::profile::from_chrome_trace(&json).unwrap();
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
