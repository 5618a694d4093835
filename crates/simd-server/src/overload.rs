//! Closed-loop clients, bounded queues and admission control.
//!
//! The base engine is *open-loop*: arrivals are a fixed, pre-generated
//! list and the queue is unbounded, so offered load never reacts to how
//! the server is doing. Real latency-critical services die differently —
//! clients time out, retry, and pile duplicated work onto an already
//! slow server until most completions answer nobody (*congestion
//! collapse*). An [`OverloadPlan`] switches that feedback loop on:
//!
//! * **Closed-loop clients** — every admitted attempt carries a client
//!   deadline (`client_timeout_ns` after submission). If the server has
//!   not answered by then the client abandons the attempt and, with
//!   probability `retry_prob` (capped at `max_attempts` total attempts),
//!   schedules a retry after exponential backoff plus jitter. A
//!   completion after abandonment is **wasted work**; before it,
//!   **goodput**.
//! * **Bounded queue + shedding** — `queue_capacity` bounds the server
//!   queue under a [`QueuePolicy`]; a rejected client learns
//!   immediately (fast-fail) and may retry just like an abandoning one.
//! * **Admission control** — an [`AdmissionController`] may reject
//!   requests before the capacity check: a static queue-length
//!   threshold, an adaptive CoDel-style controller keyed on queue
//!   sojourn time, or a DRL-commanded threshold (the third action head
//!   of the co-managed DeepPower policy).
//!
//! Determinism mirrors [`crate::faults`]: all randomness (retry
//! decisions, jitter) comes from one dedicated seeded [`StdRng`] stream
//! drawn in event order, so the same `(seed, config, OverloadPlan)`
//! replays bit-identically at any thread count, alongside any
//! [`crate::FaultPlan`]. A plan with every knob at zero
//! ([`OverloadPlan::none`]) performs no draws, admits everything and
//! perturbs nothing.

use crate::clock::Nanos;
use crate::request::{Features, Request};
use deeppower_telemetry::{event, Event, IdSet, Recorder, RequestTracer, ShedReason};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Server ids of synthetic attempts (retries, flash-crowd clones) start
/// here so they can never collide with workload-generator ids.
pub(crate) const SYNTH_ID_BASE: u64 = 1 << 48;

/// How a bounded queue orders service and handles overflow.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueuePolicy {
    /// First-in-first-out service; overflow sheds the arriving request.
    #[default]
    Fifo,
    /// Last-in-first-out service (newest first); overflow sheds the
    /// arriving request. Favors fresh requests whose clients are still
    /// waiting — the classic anti-collapse stack discipline.
    Lifo,
    /// FIFO service; overflow sheds the arriving request (alias of
    /// `Fifo` overflow, named for symmetry with `DropOldest`).
    DropNewest,
    /// FIFO service; overflow evicts (sheds) the *oldest* queued
    /// request to make room for the arriving one.
    DropOldest,
}

impl QueuePolicy {
    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fifo" => Some(QueuePolicy::Fifo),
            "lifo" => Some(QueuePolicy::Lifo),
            "drop-newest" => Some(QueuePolicy::DropNewest),
            "drop-oldest" => Some(QueuePolicy::DropOldest),
            _ => None,
        }
    }

    /// Whether dispatch serves the newest queued request first.
    pub(crate) fn serves_newest_first(&self) -> bool {
        matches!(self, QueuePolicy::Lifo)
    }
}

/// Which admission controller guards the queue (knobs live as flat
/// fields on [`OverloadPlan`] — the vendored serde derive supports only
/// unit enum variants).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionMode {
    /// Admit everything (capacity bounds still apply).
    #[default]
    None,
    /// Reject when the queue is at least `admit_queue_max` deep.
    Static,
    /// CoDel-style: reject while the oldest queued request has waited
    /// beyond `codel_target_ns` for a full `codel_interval_ns`.
    CoDel,
    /// Threshold commanded by the governor's third action head
    /// (fraction of capacity; see `FreqCommands::set_admission`).
    Drl,
}

/// Seeded, config-driven description of the closed-loop client and
/// admission behaviour of a run.
///
/// `Copy` on purpose: it rides inside [`crate::RunOptions`] and job
/// specs without allocation, exactly like [`crate::FaultPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct OverloadPlan {
    /// Seed for the retry stream (independent of workload and faults).
    pub seed: u64,
    /// Queue capacity; 0 = unbounded (the classic open-loop queue).
    pub queue_capacity: u32,
    pub queue_policy: QueuePolicy,
    /// Per-attempt client deadline, ns after submission; 0 = clients
    /// never abandon.
    pub client_timeout_ns: Nanos,
    /// Probability an abandoning or shed client retries (if attempts
    /// remain).
    pub retry_prob: f64,
    /// Total attempts a client makes, first submission included.
    pub max_attempts: u32,
    /// Base retry backoff; attempt `k` waits `retry_backoff_ns · 2^(k-1)`
    /// plus jitter.
    pub retry_backoff_ns: Nanos,
    /// Uniform jitter in `[0, retry_jitter_ns]` added to each backoff
    /// (0 = deterministic backoff, no draw).
    pub retry_jitter_ns: Nanos,
    pub admission: AdmissionMode,
    /// Queue-length threshold for [`AdmissionMode::Static`].
    pub admit_queue_max: u32,
    /// Sojourn target/interval for [`AdmissionMode::CoDel`].
    pub codel_target_ns: Nanos,
    pub codel_interval_ns: Nanos,
    /// Flash-crowd burst: during `[burst_start_ns, burst_start_ns +
    /// burst_duration_ns)` every workload arrival brings `burst_factor`
    /// extra cloned clients (0 duration or factor disables).
    pub burst_start_ns: Nanos,
    pub burst_duration_ns: Nanos,
    pub burst_factor: u32,
}

impl OverloadPlan {
    /// Fully transparent plan: open loop, unbounded queue, no clients
    /// abandoning, no admission control.
    pub fn none() -> Self {
        Self {
            seed: 0,
            queue_capacity: 0,
            queue_policy: QueuePolicy::Fifo,
            client_timeout_ns: 0,
            retry_prob: 0.0,
            max_attempts: 1,
            retry_backoff_ns: 0,
            retry_jitter_ns: 0,
            admission: AdmissionMode::None,
            admit_queue_max: 0,
            codel_target_ns: 0,
            codel_interval_ns: 0,
            burst_start_ns: 0,
            burst_duration_ns: 0,
            burst_factor: 0,
        }
    }

    /// Whether any overload axis is enabled.
    pub fn is_active(&self) -> bool {
        self.queue_capacity > 0
            || self.client_timeout_ns > 0
            || self.admission != AdmissionMode::None
            || (self.burst_duration_ns > 0 && self.burst_factor > 0)
            || self.queue_policy != QueuePolicy::Fifo
    }

    /// Validate invariants; called by the engine before a run.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.retry_prob) {
            return Err(format!(
                "retry_prob must be in [0, 1], got {}",
                self.retry_prob
            ));
        }
        if self.max_attempts == 0 {
            return Err("max_attempts must be >= 1 (the first submission counts)".into());
        }
        if self.retry_prob > 0.0 && self.max_attempts > 1 && self.retry_backoff_ns == 0 {
            return Err("retry_backoff_ns must be positive when retries are enabled".into());
        }
        if self.admission == AdmissionMode::Static && self.admit_queue_max == 0 {
            return Err("admit_queue_max must be >= 1 for static admission".into());
        }
        if self.admission == AdmissionMode::CoDel
            && (self.codel_target_ns == 0 || self.codel_interval_ns == 0)
        {
            return Err("codel_target_ns and codel_interval_ns must be positive".into());
        }
        Ok(())
    }
}

impl Default for OverloadPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// An admission decision: may a request join the queue, and at whose
/// expense.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Admit {
    /// Enqueue the arriving request.
    Accept,
    /// Shed the arriving request for the given reason.
    Reject(ShedReason),
    /// Shed the oldest queued request, then enqueue the arriving one
    /// (`QueuePolicy::DropOldest` overflow).
    EvictOldest,
}

/// A pluggable pre-capacity admission policy. Implementations must be
/// deterministic functions of their inputs and internal state — the
/// engine consults them in event order.
pub(crate) trait AdmissionController {
    /// Decide whether a request arriving at `now` may join a queue of
    /// `queue_len` entries whose oldest member has waited
    /// `oldest_wait_ns`.
    fn admit(&mut self, now: Nanos, queue_len: usize, oldest_wait_ns: Nanos) -> bool;

    /// Receive a governor-commanded admission threshold (fraction of
    /// scale, clamped to `[0, 1]`). Ignored by non-DRL controllers.
    fn set_threshold(&mut self, _frac: f32) {}

    /// The admission threshold currently in effect, as a fraction of
    /// scale (1.0 for controllers without a commanded threshold).
    /// Observability only — never consulted by the engine.
    fn admit_frac(&self) -> f64 {
        1.0
    }
}

/// Admit everything (the default; capacity bounds still apply).
pub(crate) struct AdmitAll;

impl AdmissionController for AdmitAll {
    fn admit(&mut self, _now: Nanos, _queue_len: usize, _oldest_wait_ns: Nanos) -> bool {
        true
    }
}

/// Reject while the queue is at least `max_queue` deep.
pub(crate) struct StaticThreshold {
    pub max_queue: usize,
}

impl AdmissionController for StaticThreshold {
    fn admit(&mut self, _now: Nanos, queue_len: usize, _oldest_wait_ns: Nanos) -> bool {
        queue_len < self.max_queue
    }
}

/// CoDel-style sojourn controller: once the oldest queued request has
/// waited beyond `target_ns` continuously for `interval_ns`, reject
/// arrivals until the sojourn drops back under target. Uses queue
/// sojourn as the standing-queue signal exactly like CoDel's
/// minimum-delay tracker, but applied at admission (deterministic — no
/// square-root pacing draw).
pub(crate) struct CoDelAdmission {
    pub target_ns: Nanos,
    pub interval_ns: Nanos,
    /// When the sojourn first exceeded target, if it still does.
    above_since: Option<Nanos>,
}

impl CoDelAdmission {
    pub(crate) fn new(target_ns: Nanos, interval_ns: Nanos) -> Self {
        Self {
            target_ns,
            interval_ns,
            above_since: None,
        }
    }
}

impl AdmissionController for CoDelAdmission {
    fn admit(&mut self, now: Nanos, queue_len: usize, oldest_wait_ns: Nanos) -> bool {
        if queue_len == 0 || oldest_wait_ns <= self.target_ns {
            self.above_since = None;
            return true;
        }
        let since = *self.above_since.get_or_insert(now);
        now.saturating_sub(since) < self.interval_ns
    }
}

/// Governor-commanded threshold: admit while `queue_len <
/// max(1, frac · scale)`. `scale` is the queue capacity when bounded,
/// else a cores-proportional default; `frac` comes from the DRL
/// policy's third action head each control tick.
pub(crate) struct DrlAdmission {
    pub scale: usize,
    frac: f32,
}

impl DrlAdmission {
    pub(crate) fn new(scale: usize) -> Self {
        // Until the first command arrives, admit up to the full scale.
        Self { scale, frac: 1.0 }
    }
}

impl AdmissionController for DrlAdmission {
    fn admit(&mut self, _now: Nanos, queue_len: usize, _oldest_wait_ns: Nanos) -> bool {
        let limit = ((self.frac as f64 * self.scale as f64).round() as usize).max(1);
        queue_len < limit
    }

    fn set_threshold(&mut self, frac: f32) {
        self.frac = frac.clamp(0.0, 1.0);
    }

    fn admit_frac(&self) -> f64 {
        self.frac as f64
    }
}

/// Everything a client needs to resubmit an attempt.
#[derive(Clone, Copy, Debug)]
struct RetryTemplate {
    client: u64,
    attempt: u32,
    first_arrival: Nanos,
    work_ref_ns: Nanos,
    freq_sensitivity: f32,
    sla: Nanos,
    features: Features,
}

impl RetryTemplate {
    fn of(req: &Request) -> Self {
        Self {
            client: req.client_id,
            attempt: req.attempt,
            first_arrival: req.client_arrival(),
            work_ref_ns: req.work_ref_ns,
            freq_sensitivity: req.freq_sensitivity,
            sla: req.sla,
            features: req.features,
        }
    }
}

/// A client deadline for one admitted attempt. Deadlines are pushed in
/// submission order and `client_timeout_ns` is constant, so the deque
/// stays sorted by `at` — expiry is a front-pop scan.
struct Deadline {
    at: Nanos,
    id: u64,
    template: RetryTemplate,
}

/// A scheduled retry, ordered by `(at, seq)` in a min-heap (`seq`
/// breaks ties deterministically).
struct RetryEntry {
    at: Nanos,
    seq: u64,
    id: u64,
    template: RetryTemplate,
}

impl PartialEq for RetryEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for RetryEntry {}
impl PartialOrd for RetryEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RetryEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Cumulative overload counters, surfaced through `SimResult`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct OverloadCounters {
    /// Completions whose client was still waiting.
    pub good: u64,
    /// Completions after the client abandoned (wasted work).
    pub wasted: u64,
    /// Busy-time the server burned on wasted completions, ns.
    pub wasted_service_ns: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Attempts abandoned by their client.
    pub abandoned: u64,
    /// Retries scheduled.
    pub retries: u64,
}

/// Per-run overload machinery: the retry stream plus client state.
pub(crate) struct OverloadState {
    plan: OverloadPlan,
    rng: StdRng,
    admission: Box<dyn AdmissionController>,
    deadlines: VecDeque<Deadline>,
    retries: BinaryHeap<Reverse<RetryEntry>>,
    /// Admitted attempts the client still waits for.
    open: IdSet,
    /// Attempts whose client abandoned; a completion here is wasted.
    abandoned: IdSet,
    next_synth_id: u64,
    retry_seq: u64,
    pub counters: OverloadCounters,
}

impl OverloadState {
    /// Build the per-run state. Panics on an invalid plan (mirrors the
    /// engine's config validation).
    pub(crate) fn new(plan: OverloadPlan, n_cores: usize) -> Self {
        plan.validate().expect("invalid overload plan");
        let admission: Box<dyn AdmissionController> = match plan.admission {
            AdmissionMode::None => Box::new(AdmitAll),
            AdmissionMode::Static => Box::new(StaticThreshold {
                max_queue: plan.admit_queue_max as usize,
            }),
            AdmissionMode::CoDel => Box::new(CoDelAdmission::new(
                plan.codel_target_ns,
                plan.codel_interval_ns,
            )),
            AdmissionMode::Drl => {
                let scale = if plan.queue_capacity > 0 {
                    plan.queue_capacity as usize
                } else {
                    16 * n_cores.max(1)
                };
                Box::new(DrlAdmission::new(scale))
            }
        };
        Self {
            plan,
            // Dedicated stream, decoupled from the fault streams
            // (crate::faults uses multipliers 3/5/7).
            rng: StdRng::seed_from_u64(plan.seed.wrapping_mul(11).wrapping_add(0x4e714)),
            admission,
            deadlines: VecDeque::new(),
            retries: BinaryHeap::new(),
            open: IdSet::default(),
            abandoned: IdSet::default(),
            next_synth_id: SYNTH_ID_BASE,
            retry_seq: 0,
            counters: OverloadCounters::default(),
        }
    }

    pub(crate) fn is_active(&self) -> bool {
        self.plan.is_active()
    }

    /// Forward a governor-commanded admission threshold.
    pub(crate) fn set_threshold(&mut self, frac: f32) {
        self.admission.set_threshold(frac);
    }

    /// The admission threshold currently in effect (observability: the
    /// request tracer stamps it into service spans).
    pub(crate) fn admit_frac(&self) -> f64 {
        self.admission.admit_frac()
    }

    /// Earliest pending client event (deadline expiry or retry
    /// arrival). The front deadline may belong to an already-answered
    /// attempt — the resulting wakeup is a deterministic no-op.
    pub(crate) fn next_event_time(&self) -> Option<Nanos> {
        let d = self.deadlines.front().map(|d| d.at);
        let r = self.retries.peek().map(|Reverse(e)| e.at);
        match (d, r) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Whether retries are still in flight (termination must wait for
    /// them).
    pub(crate) fn retries_pending(&self) -> bool {
        !self.retries.is_empty()
    }

    /// How many extra cloned clients a workload arrival at `t` brings
    /// (the flash-crowd burst).
    pub(crate) fn burst_clones(&self, t: Nanos) -> u32 {
        if self.plan.burst_duration_ns == 0 || self.plan.burst_factor == 0 {
            return 0;
        }
        let end = self.plan.burst_start_ns + self.plan.burst_duration_ns;
        if t >= self.plan.burst_start_ns && t < end {
            self.plan.burst_factor
        } else {
            0
        }
    }

    /// Allocate a fresh synthetic server id (flash-crowd clones).
    pub(crate) fn alloc_synth_id(&mut self) -> u64 {
        let id = self.next_synth_id;
        self.next_synth_id += 1;
        id
    }

    /// Expire every client deadline at or before `now`: mark the
    /// attempt abandoned, emit the event, maybe schedule a retry.
    /// Deadlines of already-answered attempts pop silently.
    pub(crate) fn expire(&mut self, now: Nanos, rec: &Recorder, tracer: &mut RequestTracer) {
        while self.deadlines.front().is_some_and(|d| d.at <= now) {
            let d = self.deadlines.pop_front().expect("front checked");
            if !self.open.remove(&d.id) {
                continue; // answered (or shed by eviction) before the deadline
            }
            self.abandoned.insert(d.id);
            self.counters.abandoned += 1;
            let waited = now - (d.at - self.plan.client_timeout_ns).min(now);
            rec.emit(|| {
                Event::Abandoned(event::Abandoned {
                    t: now,
                    id: d.id,
                    client: d.template.client,
                    attempt: d.template.attempt,
                    waited_ns: waited,
                })
            });
            tracer.on_abandon(now, d.id, waited);
            self.maybe_retry(now, &d.template, rec, tracer);
        }
    }

    /// Decide the fate of a request arriving at `now` given the current
    /// queue. Consults the admission controller first, then the
    /// capacity/overflow policy.
    pub(crate) fn admit(&mut self, now: Nanos, queue: &VecDeque<Request>) -> Admit {
        if !self.is_active() {
            return Admit::Accept;
        }
        let oldest_wait = queue.front().map_or(0, |r| now.saturating_sub(r.arrival));
        if !self.admission.admit(now, queue.len(), oldest_wait) {
            return Admit::Reject(ShedReason::Admission);
        }
        let cap = self.plan.queue_capacity as usize;
        if cap > 0 && queue.len() >= cap {
            return match self.plan.queue_policy {
                QueuePolicy::DropOldest => Admit::EvictOldest,
                _ => Admit::Reject(ShedReason::QueueFull),
            };
        }
        Admit::Accept
    }

    /// Register an admitted attempt: track it as open and arm its
    /// client deadline.
    pub(crate) fn on_admitted(&mut self, now: Nanos, req: &Request) {
        if self.plan.client_timeout_ns == 0 {
            return;
        }
        self.open.insert(req.id);
        self.deadlines.push_back(Deadline {
            at: now + self.plan.client_timeout_ns,
            id: req.id,
            template: RetryTemplate::of(req),
        });
    }

    /// Record a shed (fast-fail): the client learns immediately and may
    /// retry. An evicted attempt whose client already abandoned it was
    /// retried (or given up on) at the abandonment, so its eviction
    /// counts as a shed but schedules no second retry.
    pub(crate) fn on_shed(
        &mut self,
        now: Nanos,
        req: &Request,
        reason: ShedReason,
        rec: &Recorder,
        tracer: &mut RequestTracer,
    ) {
        // An evicted request was admitted earlier: close its open slot
        // so its (stale) deadline pops silently.
        self.open.remove(&req.id);
        let abandoned = self.abandoned.remove(&req.id);
        self.counters.shed += 1;
        rec.emit(|| {
            Event::Shed(event::Shed {
                t: now,
                id: req.id,
                client: req.client_id,
                attempt: req.attempt,
                reason,
            })
        });
        tracer.on_shed(now, req.id, reason);
        if !abandoned {
            self.maybe_retry(now, &RetryTemplate::of(req), rec, tracer);
        }
    }

    /// Classify a completion: `true` if the work was wasted (client
    /// already abandoned).
    pub(crate) fn on_completion(&mut self, id: u64, service_ns: Nanos) -> bool {
        // Without client deadlines (every open-loop run) both sets stay
        // empty: skip hashing the id into them.
        if !self.abandoned.is_empty() && self.abandoned.remove(&id) {
            self.counters.wasted += 1;
            self.counters.wasted_service_ns += service_ns;
            true
        } else {
            if !self.open.is_empty() {
                self.open.remove(&id);
            }
            self.counters.good += 1;
            false
        }
    }

    /// Pop the next retry due at or before `now`, materialized as a
    /// fresh [`Request`] arriving now under a new server id.
    pub(crate) fn pop_due_retry(&mut self, now: Nanos) -> Option<Request> {
        if self.retries.peek().is_none_or(|Reverse(e)| e.at > now) {
            return None;
        }
        let Reverse(e) = self.retries.pop().expect("peeked");
        Some(Request {
            id: e.id,
            client_id: e.template.client,
            attempt: e.template.attempt,
            arrival: now,
            first_arrival: e.template.first_arrival,
            work_ref_ns: e.template.work_ref_ns,
            freq_sensitivity: e.template.freq_sensitivity,
            sla: e.template.sla,
            features: e.template.features,
        })
    }

    /// Draw the retry decision for a failed attempt and, on success,
    /// schedule the resubmission after exponential backoff + jitter.
    /// The no-retry exits are the chain-finality points: the client
    /// walks away for good, and the tracer finalizes the chain as
    /// failed.
    fn maybe_retry(
        &mut self,
        now: Nanos,
        template: &RetryTemplate,
        rec: &Recorder,
        tracer: &mut RequestTracer,
    ) {
        if self.plan.retry_prob <= 0.0 || template.attempt + 1 >= self.plan.max_attempts {
            tracer.on_give_up(now, template.client, rec);
            return;
        }
        let u: f64 = self.rng.random();
        if u >= self.plan.retry_prob {
            tracer.on_give_up(now, template.client, rec);
            return;
        }
        // attempt k (0-based) failed → backoff · 2^k, shift-capped.
        let exp = template.attempt.min(20);
        let backoff = self.plan.retry_backoff_ns.saturating_mul(1 << exp);
        let jitter = if self.plan.retry_jitter_ns > 0 {
            self.rng.random_range(0..self.plan.retry_jitter_ns + 1)
        } else {
            0
        };
        let delay = backoff + jitter;
        let id = self.alloc_synth_id();
        self.retry_seq += 1;
        self.counters.retries += 1;
        rec.emit(|| {
            Event::Retry(event::Retry {
                t: now,
                id,
                client: template.client,
                attempt: template.attempt + 1,
                delay_ns: delay,
            })
        });
        self.retries.push(Reverse(RetryEntry {
            at: now + delay,
            seq: self.retry_seq,
            id,
            template: RetryTemplate {
                attempt: template.attempt + 1,
                ..*template
            },
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::MILLISECOND;

    fn req(id: u64, arrival: Nanos) -> Request {
        Request {
            id,
            client_id: id,
            attempt: 0,
            arrival,
            first_arrival: arrival,
            work_ref_ns: MILLISECOND,
            freq_sensitivity: 1.0,
            sla: 10 * MILLISECOND,
            features: Features::default(),
        }
    }

    #[test]
    fn inactive_plan_is_transparent() {
        let plan = OverloadPlan::none();
        assert!(!plan.is_active());
        plan.validate().unwrap();
        let mut st = OverloadState::new(plan, 4);
        let queue = VecDeque::new();
        assert_eq!(st.admit(0, &queue), Admit::Accept);
        assert_eq!(st.next_event_time(), None);
        assert!(!st.retries_pending());
        assert_eq!(st.burst_clones(0), 0);
        st.on_admitted(0, &req(0, 0));
        assert!(!st.on_completion(0, 100));
        assert_eq!(st.counters.good, 1);
        assert_eq!(st.counters.wasted, 0);
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let mut p = OverloadPlan::none();
        p.retry_prob = 1.5;
        assert!(p.validate().is_err());
        let mut p = OverloadPlan::none();
        p.max_attempts = 0;
        assert!(p.validate().is_err());
        let mut p = OverloadPlan::none();
        p.retry_prob = 0.5;
        p.max_attempts = 3;
        assert!(p.validate().is_err(), "retries without backoff");
        let mut p = OverloadPlan::none();
        p.admission = AdmissionMode::Static;
        assert!(p.validate().is_err());
        let mut p = OverloadPlan::none();
        p.admission = AdmissionMode::CoDel;
        assert!(p.validate().is_err());
    }

    #[test]
    fn bounded_queue_sheds_per_policy() {
        let plan = OverloadPlan {
            queue_capacity: 2,
            ..OverloadPlan::none()
        };
        let mut st = OverloadState::new(plan, 1);
        let mut queue = VecDeque::new();
        queue.push_back(req(0, 0));
        queue.push_back(req(1, 0));
        assert_eq!(st.admit(0, &queue), Admit::Reject(ShedReason::QueueFull));

        let mut st = OverloadState::new(
            OverloadPlan {
                queue_capacity: 2,
                queue_policy: QueuePolicy::DropOldest,
                ..OverloadPlan::none()
            },
            1,
        );
        assert_eq!(st.admit(0, &queue), Admit::EvictOldest);
        queue.pop_front();
        assert_eq!(st.admit(0, &queue), Admit::Accept);
    }

    #[test]
    fn deadline_expiry_marks_wasted_work() {
        let plan = OverloadPlan {
            client_timeout_ns: 5 * MILLISECOND,
            ..OverloadPlan::none()
        };
        let mut st = OverloadState::new(plan, 1);
        let rec = Recorder::ring(64);
        st.on_admitted(0, &req(7, 0));
        assert_eq!(st.next_event_time(), Some(5 * MILLISECOND));
        st.expire(5 * MILLISECOND, &rec, &mut RequestTracer::disabled());
        assert_eq!(st.counters.abandoned, 1);
        // Completion after abandonment is wasted; its service time is
        // charged to the wasted bucket.
        assert!(st.on_completion(7, 3 * MILLISECOND));
        assert_eq!(st.counters.wasted, 1);
        assert_eq!(st.counters.wasted_service_ns, 3 * MILLISECOND);
        assert_eq!(st.counters.good, 0);
        let kinds: Vec<&str> = rec.drain_events().iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, vec!["Abandoned"]);
    }

    #[test]
    fn completion_before_deadline_is_goodput_and_deadline_pops_silently() {
        let plan = OverloadPlan {
            client_timeout_ns: 5 * MILLISECOND,
            ..OverloadPlan::none()
        };
        let mut st = OverloadState::new(plan, 1);
        let rec = Recorder::ring(64);
        st.on_admitted(0, &req(7, 0));
        assert!(!st.on_completion(7, MILLISECOND));
        st.expire(5 * MILLISECOND, &rec, &mut RequestTracer::disabled());
        assert_eq!(st.counters.abandoned, 0);
        assert_eq!(st.counters.good, 1);
        assert!(rec.drain_events().is_empty());
    }

    #[test]
    fn retries_are_deterministic_and_capped() {
        let plan = OverloadPlan {
            client_timeout_ns: MILLISECOND,
            retry_prob: 1.0,
            max_attempts: 3,
            retry_backoff_ns: 100_000,
            retry_jitter_ns: 50_000,
            ..OverloadPlan::none()
        };
        let run = || {
            let mut st = OverloadState::new(plan, 1);
            let rec = Recorder::ring(256);
            st.on_admitted(0, &req(0, 0));
            st.expire(MILLISECOND, &rec, &mut RequestTracer::disabled()); // attempt 0 abandoned → retry 1
            let r1 = st.pop_due_retry(10 * MILLISECOND).expect("retry scheduled");
            assert_eq!(r1.attempt, 1);
            assert_eq!(r1.client_id, 0);
            assert_eq!(r1.first_arrival, 0);
            assert!(r1.id >= SYNTH_ID_BASE);
            st.on_admitted(r1.arrival, &r1);
            st.expire(
                r1.arrival + MILLISECOND,
                &rec,
                &mut RequestTracer::disabled(),
            ); // attempt 1 → retry 2
            let r2 = st.pop_due_retry(30 * MILLISECOND).expect("second retry");
            assert_eq!(r2.attempt, 2);
            st.on_admitted(r2.arrival, &r2);
            st.expire(
                r2.arrival + MILLISECOND,
                &rec,
                &mut RequestTracer::disabled(),
            ); // attempt cap reached
            assert!(st.pop_due_retry(100 * MILLISECOND).is_none());
            (st.counters, rec.drain_events())
        };
        let (ca, ea) = run();
        let (cb, eb) = run();
        assert_eq!(ca, cb);
        assert_eq!(ea, eb);
        assert_eq!(ca.retries, 2);
        assert_eq!(ca.abandoned, 3);
    }

    #[test]
    fn codel_rejects_only_after_sustained_sojourn() {
        let mut c = CoDelAdmission::new(MILLISECOND, 2 * MILLISECOND);
        // Below target: always admit.
        assert!(c.admit(0, 5, 500_000));
        // Above target but interval not yet elapsed.
        assert!(c.admit(MILLISECOND, 5, 2 * MILLISECOND));
        assert!(c.admit(2 * MILLISECOND, 5, 2 * MILLISECOND));
        // Interval elapsed with sojourn still high → reject.
        assert!(!c.admit(3 * MILLISECOND, 5, 2 * MILLISECOND));
        // Sojourn recovers → admit again and reset.
        assert!(c.admit(4 * MILLISECOND, 1, 100_000));
        assert!(c.admit(5 * MILLISECOND, 5, 2 * MILLISECOND));
    }

    #[test]
    fn drl_admission_follows_commanded_threshold() {
        let mut d = DrlAdmission::new(10);
        assert!(d.admit(0, 9, 0));
        assert!(!d.admit(0, 10, 0));
        d.set_threshold(0.5);
        assert!(d.admit(0, 4, 0));
        assert!(!d.admit(0, 5, 0));
        d.set_threshold(0.0);
        // Floor of one slot so the server never fully starves.
        assert!(d.admit(0, 0, 0));
        assert!(!d.admit(0, 1, 0));
    }

    #[test]
    fn burst_window_multiplies_arrivals() {
        let plan = OverloadPlan {
            burst_start_ns: 1000,
            burst_duration_ns: 500,
            burst_factor: 2,
            ..OverloadPlan::none()
        };
        let st = OverloadState::new(plan, 1);
        assert_eq!(st.burst_clones(999), 0);
        assert_eq!(st.burst_clones(1000), 2);
        assert_eq!(st.burst_clones(1499), 2);
        assert_eq!(st.burst_clones(1500), 0);
    }
}
