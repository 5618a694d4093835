//! The control-plane interface: everything a power-management policy may
//! observe and command.
//!
//! A [`Governor`] is the simulator's equivalent of "the process that writes
//! `scaling_setspeed`": DeepPower's thread controller, ReTail, Gemini and
//! the fixed/max baselines all implement this trait. The engine calls
//! [`Governor::on_tick`] every control period (the paper's `ShortTime`,
//! 1 ms by default) and [`Governor::on_request_start`] whenever a core
//! dequeues a request — the hook the request-granularity baselines need.
//!
//! Observability is deliberately restricted to what a real deployment can
//! see: queue contents, per-core elapsed processing time, request
//! *features*, cumulative counters, and the RAPL energy counter. Intrinsic
//! service times (`work_ref_ns`) are never exposed.

use crate::clock::Nanos;
use crate::dvfs::FreqPlan;
use crate::request::{Features, Request};
use std::collections::VecDeque;

/// What a governor may see about one in-flight request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunningView {
    /// When the request arrived at the server queue.
    pub arrival: Nanos,
    /// When this core started processing it.
    pub started: Nanos,
    /// Observable request features, copied inline from the request (a
    /// [`Features`] derefs to `&[f32]`), so a view owns no borrow and
    /// the engine can refill one reusable view buffer per callback.
    pub features: Features,
    /// The request SLA.
    pub sla: Nanos,
}

/// What a governor may see about one core.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoreView {
    /// Commanded frequency in MHz.
    pub freq_mhz: u32,
    /// The request being processed, if any.
    pub running: Option<RunningView>,
    /// Which C-state the core currently sleeps in (`None` = C0/awake).
    /// Always `None` while a request is running.
    pub sleeping: Option<usize>,
}

impl CoreView {
    pub fn busy(&self) -> bool {
        self.running.is_some()
    }
}

/// Snapshot of server state handed to the governor.
#[derive(Debug)]
pub struct ServerView<'a> {
    pub now: Nanos,
    /// Queued (not yet started) requests in FIFO order.
    pub queue: &'a VecDeque<Request>,
    pub cores: &'a [CoreView],
    /// Cumulative counters since the run began.
    pub total_arrived: u64,
    pub total_completed: u64,
    pub total_timeouts: u64,
    /// Requests shed at admission (0 unless an overload plan is active).
    pub total_shed: u64,
    /// Completions whose client had already abandoned (wasted work).
    pub total_wasted: u64,
    /// RAPL-style monotone energy counter in microjoules.
    pub energy_uj: u64,
}

impl ServerView<'_> {
    /// Number of currently busy cores.
    pub fn busy_cores(&self) -> usize {
        self.cores.iter().filter(|c| c.busy()).count()
    }

    /// Queue length (requests waiting, not counting in-service).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }
}

/// Frequency commands issued by a governor during one callback.
///
/// Commands are validated and applied by the engine after the callback
/// returns; the last write to a core wins. Invalid frequencies are snapped
/// to the nearest legal level.
#[derive(Debug)]
pub struct FreqCommands {
    targets: Vec<Option<u32>>,
    sleep_targets: Vec<Option<usize>>,
    admission: Option<f32>,
    /// Set by every setter and cleared by the engine, which skips its
    /// per-core apply pass after a callback that commanded nothing.
    issued: bool,
    turbo_mhz: u32,
    min_mhz: u32,
    max_mhz: u32,
}

impl FreqCommands {
    /// Build a command buffer for `n_cores` cores against `plan` (the
    /// engine does this internally; public for governor micro-benchmarks
    /// and tests).
    pub fn new(n_cores: usize, plan: &FreqPlan) -> Self {
        Self {
            targets: vec![None; n_cores],
            sleep_targets: vec![None; n_cores],
            admission: None,
            issued: false,
            turbo_mhz: plan.turbo_mhz,
            min_mhz: plan.min_mhz(),
            max_mhz: plan.max_mhz(),
        }
    }

    /// The plan's nominal (non-turbo) frequency band, in MHz.
    pub fn freq_band_mhz(&self) -> (u32, u32) {
        (self.min_mhz, self.max_mhz)
    }

    /// Algorithm 1 line 9 against the *actual* plan band:
    /// `f_min + (f_max − f_min) · score` in MHz (the engine snaps the
    /// result to the nearest legal level). Governors must use this
    /// instead of hardcoding a frequency range so any [`FreqPlan`] gets
    /// correct commands.
    pub fn interpolate(&self, score: f32) -> u32 {
        let score = score.clamp(0.0, 1.0) as f64;
        let f = self.min_mhz as f64 + (self.max_mhz - self.min_mhz) as f64 * score;
        f.round() as u32
    }

    /// Command core `core_id` to `mhz` (snapped to a legal level by the
    /// engine if needed).
    pub fn set(&mut self, core_id: usize, mhz: u32) {
        self.targets[core_id] = Some(mhz);
        self.issued = true;
    }

    /// Peek the pending command for `core_id` without consuming it.
    /// Wrapper governors (e.g. a safety layer) use this to observe what
    /// the wrapped policy commanded before deciding to override it.
    pub fn get(&self, core_id: usize) -> Option<u32> {
        self.targets[core_id]
    }

    /// Command core `core_id` to the turbo frequency (Algorithm 1 line 7).
    pub fn set_turbo(&mut self, core_id: usize) {
        self.targets[core_id] = Some(self.turbo_mhz);
        self.issued = true;
    }

    /// Command every core to the same frequency.
    pub fn set_all(&mut self, mhz: u32) {
        self.targets.iter_mut().for_each(|t| *t = Some(mhz));
        self.issued = true;
    }

    pub(crate) fn take(&mut self, core_id: usize) -> Option<u32> {
        self.targets[core_id].take()
    }

    /// Command an *idle* core into C-state `level` (an index into the
    /// server's [`crate::CStatePlan`]). Ignored for busy cores; the core
    /// wakes automatically — paying the state's wake latency — when the
    /// engine dispatches a request to it.
    pub fn set_sleep(&mut self, core_id: usize, level: usize) {
        self.sleep_targets[core_id] = Some(level);
        self.issued = true;
    }

    pub(crate) fn take_sleep(&mut self, core_id: usize) -> Option<usize> {
        self.sleep_targets[core_id].take()
    }

    /// Command an admission threshold as a fraction of the admission
    /// scale (clamped to `[0, 1]`). Consumed only by runs whose
    /// [`crate::OverloadPlan`] uses [`crate::AdmissionMode::Drl`];
    /// ignored everywhere else. Last write wins.
    ///
    /// The value is sanitized *here*, before it can reach the queue or a
    /// step CSV: non-finite input (a NaN-poisoned actor head) falls back
    /// to fully open (`1.0`), and finite input is clamped — `f32::clamp`
    /// alone would pass NaN straight through.
    pub fn set_admission(&mut self, frac: f32) {
        let frac = if frac.is_finite() { frac } else { 1.0 };
        self.admission = Some(frac.clamp(0.0, 1.0));
        self.issued = true;
    }

    /// Peek the pending admission command without consuming it.
    pub fn get_admission(&self) -> Option<f32> {
        self.admission
    }

    pub(crate) fn take_admission(&mut self) -> Option<f32> {
        self.admission.take()
    }

    /// Whether any setter ran since the last call, clearing the flag.
    pub(crate) fn take_issued(&mut self) -> bool {
        std::mem::take(&mut self.issued)
    }

    pub fn n_cores(&self) -> usize {
        self.targets.len()
    }
}

/// A power-management policy.
///
/// Default method bodies are no-ops so minimal governors (e.g. a fixed
/// frequency) only implement what they use.
pub trait Governor {
    /// Called every control tick (`RunOptions::tick_ns`).
    fn on_tick(&mut self, _view: &ServerView<'_>, _cmds: &mut FreqCommands) {}

    /// Called when `core_id` dequeues `req` and is about to start
    /// processing it. The view reflects the state *after* the dequeue.
    fn on_request_start(
        &mut self,
        _view: &ServerView<'_>,
        _core_id: usize,
        _req: &Request,
        _cmds: &mut FreqCommands,
    ) {
    }

    /// Called when `core_id` finishes `req` with the given latency.
    fn on_request_complete(
        &mut self,
        _now: Nanos,
        _core_id: usize,
        _req: &Request,
        _latency: Nanos,
    ) {
    }

    /// Called exactly once when the run terminates (all arrivals served,
    /// queue drained). The view reflects the final server state; no
    /// commands can be issued. Learning governors use this to flush
    /// their last pending transition as terminal.
    fn on_run_end(&mut self, _view: &ServerView<'_>) {}

    /// Human-readable policy name (reporting).
    fn name(&self) -> &str {
        "unnamed"
    }

    /// Whether the policy is currently producing well-formed (finite)
    /// actions. Learning governors override this to report `false` after
    /// emitting a non-finite action; a safety wrapper polls it every tick
    /// and falls back to max frequency while it returns `false`.
    fn healthy(&self) -> bool {
        true
    }
}

/// Forwarding impl so wrapper governors can be built over a borrowed
/// `&mut dyn Governor` (the harness wraps heterogeneous policies this
/// way without boxing).
impl<G: Governor + ?Sized> Governor for &mut G {
    fn on_tick(&mut self, view: &ServerView<'_>, cmds: &mut FreqCommands) {
        (**self).on_tick(view, cmds);
    }

    fn on_request_start(
        &mut self,
        view: &ServerView<'_>,
        core_id: usize,
        req: &Request,
        cmds: &mut FreqCommands,
    ) {
        (**self).on_request_start(view, core_id, req, cmds);
    }

    fn on_request_complete(&mut self, now: Nanos, core_id: usize, req: &Request, latency: Nanos) {
        (**self).on_request_complete(now, core_id, req, latency);
    }

    fn on_run_end(&mut self, view: &ServerView<'_>) {
        (**self).on_run_end(view);
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn healthy(&self) -> bool {
        (**self).healthy()
    }
}

/// Runs every core at a fixed frequency forever. The paper's "baseline
/// without any power management" is `FixedFrequency` at the reference
/// (max nominal) frequency.
#[derive(Clone, Copy, Debug)]
pub struct FixedFrequency {
    pub mhz: u32,
}

impl Governor for FixedFrequency {
    fn on_tick(&mut self, _view: &ServerView<'_>, cmds: &mut FreqCommands) {
        cmds.set_all(self.mhz);
    }

    fn name(&self) -> &str {
        "fixed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freq_commands_last_write_wins_and_take_clears() {
        let plan = FreqPlan::test_plan();
        let mut cmds = FreqCommands::new(3, &plan);
        cmds.set(1, 1000);
        cmds.set(1, 1500);
        cmds.set_turbo(2);
        assert!(cmds.take_issued());
        assert!(!cmds.take_issued(), "taking the flag clears it");
        assert_eq!(cmds.take(0), None);
        assert_eq!(cmds.take(1), Some(1500));
        assert_eq!(cmds.take(1), None);
        assert_eq!(cmds.take(2), Some(2500));
    }

    #[test]
    fn set_all_covers_every_core() {
        let plan = FreqPlan::test_plan();
        let mut cmds = FreqCommands::new(4, &plan);
        cmds.set_all(2000);
        for i in 0..4 {
            assert_eq!(cmds.take(i), Some(2000));
        }
    }

    #[test]
    fn set_admission_clamps_and_sanitizes_nan() {
        let plan = FreqPlan::test_plan();
        let mut cmds = FreqCommands::new(1, &plan);
        cmds.set_admission(0.42);
        assert_eq!(cmds.get_admission(), Some(0.42));
        cmds.set_admission(7.0);
        assert_eq!(cmds.get_admission(), Some(1.0));
        cmds.set_admission(-3.0);
        assert_eq!(cmds.get_admission(), Some(0.0));
        cmds.set_admission(f32::NAN);
        assert_eq!(cmds.get_admission(), Some(1.0));
        cmds.set_admission(f32::NEG_INFINITY);
        assert_eq!(cmds.get_admission(), Some(1.0));
    }

    #[test]
    fn view_helpers_count_busy_cores() {
        let running = RunningView {
            arrival: 0,
            started: 0,
            features: Features::default(),
            sla: 0,
        };
        let cores = [
            CoreView {
                freq_mhz: 800,
                running: Some(running),
                sleeping: None,
            },
            CoreView {
                freq_mhz: 800,
                running: None,
                sleeping: Some(1),
            },
        ];
        let empty_queue = VecDeque::new();
        let view = ServerView {
            now: 0,
            queue: &empty_queue,
            cores: &cores,
            total_arrived: 0,
            total_completed: 0,
            total_timeouts: 0,
            total_shed: 0,
            total_wasted: 0,
            energy_uj: 0,
        };
        assert_eq!(view.busy_cores(), 1);
        assert_eq!(view.queue_len(), 0);
    }
}
