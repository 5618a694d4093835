//! The recorder handle and its sinks.
//!
//! A [`Recorder`] is the single object instrumented code holds: an
//! optional event sink plus the span profiler. Its event stream is
//! either *disabled* (`Recorder::disabled()`) — a `None` inside, so
//! every emission is one branch and no allocation ever happens — or a
//! shared [`TelemetrySink`] that every clone of the handle feeds.
//!
//! The recorder keeps no counts of its own. What happened in a run is
//! counted once, in the run's result (`SimResult` fields such as
//! `faults_injected` and `shed`, the safety governor's trip counters),
//! and told once, as typed events; tests compare the two.
//!
//! The recorder also carries the span [`Profiler`] (disabled by
//! default; attach one with [`Recorder::with_profiler`]), so one handle
//! reaches every instrumented layer: the engine opens `engine.*` spans
//! and the DeepPower governor hands the profiler to its agent for
//! `ddpg.*` spans. The two are independent — a recorder with the event
//! stream off and the profiler on records spans only.
//!
//! Recorders are deliberately `!Send`: the harness gives every job its
//! own recorder on the worker thread that runs it and drains the events
//! into the job's per-index result slot, which is what keeps artifacts
//! byte-identical across `--threads` values.

use std::cell::RefCell;
use std::rc::Rc;

use crate::event::Event;
use crate::profile::Profiler;

/// Destination for the typed event stream.
pub trait TelemetrySink {
    /// Accept one event. Sinks must not block or fail.
    fn record(&mut self, event: Event);
    /// Take every buffered event, oldest first. Sinks that forward
    /// events elsewhere may return nothing.
    fn drain(&mut self) -> Vec<Event> {
        Vec::new()
    }
    /// Events discarded due to capacity (0 for unbounded sinks).
    fn dropped(&self) -> u64 {
        0
    }
}

/// Discards every event. Used by the overhead bench to measure the
/// cost of an *enabled* recorder minus any buffering work.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {
    #[inline]
    fn record(&mut self, _event: Event) {}
}

/// Preallocated ring buffer: keeps the most recent `capacity` events,
/// overwriting the oldest and counting what it dropped.
#[derive(Clone, Debug)]
pub struct RingSink {
    buf: Vec<Event>,
    capacity: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl RingSink {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RingSink capacity must be positive");
        Self {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl TelemetrySink for RingSink {
    #[inline]
    fn record(&mut self, event: Event) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn drain(&mut self) -> Vec<Event> {
        let head = std::mem::take(&mut self.head);
        let mut buf = std::mem::take(&mut self.buf);
        buf.rotate_left(head);
        buf
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Cheap, cloneable telemetry handle. See the module docs.
#[derive(Clone, Default)]
pub struct Recorder {
    sink: Option<Rc<RefCell<Box<dyn TelemetrySink>>>>,
    prof: Profiler,
}

impl Recorder {
    /// A recorder that records nothing, spans included: every operation
    /// is one branch.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled recorder over a [`RingSink`] of `capacity` events.
    pub fn ring(capacity: usize) -> Self {
        Self::with_sink(Box::new(RingSink::new(capacity)))
    }

    /// An enabled recorder over an arbitrary sink.
    pub fn with_sink(sink: Box<dyn TelemetrySink>) -> Self {
        Self {
            sink: Some(Rc::new(RefCell::new(sink))),
            prof: Profiler::disabled(),
        }
    }

    /// This recorder with `prof` attached (a cheap handle clone).
    pub fn with_profiler(mut self, prof: &Profiler) -> Self {
        self.prof = prof.clone();
        self
    }

    /// Whether the event stream is on (the profiler is independent).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The attached span profiler (disabled unless
    /// [`with_profiler`](Self::with_profiler) set one).
    #[inline]
    pub fn profiler(&self) -> &Profiler {
        &self.prof
    }

    /// Push an event into the sink. `event` is a closure so that
    /// callers pay for constructing the payload only when enabled.
    #[inline]
    pub fn emit(&self, event: impl FnOnce() -> Event) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().record(event());
        }
    }

    /// Take every buffered event, oldest first (empty when disabled).
    pub fn drain_events(&self) -> Vec<Event> {
        match &self.sink {
            Some(sink) => sink.borrow_mut().drain(),
            None => Vec::new(),
        }
    }

    /// Events the sink discarded due to capacity.
    pub fn dropped_events(&self) -> u64 {
        match &self.sink {
            Some(sink) => sink.borrow().dropped(),
            None => 0,
        }
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled())
            .field("profiler", &self.prof.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, FreqTransition};

    fn ft(t: u64) -> Event {
        Event::FreqTransition(FreqTransition {
            t,
            core: 0,
            from_mhz: 800,
            to_mhz: 2100,
        })
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.enabled());
        r.emit(|| panic!("payload must not be constructed when disabled"));
        assert!(r.drain_events().is_empty());
        assert_eq!(r.dropped_events(), 0);
        assert!(!r.profiler().is_enabled());
    }

    #[test]
    fn profiler_rides_independently_of_the_event_stream() {
        let prof = Profiler::enabled();
        let r = Recorder::disabled().with_profiler(&prof);
        assert!(!r.enabled(), "attaching a profiler leaves events off");
        drop(r.clone().profiler().span("x"));
        assert_eq!(prof.phase_table()[0].count, 1, "clones share the profiler");
        assert!(Recorder::ring(4).enabled());
        assert!(!Recorder::ring(4).profiler().is_enabled());
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut ring = RingSink::new(3);
        for t in 0..5 {
            ring.record(ft(t));
        }
        assert_eq!(ring.dropped(), 2);
        let events = ring.drain();
        let ts: Vec<u64> = events
            .iter()
            .map(|e| match e {
                Event::FreqTransition(f) => f.t,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ts, vec![2, 3, 4]);
    }

    #[test]
    fn recorder_clones_share_one_sink() {
        let r = Recorder::ring(16);
        let r2 = r.clone();
        r.emit(|| ft(1));
        assert_eq!(r2.drain_events().len(), 1);
        assert!(r.drain_events().is_empty());
        assert_eq!(r.dropped_events(), 0);
    }
}
