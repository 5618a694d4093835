//! Hierarchical wall-clock span profiler.
//!
//! A [`Profiler`] is the *where-does-the-time-go* counterpart of the
//! [`Recorder`](crate::Recorder), and travels inside it
//! ([`Recorder::with_profiler`](crate::Recorder::with_profiler)):
//! instrumented code opens RAII [`Span`]s around hot phases (engine
//! event phases, DDPG update stages, fleet lockstep epochs).
//! It follows the recorder's cost contract — a disabled profiler is a
//! `None` inside, so every `span()` call is a single branch and the
//! returned guard's `Drop` is another — but unlike the recorder it is
//! **thread-safe** (`Send + Sync`): one handle can be shared across the
//! harness worker pool, with every span tagged by a per-thread id.
//!
//! Spans carry *wall-clock* nanoseconds and therefore live outside the
//! deterministic [`Event`](crate::Event) stream: profiling output is a
//! separate artifact channel that must never influence simulation
//! results (tests across the workspace pin byte-identical results with
//! profiling on and off).
//!
//! Two exports:
//! * a per-phase aggregate table ([`Profiler::phase_table`] /
//!   [`render_phase_table`]) with exact totals — aggregation happens on
//!   every span close, so it never truncates;
//! * Chrome trace-event JSON ([`Profiler::to_chrome_trace`]), loadable
//!   in `chrome://tracing` and Perfetto. Detailed span records are
//!   capped (`max_records`, drops counted) so multi-million-event runs
//!   can't exhaust memory.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde_json::{Number, Value};

/// Default cap on stored [`SpanRecord`]s (aggregates are never capped).
pub const DEFAULT_MAX_SPANS: usize = 1 << 18;

/// Process-wide thread-id allocator: ids are small, dense and stable
/// for the life of each thread (assigned on the thread's first span).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
std::thread_local! {
    static TID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn current_tid() -> u64 {
    TID.with(|c| {
        let mut v = c.get();
        if v == 0 {
            v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            c.set(v);
        }
        v
    })
}

/// One closed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    pub name: &'static str,
    /// Profiler-assigned thread id (dense, starts at 1).
    pub tid: u64,
    /// Nesting depth on its thread at open time (0 = root).
    pub depth: u32,
    /// Nanoseconds since the profiler's epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Aggregate row for one span name.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseRow {
    pub name: &'static str,
    pub count: u64,
    /// Total time inside spans of this name (children included).
    pub total_ns: u64,
    /// Total minus time spent in child spans.
    pub self_ns: u64,
    /// Total over *root* (depth-0) spans only — the non-overlapping
    /// share of wall time, safe to sum across names.
    pub root_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
}

#[derive(Clone, Debug, Default)]
struct Agg {
    count: u64,
    total_ns: u64,
    self_ns: u64,
    root_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

struct OpenSpan {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

enum Clock {
    Wall(Instant),
    /// Test clock advanced explicitly via [`Profiler::advance`].
    Manual(AtomicU64),
}

struct State {
    records: Vec<SpanRecord>,
    max_records: usize,
    dropped: u64,
    /// Per-thread stacks of open spans.
    open: BTreeMap<u64, Vec<OpenSpan>>,
    agg: BTreeMap<&'static str, Agg>,
}

struct Shared {
    clock: Clock,
    state: Mutex<State>,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        match &self.clock {
            Clock::Wall(epoch) => epoch.elapsed().as_nanos() as u64,
            Clock::Manual(t) => t.load(Ordering::SeqCst),
        }
    }

    fn open_span(&self, name: &'static str, tid: u64) {
        let start_ns = self.now_ns();
        let mut st = self.state.lock().expect("profiler lock");
        st.open.entry(tid).or_default().push(OpenSpan {
            name,
            start_ns,
            child_ns: 0,
        });
    }

    fn close_span(&self, tid: u64) {
        let end_ns = self.now_ns();
        let mut st = self.state.lock().expect("profiler lock");
        let stack = st.open.get_mut(&tid).expect("close without open");
        let span = stack.pop().expect("close without open");
        let depth = stack.len() as u32;
        let dur_ns = end_ns.saturating_sub(span.start_ns);
        let self_ns = dur_ns.saturating_sub(span.child_ns);
        if let Some(parent) = stack.last_mut() {
            parent.child_ns += dur_ns;
        }
        let agg = st.agg.entry(span.name).or_default();
        agg.count += 1;
        agg.total_ns += dur_ns;
        agg.self_ns += self_ns;
        if depth == 0 {
            agg.root_ns += dur_ns;
        }
        agg.min_ns = if agg.count == 1 {
            dur_ns
        } else {
            agg.min_ns.min(dur_ns)
        };
        agg.max_ns = agg.max_ns.max(dur_ns);
        if st.records.len() < st.max_records {
            st.records.push(SpanRecord {
                name: span.name,
                tid,
                depth,
                start_ns: span.start_ns,
                dur_ns,
            });
        } else {
            st.dropped += 1;
        }
    }
}

/// Cheap, cloneable, `Send + Sync` profiling handle. See the module
/// docs; the disabled/enabled contract mirrors [`crate::Recorder`].
#[derive(Clone, Default)]
pub struct Profiler {
    inner: Option<Arc<Shared>>,
}

impl Profiler {
    /// A profiler that records nothing: every operation is one branch.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled wall-clock profiler with the default span cap.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_MAX_SPANS)
    }

    /// An enabled wall-clock profiler keeping at most `max_records`
    /// detailed spans (aggregates are exact regardless).
    pub fn with_capacity(max_records: usize) -> Self {
        Self::build(Clock::Wall(Instant::now()), max_records)
    }

    /// An enabled profiler on a manual clock starting at 0 — time moves
    /// only through [`advance`](Self::advance). For tests.
    pub fn manual(max_records: usize) -> Self {
        Self::build(Clock::Manual(AtomicU64::new(0)), max_records)
    }

    fn build(clock: Clock, max_records: usize) -> Self {
        Self {
            inner: Some(Arc::new(Shared {
                clock,
                state: Mutex::new(State {
                    records: Vec::new(),
                    max_records: max_records.max(1),
                    dropped: 0,
                    open: BTreeMap::new(),
                    agg: BTreeMap::new(),
                }),
            })),
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Advance a [`manual`](Self::manual) clock by `ns`. No-op on
    /// wall-clock or disabled profilers.
    pub fn advance(&self, ns: u64) {
        if let Some(sh) = &self.inner {
            if let Clock::Manual(t) = &sh.clock {
                t.fetch_add(ns, Ordering::SeqCst);
            }
        }
    }

    /// Open a span; it closes when the returned guard drops. Disabled:
    /// one branch here, one in the guard's `Drop`.
    #[inline]
    #[must_use = "a span measures the scope holding its guard"]
    pub fn span(&self, name: &'static str) -> Span {
        match &self.inner {
            None => Span { shared: None },
            Some(sh) => {
                let tid = current_tid();
                sh.open_span(name, tid);
                Span {
                    shared: Some((Arc::clone(sh), tid)),
                }
            }
        }
    }

    /// Snapshot of the closed-span records, in close order.
    pub fn records(&self) -> Vec<SpanRecord> {
        match &self.inner {
            Some(sh) => sh.state.lock().expect("profiler lock").records.clone(),
            None => Vec::new(),
        }
    }

    /// Detailed spans discarded after `max_records` was reached.
    pub fn dropped_spans(&self) -> u64 {
        match &self.inner {
            Some(sh) => sh.state.lock().expect("profiler lock").dropped,
            None => 0,
        }
    }

    /// Per-phase aggregate rows, heaviest total first (ties by name).
    pub fn phase_table(&self) -> Vec<PhaseRow> {
        let Some(sh) = &self.inner else {
            return Vec::new();
        };
        let st = sh.state.lock().expect("profiler lock");
        let mut rows: Vec<PhaseRow> = st
            .agg
            .iter()
            .map(|(&name, a)| PhaseRow {
                name,
                count: a.count,
                total_ns: a.total_ns,
                self_ns: a.self_ns,
                root_ns: a.root_ns,
                min_ns: a.min_ns,
                max_ns: a.max_ns,
            })
            .collect();
        rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(b.name)));
        rows
    }

    /// Sum of root-span time across all phases: the profiled share of
    /// wall time (root spans never overlap on a thread, so the sum is
    /// meaningful against a single-threaded wall measurement).
    pub fn root_total_ns(&self) -> u64 {
        self.phase_table().iter().map(|r| r.root_ns).sum()
    }

    /// Serialize every stored span as Chrome trace-event JSON
    /// (`chrome://tracing` / Perfetto "complete" events, `ph: "X"`,
    /// microsecond `ts`/`dur`).
    pub fn to_chrome_trace(&self) -> String {
        let records = self.records();
        let events: Vec<Value> = records.iter().map(record_to_chrome).collect();
        let root = Value::Object(vec![
            ("traceEvents".to_string(), Value::Array(events)),
            (
                "displayTimeUnit".to_string(),
                Value::String("ms".to_string()),
            ),
        ]);
        serde_json::to_string_pretty(&root).expect("chrome trace serialization")
    }
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// RAII span guard returned by [`Profiler::span`].
pub struct Span {
    shared: Option<(Arc<Shared>, u64)>,
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if let Some((sh, tid)) = &self.shared {
            sh.close_span(*tid);
        }
    }
}

fn record_to_chrome(r: &SpanRecord) -> Value {
    let us = |ns: u64| Value::Number(Number::F64(ns as f64 / 1000.0));
    Value::Object(vec![
        ("name".to_string(), Value::String(r.name.to_string())),
        ("cat".to_string(), Value::String("deeppower".to_string())),
        ("ph".to_string(), Value::String("X".to_string())),
        ("ts".to_string(), us(r.start_ns)),
        ("dur".to_string(), us(r.dur_ns)),
        ("pid".to_string(), Value::Number(Number::U64(1))),
        ("tid".to_string(), Value::Number(Number::U64(r.tid))),
    ])
}

/// One event parsed back out of a Chrome trace (times restored to
/// nanoseconds; exact for spans below ~3 days).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChromeEvent {
    pub name: String,
    pub tid: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

impl ChromeEvent {
    /// Projection of a [`SpanRecord`] for round-trip comparisons.
    pub fn from_record(r: &SpanRecord) -> Self {
        Self {
            name: r.name.to_string(),
            tid: r.tid,
            start_ns: r.start_ns,
            dur_ns: r.dur_ns,
        }
    }
}

/// Parse Chrome trace-event JSON produced by
/// [`Profiler::to_chrome_trace`] (or any trace using complete events
/// with numeric `ts`/`dur`/`tid`).
pub fn from_chrome_trace(text: &str) -> Result<Vec<ChromeEvent>, String> {
    let root: Value = serde_json::from_str(text).map_err(|e| format!("bad JSON: {e:?}"))?;
    let Some(Value::Array(events)) = root.get("traceEvents") else {
        return Err("missing traceEvents array".to_string());
    };
    let ns = |v: &Value| -> Option<u64> {
        match v {
            Value::Number(n) => Some((n.as_f64() * 1000.0).round() as u64),
            _ => None,
        }
    };
    events
        .iter()
        .enumerate()
        .map(|(i, ev)| {
            let field = |k: &str| ev.get(k).ok_or_else(|| format!("event {i}: missing {k}"));
            let name = match field("name")? {
                Value::String(s) => s.clone(),
                _ => return Err(format!("event {i}: name is not a string")),
            };
            let tid = match field("tid")? {
                Value::Number(n) => n.as_f64() as u64,
                _ => return Err(format!("event {i}: tid is not a number")),
            };
            let start_ns = ns(field("ts")?).ok_or_else(|| format!("event {i}: bad ts"))?;
            let dur_ns = ns(field("dur")?).ok_or_else(|| format!("event {i}: bad dur"))?;
            Ok(ChromeEvent {
                name,
                tid,
                start_ns,
                dur_ns,
            })
        })
        .collect()
}

/// Render phase rows as an aligned text table. `wall_ns > 0` adds a
/// `%wall` column from each row's root (non-overlapping) time.
pub fn render_phase_table(rows: &[PhaseRow], wall_ns: u64) -> String {
    let ms = |ns: u64| ns as f64 / 1e6;
    let us = |ns: u64| ns as f64 / 1e3;
    let mut out = format!(
        "{:<20} {:>9} {:>11} {:>11} {:>10} {:>10} {:>10}",
        "phase", "count", "total(ms)", "self(ms)", "mean(us)", "max(us)", "%wall"
    );
    out.push('\n');
    for r in rows {
        let mean_us = if r.count > 0 {
            us(r.total_ns) / r.count as f64
        } else {
            0.0
        };
        let pct = if wall_ns > 0 {
            format!("{:>9.1}%", 100.0 * r.root_ns as f64 / wall_ns as f64)
        } else {
            format!("{:>10}", "-")
        };
        out.push_str(&format!(
            "{:<20} {:>9} {:>11.3} {:>11.3} {:>10.2} {:>10.2} {pct}\n",
            r.name,
            r.count,
            ms(r.total_ns),
            ms(r.self_ns),
            mean_us,
            us(r.max_ns),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_is_inert() {
        let p = Profiler::disabled();
        assert!(!p.is_enabled());
        {
            let _s = p.span("anything");
        }
        assert!(p.records().is_empty());
        assert!(p.phase_table().is_empty());
        assert_eq!(p.dropped_spans(), 0);
        assert_eq!(p.root_total_ns(), 0);
    }

    #[test]
    fn nested_spans_account_self_and_child_time() {
        let p = Profiler::manual(64);
        {
            let _a = p.span("outer");
            p.advance(100);
            {
                let _b = p.span("inner");
                p.advance(40);
            }
            p.advance(10);
        }
        let recs = p.records();
        assert_eq!(recs.len(), 2);
        // Children close first.
        assert_eq!(recs[0].name, "inner");
        assert_eq!(recs[0].depth, 1);
        assert_eq!(recs[0].start_ns, 100);
        assert_eq!(recs[0].dur_ns, 40);
        assert_eq!(recs[1].name, "outer");
        assert_eq!(recs[1].depth, 0);
        assert_eq!(recs[1].start_ns, 0);
        assert_eq!(recs[1].dur_ns, 150);

        let rows = p.phase_table();
        let outer = rows.iter().find(|r| r.name == "outer").unwrap();
        assert_eq!(outer.total_ns, 150);
        assert_eq!(outer.self_ns, 110);
        assert_eq!(outer.root_ns, 150);
        let inner = rows.iter().find(|r| r.name == "inner").unwrap();
        assert_eq!(inner.self_ns, 40);
        assert_eq!(inner.root_ns, 0, "nested spans contribute no root time");
        assert_eq!(p.root_total_ns(), 150);
    }

    #[test]
    fn record_cap_drops_but_aggregates_stay_exact() {
        let p = Profiler::manual(2);
        for _ in 0..5 {
            let _s = p.span("tick");
            p.advance(10);
        }
        assert_eq!(p.records().len(), 2);
        assert_eq!(p.dropped_spans(), 3);
        let rows = p.phase_table();
        assert_eq!(rows[0].count, 5);
        assert_eq!(rows[0].total_ns, 50);
    }

    #[test]
    fn phase_table_sorted_by_total_desc() {
        let p = Profiler::manual(64);
        {
            let _s = p.span("small");
            p.advance(5);
        }
        {
            let _s = p.span("big");
            p.advance(500);
        }
        let rows = p.phase_table();
        assert_eq!(rows[0].name, "big");
        assert_eq!(rows[1].name, "small");
        let table = render_phase_table(&rows, 505);
        assert!(table.contains("big"), "{table}");
        assert!(table.contains("%wall"), "{table}");
    }

    #[test]
    fn chrome_trace_round_trips() {
        let p = Profiler::manual(64);
        {
            let _a = p.span("engine.tick");
            p.advance(1_234);
            {
                let _b = p.span("ddpg.update");
                p.advance(567);
            }
        }
        let json = p.to_chrome_trace();
        assert!(json.contains("traceEvents"), "{json}");
        assert!(json.contains("\"ph\": \"X\""), "{json}");
        let back = from_chrome_trace(&json).unwrap();
        let want: Vec<ChromeEvent> = p.records().iter().map(ChromeEvent::from_record).collect();
        assert_eq!(back, want);
    }

    #[test]
    fn from_chrome_trace_rejects_garbage() {
        assert!(from_chrome_trace("{}").is_err());
        assert!(from_chrome_trace("not json").is_err());
    }

    #[test]
    fn spans_on_different_threads_get_distinct_tids() {
        let p = Profiler::with_capacity(64);
        {
            let _s = p.span("main");
        }
        let p2 = p.clone();
        std::thread::spawn(move || {
            let _s = p2.span("worker");
        })
        .join()
        .unwrap();
        let recs = p.records();
        assert_eq!(recs.len(), 2);
        assert_ne!(recs[0].tid, recs[1].tid);
    }

    #[test]
    fn wall_clock_spans_have_monotone_nonzero_bounds() {
        let p = Profiler::enabled();
        {
            let _a = p.span("a");
            std::hint::black_box((0..1000).sum::<u64>());
        }
        {
            let _b = p.span("b");
        }
        let recs = p.records();
        assert_eq!(recs.len(), 2);
        assert!(recs[1].start_ns >= recs[0].start_ns);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

        #[derive(Clone, Debug)]
        enum Op {
            Open(usize),
            Advance(u64),
            Close,
        }

        fn ops() -> impl Strategy<Value = Vec<Op>> {
            // One integer encodes (op kind, advance amount): the
            // vendored prop_oneof! needs same-typed alternatives.
            // Advances stay under 1e9 ns so cumulative time is far
            // below the f64-exact range for microsecond Chrome times.
            proptest::collection::vec(
                (0u64..8_000_000_000u64).prop_map(|x| {
                    let kind = (x % 8) as usize;
                    match kind {
                        k if k < NAMES.len() => Op::Open(k),
                        4 | 5 => Op::Advance(x / 8),
                        _ => Op::Close,
                    }
                }),
                0..60,
            )
        }

        /// Run ops on a manual-clock profiler; unmatched closes are
        /// skipped, unmatched opens are closed at the end. Also returns
        /// the expected depth of each record in close order, from a
        /// reference stack simulation.
        fn run_ops(ops: &[Op]) -> (Profiler, Vec<u32>) {
            let p = Profiler::manual(1 << 12);
            let mut guards: Vec<Span> = Vec::new();
            let mut depths = Vec::new();
            for op in ops {
                match op {
                    Op::Open(i) => guards.push(p.span(NAMES[*i])),
                    Op::Advance(ns) => p.advance(*ns),
                    Op::Close => {
                        if guards.pop().is_some() {
                            depths.push(guards.len() as u32);
                        }
                    }
                }
            }
            while guards.pop().is_some() {
                depths.push(guards.len() as u32);
            }
            (p, depths)
        }

        proptest! {
            #[test]
            fn span_intervals_are_laminar_and_depths_consistent(ops in ops()) {
                let (p, want_depths) = run_ops(&ops);
                let recs = p.records();
                for r in &recs {
                    prop_assert!(r.start_ns.checked_add(r.dur_ns).is_some());
                }
                // Any two spans on one thread either nest or are
                // disjoint (children sit inside their parents), and
                // depth matches the reference open-stack simulation.
                for (i, a) in recs.iter().enumerate() {
                    let (a0, a1) = (a.start_ns, a.start_ns + a.dur_ns);
                    for (j, b) in recs.iter().enumerate() {
                        if i == j || a.tid != b.tid {
                            continue;
                        }
                        let (b0, b1) = (b.start_ns, b.start_ns + b.dur_ns);
                        let nested = (b0 <= a0 && a1 <= b1) || (a0 <= b0 && b1 <= a1);
                        let disjoint = a1 <= b0 || b1 <= a0;
                        prop_assert!(
                            nested || disjoint,
                            "spans {i} and {j} partially overlap"
                        );
                    }
                }
                let got_depths: Vec<u32> = recs.iter().map(|r| r.depth).collect();
                prop_assert_eq!(got_depths, want_depths);
            }

            #[test]
            fn close_timestamps_monotone_within_thread(ops in ops()) {
                let (p, _) = run_ops(&ops);
                let recs = p.records();
                // Records are pushed at close time; end timestamps on a
                // thread must be non-decreasing in record order.
                let mut last_end = 0u64;
                for r in &recs {
                    let end = r.start_ns + r.dur_ns;
                    prop_assert!(end >= last_end, "close times went backwards");
                    last_end = end;
                }
            }

            #[test]
            fn chrome_export_import_round_trips(ops in ops()) {
                let (p, _) = run_ops(&ops);
                let want: Vec<ChromeEvent> =
                    p.records().iter().map(ChromeEvent::from_record).collect();
                let back = from_chrome_trace(&p.to_chrome_trace()).unwrap();
                prop_assert_eq!(back, want);
            }

            #[test]
            fn aggregate_totals_match_records_when_uncapped(ops in ops()) {
                let (p, _) = run_ops(&ops);
                let recs = p.records();
                prop_assert_eq!(p.dropped_spans(), 0, "cap must not bind at this size");
                for row in p.phase_table() {
                    let total: u64 = recs
                        .iter()
                        .filter(|r| r.name == row.name)
                        .map(|r| r.dur_ns)
                        .sum();
                    let count = recs.iter().filter(|r| r.name == row.name).count() as u64;
                    prop_assert_eq!(row.total_ns, total);
                    prop_assert_eq!(row.count, count);
                }
            }
        }
    }
}
