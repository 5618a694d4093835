//! Artifact exporters: JSONL (the canonical per-job artifact format),
//! a CSV projection of the DRL step series, and series reconstruction
//! helpers for the figure benches.

use crate::event::{DrlStep, Event};

/// Serialize events to JSON Lines: one externally-tagged event object
/// per line, in stream order, `\n`-terminated. Field order is the
/// struct declaration order (the vendored serde_json preserves
/// insertion order), so equal event streams produce byte-identical
/// output.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for ev in events {
        out.push_str(&serde_json::to_string(ev).expect("telemetry events always serialize"));
        out.push('\n');
    }
    out
}

/// Parse a JSONL artifact back into events. Blank lines are skipped;
/// a malformed line yields an error naming its 1-based line number.
pub fn from_jsonl(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev: Event = serde_json::from_str(line).map_err(|e| format!("line {}: {e:?}", i + 1))?;
        events.push(ev);
    }
    Ok(events)
}

/// Column order of [`steps_to_csv`] (documented in EXPERIMENTS.md).
pub(crate) const STEP_CSV_HEADER: &str =
    "t_ns,num_req,power_w,base_freq,scaling_coef,admit_frac,avg_freq_mhz,queue_len,timeouts,reward,r_energy,r_timeout,r_queue,r_wasted";

/// Project the `DrlStep` events out of a stream as a CSV table, one
/// row per step in stream order.
pub fn steps_to_csv(events: &[Event]) -> String {
    let mut out = String::from(STEP_CSV_HEADER);
    out.push('\n');
    for ev in events {
        if let Event::DrlStep(s) = ev {
            let DrlStep {
                t,
                num_req,
                power_w,
                base_freq,
                scaling_coef,
                admit_frac,
                avg_freq_mhz,
                queue_len,
                timeouts,
                reward,
                r_energy,
                r_timeout,
                r_queue,
                r_wasted,
            } = s;
            out.push_str(&format!(
                "{t},{num_req},{power_w},{base_freq},{scaling_coef},{admit_frac},{avg_freq_mhz},{queue_len},{timeouts},{reward},{r_energy},{r_timeout},{r_queue},{r_wasted}\n"
            ));
        }
    }
    out
}

/// Reconstruct one core's commanded-frequency time series from its
/// `FreqTransition` events: samples at `0, step_ns, 2*step_ns, ...`
/// up to and including the last point `<= t_end`. The core holds
/// `initial_mhz` until its first transition. Transition events must be
/// in time order (they are, in any recorder-produced stream).
pub fn freq_series(
    events: &[Event],
    core: u64,
    initial_mhz: u32,
    t_end: u64,
    step_ns: u64,
) -> Vec<(u64, u32)> {
    assert!(step_ns > 0, "step_ns must be positive");
    let mut transitions = events.iter().filter_map(|ev| match ev {
        Event::FreqTransition(f) if f.core == core => Some((f.t, f.to_mhz)),
        _ => None,
    });
    let mut next = transitions.next();
    let mut mhz = initial_mhz;
    let mut out = Vec::with_capacity((t_end / step_ns + 1) as usize);
    let mut t = 0u64;
    loop {
        while let Some((tt, to)) = next {
            if tt <= t {
                mhz = to;
                next = transitions.next();
            } else {
                break;
            }
        }
        out.push((t, mhz));
        t += step_ns;
        if t > t_end {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EpisodeEnd, FreqTransition, JobEnd, JobStart};

    /// Slice one training episode out of a concatenated multi-episode
    /// stream: everything after the previous `EpisodeEnd` (or the stream
    /// start, for the first episode) up to and *including* the `EpisodeEnd`
    /// whose `episode` field equals `episode`. `None` when the stream holds
    /// no such episode.
    ///
    /// Training artifacts concatenate per-episode engine runs, and each
    /// run's event timestamps restart at `t = 0`. Time-series
    /// reconstructions ([`freq_series`], or plotting [`steps_to_csv`]'s `t`
    /// column) assume monotone time, so they must be fed one episode slice
    /// at a time — on a raw multi-episode stream the `t`-reset at each
    /// boundary silently corrupts them (see
    /// `freq_series_on_concatenated_episodes_is_wrong_use_slices`).
    fn episode_events(events: &[Event], episode: u64) -> Option<&[Event]> {
        let mut start = 0;
        for (i, ev) in events.iter().enumerate() {
            if let Event::EpisodeEnd(e) = ev {
                if e.episode == episode {
                    return Some(&events[start..=i]);
                }
                start = i + 1;
            }
        }
        None
    }

    fn sample_events() -> Vec<Event> {
        vec![
            Event::JobStart(JobStart {
                job: 0,
                app: "xapian".into(),
                governor: "deeppower".into(),
                seed: 42,
            }),
            Event::DrlStep(DrlStep {
                t: 1_000_000_000,
                num_req: 900,
                power_w: 80.0,
                base_freq: 0.25,
                scaling_coef: 1.0,
                admit_frac: 1.0,
                avg_freq_mhz: 1300.0,
                queue_len: 2,
                timeouts: 1,
                reward: -0.5,
                r_energy: 0.4,
                r_timeout: 0.1,
                r_queue: 0.0,
                r_wasted: 0.0,
            }),
            Event::FreqTransition(FreqTransition {
                t: 500,
                core: 1,
                from_mhz: 800,
                to_mhz: 1600,
            }),
            Event::JobEnd(JobEnd {
                job: 0,
                sim_ns: 2_000_000_000,
                requests: 1800,
                energy_j: 160.0,
                drl_steps: 2,
            }),
        ]
    }

    /// One instance of **every** `Event` variant. The `match` in
    /// `assert_covers_every_variant` has no wildcard arm, so adding a
    /// variant without extending this list is a compile error — the
    /// JSONL exporter and the offline monitor replay can never silently
    /// drop a variant.
    fn one_of_every_variant() -> Vec<Event> {
        use crate::event::*;
        use crate::trace::{AttemptTrace, RequestTrace, TraceSpan};
        vec![
            Event::DrlStep(DrlStep {
                t: 1_000_000_000,
                num_req: 900,
                power_w: 80.0,
                base_freq: 0.25,
                scaling_coef: 1.0,
                admit_frac: 0.75,
                avg_freq_mhz: 1300.0,
                queue_len: 2,
                timeouts: 1,
                reward: -0.5,
                r_energy: 0.4,
                r_timeout: 0.1,
                r_queue: 0.0,
                r_wasted: 0.05,
            }),
            Event::FreqTransition(FreqTransition {
                t: 500,
                core: 1,
                from_mhz: 800,
                to_mhz: 1600,
            }),
            Event::CoreResidency(CoreResidency {
                core: 0,
                mhz: 2100,
                ns: 77,
            }),
            Event::RequestDispatch(RequestDispatch {
                t: 10,
                core: 2,
                id: 5,
            }),
            Event::RequestComplete(RequestComplete {
                t: 20,
                core: 2,
                id: 5,
                latency_ns: 10,
                timed_out: false,
            }),
            Event::LatencySnapshot(LatencySnapshot {
                t: 30,
                count: 100,
                p50_ns: 1,
                p95_ns: 2,
                p99_ns: 3,
                timeouts: 0,
            }),
            Event::TrainUpdate(TrainUpdate {
                t: 40,
                updates: 12,
                critic_loss: 0.5,
                actor_q: -1.0,
                actor_grad_norm: 0.1,
                critic_grad_norm: 0.2,
                replay_len: 64,
                replay_capacity: 128,
            }),
            Event::EpisodeEnd(EpisodeEnd {
                episode: 0,
                steps: 2,
                mean_reward: -0.5,
                avg_power_w: 80.0,
                timeout_rate: 0.01,
                updates: 10,
            }),
            Event::JobStart(JobStart {
                job: 0,
                app: "xapian".into(),
                governor: "deeppower".into(),
                seed: 42,
            }),
            Event::JobEnd(JobEnd {
                job: 0,
                sim_ns: 2_000_000_000,
                requests: 1800,
                energy_j: 160.0,
                drl_steps: 2,
            }),
            Event::FaultInjected(FaultInjected {
                t: 50,
                kind: FaultKind::DvfsFail,
                core: 3,
                magnitude: 2100.0,
            }),
            Event::SafetyAction(SafetyAction {
                t: 60,
                action: SafetyKind::WatchdogTurbo,
                core: -1,
            }),
            Event::Shed(Shed {
                t: 70,
                id: 9,
                client: 9,
                attempt: 0,
                reason: ShedReason::QueueFull,
            }),
            Event::Abandoned(Abandoned {
                t: 80,
                id: 9,
                client: 9,
                attempt: 0,
                waited_ns: 10,
            }),
            Event::Retry(Retry {
                t: 80,
                id: (1 << 48) + 1,
                client: 9,
                attempt: 1,
                delay_ns: 100,
            }),
            Event::WindowRollup(WindowRollup {
                t: 1_000_000_000,
                index: 0,
                window_ns: 1_000_000_000,
                count: 10,
                timeouts: 1,
                min_ns: 1,
                max_ns: 9,
                mean_ns: 5.0,
                p50_ns: 5,
                p95_ns: 9,
                p99_ns: 9,
                power_w: 84.0,
                avg_freq_mhz: 1900.0,
                queue_len: 2,
                good: 9,
                wasted: 1,
                shed: 1,
                bucket_ubs: vec![15],
                bucket_counts: vec![10],
                exemplars: vec![9],
            }),
            Event::SloViolation(SloViolation {
                t: 1_000_000_000,
                window: 0,
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
                    kind: "tail-exemplar".into(),
                    count: 1,
                    detail: "trace ids [9]".into(),
                }],
            }),
            Event::AlertResolved(AlertResolved {
                t: 9_000_000_000,
                metric: "p99-latency".into(),
                rule: "burn>=2/5w:2w".into(),
                duration_ns: 4_000_000_000,
            }),
            Event::RequestTrace(RequestTrace {
                client: 9,
                node: 0,
                first_submit: 70,
                end: 200,
                latency_ns: 130,
                sla_ns: 100,
                timed_out: true,
                outcome: "completed".into(),
                sampled: "head".into(),
                attempts: vec![AttemptTrace {
                    id: (1 << 48) + 1,
                    attempt: 1,
                    outcome: "completed".into(),
                    spans: vec![TraceSpan {
                        name: "queue".into(),
                        start: 180,
                        end: 190,
                        core: -1,
                        freq_mhz: 0,
                        admit_frac: 1.0,
                        detail: String::new(),
                    }],
                }],
            }),
        ]
    }

    /// Compile-time exhaustiveness: this match has no `_` arm, so a new
    /// `Event` variant breaks this test's build until
    /// `one_of_every_variant` covers it.
    fn assert_covers_every_variant(events: &[Event]) {
        let mut kinds: Vec<&'static str> = events.iter().map(Event::kind).collect();
        kinds.sort_unstable();
        let before = kinds.len();
        kinds.dedup();
        assert_eq!(kinds.len(), before, "duplicate variant in the fixture");
        for ev in events {
            match ev {
                Event::DrlStep(_)
                | Event::FreqTransition(_)
                | Event::CoreResidency(_)
                | Event::RequestDispatch(_)
                | Event::RequestComplete(_)
                | Event::LatencySnapshot(_)
                | Event::TrainUpdate(_)
                | Event::EpisodeEnd(_)
                | Event::JobStart(_)
                | Event::JobEnd(_)
                | Event::FaultInjected(_)
                | Event::SafetyAction(_)
                | Event::Shed(_)
                | Event::Abandoned(_)
                | Event::Retry(_)
                | Event::WindowRollup(_)
                | Event::SloViolation(_)
                | Event::Alert(_)
                | Event::AlertResolved(_)
                | Event::RequestTrace(_) => {}
            }
        }
        // Count the arms above: they are the enum, exactly.
        assert_eq!(before, 20, "fixture count != variant count — extend both");
    }

    #[test]
    fn jsonl_roundtrips_every_event_variant() {
        let events = one_of_every_variant();
        assert_covers_every_variant(&events);
        let text = to_jsonl(&events);
        assert_eq!(text.lines().count(), events.len());
        let back = from_jsonl(&text).unwrap();
        assert_eq!(back, events, "round trip must preserve every variant");
        assert_eq!(to_jsonl(&back), text, "re-serialization is byte-identical");
        // The offline monitor replay path accepts the full stream (the
        // `monitor` CLI command feeds from_jsonl output straight in).
        let mut mon = crate::FleetMonitor::new(crate::MonitorConfig::default());
        mon.ingest(0, &back);
        let report = mon.finish();
        assert_eq!(report.windows, 1, "the rollup variant must be consumed");
    }

    #[test]
    fn jsonl_roundtrips() {
        let events = sample_events();
        let text = to_jsonl(&events);
        assert_eq!(text.lines().count(), events.len());
        let back = from_jsonl(&text).unwrap();
        assert_eq!(back, events);
        // Byte-identical re-serialization (determinism contract).
        assert_eq!(to_jsonl(&back), text);
    }

    #[test]
    fn from_jsonl_reports_bad_line() {
        let err = from_jsonl("{\"nope\"").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn shed_reasons_serialize_as_their_stable_tags() {
        use crate::event::{Shed, ShedReason};
        let shed = |reason| {
            Event::Shed(Shed {
                t: 1,
                id: 2,
                client: 2,
                attempt: 0,
                reason,
            })
        };
        for reason in ShedReason::ALL {
            let line = to_jsonl(&[shed(reason)]);
            assert_eq!(
                line,
                format!(
                    "{{\"Shed\":{{\"t\":1,\"id\":2,\"client\":2,\"attempt\":0,\"reason\":\"{}\"}}}}\n",
                    reason.as_str()
                )
            );
            assert_eq!(from_jsonl(&line).unwrap(), vec![shed(reason)]);
        }
        let text =
            "{\"Shed\":{\"t\":1,\"id\":2,\"client\":2,\"attempt\":0,\"reason\":\"overflow\"}}\n";
        let err = from_jsonl(text).unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        assert!(err.contains("unknown shed reason `overflow`"), "{err}");
        assert!(!err.contains('\n'), "one-line error: {err}");
    }

    #[test]
    fn fault_and_safety_kinds_serialize_as_their_stable_tags() {
        use crate::event::{FaultInjected, FaultKind, SafetyAction, SafetyKind};
        let fault = |kind| {
            Event::FaultInjected(FaultInjected {
                t: 1,
                kind,
                core: -1,
                magnitude: 0.5,
            })
        };
        for kind in FaultKind::ALL {
            let line = to_jsonl(&[fault(kind)]);
            assert_eq!(
                line,
                format!(
                    "{{\"FaultInjected\":{{\"t\":1,\"kind\":\"{}\",\"core\":-1,\"magnitude\":0.5}}}}\n",
                    kind.as_str()
                )
            );
            assert_eq!(from_jsonl(&line).unwrap(), vec![fault(kind)]);
        }
        let safety = |action| {
            Event::SafetyAction(SafetyAction {
                t: 1,
                action,
                core: 0,
            })
        };
        for action in SafetyKind::ALL {
            let line = to_jsonl(&[safety(action)]);
            assert_eq!(
                line,
                format!(
                    "{{\"SafetyAction\":{{\"t\":1,\"action\":\"{}\",\"core\":0}}}}\n",
                    action.as_str()
                )
            );
            assert_eq!(from_jsonl(&line).unwrap(), vec![safety(action)]);
        }
        for (text, want) in [
            (
                "{\"FaultInjected\":{\"t\":1,\"kind\":\"meltdown\",\"core\":-1,\"magnitude\":0.5}}\n",
                "unknown fault kind `meltdown`",
            ),
            (
                "{\"SafetyAction\":{\"t\":1,\"action\":\"reboot\",\"core\":0}}\n",
                "unknown safety action `reboot`",
            ),
        ] {
            let err = from_jsonl(text).unwrap_err();
            assert!(err.starts_with("line 1:"), "{err}");
            assert!(err.contains(want), "{err}");
            assert!(!err.contains('\n'), "one-line error: {err}");
        }
    }

    #[test]
    fn csv_projects_steps_only() {
        let csv = steps_to_csv(&sample_events());
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(STEP_CSV_HEADER));
        let row = lines.next().unwrap();
        assert!(row.starts_with("1000000000,900,80,"), "{row}");
        assert_eq!(lines.next(), None);
        assert_eq!(STEP_CSV_HEADER.split(',').count(), row.split(',').count());
    }

    #[test]
    fn freq_series_steps_through_transitions() {
        let events = vec![
            Event::FreqTransition(FreqTransition {
                t: 150,
                core: 0,
                from_mhz: 800,
                to_mhz: 1600,
            }),
            Event::FreqTransition(FreqTransition {
                t: 300,
                core: 1, // other core: ignored
                from_mhz: 800,
                to_mhz: 2100,
            }),
            Event::FreqTransition(FreqTransition {
                t: 400,
                core: 0,
                from_mhz: 1600,
                to_mhz: 2100,
            }),
        ];
        let series = freq_series(&events, 0, 800, 500, 100);
        assert_eq!(
            series,
            vec![
                (0, 800),
                (100, 800),
                (200, 1600),
                (300, 1600),
                (400, 2100),
                (500, 2100),
            ]
        );
    }

    #[test]
    fn freq_series_no_transitions_holds_initial() {
        let series = freq_series(&[], 0, 1234, 200, 100);
        assert_eq!(series, vec![(0, 1234), (100, 1234), (200, 1234)]);
    }

    /// Boundary semantics pin: a transition at exactly a sample time is
    /// visible *at* that sample (`tt <= t`), and the series includes the
    /// final point at exactly `t_end`. Both are `<=`, not `<` — an
    /// off-by-one here would shift every epoch-aligned DVFS decision by
    /// one sample in the figure benches.
    #[test]
    fn freq_series_boundaries_are_inclusive() {
        let events = vec![Event::FreqTransition(FreqTransition {
            t: 100,
            core: 0,
            from_mhz: 800,
            to_mhz: 1600,
        })];
        let series = freq_series(&events, 0, 800, 200, 100);
        assert_eq!(series, vec![(0, 800), (100, 1600), (200, 1600)]);
    }

    fn episode_end(episode: u64, steps: u64) -> Event {
        Event::EpisodeEnd(EpisodeEnd {
            episode,
            steps,
            mean_reward: -0.5,
            avg_power_w: 80.0,
            timeout_rate: 0.01,
            updates: 10 * (episode + 1),
        })
    }

    fn freq(t: u64, from_mhz: u32, to_mhz: u32) -> Event {
        Event::FreqTransition(FreqTransition {
            t,
            core: 0,
            from_mhz,
            to_mhz,
        })
    }

    fn step(t: u64) -> Event {
        Event::DrlStep(DrlStep {
            t,
            num_req: 100,
            power_w: 80.0,
            base_freq: 0.25,
            scaling_coef: 1.0,
            admit_frac: 1.0,
            avg_freq_mhz: 1300.0,
            queue_len: 0,
            timeouts: 0,
            reward: -0.5,
            r_energy: 0.4,
            r_timeout: 0.1,
            r_queue: 0.0,
            r_wasted: 0.0,
        })
    }

    /// Two training episodes concatenated: timestamps restart at the
    /// `EpisodeEnd` boundary.
    fn two_episode_stream() -> Vec<Event> {
        vec![
            step(1_000),
            freq(900, 800, 2100),
            step(2_000),
            episode_end(0, 2),
            freq(100, 800, 1600), // episode 1 restarts at t = 0
            step(1_000),
            episode_end(1, 1),
        ]
    }

    #[test]
    fn episode_events_slices_inclusive_of_episode_end() {
        let events = two_episode_stream();
        let ep0 = episode_events(&events, 0).unwrap();
        assert_eq!(ep0.len(), 4);
        assert!(matches!(ep0.last(), Some(Event::EpisodeEnd(e)) if e.episode == 0));
        let ep1 = episode_events(&events, 1).unwrap();
        assert_eq!(ep1.len(), 3);
        assert!(matches!(ep1.first(), Some(Event::FreqTransition(f)) if f.t == 100));
        assert!(matches!(ep1.last(), Some(Event::EpisodeEnd(e)) if e.episode == 1));
        assert!(episode_events(&events, 2).is_none());
        assert!(episode_events(&[], 0).is_none());
    }

    /// Regression pin for the epoch-boundary hazard: on the raw
    /// concatenated stream, episode 1's `t`-reset makes its first
    /// transition (`t = 100`) look *earlier* than episode 0's (`t =
    /// 900`), so the reconstruction swallows episode 0's step the
    /// moment it applies — the series lands on 1600 MHz where episode 0
    /// actually ran at 2100 MHz. Per-episode slices reconstruct both
    /// correctly; that is the only supported way to build time series
    /// from training artifacts.
    #[test]
    fn freq_series_on_concatenated_episodes_is_wrong_use_slices() {
        let events = two_episode_stream();

        // Correct: slice first.
        let ep0 = freq_series(episode_events(&events, 0).unwrap(), 0, 800, 1_000, 500);
        assert_eq!(ep0, vec![(0, 800), (500, 800), (1_000, 2100)]);
        let ep1 = freq_series(episode_events(&events, 1).unwrap(), 0, 800, 1_000, 500);
        assert_eq!(ep1, vec![(0, 800), (500, 1600), (1_000, 1600)]);

        // Hazard: the raw stream reconstructs neither episode — at
        // t = 1000 both transitions have "passed" and the later event
        // in stream order (episode 1's 1600 MHz) wins.
        let raw = freq_series(&events, 0, 800, 1_000, 500);
        assert_eq!(raw, vec![(0, 800), (500, 800), (1_000, 1600)]);
        assert_ne!(raw, ep0, "raw multi-episode series must not be trusted");
    }

    /// `steps_to_csv` projects in stream order, so the raw multi-episode
    /// table has a non-monotone `t` column at the boundary; per-episode
    /// slices have monotone time and exactly `EpisodeEnd::steps` rows.
    #[test]
    fn steps_to_csv_per_episode_slices_are_monotone() {
        let events = two_episode_stream();
        let t_column = |csv: &str| -> Vec<u64> {
            csv.lines()
                .skip(1)
                .map(|l| l.split(',').next().unwrap().parse().unwrap())
                .collect()
        };
        let raw = t_column(&steps_to_csv(&events));
        assert_eq!(raw, vec![1_000, 2_000, 1_000], "t resets at the boundary");

        for episode in [0u64, 1] {
            let slice = episode_events(&events, episode).unwrap();
            let ts = t_column(&steps_to_csv(slice));
            assert!(ts.windows(2).all(|w| w[0] < w[1]), "non-monotone: {ts:?}");
            let declared = slice
                .iter()
                .find_map(|ev| match ev {
                    Event::EpisodeEnd(e) if e.episode == episode => Some(e.steps),
                    _ => None,
                })
                .unwrap();
            assert_eq!(ts.len() as u64, declared, "row count vs EpisodeEnd::steps");
        }
    }
}
