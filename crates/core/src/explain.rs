//! Policy introspection — *why* did the agent move?
//!
//! Three views into a trained (or untrained) DDPG agent, all pure
//! functions of the agent's weights:
//!
//! * [`action_surface`] — per-dimension 1-D sweeps of the actor over the
//!   normalized state domain `[0, 2]`: how `(BaseFreq, ScalingCoef)`
//!   responds as each state component moves while the others sit at a
//!   base point.
//! * [`saliency_at`] — central finite-difference sensitivity
//!   `∂ action_k / ∂ state_d` of both action heads to each of the 8
//!   state dimensions, at one state.
//! * [`explain_decisions`] — annotate an evaluation's [`StepLog`]
//!   trajectory: for every visited state, the deterministic action, the
//!   critic's `Q(s, π(s))`, and the full per-dimension saliency. The
//!   raw material for a Fig. 4-style decision trace annotated with
//!   *why* the agent moved.
//!
//! CSV/JSONL writers live here too so the CLI `explain` subcommand and
//! tests share one schema.

use crate::governor::StepLog;
use crate::state::STATE_DIM;
use deeppower_drl::Ddpg;
use deeppower_simd_server::Nanos;
use serde::{Deserialize, Serialize};

/// Paper names of the 8 state components, in observation order.
pub const STATE_DIM_NAMES: [&str; STATE_DIM] = [
    "NumReq", "QueueLen", "Queue25", "Queue50", "Queue75", "Core25", "Core50", "Core75",
];

/// Both action heads, as the actor emits them (normalized to `[0, 1]`).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub(crate) struct ActionOut {
    pub base_freq: f32,
    pub scaling_coef: f32,
}

fn act(agent: &Ddpg, state: &[f32; STATE_DIM]) -> ActionOut {
    let a = agent.act(state);
    ActionOut {
        base_freq: a[0],
        scaling_coef: a[1],
    }
}

/// One sample of the actor's response surface: state dimension `dim`
/// set to `value` (all other dimensions at the sweep's base point).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SurfacePoint {
    pub dim: usize,
    pub value: f32,
    pub base_freq: f32,
    pub scaling_coef: f32,
}

/// Sweep every state dimension over the normalized domain `[0, 2]`
/// (`points ≥ 2` samples per dimension, endpoints included), holding
/// the other dimensions at `base`.
pub fn action_surface(agent: &Ddpg, base: &[f32; STATE_DIM], points: usize) -> Vec<SurfacePoint> {
    let points = points.max(2);
    let mut out = Vec::with_capacity(STATE_DIM * points);
    for dim in 0..STATE_DIM {
        let mut state = *base;
        for i in 0..points {
            let value = 2.0 * i as f32 / (points - 1) as f32;
            state[dim] = value;
            let a = act(agent, &state);
            out.push(SurfacePoint {
                dim,
                value,
                base_freq: a.base_freq,
                scaling_coef: a.scaling_coef,
            });
        }
    }
    out
}

/// Central finite-difference saliency at `state`: element `d` holds
/// `(∂ BaseFreq / ∂ s_d, ∂ ScalingCoef / ∂ s_d)`, estimated with
/// perturbation `±eps` (clamped into the actor's `[0, 2]` input domain
/// so the probe never leaves the region the network was trained on;
/// the divisor uses the *actual* probe distance, keeping the estimate
/// unbiased at the domain edges).
pub(crate) fn saliency_at(
    agent: &Ddpg,
    state: &[f32; STATE_DIM],
    eps: f32,
) -> [[f32; 2]; STATE_DIM] {
    assert!(eps > 0.0, "saliency needs a positive probe step");
    let mut out = [[0.0f32; 2]; STATE_DIM];
    for (d, slot) in out.iter_mut().enumerate() {
        let hi = (state[d] + eps).min(2.0);
        let lo = (state[d] - eps).max(0.0);
        let dx = hi - lo;
        if dx <= 0.0 {
            continue;
        }
        let mut s_hi = *state;
        s_hi[d] = hi;
        let mut s_lo = *state;
        s_lo[d] = lo;
        let (a_hi, a_lo) = (act(agent, &s_hi), act(agent, &s_lo));
        slot[0] = (a_hi.base_freq - a_lo.base_freq) / dx;
        slot[1] = (a_hi.scaling_coef - a_lo.scaling_coef) / dx;
    }
    out
}

/// One annotated decision along a visited trajectory.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DecisionExplanation {
    /// Step-boundary time of the source [`StepLog`] row.
    pub t: Nanos,
    pub state: [f32; STATE_DIM],
    /// The deterministic action replayed from `state` (matches the
    /// logged action on eval rows; training rows carry exploration
    /// noise the replay strips away).
    pub(crate) action: ActionOut,
    /// `Q(state, action)` under the agent's critic.
    pub q_value: f32,
    /// Per-dimension action sensitivity at `state` (see `saliency_at`).
    pub saliency: [[f32; 2]; STATE_DIM],
}

/// Annotate every row of an evaluation log with action, Q-value and
/// saliency.
pub fn explain_decisions(agent: &Ddpg, log: &[StepLog], eps: f32) -> Vec<DecisionExplanation> {
    log.iter()
        .map(|row| {
            let action = act(agent, &row.state);
            let q_value = agent.q_value(&row.state, &[action.base_freq, action.scaling_coef]);
            DecisionExplanation {
                t: row.t,
                state: row.state,
                action,
                q_value,
                saliency: saliency_at(agent, &row.state, eps),
            }
        })
        .collect()
}

/// Mean absolute saliency per state dimension over a set of decisions
/// (L1 across the two action heads) — the "which inputs drive this
/// policy" ranking.
pub fn mean_abs_saliency(decisions: &[DecisionExplanation]) -> [f32; STATE_DIM] {
    let mut acc = [0.0f32; STATE_DIM];
    if decisions.is_empty() {
        return acc;
    }
    for d in decisions {
        for (i, s) in d.saliency.iter().enumerate() {
            acc[i] += s[0].abs() + s[1].abs();
        }
    }
    for a in &mut acc {
        *a /= decisions.len() as f32;
    }
    acc
}

/// CSV header for [`decisions_to_csv`].
pub(crate) fn decision_csv_header() -> String {
    let mut h = String::from("t");
    for name in STATE_DIM_NAMES {
        h.push_str(&format!(",{name}"));
    }
    h.push_str(",base_freq,scaling_coef,q_value");
    for name in STATE_DIM_NAMES {
        h.push_str(&format!(",sal_{name}"));
    }
    h.push('\n');
    h
}

/// Decision explanations as CSV. The saliency columns collapse the two
/// action heads into one magnitude per dimension (`|∂BaseFreq| +
/// |∂ScalingCoef|`); the JSONL artifact keeps the full per-head values.
pub fn decisions_to_csv(decisions: &[DecisionExplanation]) -> String {
    let mut out = decision_csv_header();
    for d in decisions {
        out.push_str(&format!("{}", d.t));
        for s in d.state {
            out.push_str(&format!(",{s}"));
        }
        out.push_str(&format!(
            ",{},{},{}",
            d.action.base_freq, d.action.scaling_coef, d.q_value
        ));
        for s in d.saliency {
            out.push_str(&format!(",{}", s[0].abs() + s[1].abs()));
        }
        out.push('\n');
    }
    out
}

/// Decision explanations as JSONL, one object per decision.
pub fn decisions_to_jsonl(decisions: &[DecisionExplanation]) -> String {
    let mut out = String::new();
    for d in decisions {
        out.push_str(&serde_json::to_string(d).expect("serialize decision"));
        out.push('\n');
    }
    out
}

/// Action-surface sweep as CSV (`dim,name,value,base_freq,scaling_coef`).
pub fn surface_to_csv(points: &[SurfacePoint]) -> String {
    let mut out = String::from("dim,name,value,base_freq,scaling_coef\n");
    for p in points {
        out.push_str(&format!(
            "{},{},{},{},{}\n",
            p.dim, STATE_DIM_NAMES[p.dim], p.value, p.base_freq, p.scaling_coef
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reward::RewardTerms;
    use deeppower_drl::DdpgConfig;

    fn agent() -> Ddpg {
        Ddpg::new(DdpgConfig {
            state_dim: STATE_DIM,
            action_dim: 2,
            seed: 42,
            ..Default::default()
        })
    }

    fn log_row(t: Nanos, state: [f32; STATE_DIM]) -> StepLog {
        StepLog {
            t,
            state,
            num_req: 0,
            power_w: 0.0,
            base_freq: 0.0,
            scaling_coef: 0.0,
            admit_frac: 1.0,
            avg_freq_mhz: 0.0,
            queue_len: 0,
            timeouts: 0,
            reward: 0.0,
            terms: RewardTerms::default(),
        }
    }

    #[test]
    fn surface_covers_every_dim_with_endpoints() {
        let a = agent();
        let pts = action_surface(&a, &[0.5; STATE_DIM], 5);
        assert_eq!(pts.len(), STATE_DIM * 5);
        for dim in 0..STATE_DIM {
            let vals: Vec<f32> = pts
                .iter()
                .filter(|p| p.dim == dim)
                .map(|p| p.value)
                .collect();
            assert_eq!(vals.first(), Some(&0.0));
            assert_eq!(vals.last(), Some(&2.0));
        }
        // Every sample must reproduce the raw actor output.
        for p in &pts {
            let mut s = [0.5f32; STATE_DIM];
            s[p.dim] = p.value;
            let raw = a.act(&s);
            assert_eq!(p.base_freq.to_bits(), raw[0].to_bits());
            assert_eq!(p.scaling_coef.to_bits(), raw[1].to_bits());
        }
    }

    #[test]
    fn saliency_is_finite_and_not_all_zero() {
        let a = agent();
        let sal = saliency_at(&a, &[0.7; STATE_DIM], 0.05);
        assert!(sal.iter().flatten().all(|v| v.is_finite()));
        assert!(
            sal.iter().flatten().any(|v| v.abs() > 0.0),
            "an untrained network still has nonzero gradients almost everywhere"
        );
    }

    #[test]
    fn saliency_probe_respects_domain_edges() {
        let a = agent();
        // At both domain edges the probe must stay inside [0, 2] and
        // still produce a finite one-sided-ish estimate.
        for s in [0.0f32, 2.0] {
            let sal = saliency_at(&a, &[s; STATE_DIM], 0.05);
            assert!(sal.iter().flatten().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn explanations_align_with_log_and_round_trip_jsonl() {
        let a = agent();
        let log = vec![
            log_row(1_000_000, [0.1; STATE_DIM]),
            log_row(2_000_000, [1.5; STATE_DIM]),
        ];
        let dec = explain_decisions(&a, &log, 0.05);
        assert_eq!(dec.len(), 2);
        assert_eq!(dec[0].t, 1_000_000);
        assert!(dec.iter().all(|d| d.q_value.is_finite()));
        // Saliency varies across rows (different states, same net).
        assert_ne!(
            dec[0].saliency[0][0].to_bits(),
            dec[1].saliency[0][0].to_bits()
        );

        let jsonl = decisions_to_jsonl(&dec);
        assert_eq!(jsonl.lines().count(), 2);
        let back: DecisionExplanation =
            serde_json::from_str(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(back.t, dec[0].t);
        assert_eq!(back.q_value.to_bits(), dec[0].q_value.to_bits());
        assert_eq!(back.saliency, dec[0].saliency);

        let csv = decisions_to_csv(&dec);
        let header_cols = csv.lines().next().unwrap().split(',').count();
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), header_cols);
        }
        // 1 t + 8 state + 2 action + 1 q + 8 saliency.
        assert_eq!(header_cols, 1 + STATE_DIM + 3 + STATE_DIM);
    }

    #[test]
    fn mean_abs_saliency_averages_rows() {
        let a = agent();
        let log = vec![log_row(1, [0.4; STATE_DIM]), log_row(2, [0.9; STATE_DIM])];
        let dec = explain_decisions(&a, &log, 0.05);
        let mean = mean_abs_saliency(&dec);
        assert!(mean.iter().any(|v| *v > 0.0), "degenerate saliency");
        let spread = mean.iter().cloned().fold(f32::MIN, f32::max)
            - mean.iter().cloned().fold(f32::MAX, f32::min);
        assert!(spread > 0.0, "saliency identical across all state dims");
    }
}
