//! Shared harness utilities for the paper-reproduction benches.
//!
//! Every table and figure of the paper has a bench target under
//! `benches/` (see DESIGN.md's experiment index). Most are plain
//! `harness = false` binaries that run the experiment and print the same
//! rows/series the paper reports; the two timing tables (Table 2, §5.5
//! overhead) use Criterion.
//!
//! Scale: by default experiments run at a reduced scale (shorter traces,
//! fewer training episodes) so `cargo bench --workspace` finishes in
//! minutes. Set `DEEPPOWER_FULL=1` for paper-scale runs.

pub mod diff;

use deeppower_core::{train, TrainConfig, TrainedPolicy};
use deeppower_workload::App;
use std::path::PathBuf;

/// Experiment scale knobs derived from `DEEPPOWER_FULL`.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub full: bool,
    /// Training episodes for DeepPower policies.
    pub train_episodes: usize,
    /// Trace period (seconds) for training episodes.
    pub train_episode_s: u64,
    /// Trace period (seconds) for evaluation runs.
    pub eval_s: u64,
    /// Samples for distribution experiments.
    pub dist_samples: usize,
}

impl Scale {
    pub fn from_env() -> Self {
        let full = std::env::var("DEEPPOWER_FULL")
            .map(|v| v != "0")
            .unwrap_or(false);
        if full {
            Self {
                full,
                train_episodes: 12,
                train_episode_s: 360,
                eval_s: 360,
                dist_samples: 200_000,
            }
        } else {
            Self {
                full,
                train_episodes: 8,
                train_episode_s: 120,
                eval_s: 60,
                dist_samples: 50_000,
            }
        }
    }
}

/// Train (or load a cached) DeepPower policy for `app` at this scale,
/// from the app's calibrated training seed.
///
/// DDPG at the reduced bench scale is seed-sensitive — most visibly on
/// Sphinx, whose multi-second requests yield the least diverse
/// transitions per episode, making outcomes bimodal (either a policy
/// that holds the SLA or one that over-throttles and lets the queue
/// collapse). The calibrated values live with the experiment engine
/// (`deeppower_harness::calibrated_train_seed`, see EXPERIMENTS.md);
/// the paper does not report its training seeds.
///
/// Caching lives under `target/deeppower-policies/` keyed by app, scale
/// and seed, so the per-figure benches don't retrain the same agent.
pub fn default_trained_policy(app: App, scale: Scale) -> TrainedPolicy {
    let seed = deeppower_harness::calibrated_train_seed(app);
    let dir = cache_dir();
    std::fs::create_dir_all(&dir).ok();
    let key = format!(
        "{:?}-{}ep-{}s-seed{}.json",
        app, scale.train_episodes, scale.train_episode_s, seed
    )
    .to_lowercase();
    let path = dir.join(key);
    if let Ok(policy) = TrainedPolicy::load(&path) {
        if policy.app == app {
            return policy;
        }
    }
    let mut cfg = TrainConfig::for_app(app);
    cfg.episodes = scale.train_episodes;
    cfg.episode_s = scale.train_episode_s;
    cfg.seed = seed;
    let (policy, _) = train(&cfg);
    policy.save(&path).ok();
    policy
}

fn cache_dir() -> PathBuf {
    // target/ lives next to the workspace root.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // workspace root
    p.join("target").join("deeppower-policies")
}

/// Render an ASCII sparkline for a series (used to visualize the figure
/// series directly in bench output).
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|&v| BARS[(((v - min) / span) * 7.0).round() as usize])
        .collect()
}

/// Downsample a series to at most `n` points by averaging buckets
/// (keeps sparklines terminal-width-friendly).
pub fn downsample(values: &[f64], n: usize) -> Vec<f64> {
    if values.len() <= n || n == 0 {
        return values.to_vec();
    }
    let bucket = values.len() as f64 / n as f64;
    (0..n)
        .map(|i| {
            let lo = (i as f64 * bucket) as usize;
            let hi = (((i + 1) as f64 * bucket) as usize)
                .min(values.len())
                .max(lo + 1);
            values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_maps_extremes() {
        let s = sparkline(&[0.0, 1.0]);
        assert_eq!(s.chars().count(), 2);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn downsample_preserves_mean() {
        let v: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let d = downsample(&v, 10);
        assert_eq!(d.len(), 10);
        let mean_orig = v.iter().sum::<f64>() / v.len() as f64;
        let mean_down = d.iter().sum::<f64>() / d.len() as f64;
        assert!((mean_orig - mean_down).abs() < 1.0);
        // Short series pass through untouched.
        assert_eq!(downsample(&[1.0, 2.0], 10), vec![1.0, 2.0]);
    }

    #[test]
    fn scale_defaults_reduced() {
        // Unless DEEPPOWER_FULL is exported in the test environment.
        if std::env::var("DEEPPOWER_FULL").is_err() {
            let s = Scale::from_env();
            assert!(!s.full);
            assert!(s.eval_s <= 120);
        }
    }
}
