//! Per-node hardware profiles for heterogeneous fleets.
//!
//! The paper's testbed is one homogeneous Xeon socket; a real fleet
//! mixes generations, core counts, and power envelopes (K8S Power
//! Irrigation manages exactly such a mix). A [`NodeProfile`] describes
//! one hardware class — core count, DVFS range, power coefficients,
//! and an optional big.LITTLE-style split where the last few cores are
//! frequency-capped — and a `FleetSpec` holds a list of them, each
//! `count` nodes wide, instead of one config cloned N times.
//!
//! Calibration is fleet-wide: every profile's [`FreqPlan`] keeps the
//! same `reference_mhz`, so a request's `work_ref_ns` means the same
//! amount of work on every node and the balancer's capacity weights
//! ([`NodeCapacity`]) are comparable across profiles. The default
//! profile reproduces `ServerConfig::paper_default` field-for-field —
//! a single-profile fleet is byte-identical to the historical
//! homogeneous fleet (pinned by test).

use deeppower_simd_server::{CStatePlan, ContentionModel, FreqPlan, PowerModel, ServerConfig};
use serde::{Deserialize, Serialize};

use crate::balancer::NodeCapacity;

/// Fleet-wide calibration frequency: the paper testbed's max nominal
/// level. Every profile's plan uses it as `reference_mhz`, even plans
/// topping out below it.
pub(crate) const FLEET_REFERENCE_MHZ: u32 = 2100;

fn default_count() -> usize {
    1
}
fn default_min_mhz() -> u32 {
    800
}
fn default_max_mhz() -> u32 {
    2100
}
fn default_turbo_mhz() -> u32 {
    3000
}
fn default_static_w() -> f64 {
    PowerModel::xeon_gold_5218r().static_w
}
fn default_dyn_coef() -> f64 {
    PowerModel::xeon_gold_5218r().dyn_coef
}
fn default_lin_coef() -> f64 {
    PowerModel::xeon_gold_5218r().lin_coef
}

/// One hardware class in a heterogeneous fleet. Serde defaults make a
/// profile file as small as `{"name": "edge", "cores": 1}`; every
/// defaulted field matches the paper's Xeon Gold 5218R testbed.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NodeProfile {
    /// Display / grouping label (`xeon-24c`, `edge-1c`, …).
    pub name: String,
    /// How many consecutive fleet nodes use this profile.
    #[serde(default = "default_count")]
    pub count: usize,
    /// Physical cores per node.
    pub cores: usize,
    /// DVFS floor (lowest nominal level), MHz.
    #[serde(default = "default_min_mhz")]
    pub min_mhz: u32,
    /// Highest nominal (non-turbo) level, MHz. Levels run from
    /// `min_mhz` to `max_mhz` in 100 MHz steps.
    #[serde(default = "default_max_mhz")]
    pub max_mhz: u32,
    /// Turbo level, MHz (must exceed `max_mhz`).
    #[serde(default = "default_turbo_mhz")]
    pub turbo_mhz: u32,
    /// Static/uncore socket power, watts.
    #[serde(default = "default_static_w")]
    pub static_w: f64,
    /// Cubic dynamic power coefficient, watts per core per GHz³.
    #[serde(default = "default_dyn_coef")]
    pub dyn_coef: f64,
    /// Linear dynamic power coefficient, watts per core per GHz.
    #[serde(default = "default_lin_coef")]
    pub lin_coef: f64,
    /// big.LITTLE: how many of the node's cores (the last ones) are
    /// efficiency cores capped at `little_max_mhz`. 0 = homogeneous.
    #[serde(default)]
    pub little_cores: usize,
    /// Frequency ceiling of the little cores, MHz (a plan level).
    #[serde(default)]
    pub little_max_mhz: u32,
}

impl NodeProfile {
    /// The paper testbed as a profile: `server_config()` of this
    /// profile equals `ServerConfig::paper_default(cores)` exactly.
    pub fn paper_default(cores: usize, count: usize) -> Self {
        Self {
            name: "xeon-gold-5218r".into(),
            count,
            cores,
            min_mhz: default_min_mhz(),
            max_mhz: default_max_mhz(),
            turbo_mhz: default_turbo_mhz(),
            static_w: default_static_w(),
            dyn_coef: default_dyn_coef(),
            lin_coef: default_lin_coef(),
            little_cores: 0,
            little_max_mhz: 0,
        }
    }

    /// Validate invariants; call after deserializing a profile file.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let ctx = |msg: String| format!("profile `{}`: {msg}", self.name);
        if self.count == 0 {
            return Err(ctx("count must be at least 1".into()));
        }
        if self.cores == 0 {
            return Err(ctx("cores must be at least 1".into()));
        }
        if self.min_mhz == 0 || self.min_mhz > self.max_mhz {
            return Err(ctx(format!(
                "bad DVFS range {}..{} MHz",
                self.min_mhz, self.max_mhz
            )));
        }
        if !(self.max_mhz - self.min_mhz).is_multiple_of(100) {
            return Err(ctx("DVFS range must span whole 100 MHz steps".into()));
        }
        if self.turbo_mhz <= self.max_mhz {
            return Err(ctx("turbo must exceed the max nominal level".into()));
        }
        if !(self.static_w.is_finite() && self.dyn_coef.is_finite() && self.lin_coef.is_finite()) {
            return Err(ctx("power coefficients must be finite".into()));
        }
        if self.static_w < 0.0 || self.dyn_coef < 0.0 || self.lin_coef < 0.0 {
            return Err(ctx("power coefficients must be non-negative".into()));
        }
        if self.little_cores > 0 {
            if self.little_cores >= self.cores {
                return Err(ctx("a big.LITTLE node needs at least one big core".into()));
            }
            let lm = self.little_max_mhz;
            if lm < self.min_mhz || lm > self.max_mhz || !(lm - self.min_mhz).is_multiple_of(100) {
                return Err(ctx(format!(
                    "little_max_mhz {lm} is not a plan level in {}..{}",
                    self.min_mhz, self.max_mhz
                )));
            }
        } else if self.little_max_mhz != 0 {
            return Err(ctx("little_max_mhz set without little_cores".into()));
        }
        self.freq_plan().validate().map_err(ctx)
    }

    fn freq_plan(&self) -> FreqPlan {
        FreqPlan {
            levels_mhz: (self.min_mhz..=self.max_mhz).step_by(100).collect(),
            turbo_mhz: self.turbo_mhz,
            reference_mhz: FLEET_REFERENCE_MHZ,
            transition_ns: 5_000,
        }
    }

    /// The engine config for one node of this profile. For the default
    /// profile this is `ServerConfig::paper_default(cores)`
    /// field-for-field — the single-profile bit-identity hinges on it.
    pub(crate) fn server_config(&self) -> ServerConfig {
        let freq_plan = self.freq_plan();
        let initial_mhz = freq_plan.max_mhz();
        let core_max_mhz = if self.little_cores == 0 {
            Vec::new()
        } else {
            // Big cores first, capped only at turbo (i.e. unconstrained);
            // the trailing little cores carry the real ceiling.
            let big = self.cores - self.little_cores;
            let mut caps = vec![self.turbo_mhz; self.cores];
            caps[big..].fill(self.little_max_mhz);
            caps
        };
        ServerConfig {
            n_cores: self.cores,
            freq_plan,
            power: PowerModel {
                static_w: self.static_w,
                dyn_coef: self.dyn_coef,
                lin_coef: self.lin_coef,
                ..PowerModel::xeon_gold_5218r()
            },
            contention: ContentionModel::default(),
            initial_mhz,
            cstates: CStatePlan::none(),
            core_max_mhz,
        }
    }

    /// What the balancer's fluid model needs to know about one node of
    /// this profile. Little cores drain at their cap relative to the
    /// node's own floor, counted fractionally against the big cores.
    pub(crate) fn capacity(&self) -> NodeCapacity {
        NodeCapacity {
            cores: self.cores,
            floor_mhz: self.min_mhz,
        }
    }
}

/// Expand a profile list into one profile index per fleet node,
/// consecutive by profile order (`[{count: 2}, {count: 1}]` →
/// `[0, 0, 1]`).
pub fn node_profile_indices(profiles: &[NodeProfile]) -> Vec<usize> {
    profiles
        .iter()
        .enumerate()
        .flat_map(|(k, p)| std::iter::repeat_n(k, p.count))
        .collect()
}

/// Group fleet node indices by profile: `groups[k]` lists the nodes
/// running profile `k`, ascending. The grouped-inference coordinator
/// batches each group in one forward pass.
pub(crate) fn profile_groups(profiles: &[NodeProfile]) -> Vec<Vec<usize>> {
    let idx = node_profile_indices(profiles);
    let mut groups = vec![Vec::new(); profiles.len()];
    for (node, &k) in idx.iter().enumerate() {
        groups[k].push(node);
    }
    groups
}

/// Parse a profile file (a JSON array of [`NodeProfile`]s), validating
/// every entry.
pub fn profiles_from_json(json: &str) -> Result<Vec<NodeProfile>, String> {
    let profiles: Vec<NodeProfile> =
        serde_json::from_str(json).map_err(|e| format!("bad profile JSON: {e}"))?;
    if profiles.is_empty() {
        return Err("profile file lists no profiles".into());
    }
    for p in &profiles {
        p.validate()?;
    }
    Ok(profiles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_reproduces_paper_default_config() {
        for cores in [1, 8, 20] {
            let p = NodeProfile::paper_default(cores, 3);
            p.validate().unwrap();
            let built = p.server_config();
            let paper = ServerConfig::paper_default(cores);
            assert_eq!(built.n_cores, paper.n_cores);
            assert_eq!(built.freq_plan, paper.freq_plan);
            assert_eq!(built.initial_mhz, paper.initial_mhz);
            assert_eq!(built.core_max_mhz, paper.core_max_mhz);
            assert_eq!(built.power.static_w, paper.power.static_w);
            assert_eq!(built.power.dyn_coef, paper.power.dyn_coef);
            assert_eq!(built.power.lin_coef, paper.power.lin_coef);
            assert_eq!(built.power.idle_activity, paper.power.idle_activity);
            assert_eq!(p.capacity(), NodeCapacity::uniform(cores));
        }
    }

    #[test]
    fn biglittle_profile_caps_trailing_cores() {
        let p = NodeProfile {
            little_cores: 2,
            little_max_mhz: 1200,
            ..NodeProfile::paper_default(4, 1)
        };
        p.validate().unwrap();
        let cfg = p.server_config();
        assert_eq!(cfg.core_max_mhz, vec![3000, 3000, 1200, 1200]);
        // Big cores are effectively uncapped: turbo still reachable.
        assert_eq!(cfg.core_cap(0), Some(3000));
    }

    #[test]
    fn little_node_keeps_the_fleet_reference() {
        // An edge-class node topping out at 1500 MHz still calibrates
        // against the fleet's 2100 MHz reference.
        let p = NodeProfile {
            max_mhz: 1500,
            turbo_mhz: 1600,
            ..NodeProfile::paper_default(1, 1)
        };
        p.validate().unwrap();
        let cfg = p.server_config();
        assert_eq!(cfg.freq_plan.reference_mhz, FLEET_REFERENCE_MHZ);
        assert_eq!(cfg.freq_plan.max_mhz(), 1500);
        assert_eq!(cfg.initial_mhz, 1500);
    }

    #[test]
    fn validation_rejects_malformed_profiles() {
        let base = NodeProfile::paper_default(4, 2);
        let bad = [
            NodeProfile {
                count: 0,
                ..base.clone()
            },
            NodeProfile {
                cores: 0,
                ..base.clone()
            },
            NodeProfile {
                min_mhz: 2200,
                ..base.clone()
            },
            NodeProfile {
                max_mhz: 2150,
                ..base.clone()
            },
            NodeProfile {
                turbo_mhz: 2100,
                ..base.clone()
            },
            NodeProfile {
                dyn_coef: f64::NAN,
                ..base.clone()
            },
            NodeProfile {
                little_cores: 4,
                little_max_mhz: 1200,
                ..base.clone()
            },
            NodeProfile {
                little_cores: 1,
                little_max_mhz: 1250,
                ..base.clone()
            },
            NodeProfile {
                little_max_mhz: 1200,
                ..base.clone()
            },
        ];
        for p in bad {
            assert!(p.validate().is_err(), "accepted {p:?}");
        }
    }

    #[test]
    fn profile_file_roundtrip_and_expansion() {
        let json = r#"[
            {"name": "big", "count": 2, "cores": 4},
            {"name": "edge", "cores": 1, "max_mhz": 1500, "turbo_mhz": 1600,
             "static_w": 5.0, "dyn_coef": 0.2, "lin_coef": 0.3}
        ]"#;
        let profiles = profiles_from_json(json).unwrap();
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].count, 2);
        assert_eq!(profiles[1].min_mhz, 800, "defaults fill gaps");
        assert_eq!(node_profile_indices(&profiles), vec![0, 0, 1]);
        assert_eq!(profile_groups(&profiles), vec![vec![0, 1], vec![2]]);
        assert!(profiles_from_json("[]").is_err());
        assert!(profiles_from_json("{").is_err());
        assert!(profiles_from_json(r#"[{"name": "x", "cores": 0}]"#).is_err());
    }
}
