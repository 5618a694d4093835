//! Requests.

use crate::clock::Nanos;
use serde::{Deserialize, Error, Serialize, Value};
use std::fmt;
use std::ops::Deref;

/// Most observable features one request can carry. Every application
/// model emits at most one today; the cap keeps [`Features`] inline.
pub const MAX_FEATURES: usize = 2;

/// A request's observable features, stored inline: a fixed
/// `[f32; MAX_FEATURES]` array plus a length, so a [`Request`] is `Copy`
/// and moving one through the balancer, the queue and a core never
/// touches the heap. Derefs to the `&[f32]` of its first `len` values.
/// The unused tail is always zero, so the derived equality compares
/// exactly the used values.
#[derive(Clone, Copy, Default, PartialEq)]
pub struct Features {
    vals: [f32; MAX_FEATURES],
    len: u8,
}

impl Features {
    /// Copy `xs` inline. Panics if it holds more than [`MAX_FEATURES`]
    /// values.
    pub fn from_slice(xs: &[f32]) -> Self {
        assert!(
            xs.len() <= MAX_FEATURES,
            "{} request features exceed MAX_FEATURES = {MAX_FEATURES}",
            xs.len()
        );
        let mut vals = [0.0; MAX_FEATURES];
        vals[..xs.len()].copy_from_slice(xs);
        Self {
            vals,
            len: xs.len() as u8,
        }
    }
}

impl Deref for Features {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.vals[..self.len as usize]
    }
}

impl fmt::Debug for Features {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Serialized as a plain array, the same shape as a `Vec<f32>`.
impl Serialize for Features {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

impl Deserialize for Features {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        let xs = Vec::<f32>::deserialize_value(value)?;
        if xs.len() > MAX_FEATURES {
            return Err(Error::custom(format!(
                "{} request features exceed MAX_FEATURES = {MAX_FEATURES}",
                xs.len()
            )));
        }
        Ok(Self::from_slice(&xs))
    }
}

/// One client request as seen by the server.
///
/// `work_ref_ns` is the request's *intrinsic* service time: the wall time it
/// would take on an otherwise-idle machine at the reference frequency.
/// Actual processing time depends on the core frequency (through
/// `freq_sensitivity`) and on contention from sibling cores — both applied
/// by the engine, never baked into the request.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Monotonically increasing id (assigned by the workload generator).
    /// Unique per *attempt*: a retry gets a fresh server id.
    pub id: u64,
    /// Stable client-visible id that survives retries: every attempt of
    /// the same logical client request carries the same `client_id`.
    pub client_id: u64,
    /// Zero-based attempt counter (0 = first submission).
    pub attempt: u32,
    /// Arrival time at the server queue (of *this* attempt).
    pub arrival: Nanos,
    /// Arrival time of the client's *first* attempt. Client-perceived
    /// latency — and SLA timeout accounting — is measured from here, not
    /// from the retry's re-submission.
    pub first_arrival: Nanos,
    /// Intrinsic service time at the reference frequency, uncontended.
    pub work_ref_ns: Nanos,
    /// Fraction of the work that scales with core frequency; the remainder
    /// is memory/IO-bound and frequency-insensitive. In `[0, 1]`.
    pub freq_sensitivity: f32,
    /// The request's latency SLA (same for all requests of an application).
    pub sla: Nanos,
    /// Observable features (e.g. input size, request type) — the inputs the
    /// service-time predictors of ReTail/Gemini are allowed to see. The
    /// true `work_ref_ns` is *not* observable.
    pub features: Features,
}

impl Request {
    /// When the *client* submitted this logical request: the first
    /// attempt's arrival. Falls back to `arrival` for fresh requests
    /// whose constructor left `first_arrival` unset.
    pub(crate) fn client_arrival(&self) -> Nanos {
        if self.attempt == 0 {
            self.arrival
        } else {
            self.first_arrival
        }
    }

    /// The factor by which a core at `freq_mhz` stretches a request's
    /// work relative to the reference frequency, given the request's
    /// `freq_sensitivity` `s`: `s · f_ref/f + (1 − s)`. The engine keeps this per running core
    /// and refreshes it only when the core's frequency changes.
    pub(crate) fn freq_scale(freq_sensitivity: f32, freq_mhz: u32, reference_mhz: u32) -> f64 {
        debug_assert!(freq_mhz > 0);
        let s = freq_sensitivity as f64;
        s * reference_mhz as f64 / freq_mhz as f64 + (1.0 - s)
    }

    /// Wall-clock time `remaining_ref_ns` of intrinsic work takes at a
    /// frequency [`scale`](Self::freq_scale) and a contention inflation
    /// factor: `time = remaining_ref · scale · inflation`.
    pub(crate) fn scaled_time(remaining_ref_ns: f64, scale: f64, inflation: f64) -> f64 {
        remaining_ref_ns * scale * inflation
    }

    /// Inverse of [`Request::scaled_time`]: how much intrinsic work is
    /// retired by running `dt` nanoseconds at the given conditions.
    pub(crate) fn retired_work(dt: f64, scale: f64, inflation: f64) -> f64 {
        dt / (scale * inflation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Time for `remaining` work at sensitivity `s`, `freq_mhz` against a
    /// 2100 MHz reference, and `inflation`.
    fn time(remaining: f64, s: f32, freq_mhz: u32, inflation: f64) -> f64 {
        Request::scaled_time(remaining, Request::freq_scale(s, freq_mhz, 2100), inflation)
    }

    #[test]
    fn fully_sensitive_work_scales_inversely_with_frequency() {
        // s = 1: halving the frequency doubles the time.
        let t_full = time(1000.0, 1.0, 2100, 1.0);
        let t_half = time(1000.0, 1.0, 1050, 1.0);
        assert!((t_full - 1000.0).abs() < 1e-9);
        assert!((t_half - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn insensitive_work_ignores_frequency() {
        let t_slow = time(1000.0, 0.0, 800, 1.0);
        let t_fast = time(1000.0, 0.0, 2100, 1.0);
        assert_eq!(t_slow, t_fast);
    }

    #[test]
    fn contention_inflates_linearly() {
        let base = time(1000.0, 0.7, 1500, 1.0);
        let inflated = time(1000.0, 0.7, 1500, 1.25);
        assert!((inflated / base - 1.25).abs() < 1e-9);
    }

    #[test]
    fn retired_work_inverts_scaled_time() {
        let remaining = 12345.0;
        let scale = Request::freq_scale(0.6, 1300, 2100);
        let t = Request::scaled_time(remaining, scale, 1.1);
        let retired = Request::retired_work(t, scale, 1.1);
        assert!((retired - remaining).abs() < 1e-6);
    }

    #[test]
    fn features_serialize_as_a_plain_array() {
        let f = Features::from_slice(&[0.5]);
        let v = f.serialize_value();
        assert_eq!(v, vec![0.5f32].serialize_value());
        assert_eq!(Features::deserialize_value(&v).unwrap(), f);
        let long = vec![1.0f32; MAX_FEATURES + 1].serialize_value();
        assert!(Features::deserialize_value(&long).is_err());
    }

    #[test]
    fn partial_sensitivity_between_extremes() {
        let t_min = time(1000.0, 0.0, 800, 1.0);
        let t_mid = time(1000.0, 0.5, 800, 1.0);
        let t_max = time(1000.0, 1.0, 800, 1.0);
        assert!(t_min < t_mid && t_mid < t_max);
        // s = 0.5 at f = f_ref/2.625 → scale = 0.5·2.625 + 0.5.
        assert!((t_mid - 1000.0 * (0.5 * 2100.0 / 800.0 + 0.5)).abs() < 1e-6);
    }
}
