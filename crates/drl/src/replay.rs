//! Experience replay.
//!
//! A fixed-capacity ring buffer of transitions with uniform random
//! mini-batch sampling — the replay pool of Algorithm 2 step 12/14.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One state transition `(s, a, r, s', done)`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    pub state: Vec<f32>,
    pub action: Vec<f32>,
    pub reward: f32,
    pub next_state: Vec<f32>,
    /// Terminal flag. In the DeepPower setting episodes are long-running
    /// workloads, so `done` is only set at workload end.
    pub done: bool,
}

impl Transition {
    /// Whether every numeric component is finite. A single NaN stored in
    /// the pool would eventually be sampled into a mini-batch and poison
    /// the networks, so [`ReplayBuffer::push`] rejects non-finite
    /// transitions outright.
    pub fn is_finite(&self) -> bool {
        self.reward.is_finite()
            && self.state.iter().all(|x| x.is_finite())
            && self.action.iter().all(|x| x.is_finite())
            && self.next_state.iter().all(|x| x.is_finite())
    }
}

/// Fixed-capacity ring buffer of [`Transition`]s.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReplayBuffer {
    capacity: usize,
    data: Vec<Transition>,
    /// Next slot to overwrite once full.
    head: usize,
    /// Total number of pushes ever (for diagnostics).
    pushed: u64,
    /// Non-finite transitions rejected by [`ReplayBuffer::push`].
    #[serde(skip)]
    rejected: u64,
    /// [`sample`](Self::sample)'s displaced-index map and the indices of
    /// its last batch, kept so that sampling allocates nothing once warm.
    #[serde(skip)]
    displaced: HashMap<usize, usize>,
    #[serde(skip)]
    batch: Vec<usize>,
}

impl ReplayBuffer {
    /// Create a buffer holding at most `capacity` transitions.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        Self {
            capacity,
            data: Vec::with_capacity(capacity.min(1 << 20)),
            head: 0,
            pushed: 0,
            rejected: 0,
            displaced: HashMap::new(),
            batch: Vec::new(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Total transitions pushed over the buffer's lifetime (≥ `len`).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Non-finite transitions rejected over the buffer's lifetime.
    pub fn total_rejected(&self) -> u64 {
        self.rejected
    }

    /// Insert a transition, evicting the oldest once at capacity.
    /// Non-finite transitions (any NaN/∞ in state, action, reward or
    /// next state) are rejected and counted instead of stored; returns
    /// whether the transition was accepted.
    pub fn push(&mut self, t: Transition) -> bool {
        if !t.is_finite() {
            self.rejected += 1;
            return false;
        }
        if self.data.len() < self.capacity {
            self.data.push(t);
        } else {
            self.data[self.head] = t;
            self.head = (self.head + 1) % self.capacity;
        }
        self.pushed += 1;
        true
    }

    /// Sample a uniform random mini-batch of `batch` transitions.
    ///
    /// Algorithm 2's mini-batch is drawn *without* replacement: when the
    /// pool holds at least `batch` transitions, the indices come from a
    /// partial Fisher–Yates shuffle (exactly `batch` RNG draws, same
    /// stream as before), so no transition appears twice in one batch.
    /// While the pool is still smaller than `batch` the sampler falls
    /// back to drawing with replacement — callers that over-request from
    /// a warm pool (diagnostics, tests) still get a full batch. Panics
    /// when empty; callers gate on warm-up length first (Algorithm 2
    /// line 13).
    pub fn sample<R: Rng>(
        &mut self,
        rng: &mut R,
        batch: usize,
    ) -> impl ExactSizeIterator<Item = &Transition> + Clone + '_ {
        assert!(!self.data.is_empty(), "sampling from empty replay buffer");
        let n = self.data.len();
        self.batch.clear();
        if n < batch {
            self.batch
                .extend((0..batch).map(|_| rng.random_range(0..n)));
        } else {
            // Partial Fisher–Yates over 0..n, materialized sparsely: only
            // the displaced entries of the virtual index array live in the
            // map, so the cost is O(batch), not O(pool) — the pool can
            // hold 100k transitions and this runs inside every gradient
            // step.
            self.displaced.clear();
            for i in 0..batch {
                let j = rng.random_range(i..n);
                let vj = self.displaced.get(&j).copied().unwrap_or(j);
                let vi = self.displaced.get(&i).copied().unwrap_or(i);
                self.displaced.insert(j, vi);
                self.batch.push(vj);
            }
        }
        let data = &self.data;
        self.batch.iter().map(move |&i| &data[i])
    }

    /// Iterate over the stored transitions (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = &Transition> {
        self.data.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn t(v: f32) -> Transition {
        Transition {
            state: vec![v],
            action: vec![v],
            reward: v,
            next_state: vec![v + 1.0],
            done: false,
        }
    }

    #[test]
    fn fills_then_evicts_oldest_first() {
        let mut b = ReplayBuffer::new(3);
        for i in 0..5 {
            b.push(t(i as f32));
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.total_pushed(), 5);
        let rewards: Vec<f32> = b.iter().map(|x| x.reward).collect();
        // Slots 0 and 1 were overwritten by 3 and 4; slot 2 still holds 2.
        assert!(rewards.contains(&2.0));
        assert!(rewards.contains(&3.0));
        assert!(rewards.contains(&4.0));
        assert!(!rewards.contains(&0.0));
    }

    #[test]
    fn sample_returns_requested_batch() {
        let mut b = ReplayBuffer::new(10);
        for i in 0..4 {
            b.push(t(i as f32));
        }
        let mut rng = StdRng::seed_from_u64(1);
        let mut batch = b.sample(&mut rng, 64);
        assert_eq!(batch.len(), 64);
        assert!(batch.all(|x| x.reward < 4.0));
    }

    #[test]
    fn full_pool_samples_without_replacement() {
        // Algorithm 2's random mini-batch: once the pool can cover the
        // batch, no transition may appear twice in one sample.
        let mut b = ReplayBuffer::new(64);
        for i in 0..64 {
            b.push(t(i as f32));
        }
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            for batch in [1usize, 7, 32, 64] {
                let s = b.sample(&mut rng, batch);
                let mut seen = std::collections::HashSet::new();
                assert_eq!(s.len(), batch);
                for x in s {
                    assert!(
                        seen.insert(x.reward.to_bits()),
                        "duplicate transition in batch {batch} (seed {seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn full_batch_sample_is_a_permutation() {
        let mut b = ReplayBuffer::new(8);
        for i in 0..8 {
            b.push(t(i as f32));
        }
        let mut rng = StdRng::seed_from_u64(3);
        let s = b.sample(&mut rng, 8);
        let mut rewards: Vec<i64> = s.map(|x| x.reward as i64).collect();
        rewards.sort_unstable();
        assert_eq!(rewards, (0..8).collect::<Vec<i64>>());
    }

    #[test]
    fn sparse_fisher_yates_matches_dense_reference() {
        // The O(batch) sparse shuffle must draw exactly the subset the
        // textbook dense partial Fisher–Yates would, in the same order,
        // from the same RNG stream.
        let mut b = ReplayBuffer::new(32);
        for i in 0..32 {
            b.push(t(i as f32));
        }
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let got: Vec<i64> = b.sample(&mut rng, 12).map(|x| x.reward as i64).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut idx: Vec<usize> = (0..32).collect();
            for i in 0..12 {
                let j = rng.random_range(i..32);
                idx.swap(i, j);
            }
            let want: Vec<i64> = idx[..12].iter().map(|&i| i as i64).collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn sample_eventually_touches_every_element() {
        let mut b = ReplayBuffer::new(8);
        for i in 0..8 {
            b.push(t(i as f32));
        }
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = std::collections::HashSet::new();
        for s in b.sample(&mut rng, 1000) {
            seen.insert(s.reward as i64);
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn non_finite_transitions_are_rejected_and_counted() {
        let mut b = ReplayBuffer::new(8);
        assert!(b.push(t(1.0)));
        for bad in [
            Transition {
                state: vec![f32::NAN],
                ..t(2.0)
            },
            Transition {
                action: vec![f32::INFINITY],
                ..t(3.0)
            },
            Transition {
                reward: f32::NAN,
                ..t(4.0)
            },
            Transition {
                next_state: vec![f32::NEG_INFINITY],
                ..t(5.0)
            },
        ] {
            assert!(!b.push(bad));
        }
        assert_eq!(b.len(), 1);
        assert_eq!(b.total_pushed(), 1);
        assert_eq!(b.total_rejected(), 4);
        assert!(b.iter().all(|x| x.is_finite()));
    }

    #[test]
    #[should_panic(expected = "sampling from empty")]
    fn sampling_empty_panics() {
        let mut b = ReplayBuffer::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = b.sample(&mut rng, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = ReplayBuffer::new(0);
    }
}
