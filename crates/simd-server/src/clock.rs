//! Simulated time.
//!
//! All simulation time is integer nanoseconds (`u64`), which keeps event
//! ordering exact and replayable — no floating-point drift across the
//! hundreds of millions of events in a 360-second run.

/// Simulated time or duration in nanoseconds.
pub type Nanos = u64;

/// One microsecond in [`Nanos`].
pub const MICROSECOND: Nanos = 1_000;
/// One millisecond in [`Nanos`].
pub const MILLISECOND: Nanos = 1_000_000;
/// One second in [`Nanos`].
pub const SECOND: Nanos = 1_000_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_relationships() {
        assert_eq!(MILLISECOND, 1_000 * MICROSECOND);
        assert_eq!(SECOND, 1_000 * MILLISECOND);
    }
}
