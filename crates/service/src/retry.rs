//! Client-side retry policy: capped exponential backoff with
//! deterministic jitter.
//!
//! Factorization requests are idempotent — the same matrix factors to
//! the same `L` — so a client that loses its connection (or times out
//! waiting) can safely reconnect and resubmit every request it never got
//! a reply for. The reply for a lost connection died with that
//! connection's writer, so the resubmission produces exactly one reply
//! on the new connection and the exactly-one-reply invariant holds
//! end to end.
//!
//! Jitter is derived from a seed, not the OS RNG, so a chaos run's
//! backoff schedule is reproducible: same seed, same sleeps.

use std::time::Duration;

/// Backoff parameters for reconnect/resubmit loops.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Consecutive failed recovery attempts tolerated before giving up.
    /// `1` disables retry: the first connection failure is final.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base: Duration,
    /// Upper bound the exponential is clamped to.
    pub cap: Duration,
    /// Seed for the jitter sequence.
    pub seed: u64,
}

impl RetryPolicy {
    /// No retries: fail on the first connection error.
    pub fn disabled() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(1),
            seed: 0,
        }
    }

    /// The default chaos/loadgen policy: up to 8 attempts, 2 ms base,
    /// 250 ms cap.
    pub fn standard(seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(250),
            seed,
        }
    }

    /// The restart policy: effectively unlimited attempts (whether a
    /// shard is gone for good is an operator's call, not the fleet's),
    /// 1 ms base, 100 ms cap. It paces worker restarts after a panic and
    /// shard-process respawns with the same equal-jitter schedule as
    /// [`RetryPolicy::standard`], so every recovery loop shares one
    /// tested backoff implementation. A respawn is *gated* on it rather
    /// than slept on, so the health round never waits out a backoff.
    pub fn reconnect(seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: u32::MAX,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(100),
            seed,
        }
    }

    /// `true` when reconnecting is allowed at all.
    pub fn enabled(&self) -> bool {
        self.max_attempts > 1
    }

    /// The sleep before retry number `attempt` (1-based): equal-jitter
    /// exponential backoff, `exp/2 + uniform(0, exp/2)` where
    /// `exp = min(cap, base · 2^(attempt-1))`. Deterministic in
    /// `(seed, attempt)`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(24);
        let exp = self
            .base
            .saturating_mul(1u32 << shift)
            .min(self.cap)
            .max(Duration::from_micros(1));
        let mut x = self.seed ^ (u64::from(attempt)).wrapping_mul(0x9E3779B97F4A7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
        x ^= x >> 31;
        let half = exp / 2;
        // Jitter stays in u64 nanoseconds: a cap above ~4.29 s makes
        // `half` exceed `u32::MAX` ns, and narrowing here would wrap the
        // modulus and skew the distribution toward the low end.
        let jitter_ns = x % (half.as_nanos().max(1) as u64);
        half + Duration::from_nanos(jitter_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_to_the_cap() {
        let p = RetryPolicy::standard(7);
        // The deterministic floor (exp/2) doubles per attempt until the
        // cap halves it at 125 ms.
        for attempt in 1..=12u32 {
            let d = p.backoff(attempt);
            let exp = p.base.saturating_mul(1 << (attempt - 1)).min(p.cap);
            assert!(d >= exp / 2, "attempt {attempt}: {d:?} < {:?}", exp / 2);
            assert!(d <= exp, "attempt {attempt}: {d:?} > {exp:?}");
        }
        assert!(p.backoff(100) <= p.cap, "late attempts stay capped");

        // Multi-second cap: `half` is 10 s, far above u32::MAX ns. The
        // old u32 narrowing kept every jitter below ~4.29 s; computed in
        // u64 the jitter must range across the full (0, half) interval.
        let slow = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_secs(1),
            cap: Duration::from_secs(20),
            seed: 0,
        };
        let half = slow.cap / 2;
        let mut max_jitter = Duration::ZERO;
        for seed in 0..64u64 {
            let p = RetryPolicy {
                seed,
                ..slow.clone()
            };
            for attempt in 6..=9u32 {
                let d = p.backoff(attempt);
                assert!(d >= half, "attempt {attempt}: {d:?} < {half:?}");
                assert!(d <= slow.cap, "attempt {attempt}: {d:?} > {:?}", slow.cap);
                max_jitter = max_jitter.max(d - half);
            }
        }
        assert!(
            max_jitter > Duration::from_nanos(u64::from(u32::MAX)),
            "jitter never exceeded the u32 range ({max_jitter:?}); \
             the modulus is being narrowed"
        );
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_varies_across_seeds() {
        let a = RetryPolicy::standard(1);
        let b = RetryPolicy::standard(1);
        let c = RetryPolicy::standard(2);
        let seq = |p: &RetryPolicy| (1..=8).map(|i| p.backoff(i)).collect::<Vec<_>>();
        assert_eq!(seq(&a), seq(&b));
        assert_ne!(seq(&a), seq(&c), "different seeds, different jitter");
    }

    #[test]
    fn disabled_policy_permits_no_retry() {
        let p = RetryPolicy::disabled();
        assert!(!p.enabled());
        assert!(RetryPolicy::standard(0).enabled());
    }

    #[test]
    fn reconnect_policy_is_unbounded_and_capped() {
        let p = RetryPolicy::reconnect(9);
        assert!(p.enabled());
        for attempt in 1..=64u32 {
            let d = p.backoff(attempt);
            assert!(d >= p.base / 2, "attempt {attempt}: {d:?}");
            assert!(d <= p.cap, "attempt {attempt}: {d:?}");
        }
        // Deep into the schedule the sleep sits in [cap/2, cap]: a
        // crash-looping shard is respawned forever, but never more than
        // ~10×/second.
        assert!(p.backoff(10_000) >= p.cap / 2);
    }
}
