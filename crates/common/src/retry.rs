//! Retry with exponential backoff and decorrelated jitter.
//!
//! Transient failures (classified by [`SsError::is_transient`]) on the
//! engine's durability paths — source reads, sink commits, WAL appends,
//! checkpoint writes — are retried under a [`RetryPolicy`] before they
//! escalate to the query supervisor. Fatal errors are never retried.
//!
//! Backoff follows the "decorrelated jitter" scheme: each sleep is drawn
//! uniformly from `[base, prev * 3]`, capped at `max_delay`, which avoids
//! the thundering-herd resonance of plain exponential backoff while
//! keeping the expected growth exponential.

use crate::clock::Clock;
use crate::error::Result;
use crate::rng::XorShift64;
use std::time::Duration;

/// How often an in-flight backoff sleep re-checks its interrupt signal:
/// a `stop()` issued mid-backoff is honoured within one such interval.
pub const BACKOFF_POLL: Duration = Duration::from_millis(1);

/// Bounds on how hard to retry a transient failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Lower bound for every backoff sleep.
    pub base_delay: Duration,
    /// Upper bound for every backoff sleep.
    pub max_delay: Duration,
    /// Wall-clock budget for one retried call: once elapsed time exceeds
    /// this, no further attempts are made even if attempts remain.
    pub budget: Duration,
    /// Seed for the jitter stream (deterministic sleeps in tests).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(100),
            budget: Duration::from_secs(1),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// No retries at all: one attempt, errors surface immediately.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            budget: Duration::ZERO,
            seed: 0,
        }
    }

    /// A policy that retries without sleeping — for tests that inject
    /// transient faults and must not slow the suite down.
    pub fn immediate(max_attempts: u32) -> Self {
        Self {
            max_attempts,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            budget: Duration::from_secs(1),
            seed: 0,
        }
    }
}

/// What [`retry_with`] did, alongside the final result.
#[derive(Debug)]
pub struct RetryOutcome<T> {
    /// The final `Ok` or the error from the last attempt.
    pub result: Result<T>,
    /// Number of *re*-attempts performed (0 = first try succeeded or
    /// failed fatally).
    pub retries: u32,
    /// True if the call ultimately failed on a transient error after
    /// exhausting attempts or budget.
    pub exhausted: bool,
    /// True if a backoff sleep was cut short by the interrupt signal
    /// (the query is stopping or fenced); the last error is returned
    /// without further attempts.
    pub interrupted: bool,
}

/// Run `op` under `policy`: transient errors are retried with
/// decorrelated-jitter backoff until they succeed, turn fatal, or the
/// policy's attempts/budget run out. Backoff sleeps run on `clock`
/// (virtual under simulation) and poll `interrupted` every
/// [`BACKOFF_POLL`]: a stop or fencing signal cuts a long backoff short
/// within one poll interval instead of sleeping it out. The retry
/// *budget* is also measured on `clock`.
pub fn retry_with<T>(
    policy: &RetryPolicy,
    clock: &dyn Clock,
    interrupted: &dyn Fn() -> bool,
    mut op: impl FnMut() -> Result<T>,
) -> RetryOutcome<T> {
    let budget_until = clock.deadline_us(policy.budget);
    let mut rng = XorShift64::new(policy.seed);
    let mut prev_sleep = policy.base_delay;
    let mut retries = 0u32;
    loop {
        match op() {
            Ok(v) => {
                return RetryOutcome {
                    result: Ok(v),
                    retries,
                    exhausted: false,
                    interrupted: false,
                }
            }
            Err(e) if !e.is_transient() => {
                return RetryOutcome {
                    result: Err(e),
                    retries,
                    exhausted: false,
                    interrupted: false,
                }
            }
            Err(e) => {
                if interrupted() {
                    return RetryOutcome {
                        result: Err(e),
                        retries,
                        exhausted: true,
                        interrupted: true,
                    };
                }
                let attempts_done = retries + 1;
                if attempts_done >= policy.max_attempts.max(1)
                    || clock.monotonic_us() > budget_until
                {
                    return RetryOutcome {
                        result: Err(e),
                        retries,
                        exhausted: true,
                        interrupted: false,
                    };
                }
                // Decorrelated jitter: uniform in [base, prev * 3].
                let base = policy.base_delay.as_nanos() as u64;
                let hi = (prev_sleep.as_nanos() as u64)
                    .saturating_mul(3)
                    .max(base.saturating_add(1));
                let sleep_nanos = (base + rng.next_u64() % (hi - base))
                    .min(policy.max_delay.as_nanos() as u64);
                prev_sleep = Duration::from_nanos(sleep_nanos);
                if !prev_sleep.is_zero()
                    && clock.sleep_interruptible(prev_sleep, BACKOFF_POLL, interrupted)
                {
                    return RetryOutcome {
                        result: Err(e),
                        retries,
                        exhausted: true,
                        interrupted: true,
                    };
                }
                retries += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SystemClock;
    use crate::error::SsError;
    use std::cell::Cell;
    use std::time::Instant;

    fn flaky(fail_times: u32) -> impl FnMut() -> Result<u32> {
        let calls = Cell::new(0u32);
        move || {
            let n = calls.get() + 1;
            calls.set(n);
            if n <= fail_times {
                Err(SsError::Transient(format!("flake {n}")))
            } else {
                Ok(n)
            }
        }
    }

    #[test]
    fn first_try_success_has_no_retries() {
        let out = retry_with(&RetryPolicy::immediate(5), &SystemClock, &|| false, flaky(0));
        assert_eq!(out.result.unwrap(), 1);
        assert_eq!(out.retries, 0);
        assert!(!out.exhausted);
    }

    #[test]
    fn transient_errors_are_retried_until_success() {
        let out = retry_with(&RetryPolicy::immediate(5), &SystemClock, &|| false, flaky(3));
        assert_eq!(out.result.unwrap(), 4);
        assert_eq!(out.retries, 3);
        assert!(!out.exhausted);
    }

    #[test]
    fn attempts_exhaust() {
        let out = retry_with(&RetryPolicy::immediate(3), &SystemClock, &|| false, flaky(10));
        assert!(out.result.is_err());
        assert_eq!(out.retries, 2, "3 attempts = 2 retries");
        assert!(out.exhausted);
    }

    #[test]
    fn fatal_errors_are_not_retried() {
        let mut calls = 0;
        let out = retry_with(&RetryPolicy::immediate(5), &SystemClock, &|| false, || {
            calls += 1;
            Err::<(), _>(SsError::Execution("fatal".into()))
        });
        assert!(out.result.is_err());
        assert_eq!(calls, 1);
        assert_eq!(out.retries, 0);
        assert!(!out.exhausted);
    }

    #[test]
    fn none_policy_gives_single_attempt() {
        let out = retry_with(&RetryPolicy::none(), &SystemClock, &|| false, flaky(1));
        assert!(out.result.is_err());
        assert_eq!(out.retries, 0);
        assert!(out.exhausted);
    }

    #[test]
    fn budget_stops_retries() {
        let policy = RetryPolicy {
            max_attempts: 100,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(5),
            budget: Duration::from_millis(1),
            seed: 0,
        };
        let start = Instant::now();
        let out = retry_with(&policy, &SystemClock, &|| false, flaky(1000));
        assert!(out.exhausted);
        assert!(out.retries < 50, "budget should cut retries short");
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn sleeps_respect_max_delay() {
        // With base == max == 0 the loop must not sleep at all; verify
        // a 10-retry exhaustion completes quickly.
        let start = Instant::now();
        let _ = retry_with(&RetryPolicy::immediate(10), &SystemClock, &|| false, flaky(1000));
        assert!(start.elapsed() < Duration::from_millis(500));
    }

    #[test]
    fn stop_during_long_backoff_returns_within_one_poll_interval() {
        // Regression: backoff used to sleep out its full duration even
        // when the query was stopping. With a 10s backoff on a virtual
        // clock, an interrupt raised after the first poll must end the
        // sleep at the very next check — one BACKOFF_POLL later, not
        // 10s later.
        use crate::clock::SimClock;
        use std::sync::atomic::{AtomicU32, Ordering};
        let sim = SimClock::new(0);
        let policy = RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_secs(10),
            max_delay: Duration::from_secs(10),
            budget: Duration::from_secs(3600),
            seed: 1,
        };
        let polls = AtomicU32::new(0);
        let out = retry_with(
            &policy,
            &sim,
            &|| polls.fetch_add(1, Ordering::SeqCst) >= 2,
            flaky(1000),
        );
        assert!(out.result.is_err());
        assert!(out.interrupted, "backoff must report the interruption");
        assert!(out.exhausted);
        assert_eq!(out.retries, 0, "no further attempt after the stop");
        let poll_us = BACKOFF_POLL.as_micros() as u64;
        assert!(
            sim.now_us() <= 2 * poll_us,
            "stop honoured within one poll interval, but {}us of backoff elapsed",
            sim.now_us()
        );
    }

    #[test]
    fn stop_during_backoff_is_prompt_on_the_system_clock() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        use std::time::Instant;
        let policy = RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_secs(2),
            max_delay: Duration::from_secs(2),
            budget: Duration::from_secs(60),
            seed: 1,
        };
        let stop = Arc::new(AtomicBool::new(false));
        let setter = stop.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            setter.store(true, Ordering::SeqCst);
        });
        let start = Instant::now();
        let out = retry_with(
            &policy,
            &SystemClock,
            &|| stop.load(Ordering::SeqCst),
            flaky(1000),
        );
        t.join().unwrap();
        assert!(out.interrupted);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "a 2s backoff must not be slept out after stop, took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn backoff_runs_on_the_injected_clock() {
        // The whole retry (sleeps and budget) is measured on the given
        // clock: exhausting a 5-attempt policy with 100ms backoffs
        // advances virtual time but takes ~no wall time.
        use crate::clock::SimClock;
        let sim = SimClock::new(9);
        let policy = RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_millis(100),
            budget: Duration::from_secs(3600),
            seed: 4,
        };
        let wall = std::time::Instant::now();
        let out = retry_with(&policy, &sim, &|| false, flaky(1000));
        assert!(out.exhausted);
        assert_eq!(out.retries, 4);
        assert!(
            sim.now_us() >= 4 * 100_000,
            "four 100ms backoffs should advance >=400ms of virtual time, got {}us",
            sim.now_us()
        );
        assert!(wall.elapsed() < Duration::from_secs(2));
    }
}
