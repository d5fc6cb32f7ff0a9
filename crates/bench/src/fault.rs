//! Fault-tolerance policy for long-running sweeps: retry schedules and
//! deterministic fault injection.
//!
//! A 226-point sweep must survive one pathological point. The executor
//! isolates every point behind `catch_unwind` plus a per-point wall-clock
//! deadline ([`crate::executor::Executor::run_isolated`]); this module
//! supplies the two policies around that isolation:
//!
//! * [`RetryPolicy`] — how many attempts a point gets and how long to
//!   back off between them. The schedule is a pure function of the
//!   attempt number (no wall-clock randomness), so retried runs stay
//!   byte-identical for every successful point at any `--jobs N`.
//! * [`FaultInjector`] — a deterministic, seedable fault source
//!   consulted before each attempt, used by the integration tests and
//!   the CI `fault-smoke` job to prove isolation, retry, and resume
//!   actually work. Production sweeps run with the default, empty
//!   injector.

use crate::error::{BenchError, PointErrorKind, PointKey};

/// How many attempts a point gets and how to space them.
///
/// The backoff schedule is deterministic: attempt `k` (1-based) sleeps
/// `min(backoff_base_ms << (k - 1), backoff_cap_ms)` milliseconds before
/// retrying. Sleeping only delays workers — it never reorders results
/// (the executor reassembles by input index) and never feeds wall-clock
/// values into any rendered output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts a point gets before it is declared failed (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, in milliseconds.
    pub backoff_base_ms: u64,
    /// Upper bound on any single backoff, in milliseconds.
    pub backoff_cap_ms: u64,
}

impl Default for RetryPolicy {
    /// One attempt, no retries — the pre-fault-tolerance behavior.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy with `retries` retries (so `retries + 1` attempts) and a
    /// doubling backoff starting at `backoff_base_ms`, capped at 8×.
    pub fn with_retries(retries: u32, backoff_base_ms: u64) -> Self {
        RetryPolicy {
            max_attempts: retries + 1,
            backoff_base_ms,
            backoff_cap_ms: backoff_base_ms.saturating_mul(8),
        }
    }

    /// The backoff taken after failed attempt `attempt` (1-based), or
    /// `None` when the point has no attempts left.
    pub fn backoff_after(&self, attempt: u32) -> Option<std::time::Duration> {
        if attempt >= self.max_attempts {
            return None;
        }
        let shift = attempt.saturating_sub(1).min(63);
        let ms = self
            .backoff_base_ms
            .checked_shl(shift)
            .unwrap_or(u64::MAX)
            .min(self.backoff_cap_ms);
        Some(std::time::Duration::from_millis(ms))
    }
}

/// What a [`FaultInjector`] can make an attempt do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Panic inside the point's evaluation (exercises `catch_unwind`).
    Panic,
    /// Fail as if the point's deadline expired.
    Timeout,
    /// Return a transient [`BenchError::Injected`] (succeeds on a later
    /// attempt once the rule's `fail_attempts` are exhausted).
    Transient,
}

/// One injection rule: fault `kind` fires at the point labelled
/// `app-matrix` on attempts `1..=fail_attempts`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FaultRule {
    label: String,
    kind: InjectedFault,
    fail_attempts: u32,
}

/// A deterministic, rule-based fault source for tests and the CI smoke
/// job, consulted once per (point, attempt). The default injector has no
/// rules and never injects anything.
///
/// Rules are parsed from `--inject` specs of the form
/// `<kind>@<app>-<matrix>[:<attempts>]`, e.g. `panic@pr-ca`,
/// `timeout@sssp-bu`, or `transient@pr-ca:2` (fail the first two
/// attempts, succeed afterwards). `attempts` defaults to `u32::MAX` for
/// `panic`/`timeout` (the point always fails) and `1` for `transient`
/// (succeeds on the first retry).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultInjector {
    rules: Vec<FaultRule>,
}

impl FaultInjector {
    /// Parses one `--inject` spec and adds its rule.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed specs.
    fn add_spec(&mut self, spec: &str) -> Result<(), String> {
        let (kind_s, rest) = spec
            .split_once('@')
            .ok_or_else(|| format!("`{spec}`: expected <kind>@<app>-<matrix>[:<attempts>]"))?;
        let kind = match kind_s {
            "panic" => InjectedFault::Panic,
            "timeout" => InjectedFault::Timeout,
            "transient" => InjectedFault::Transient,
            other => {
                return Err(format!(
                    "unknown fault kind `{other}` (panic/timeout/transient)"
                ))
            }
        };
        let (label, attempts) = match rest.split_once(':') {
            Some((label, n)) => {
                let n: u32 = n
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("`{spec}`: attempts must be a positive integer"))?;
                (label, n)
            }
            None => (
                rest,
                if kind == InjectedFault::Transient {
                    1
                } else {
                    u32::MAX
                },
            ),
        };
        if label.is_empty() {
            return Err(format!("`{spec}`: empty point label"));
        }
        self.rules.push(FaultRule {
            label: label.to_string(),
            kind,
            fail_attempts: attempts,
        });
        Ok(())
    }

    /// Builds an injector from a list of `--inject` specs.
    ///
    /// # Errors
    ///
    /// Returns the first malformed spec's message.
    pub fn from_specs<S: AsRef<str>>(specs: &[S]) -> Result<Self, String> {
        let mut inj = FaultInjector::default();
        for spec in specs {
            inj.add_spec(spec.as_ref())?;
        }
        Ok(inj)
    }

    /// A seeded injector that deterministically picks `count` distinct
    /// victim points out of `labels` (an `app-matrix` label list) and
    /// assigns each a fault kind — the property-style entry used by the
    /// integration tests to cover arbitrary points without wall-clock
    /// randomness.
    pub fn seeded(seed: u64, labels: &[String], count: usize) -> Self {
        // splitmix64: deterministic, no external deps
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut inj = FaultInjector::default();
        if labels.is_empty() {
            return inj;
        }
        let kinds = [
            InjectedFault::Panic,
            InjectedFault::Timeout,
            InjectedFault::Transient,
        ];
        let mut remaining: Vec<&String> = labels.iter().collect();
        for _ in 0..count.min(labels.len()) {
            let pick = (next() % remaining.len() as u64) as usize;
            let label = remaining.swap_remove(pick);
            let kind = kinds[(next() % 3) as usize];
            inj.rules.push(FaultRule {
                label: label.clone(),
                kind,
                fail_attempts: if kind == InjectedFault::Transient {
                    1
                } else {
                    u32::MAX
                },
            });
        }
        inj
    }

    /// Whether the injector has any rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The labels this injector targets, in rule order.
    pub fn labels(&self) -> Vec<&str> {
        self.rules.iter().map(|r| r.label.as_str()).collect()
    }

    /// The fault to inject into this attempt, if any — a pure function
    /// of the rules and `(key, attempt)`, so any worker thread may ask
    /// in any order.
    pub fn inject(&self, key: &PointKey, attempt: u32) -> Option<InjectedFault> {
        let label = key.label();
        self.rules
            .iter()
            .find(|r| r.label == label && attempt <= r.fail_attempts)
            .map(|r| r.kind)
    }
}

/// Classifies a [`BenchError`] from a failed attempt into the
/// [`PointErrorKind`] reported for the point: deadline expiries become
/// `Timeout`, everything else stays a structured `Sim` error.
pub fn classify(err: BenchError) -> PointErrorKind {
    if let BenchError::Sim {
        source: sparsepipe_core::CoreError::DeadlineExceeded { budget_ms },
        ..
    } = &err
    {
        return PointErrorKind::Timeout {
            budget_ms: *budget_ms,
        };
    }
    PointErrorKind::Sim(err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(app: &str, matrix: &str) -> PointKey {
        PointKey {
            app: app.into(),
            matrix: matrix.into(),
            scale: 64,
        }
    }

    #[test]
    fn default_policy_is_single_attempt() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.backoff_after(1), None);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 5,
            backoff_base_ms: 10,
            backoff_cap_ms: 35,
        };
        let ms = |a| p.backoff_after(a).map(|d| d.as_millis());
        assert_eq!(ms(1), Some(10));
        assert_eq!(ms(2), Some(20));
        assert_eq!(ms(3), Some(35), "capped");
        assert_eq!(ms(4), Some(35));
        assert_eq!(ms(5), None, "no attempts left");
    }

    #[test]
    fn specs_parse_and_fire() {
        let inj = FaultInjector::from_specs(&["panic@pr-ca", "transient@sssp-bu:2"]).unwrap();
        assert_eq!(inj.inject(&key("pr", "ca"), 1), Some(InjectedFault::Panic));
        assert_eq!(inj.inject(&key("pr", "ca"), 99), Some(InjectedFault::Panic));
        assert_eq!(
            inj.inject(&key("sssp", "bu"), 2),
            Some(InjectedFault::Transient)
        );
        assert_eq!(inj.inject(&key("sssp", "bu"), 3), None, "recovers");
        assert_eq!(inj.inject(&key("cg", "ca"), 1), None);
        assert!(FaultInjector::default()
            .inject(&key("pr", "ca"), 1)
            .is_none());
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(FaultInjector::from_specs(&["panic"]).is_err());
        assert!(FaultInjector::from_specs(&["frob@pr-ca"]).is_err());
        assert!(FaultInjector::from_specs(&["panic@pr-ca:0"]).is_err());
        assert!(FaultInjector::from_specs(&["panic@"]).is_err());
    }

    #[test]
    fn seeded_injection_is_deterministic_and_distinct() {
        let labels: Vec<String> = ["pr-ca", "pr-gy", "cg-ca", "cg-gy", "sssp-bu"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let a = FaultInjector::seeded(42, &labels, 3);
        let b = FaultInjector::seeded(42, &labels, 3);
        assert_eq!(a, b, "same seed, same rules");
        let picked = a.labels();
        assert_eq!(picked.len(), 3);
        let mut dedup = picked.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 3, "victims are distinct");
        let c = FaultInjector::seeded(43, &labels, 3);
        assert_ne!(a, c, "different seed, different rules (w.h.p.)");
    }

    #[test]
    fn classify_splits_timeouts_from_errors() {
        let timeout = BenchError::Sim {
            app: "pr".into(),
            matrix: sparsepipe_tensor::MatrixId::Ca,
            source: sparsepipe_core::CoreError::DeadlineExceeded { budget_ms: 9 },
        };
        assert!(matches!(
            classify(timeout),
            PointErrorKind::Timeout { budget_ms: 9 }
        ));
        let other = BenchError::UnknownApp("zz".into());
        assert!(matches!(classify(other), PointErrorKind::Sim(_)));
    }
}
