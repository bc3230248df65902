//! Deterministic fault injection for the disk model.
//!
//! A [`FaultPlan`] is a declarative, seeded description of adverse disk
//! behavior: transient and permanent read errors, latency spikes, and
//! stalled requests, each scoped to a device, a physical page range, and
//! a virtual-time window. The plan is pure data (serde-friendly, embedded
//! in workload specs); the [`FaultInjector`] is its runtime companion
//! that the disk array consults once per read request.
//!
//! Determinism is the whole point: every probabilistic draw is a pure
//! hash of `(seed, device, address, attempt)`, never of wall time or
//! thread schedule. The same plan against the same workload injects the
//! same faults at the same virtual instants on every run and for every
//! `--jobs` setting — which is what lets the engine's retry handling be
//! property-tested for bit-identical reports. The per-address attempt
//! counter makes retries meaningful: a transient fault re-rolls on each
//! attempt instead of failing the same address forever.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::sim::{SimDuration, SimTime};

/// What a matching rule does to a read request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The read fails with `probability`; a retry re-rolls and may
    /// succeed.
    TransientError {
        /// Per-request failure probability in `[0, 1]`.
        probability: f64,
    },
    /// Every matching read fails, retries included — a dead region or
    /// device.
    PermanentError,
    /// The request's service time is inflated by `extra_us` with
    /// `probability` — a slow-path sector remap, a recovered error.
    LatencySpike {
        /// Per-request spike probability in `[0, 1]`.
        probability: f64,
        /// Extra service time per spiked request, in microseconds.
        extra_us: u64,
    },
    /// The device stalls for `for_us` before servicing the request (and
    /// everything queued behind it) with `probability` — firmware
    /// hiccups, internal retries on the device itself.
    Stall {
        /// Per-request stall probability in `[0, 1]`.
        probability: f64,
        /// Stall length in microseconds.
        for_us: u64,
    },
}

/// One fault rule: *where* (device and physical page range), *when*
/// (virtual-time window), and *what* ([`FaultKind`]). The first rule
/// matching a request decides its fate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRule {
    /// Device index this rule targets (`None`: every device).
    #[serde(default)]
    pub device: Option<u32>,
    /// Physical page range `[start, end)` (`None`: every address).
    #[serde(default)]
    pub pages: Option<(u64, u64)>,
    /// Virtual time (µs) at which the rule becomes active.
    #[serde(default)]
    pub from_us: u64,
    /// Virtual time (µs) at which it stops matching (`None`: never).
    #[serde(default)]
    pub until_us: Option<u64>,
    /// The injected behavior, externally tagged:
    /// `"fault": {"TransientError": {"probability": 0.01}}`.
    pub fault: FaultKind,
}

impl FaultRule {
    fn matches(&self, now: SimTime, device: u32, addr: u64) -> bool {
        if let Some(d) = self.device {
            if d != device {
                return false;
            }
        }
        if let Some((lo, hi)) = self.pages {
            if addr < lo || addr >= hi {
                return false;
            }
        }
        let t = now.as_micros();
        t >= self.from_us && self.until_us.is_none_or(|u| t < u)
    }
}

/// A seeded, declarative fault schedule. Empty plans (no rules) are the
/// default and inject nothing: every read goes through a plan, and an
/// empty one lets each piece through on the first line of
/// [`FaultInjector::check`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the per-request probability draws.
    #[serde(default)]
    pub seed: u64,
    /// The rules, consulted in order; the first match wins.
    #[serde(default)]
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// Injection counters, split by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Transient read errors injected.
    pub transient_errors: u64,
    /// Permanent read errors injected.
    pub permanent_errors: u64,
    /// Latency spikes and stalls injected.
    pub delays: u64,
    /// Total extra service time injected by spikes and stalls.
    pub delay_total: SimDuration,
}

/// What the injector decided for one read request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// No fault: service the request normally.
    None,
    /// The read fails. `transient` distinguishes retryable errors from
    /// dead regions.
    Error {
        /// Whether a retry may succeed.
        transient: bool,
    },
    /// Service the request, but inflate its service time by this much.
    Delay(SimDuration),
}

/// Runtime state of a [`FaultPlan`]: the per-address attempt counters and
/// the injection counters. One injector per run; the disk array consults
/// it once per physical read request.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Attempts seen per `(device, addr)` — the re-roll counter that
    /// makes transient faults survivable by retry.
    attempts: HashMap<(u32, u64), u64>,
    stats: FaultStats,
}

/// SplitMix64 finalizer: a well-mixed 64-bit hash of the draw key.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultInjector {
    /// Create the runtime state for a plan.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            attempts: HashMap::new(),
            stats: FaultStats::default(),
        }
    }

    /// Injection counters so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Deterministic uniform draw in `[0, 1)` for one request attempt.
    fn roll(&self, device: u32, addr: u64, attempt: u64) -> f64 {
        let h = mix(self
            .plan
            .seed
            .wrapping_mul(0xA076_1D64_78BD_642F)
            .wrapping_add(mix((device as u64) << 48 ^ addr))
            .wrapping_add(mix(attempt ^ 0x5851_F42D_4C95_7F2D)));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Decide the fate of a read request at `now` for `addr` on `device`.
    /// Each call advances the address's attempt counter, so a retried
    /// request re-rolls its probabilistic rules.
    pub fn check(&mut self, now: SimTime, device: u32, addr: u64) -> FaultOutcome {
        if self.plan.rules.is_empty() {
            return FaultOutcome::None;
        }
        let attempt = {
            let n = self.attempts.entry((device, addr)).or_insert(0);
            *n += 1;
            *n
        };
        let rule = self
            .plan
            .rules
            .iter()
            .find(|r| r.matches(now, device, addr));
        let Some(rule) = rule else {
            return FaultOutcome::None;
        };
        match rule.fault {
            FaultKind::PermanentError => {
                self.stats.permanent_errors += 1;
                FaultOutcome::Error { transient: false }
            }
            FaultKind::TransientError { probability } => {
                if self.roll(device, addr, attempt) < probability {
                    self.stats.transient_errors += 1;
                    FaultOutcome::Error { transient: true }
                } else {
                    FaultOutcome::None
                }
            }
            FaultKind::LatencySpike {
                probability,
                extra_us,
            } => {
                if self.roll(device, addr, attempt) < probability {
                    let d = SimDuration::from_micros(extra_us);
                    self.stats.delays += 1;
                    self.stats.delay_total += d;
                    FaultOutcome::Delay(d)
                } else {
                    FaultOutcome::None
                }
            }
            FaultKind::Stall {
                probability,
                for_us,
            } => {
                if self.roll(device, addr, attempt) < probability {
                    let d = SimDuration::from_micros(for_us);
                    self.stats.delays += 1;
                    self.stats.delay_total += d;
                    FaultOutcome::Delay(d)
                } else {
                    FaultOutcome::None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(fault: FaultKind) -> FaultRule {
        FaultRule {
            device: None,
            pages: None,
            from_us: 0,
            until_us: None,
            fault,
        }
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::default());
        for a in 0..1000 {
            assert_eq!(inj.check(SimTime::ZERO, 0, a), FaultOutcome::None);
        }
        assert_eq!(inj.stats(), &FaultStats::default());
    }

    #[test]
    fn permanent_errors_persist_across_attempts() {
        let plan = FaultPlan {
            seed: 1,
            rules: vec![rule(FaultKind::PermanentError)],
        };
        let mut inj = FaultInjector::new(plan);
        for _ in 0..5 {
            assert_eq!(
                inj.check(SimTime::ZERO, 0, 7),
                FaultOutcome::Error { transient: false }
            );
        }
        assert_eq!(inj.stats().permanent_errors, 5);
    }

    #[test]
    fn transient_errors_rerolled_per_attempt() {
        let plan = FaultPlan {
            seed: 42,
            rules: vec![rule(FaultKind::TransientError { probability: 0.5 })],
        };
        let mut inj = FaultInjector::new(plan);
        // With p=0.5, ten attempts at one address almost surely see both
        // outcomes — the attempt counter changes the draw.
        let outcomes: Vec<bool> = (0..10)
            .map(|_| inj.check(SimTime::ZERO, 0, 3) != FaultOutcome::None)
            .collect();
        assert!(outcomes.iter().any(|&b| b), "no fault in 10 p=0.5 draws");
        assert!(outcomes.iter().any(|&b| !b), "no success in 10 draws");
    }

    #[test]
    fn draws_are_deterministic_for_a_seed() {
        let plan = FaultPlan {
            seed: 7,
            rules: vec![rule(FaultKind::TransientError { probability: 0.3 })],
        };
        let run = || {
            let mut inj = FaultInjector::new(plan.clone());
            (0..200)
                .map(|a| inj.check(SimTime::ZERO, 0, a % 40))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
        // A different seed produces a different schedule.
        let other = FaultPlan {
            seed: 8,
            ..plan.clone()
        };
        let mut inj = FaultInjector::new(other);
        let alt: Vec<_> = (0..200)
            .map(|a| inj.check(SimTime::ZERO, 0, a % 40))
            .collect();
        assert_ne!(run(), alt);
    }

    #[test]
    fn rules_scope_by_device_range_and_window() {
        let plan = FaultPlan {
            seed: 0,
            rules: vec![FaultRule {
                device: Some(1),
                pages: Some((100, 200)),
                from_us: 1_000,
                until_us: Some(2_000),
                fault: FaultKind::PermanentError,
            }],
        };
        let mut inj = FaultInjector::new(plan);
        let hit = SimTime::from_micros(1_500);
        assert_eq!(inj.check(hit, 0, 150), FaultOutcome::None, "wrong device");
        assert_eq!(inj.check(hit, 1, 99), FaultOutcome::None, "below range");
        assert_eq!(inj.check(hit, 1, 200), FaultOutcome::None, "past range");
        assert_eq!(
            inj.check(SimTime::from_micros(999), 1, 150),
            FaultOutcome::None,
            "before window"
        );
        assert_eq!(
            inj.check(SimTime::from_micros(2_000), 1, 150),
            FaultOutcome::None,
            "after window"
        );
        assert_eq!(
            inj.check(hit, 1, 150),
            FaultOutcome::Error { transient: false }
        );
    }

    #[test]
    fn delays_accumulate_in_stats() {
        let plan = FaultPlan {
            seed: 3,
            rules: vec![rule(FaultKind::Stall {
                probability: 1.0,
                for_us: 2_500,
            })],
        };
        let mut inj = FaultInjector::new(plan);
        assert_eq!(
            inj.check(SimTime::ZERO, 0, 0),
            FaultOutcome::Delay(SimDuration::from_micros(2_500))
        );
        inj.check(SimTime::ZERO, 0, 1);
        assert_eq!(inj.stats().delays, 2);
        assert_eq!(inj.stats().delay_total, SimDuration::from_micros(5_000));
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan = FaultPlan {
            seed: 0,
            rules: vec![
                FaultRule {
                    pages: Some((0, 10)),
                    ..rule(FaultKind::PermanentError)
                },
                rule(FaultKind::Stall {
                    probability: 1.0,
                    for_us: 100,
                }),
            ],
        };
        let mut inj = FaultInjector::new(plan);
        assert_eq!(
            inj.check(SimTime::ZERO, 0, 5),
            FaultOutcome::Error { transient: false }
        );
        assert_eq!(
            inj.check(SimTime::ZERO, 0, 50),
            FaultOutcome::Delay(SimDuration::from_micros(100))
        );
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlan {
            seed: 9,
            rules: vec![
                rule(FaultKind::TransientError { probability: 0.01 }),
                FaultRule {
                    device: Some(0),
                    pages: Some((64, 128)),
                    from_us: 5,
                    until_us: Some(50),
                    fault: FaultKind::LatencySpike {
                        probability: 0.2,
                        extra_us: 10_000,
                    },
                },
            ],
        };
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        // A bare `{}` is the empty plan.
        let empty: FaultPlan = serde_json::from_str("{}").unwrap();
        assert!(empty.is_empty());
    }
}
