//! Engine-side fault handling: retry budgets, backoff, timeouts, and the
//! per-run fault accounting surfaced in [`crate::metrics::RunReport`].
//!
//! The storage layer's [`FaultPlan`] decides *what goes wrong*; this
//! module decides *what the engine does about it*:
//!
//! * transient read errors are retried with doubling backoff up to
//!   `max_retries` times (the re-issued request re-rolls the plan's
//!   probability, so a transient region usually yields on retry),
//! * reads whose device service time exceeds `timeout_us` (an injected
//!   stall) are treated as lost and re-issued, duplicating the device
//!   work exactly like a kernel-level I/O timeout does,
//! * permanent errors — and transient ones that exhaust the retry
//!   budget — surface as [`scanshare_storage::StorageError::ReadFault`],
//!   which the scan executor converts into a clean per-scan abort plus
//!   group eviction instead of a run-wide failure.
//!
//! Everything here is pure data + counters; the retry loop itself lives
//! in [`crate::exec::ExecWorld`].

use scanshare_storage::{FaultInjector, FaultPlan, SimDuration};
use serde::{Deserialize, Serialize};

fn default_max_retries() -> u32 {
    4
}

fn default_backoff_us() -> u64 {
    500
}

fn default_timeout_us() -> u64 {
    200_000
}

/// The `faults` section of a workload spec: the storage-layer plan plus
/// the engine's retry/timeout policy. The default (empty plan) injects
/// nothing, and every run reads through one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultsConfig {
    /// The seeded fault schedule handed to the storage layer.
    #[serde(default)]
    pub plan: FaultPlan,
    /// Retries granted per extent read before a transient fault is
    /// treated as fatal for the scan.
    #[serde(default = "default_max_retries")]
    pub max_retries: u32,
    /// First retry backoff in virtual µs; doubles per attempt.
    #[serde(default = "default_backoff_us")]
    pub backoff_us: u64,
    /// Device service time (µs) past which a read is declared lost and
    /// re-issued. Normal service is single-digit milliseconds, so only
    /// injected stalls trip this.
    #[serde(default = "default_timeout_us")]
    pub timeout_us: u64,
}

impl Default for FaultsConfig {
    fn default() -> Self {
        FaultsConfig {
            plan: FaultPlan::default(),
            max_retries: default_max_retries(),
            backoff_us: default_backoff_us(),
            timeout_us: default_timeout_us(),
        }
    }
}

/// Per-run fault accounting, embedded in the run report (all zero when
/// nothing was injected).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSummary {
    /// Transient read errors injected by the plan.
    pub transient_errors: u64,
    /// Permanent read errors injected by the plan.
    pub permanent_errors: u64,
    /// Latency spikes and stalls injected by the plan.
    pub delays_injected: u64,
    /// Total extra device service time injected.
    pub delay_total: SimDuration,
    /// Read requests re-issued after a transient error or timeout.
    pub retries: u64,
    /// Reads declared lost because their service exceeded the timeout.
    pub timeouts: u64,
    /// Virtual time scans spent in retry backoff.
    pub backoff_wait: SimDuration,
    /// Scans aborted on a permanent fault or an exhausted retry budget.
    pub scans_aborted: u64,
}

/// One fault occurrence observed by the retry loop, queued for the scan
/// executor to attribute to its scan and report to the sharing manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Device the fault fired on.
    pub device: u32,
    /// Physical page address of the faulted request.
    pub addr: u64,
    /// Whether the fault was retryable.
    pub transient: bool,
    /// 1-based attempt number that hit the fault.
    pub attempt: u32,
}

/// Runtime fault state of one run: the storage injector, the retry
/// policy, engine-side counters, and the pending event queue the scan
/// executor drains after each fetch.
#[derive(Debug)]
pub struct FaultState {
    /// The storage-layer injector (owns the plan and its counters).
    pub injector: FaultInjector,
    /// Retry budget per extent read.
    pub max_retries: u32,
    /// First backoff; doubles per attempt.
    pub backoff: SimDuration,
    /// Service-time cutoff for declaring a read lost.
    pub timeout: SimDuration,
    /// Read requests re-issued.
    pub retries: u64,
    /// Reads declared lost to the timeout.
    pub timeouts: u64,
    /// Virtual time spent in retry backoff.
    pub backoff_wait: SimDuration,
    /// Scans aborted (maintained by the scan executor).
    pub scans_aborted: u64,
    /// Fault occurrences not yet attributed to a scan.
    pub pending: Vec<FaultEvent>,
}

impl FaultState {
    /// Build the runtime state for a configuration. An empty plan gets
    /// no retry budget: a run without fault rules never declares a slow
    /// read lost, however long its disk takes.
    pub fn new(cfg: &FaultsConfig) -> Self {
        FaultState {
            injector: FaultInjector::new(cfg.plan.clone()),
            max_retries: if cfg.plan.is_empty() {
                0
            } else {
                cfg.max_retries
            },
            backoff: SimDuration::from_micros(cfg.backoff_us),
            timeout: SimDuration::from_micros(cfg.timeout_us),
            retries: 0,
            timeouts: 0,
            backoff_wait: SimDuration::ZERO,
            scans_aborted: 0,
            pending: Vec::new(),
        }
    }

    /// The run's fault summary: storage-side injections plus engine-side
    /// retry accounting.
    pub fn summary(&self) -> FaultSummary {
        let s = self.injector.stats();
        FaultSummary {
            transient_errors: s.transient_errors,
            permanent_errors: s.permanent_errors,
            delays_injected: s.delays,
            delay_total: s.delay_total,
            retries: self.retries,
            timeouts: self.timeouts,
            backoff_wait: self.backoff_wait,
            scans_aborted: self.scans_aborted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_fill_in_from_bare_json() {
        let cfg: FaultsConfig = serde_json::from_str("{}").unwrap();
        assert!(cfg.plan.is_empty());
        assert_eq!(cfg.max_retries, 4);
        assert_eq!(cfg.backoff_us, 500);
        assert_eq!(cfg.timeout_us, 200_000);
        assert_eq!(cfg, FaultsConfig::default());
    }

    #[test]
    fn config_round_trips_with_a_plan() {
        let json = r#"{
            "plan": {
                "seed": 11,
                "rules": [
                    {"fault": {"TransientError": {"probability": 0.01}}}
                ]
            },
            "max_retries": 2
        }"#;
        let cfg: FaultsConfig = serde_json::from_str(json).unwrap();
        assert!(!cfg.plan.is_empty());
        assert_eq!(cfg.plan.seed, 11);
        assert_eq!(cfg.max_retries, 2);
        let back: FaultsConfig =
            serde_json::from_str(&serde_json::to_string(&cfg).unwrap()).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn summary_merges_injector_and_engine_counters() {
        use scanshare_storage::{FaultKind, FaultRule, SimTime};
        let cfg = FaultsConfig {
            plan: FaultPlan {
                seed: 0,
                rules: vec![FaultRule {
                    device: None,
                    pages: None,
                    from_us: 0,
                    until_us: None,
                    fault: FaultKind::PermanentError,
                }],
            },
            ..FaultsConfig::default()
        };
        let mut st = FaultState::new(&cfg);
        st.injector.check(SimTime::ZERO, 0, 0);
        st.retries = 3;
        st.backoff_wait = SimDuration::from_micros(1_500);
        let s = st.summary();
        assert_eq!(s.permanent_errors, 1);
        assert_eq!(s.retries, 3);
        assert_eq!(s.backoff_wait, SimDuration::from_micros(1_500));
    }
}
