//! Metric values and the ones read straight off a `RunReport`.
//!
//! Everything in this file is on the virtual clock or is a count, so
//! it is deterministic: two runs of one commit with one seed must agree
//! bit for bit (`fingerprint` is what the self-check compares).

use scanshare_engine::RunReport;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Value, as measured.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Look a metric up by name (drives and shares are combined by name in
/// the reconciliation).
pub fn get(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|x| x.name == name)
        .unwrap_or_else(|| panic!("metric {name} was not measured"))
        .value
}

/// `num / den`, 0 when the denominator is 0 (a layer that did nothing).
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Simulated page visits of a run: every page a scan consumed. Pull and
/// base scans fix each page they visit; push consumers ride driver-fixed
/// pages or replay a prefix privately — so the figure is the same for
/// every mode of one spec.
pub fn visits(r: &RunReport) -> u64 {
    match &r.push {
        Some(p) => p.consumer_pages + p.catchup_pages,
        None => r.pool.logical_reads,
    }
}

/// Nearest-rank percentile of a sorted sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The virtual-clock end-to-end metrics of a run. `base_makespan_s` is
/// the makespan of the same spec in `SharingMode::Base`.
pub fn virt(r: &RunReport, base_makespan_s: f64) -> Vec<Metric> {
    let mut elapsed: Vec<f64> = r
        .queries
        .iter()
        .map(|q| q.elapsed().as_secs_f64())
        .collect();
    elapsed.sort_by(|a, b| a.partial_cmp(b).expect("virtual times are finite"));
    let makespan = r.makespan.as_secs_f64();
    vec![
        m("virt_makespan_s", makespan, "s"),
        m("virt_pages_read", r.disk.pages_read as f64, "count"),
        m("virt_seeks", r.disk.seeks as f64, "count"),
        // The complement of the pool hit ratio: near-zero hit ratios
        // (base mode) would make relative bounds meaningless.
        m(
            "virt_miss_ratio",
            ratio(r.pool.misses as f64, r.pool.logical_reads as f64),
            "ratio",
        ),
        m("virt_query_p50_s", percentile(&elapsed, 0.50), "s"),
        m("virt_query_p95_s", percentile(&elapsed, 0.95), "s"),
        m(
            "virt_makespan_vs_base",
            ratio(makespan, base_makespan_s),
            "ratio",
        ),
    ]
}

/// `virt_sharing_gain_pct`: 0 by definition on a base-mode workload,
/// which is why the bounded end-to-end form is the never-zero
/// `virt_makespan_vs_base` and this one is reported with the layers.
pub fn sharing_gain_pct(r: &RunReport, base_makespan_s: f64) -> f64 {
    100.0 * (1.0 - ratio(r.makespan.as_secs_f64(), base_makespan_s))
}

/// The per-layer counts of a run, by module path.
pub fn counts(r: &RunReport) -> Vec<Metric> {
    let (pool, disk, sh) = (&r.pool, &r.disk, &r.sharing);
    let push = r.push.clone().unwrap_or_default();
    let joined = (sh.scans_joined + sh.scans_joined_finished) as f64;
    let c = |v: u64| v as f64;
    vec![
        m("storage.pool.fixes", c(pool.logical_reads), "count"),
        m("storage.pool.hits", c(pool.hits), "count"),
        m("storage.pool.misses", c(pool.misses), "count"),
        m("storage.pool.evictions", c(pool.evictions), "count"),
        m(
            "storage.pool.reprioritizations",
            c(pool.reprioritizations),
            "count",
        ),
        m("storage.pool.hit_ratio", pool.hit_ratio(), "ratio"),
        m("storage.disk.requests", c(disk.requests), "count"),
        m("storage.disk.pages_read", c(disk.pages_read), "count"),
        m("storage.disk.seeks", c(disk.seeks), "count"),
        m(
            "storage.disk.seek_distance_pages",
            c(disk.seek_distance_pages),
            "count",
        ),
        m("storage.disk.busy_virt_s", disk.busy.as_secs_f64(), "s"),
        m(
            "storage.disk.pages_per_request",
            ratio(c(disk.pages_read), c(disk.requests)),
            "ratio",
        ),
        m("core.manager.scans_started", c(sh.scans_started), "count"),
        m("core.manager.scans_joined", joined, "count"),
        m(
            "core.manager.scans_from_start",
            c(sh.scans_from_start),
            "count",
        ),
        m("core.manager.anchor_merges", c(sh.anchor_merges), "count"),
        m("core.manager.waits_injected", c(sh.waits_injected), "count"),
        m(
            "core.manager.total_wait_virt_s",
            sh.total_wait.as_secs_f64(),
            "s",
        ),
        m(
            "core.manager.join_ratio",
            ratio(joined, c(sh.scans_started)),
            "ratio",
        ),
        m("core.decision.events", r.decisions.len() as f64, "count"),
        m("engine.push.drivers", c(push.drivers), "count"),
        m("engine.push.attaches", c(push.attaches), "count"),
        m("engine.push.handoffs", c(push.handoffs), "count"),
        m(
            "engine.push.pages_delivered",
            c(push.pages_delivered),
            "count",
        ),
        m(
            "engine.push.consumer_pages",
            c(push.consumer_pages),
            "count",
        ),
        m("engine.push.catchup_pages", c(push.catchup_pages), "count"),
        m("engine.push.fixes_per_page", push.fixes_per_page(), "ratio"),
        m(
            "engine.push.riders_per_driver_page",
            ratio(c(push.consumer_pages), c(push.pages_delivered)),
            "ratio",
        ),
        m(
            "engine.push.attach_ratio",
            ratio(c(push.attaches), c(push.drivers + push.attaches)),
            "ratio",
        ),
        m(
            "engine.scan_exec.rows_qualified",
            r.queries.iter().map(|q| q.result.count).sum::<u64>() as f64,
            "count",
        ),
        m("engine.faults.retries", c(r.faults.retries), "count"),
        m(
            "engine.cpu.user_virt_s",
            r.breakdown.user.as_secs_f64(),
            "s",
        ),
        m(
            "engine.cpu.system_virt_s",
            r.breakdown.system.as_secs_f64(),
            "s",
        ),
        m(
            "engine.query.io_wait_virt_s",
            r.queries
                .iter()
                .map(|q| q.io_wait.as_secs_f64())
                .sum::<f64>(),
            "s",
        ),
    ]
}

/// Bit patterns of every deterministic number of a run. Two runs of one
/// spec must produce equal fingerprints; a difference means the virtual
/// clock is flaky and no comparison made with this benchmark holds.
pub fn fingerprint(r: &RunReport) -> Vec<(String, u64)> {
    virt(r, 1.0)
        .into_iter()
        .chain(counts(r))
        .map(|x| (x.name, x.value.to_bits()))
        .chain(std::iter::once(("visits".to_string(), visits(r))))
        .collect()
}
