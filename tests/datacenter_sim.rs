//! Tier-1 integration checks for the discrete-event datacenter
//! simulator: small seeded clusters must be bit-identical whether the
//! per-server cycle boxes are stepped serially or fanned out across the
//! experiment thread pool, load-step catch-ups must reach the executor,
//! servers with the same command log must share one box, and the
//! `datacenter.*` metrics must flow into a `MonitorReport`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use datacenter::{
    serial_exec, BatchMode, Cluster, ClusterConfig, ClusterResult, GroupSpec, Mix, Placement,
    QpsShape, SliceExec, MIXES,
};
use protean_bench::dc::pool_exec;

/// Serializes the tests that set `PROTEAN_JOBS`, which is process-wide.
static JOBS_ENV: Mutex<()> = Mutex::new(());

/// Runs `cfg` on a 4-worker pool.
fn run_pooled(cfg: ClusterConfig) -> ClusterResult {
    let _env = JOBS_ENV.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("PROTEAN_JOBS", "4");
    let r = Cluster::new(cfg).run_with(&pool_exec());
    std::env::remove_var("PROTEAN_JOBS");
    r
}

fn config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        groups: vec![
            GroupSpec {
                name: "web-search/WL1".into(),
                ls_app: "web-search",
                mix: MIXES[0],
                servers: 3,
                shape: QpsShape::diurnal(20.0, 40.0, 8.0, 1.0, 0.0, 1.0),
            },
            GroupSpec {
                name: "graph-analytics/WL2".into(),
                ls_app: "graph-analytics",
                mix: MIXES[1],
                servers: 3,
                shape: QpsShape::bursty(20.0, 6.0, 30.0, 0.3, 1.0, seed),
            },
        ],
        batch: BatchMode::Jobs {
            placement: Placement::LeastLoaded,
            mean_interarrival_secs: 3.0,
        },
        duration_secs: 20.0,
        consolidate: true,
        min_active: 1,
        seed,
        job_branches: 2_000,
        ..ClusterConfig::default()
    }
}

/// Everything observable about a run, floats by exact bits.
fn fingerprint(r: &ClusterResult) -> String {
    let mut s = format!(
        "events={} skipped={} queries={} jobs={} energy={:x}\n",
        r.events,
        r.skipped_cycles,
        r.queries,
        r.jobs_completed,
        r.energy_joules.to_bits()
    );
    for g in &r.groups {
        s.push_str(&format!(
            "{} q={} j={} b={} busy={} life={} e={:x} parks={} act={}\n",
            g.name,
            g.queries,
            g.jobs_completed,
            g.batch_branches,
            g.busy_cycles,
            g.lifetime_cycles,
            g.energy_joules.to_bits(),
            g.parks,
            g.activations
        ));
    }
    for (name, v) in &r.snapshot.counters {
        s.push_str(&format!("{name}={v}\n"));
    }
    s
}

/// A small diurnal fleet in the shape of the Figs. 17–18 warehouses:
/// its shapes step every simulated second, on the epoch grid, so every
/// epoch barrier coincides with a load step.
fn fleet_config(batch: BatchMode, consolidate: bool) -> ClusterConfig {
    let group = |ls_app: &'static str, mix: Mix, peak, phase| GroupSpec {
        name: format!("{ls_app}/{}", mix.name),
        ls_app,
        mix,
        servers: 2,
        shape: QpsShape::diurnal(8.0, peak, 4.0, 1.0, phase, 1.0),
    };
    ClusterConfig {
        groups: vec![
            group("web-search", MIXES[0], 40.0, 0.0),
            group("graph-analytics", MIXES[1], 30.0, 0.5),
        ],
        batch,
        duration_secs: 8.0,
        consolidate,
        seed: 5,
        ..ClusterConfig::default()
    }
}

#[test]
fn cluster_sim_is_bit_identical_serial_vs_pool() {
    let serial = Cluster::new(config(11)).run_with(&serial_exec());
    let pooled = run_pooled(config(11));
    assert!(
        serial.queries > 100,
        "LS load was served: {}",
        serial.queries
    );
    assert!(serial.jobs_completed > 0, "batch jobs completed");
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&pooled),
        "pool fan-out changed simulation results"
    );
}

#[test]
fn diurnal_fleets_are_bit_identical_serial_vs_pool() {
    for (batch, consolidate) in [(BatchMode::Pinned, false), (BatchMode::None, true)] {
        let cfg = fleet_config(batch, consolidate);
        let serial = Cluster::new(cfg.clone()).run_with(&serial_exec());
        let pooled = run_pooled(cfg);
        assert!(serial.queries > 0, "LS load was served: {}", serial.queries);
        assert_eq!(
            fingerprint(&serial),
            fingerprint(&pooled),
            "pool fan-out changed a diurnal fleet (consolidate={consolidate})"
        );
    }
}

/// Every epoch advance records one `datacenter.distinct_boxes` sample
/// of the slices it runs (one per shared box, not one per active
/// server), so a slice total above that histogram's sum means load-step
/// catch-ups went through the executor too.
#[test]
fn load_step_catch_ups_reach_the_executor() {
    let slices = Arc::new(AtomicU64::new(0));
    let counted = slices.clone();
    let inner = serial_exec();
    let exec: SliceExec = Box::new(move |jobs| {
        counted.fetch_add(jobs.len() as u64, Ordering::Relaxed);
        inner(jobs)
    });
    let r = Cluster::new(fleet_config(BatchMode::Pinned, false)).run_with(&exec);
    let epoch_slices = r.snapshot.histograms["datacenter.distinct_boxes"].sum;
    let slices = slices.load(Ordering::Relaxed);
    assert!(
        slices > epoch_slices,
        "{slices} slices ran, {epoch_slices} of them epoch advances"
    );
}

/// Pinned batch apps go round-robin over a 4-app mix, so a group of 12
/// servers is 4 command logs: every epoch steps 4 boxes for 12 servers.
#[test]
fn pinned_group_shares_one_box_per_batch_app() {
    let cfg = ClusterConfig {
        groups: vec![GroupSpec {
            name: "web-search/WL1".into(),
            ls_app: "web-search",
            mix: MIXES[0],
            servers: 12,
            shape: QpsShape::diurnal(4.0, 120.0, 30.0, 1.0, 0.0, 1.0),
        }],
        batch: BatchMode::Pinned,
        duration_secs: 4.0,
        consolidate: false,
        seed: 1,
        ..ClusterConfig::default()
    };
    let r = Cluster::new(cfg).run_with(&serial_exec());
    let boxes = &r.snapshot.histograms["datacenter.distinct_boxes"];
    let active = &r.snapshot.histograms["datacenter.active_servers"];
    assert!(boxes.count > 0, "epochs ran");
    assert_eq!((boxes.min, boxes.max), (4, 4), "{boxes:?}");
    assert_eq!((active.min, active.max), (12, 12), "{active:?}");
}

#[test]
fn cluster_metrics_reach_monitor_report() {
    let r = Cluster::new(config(3)).run_with(&serial_exec());
    let report = r.report();
    for counter in ["datacenter.events", "datacenter.queries"] {
        assert!(
            report.metrics.counters.get(counter).copied().unwrap_or(0) > 0,
            "{counter} missing or zero in {:?}",
            report.metrics.counters
        );
    }
    assert!(
        report
            .metrics
            .histograms
            .contains_key("datacenter.active_servers"),
        "active-servers histogram missing"
    );
    assert!(
        report.metrics.gauges.contains_key("datacenter.sim_seconds"),
        "sim-seconds gauge missing"
    );
}
