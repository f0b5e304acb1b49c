//! Tier-1 goldens for fleet-box sharing: servers given the same command
//! log share one cycle box, and a server whose log diverges splits off
//! and replays. The recorded `cluster_json` bytes under `tests/dc_sharing/`
//! were produced before boxes were shared, one box per server, so any
//! sharing or replay bug shows as a byte difference, serial or pooled.
//!
//! The three clusters cover the ways classes form and split: a pinned
//! co-located fleet (8 servers per group over a 4-app mix share 4
//! boxes), a consolidating LS-only fleet (the active set shrinks and
//! grows with a diurnal shape) and the jobs-mode scenario (every placed
//! job splits its server off).

use datacenter::{serial_exec, BatchMode, Cluster, ClusterConfig, GroupSpec, Mix, QpsShape, MIXES};
use protean_bench::dc::{cluster_json, jobs_scenario, pool_exec};

/// Two diurnal groups of 8 servers over 8 simulated seconds.
fn fleet(batch: BatchMode, consolidate: bool) -> ClusterConfig {
    let group = |ls_app: &'static str, mix: Mix, peak, phase| GroupSpec {
        name: format!("{ls_app}/{}", mix.name),
        ls_app,
        mix,
        servers: 8,
        shape: QpsShape::diurnal(8.0, peak, 4.0, 1.0, phase, 1.0),
    };
    ClusterConfig {
        groups: vec![
            group("web-search", MIXES[0], 160.0, 0.0),
            group("graph-analytics", MIXES[1], 120.0, 0.5),
        ],
        batch,
        duration_secs: 8.0,
        consolidate,
        seed: 5,
        job_branches: 2_000,
        ..ClusterConfig::default()
    }
}

fn goldens() -> [(&'static str, ClusterConfig, &'static str); 3] {
    [
        (
            "pinned_fleet",
            fleet(BatchMode::Pinned, false),
            include_str!("dc_sharing/pinned_fleet.json"),
        ),
        (
            "consolidating_fleet",
            fleet(BatchMode::None, true),
            include_str!("dc_sharing/consolidating_fleet.json"),
        ),
        (
            "jobs_scenario",
            jobs_scenario(23),
            include_str!("dc_sharing/jobs_scenario.json"),
        ),
    ]
}

#[test]
fn shared_boxes_match_the_unshared_goldens_serial_and_pooled() {
    for (name, cfg, golden) in goldens() {
        let serial = Cluster::new(cfg.clone()).run_with(&serial_exec());
        assert_eq!(cluster_json(&serial).to_string(), golden, "{name}, serial");
        std::env::set_var("PROTEAN_JOBS", "4");
        let pooled = Cluster::new(cfg).run_with(&pool_exec());
        std::env::remove_var("PROTEAN_JOBS");
        assert_eq!(
            cluster_json(&pooled).to_string(),
            golden,
            "{name}, 4 workers"
        );
    }
}
