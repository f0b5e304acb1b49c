//! `fleet`: the discrete-event warehouse.
//!
//! Three clusters run per iteration: a jobs-mode cluster (Poisson
//! arrivals, co-location-aware placement, parking and reactivation), the
//! pinned co-located fleet and the consolidating LS-only fleet of Figs.
//! 17–18, both under diurnal load. The configurations are built from the
//! `datacenter` crate's public types the way `protean_bench::dc` builds
//! its scenarios. The seed is the cluster seed and decides the shapes'
//! phases, levels and burst pattern.
//!
//! Epoch advances fan out through the benchmark's own `SliceExec`, a
//! closure over `protean_bench::pool` with a fixed worker count. The
//! simulated result must not depend on it: [`run`] with one worker and
//! with two must give the same digest.
//!
//! Set-up (timed as `setup_s`) is the per-service capacity probe and the
//! three `Cluster::new` calls, which compile every image and calibrate
//! capacity. The clusters start cold: every server box is created during
//! the timed run, as a user of the simulator pays for it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use datacenter::cluster::{
    BatchMode, Cluster, ClusterConfig, ClusterResult, GroupSpec, Placement, SliceExec, SliceJob,
};
use datacenter::{QpsShape, LS_APPS, MIXES};
use protean_bench::dc::cluster_json;

use crate::trace::{self, span};
use crate::{metric, ratio, Digest, Outcome, Rng, Size};

/// Generated inputs of one `fleet` run.
#[derive(Clone, Debug, PartialEq)]
pub struct Inputs {
    /// Master seed of every cluster (placement and arrival draws).
    pub cluster_seed: u64,
    /// Seed of the jobs cluster's bursty shape.
    pub burst_seed: u64,
    /// Diurnal phase of each of the nine fleet groups and of the jobs
    /// cluster's diurnal group (last entry).
    pub phases: Vec<f64>,
    /// Fleet peak load, as a share of a group's aggregate capacity.
    pub peak: f64,
    /// Fleet trough load, as a share of a group's aggregate capacity.
    pub trough: f64,
    /// Servers per fleet group (nine groups per fleet).
    pub servers_per_group: usize,
    /// Simulated seconds of each fleet.
    pub duration_secs: f64,
    /// Servers per jobs-cluster group (two groups).
    pub jobs_servers: usize,
    /// Simulated seconds of the jobs cluster.
    pub jobs_secs: f64,
}

/// Generates the inputs for `seed`.
pub fn inputs(seed: u64, size: Size) -> Inputs {
    let mut rng = Rng::new(seed, 2);
    let groups = LS_APPS.len() * MIXES.len();
    let (servers_per_group, duration_secs, jobs_servers, jobs_secs) = match size {
        Size::Full => (12, 40.0, 6, 40.0),
        Size::Tiny => (1, 4.0, 2, 6.0),
    };
    Inputs {
        cluster_seed: rng.next_u64(),
        burst_seed: rng.next_u64(),
        phases: (0..=groups)
            .map(|g| (g as f64 / groups as f64 + rng.uniform(-0.03, 0.03)).rem_euclid(1.0))
            .collect(),
        peak: rng.uniform(0.57, 0.63),
        trough: rng.uniform(0.13, 0.17),
        servers_per_group,
        duration_secs,
        jobs_servers,
        jobs_secs,
    }
}

fn jobs_config(i: &Inputs) -> ClusterConfig {
    ClusterConfig {
        groups: vec![
            GroupSpec {
                name: "web-search/WL1".into(),
                ls_app: "web-search",
                mix: MIXES[0],
                servers: i.jobs_servers,
                shape: QpsShape::diurnal(i.jobs_secs, 80.0, 10.0, 1.0, i.phases[9], 1.0),
            },
            GroupSpec {
                name: "graph-analytics/WL2".into(),
                ls_app: "graph-analytics",
                mix: MIXES[1],
                servers: i.jobs_servers,
                shape: QpsShape::bursty(i.jobs_secs, 10.0, 60.0, 0.25, 1.0, i.burst_seed),
            },
        ],
        batch: BatchMode::Jobs {
            placement: Placement::ColocationAware,
            mean_interarrival_secs: 2.5,
        },
        duration_secs: i.jobs_secs,
        consolidate: true,
        min_active: 1,
        seed: i.cluster_seed,
        job_branches: 3_000,
        ..ClusterConfig::default()
    }
}

fn fleet_config(
    i: &Inputs,
    capacity: &[f64],
    batch: BatchMode,
    consolidate: bool,
) -> ClusterConfig {
    let mut groups = Vec::new();
    for (li, &ls_app) in LS_APPS.iter().enumerate() {
        for (mi, &mix) in MIXES.iter().enumerate() {
            let aggregate = capacity[li] * i.servers_per_group as f64;
            groups.push(GroupSpec {
                name: format!("{ls_app}/{}", mix.name),
                ls_app,
                mix,
                servers: i.servers_per_group,
                shape: QpsShape::diurnal(
                    i.duration_secs,
                    aggregate * i.peak,
                    aggregate * i.trough,
                    1.0,
                    i.phases[li * MIXES.len() + mi],
                    1.0,
                ),
            });
        }
    }
    ClusterConfig {
        groups,
        batch,
        duration_secs: i.duration_secs,
        consolidate,
        seed: i.cluster_seed,
        ..ClusterConfig::default()
    }
}

/// One server's measured capacity per LS service, probed the way the
/// scale-out experiment does.
fn capacities() -> Vec<f64> {
    LS_APPS
        .iter()
        .map(|&app| {
            let probe = span("datacenter.new", || {
                Cluster::new(ClusterConfig {
                    groups: vec![GroupSpec {
                        name: app.to_string(),
                        ls_app: app,
                        mix: MIXES[0],
                        servers: 1,
                        shape: QpsShape::constant(0.0),
                    }],
                    duration_secs: 1.0,
                    ..ClusterConfig::default()
                })
            });
            probe.capacity(app).expect("calibrated at construction")
        })
        .collect()
}

/// The benchmark's executor: `workers` pool threads, results in input
/// order. Counts the slices it runs.
fn pool_exec(workers: usize, slices: Arc<AtomicU64>) -> SliceExec {
    Box::new(move |jobs: Vec<SliceJob>| {
        let _g = trace::enter("datacenter.exec");
        slices.fetch_add(jobs.len() as u64, Ordering::Relaxed);
        let slots: Vec<Mutex<Option<SliceJob>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        protean_bench::pool::map_with(workers, &slots, |_, slot| {
            slot.lock()
                .expect("slice slot lock")
                .take()
                .expect("each slice runs once")
                .run()
        })
    })
}

/// Runs one iteration with `workers` pool threads.
pub fn run(inputs: &Inputs, workers: usize) -> Outcome {
    let t_setup = Instant::now();
    let capacity = capacities();
    let configs = [
        jobs_config(inputs),
        fleet_config(inputs, &capacity, BatchMode::Pinned, false),
        fleet_config(inputs, &capacity, BatchMode::None, true),
    ];
    let clusters: Vec<Cluster> = configs
        .iter()
        .map(|c| span("datacenter.new", || Cluster::new(c.clone())))
        .collect();
    let setup_s = t_setup.elapsed().as_secs_f64();

    let slices = Arc::new(AtomicU64::new(0));
    let exec = pool_exec(workers, slices.clone());
    let t_run = Instant::now();
    let results: Vec<ClusterResult> = clusters
        .into_iter()
        .map(|c| span("datacenter.run_with", || c.run_with(&exec)))
        .collect();
    let wall_s = t_run.elapsed().as_secs_f64();

    let mut digest = Digest::default();
    for r in &results {
        digest.text(&cluster_json(r).to_string());
    }
    let groups = || results.iter().flat_map(|r| r.groups.iter());
    let server_secs: f64 = results
        .iter()
        .map(|r| r.groups.iter().map(|g| g.servers).sum::<usize>() as f64 * r.duration_secs)
        .sum();
    let skipped: u64 = groups().map(|g| g.idle_skipped_cycles).sum();
    let lifetime: u64 = groups().map(|g| g.lifetime_cycles).sum();
    let counter = |name: &str| -> u64 {
        results
            .iter()
            .map(|r| r.snapshot.counters.get(name).copied().unwrap_or(0))
            .sum()
    };
    let hits = counter("gate.verdict_cache_hits");
    let lookups = hits + counter("gate.verdict_cache_misses");
    Outcome {
        setup_s,
        wall_s,
        digest: digest.finish(),
        figures: vec![
            metric("sim_server_s_per_s", ratio(server_secs, wall_s), "1/s"),
            metric(
                "qos_violations",
                groups().map(|g| g.qos_violations).sum::<u64>() as f64,
                "count",
            ),
            metric(
                "queries",
                results.iter().map(|r| r.queries.max(0)).sum::<i64>() as f64,
                "count",
            ),
            metric(
                "jobs_completed",
                results.iter().map(|r| r.jobs_completed).sum::<u64>() as f64,
                "count",
            ),
        ],
        counts: vec![
            metric(
                "protean.compilations",
                counter("compile.count") as f64,
                "count",
            ),
            metric(
                "protean.compile_cycles",
                counter("compile.cycles") as f64,
                "cycles",
            ),
            metric(
                "protean.gate_rejected",
                counter("gate.rejected_dispatches") as f64,
                "count",
            ),
            metric(
                "protean.verdict_hit_ratio",
                ratio(hits as f64, lookups as f64),
                "share",
            ),
            metric(
                "simos.idle_skip_share",
                ratio(skipped as f64, lifetime as f64),
                "share",
            ),
            metric(
                "datacenter.events",
                results.iter().map(|r| r.events).sum::<u64>() as f64,
                "count",
            ),
            metric(
                "datacenter.slices",
                slices.load(Ordering::Relaxed) as f64,
                "count",
            ),
            metric("pool.workers", workers as f64, "count"),
        ],
        steady_insts: 0,
    }
}
