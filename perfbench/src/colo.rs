//! `colo`: one co-located server under PC3D.
//!
//! web-search (plain build) serves its operating load on core 0; a
//! protean batch app runs on core 1 with its `Runtime` and the PC3D
//! controller charged to core 2. The benchmark drives
//! [`Pc3d::run_window`] itself. Each iteration runs all three batch apps
//! (milc, libquantum, soplex) one after another, so the work mix is the
//! same at every seed; the seed decides their order and each pair's
//! stepped load schedule (high → low → high, step times and levels
//! jittered). Load steps force PC3D re-searches, so variant compiles, the
//! dispatch gate and EVT patches run next to the steady windows.
//!
//! Set-up (timed as `setup_s`) builds and compiles the programs,
//! calibrates the service's capacity and each app's solo progress rate,
//! attaches the runtime and warms the simulated caches and the controller
//! (its first search) before the timed span starts.

use std::time::Instant;

use pc3d::{Pc3d, Pc3dConfig};
use pcc::{Compiler, Options};
use protean::{ExtMonitor, Runtime, RuntimeConfig};
use simos::{LoadSchedule, Os, Pid};
use visa::Image;
use workloads::catalog;

use crate::trace::{self, span};
use crate::{metric, ratio, Digest, Outcome, Rng, Size};

/// The latency-sensitive co-runner.
pub const SERVICE: &str = "web-search";
/// The batch apps every iteration runs.
pub const BATCH_APPS: [&str; 3] = ["milc", "libquantum", "soplex"];

/// One (batch app, load schedule) pair. Levels are fractions of the
/// service's operating load; times are simulated seconds after warm-up.
#[derive(Clone, Debug, PartialEq)]
pub struct Pair {
    /// Batch app on core 1.
    pub app: &'static str,
    /// Load before the first and after the second step.
    pub high: f64,
    /// Load between the steps.
    pub low: f64,
    /// Time of the step down.
    pub t_low: f64,
    /// Time of the step back up.
    pub t_high: f64,
}

/// Generated inputs of one `colo` run.
#[derive(Clone, Debug, PartialEq)]
pub struct Inputs {
    /// The pairs, in run order.
    pub pairs: Vec<Pair>,
    /// Simulated seconds of warm-up before timing (set-up).
    pub warmup_secs: f64,
    /// Simulated seconds timed per pair.
    pub span_secs: f64,
    /// Simulated seconds of each solo calibration.
    pub calibrate_secs: f64,
}

/// Generates the inputs for `seed`.
pub fn inputs(seed: u64, size: Size) -> Inputs {
    let mut rng = Rng::new(seed, 1);
    let (warmup_secs, span_secs, calibrate_secs) = match size {
        Size::Full => (30.0, 400.0, 4.0),
        Size::Tiny => (4.0, 12.0, 1.0),
    };
    let mut apps = BATCH_APPS.to_vec();
    for i in (1..apps.len()).rev() {
        apps.swap(i, rng.below(i + 1));
    }
    let pairs = apps
        .into_iter()
        .map(|app| Pair {
            app,
            high: rng.uniform(0.97, 1.03),
            low: rng.uniform(0.45, 0.55),
            t_low: span_secs * rng.uniform(0.30, 0.38),
            t_high: span_secs * rng.uniform(0.62, 0.70),
        })
        .collect();
    Inputs {
        pairs,
        warmup_secs,
        span_secs,
        calibrate_secs,
    }
}

fn build_and_compile(name: &str, llc_lines: u64, opts: Options) -> Image {
    let m = span("workloads.build", || catalog::build(name, llc_lines))
        .unwrap_or_else(|| panic!("catalog entry {name}"));
    span("pcc.compile", || Compiler::new(opts).compile(&m))
        .unwrap_or_else(|e| panic!("compile {name}: {e}"))
        .image
}

fn advance(os: &mut Os, secs: f64) {
    let _g = trace::enter("simos.advance");
    os.advance_seconds(secs);
}

// The two calibrations below mirror `protean_bench::server_capacity_qps`
// and `solo_batch_bps`, but reuse the image set-up already compiled and
// are never memoized, so every iteration pays its whole set-up.

/// Saturated-load queries per simulated second of the service alone.
fn capacity_qps(image: &Image, secs: f64) -> f64 {
    let mut os = Os::new(protean_bench::experiment_os());
    let pid = os.spawn(image, 0);
    os.set_load(pid, LoadSchedule::constant(1e9));
    advance(&mut os, secs * 0.25);
    let start = os.app_metric(pid, 0);
    advance(&mut os, secs);
    (os.app_metric(pid, 0) - start) as f64 / secs
}

/// Branches per simulated second of a batch app alone.
fn solo_bps(image: &Image, secs: f64) -> f64 {
    let mut os = Os::new(protean_bench::experiment_os());
    let pid = os.spawn(image, 0);
    advance(&mut os, secs * 0.2);
    let mut mon = ExtMonitor::new(&os, pid);
    advance(&mut os, secs);
    mon.end_window(&os).bps
}

/// Running totals over the timed windows of all pairs.
#[derive(Default)]
struct Totals {
    wall_s: f64,
    setup_s: f64,
    sim_secs: f64,
    insts: u64,
    steady_insts: u64,
    steady_windows: u64,
    violations: u64,
    search_windows: u64,
    searches: u64,
    resets: u64,
    utilization: f64,
    compilations: u64,
    compile_cycles: u64,
    gate_rejected: u64,
    verdict_hits: u64,
    verdict_lookups: u64,
    decoded_hits: u64,
    decoded_lookups: u64,
    decoded_invalidations: u64,
    fused_ops: u64,
    llc_hits: u64,
    llc_misses: u64,
}

fn insts(os: &Os, pids: [Pid; 2]) -> u64 {
    pids.iter().map(|&p| os.counters(p).instructions).sum()
}

/// Runs one iteration.
pub fn run(inputs: &Inputs) -> Outcome {
    let t_setup = Instant::now();
    let cfg = protean_bench::experiment_os();
    let llc = protean_bench::llc_lines(&cfg);
    let service = build_and_compile(SERVICE, llc, Options::plain());
    let operating_qps = 0.85 * capacity_qps(&service, inputs.calibrate_secs);
    let mut totals = Totals {
        setup_s: t_setup.elapsed().as_secs_f64(),
        ..Totals::default()
    };
    let mut digest = Digest::default();
    for pair in &inputs.pairs {
        run_pair(
            inputs,
            pair,
            &service,
            operating_qps,
            &mut totals,
            &mut digest,
        );
    }
    let t = &totals;
    let n = inputs.pairs.len() as f64;
    Outcome {
        setup_s: t.setup_s,
        wall_s: t.wall_s,
        digest: digest.finish(),
        figures: vec![
            metric(
                "sim_minsts_per_s",
                ratio(t.insts as f64 / 1e6, t.wall_s),
                "Minst/s",
            ),
            metric("sim_server_s_per_s", ratio(t.sim_secs, t.wall_s), "1/s"),
            metric("utilization", t.utilization / n, "share"),
            metric(
                "qos_violation_rate",
                ratio(t.violations as f64, t.steady_windows as f64),
                "share",
            ),
        ],
        counts: vec![
            metric("protean.compilations", t.compilations as f64, "count"),
            metric("protean.compile_cycles", t.compile_cycles as f64, "cycles"),
            metric("protean.gate_rejected", t.gate_rejected as f64, "count"),
            metric(
                "protean.verdict_hit_ratio",
                ratio(t.verdict_hits as f64, t.verdict_lookups as f64),
                "share",
            ),
            metric(
                "machine.decoded_hit_ratio",
                ratio(t.decoded_hits as f64, t.decoded_lookups as f64),
                "share",
            ),
            metric(
                "machine.decoded_invalidations",
                t.decoded_invalidations as f64,
                "count",
            ),
            metric("machine.fused_ops", t.fused_ops as f64, "count"),
            metric(
                "machine.llc_miss_ratio",
                ratio(t.llc_misses as f64, (t.llc_hits + t.llc_misses) as f64),
                "share",
            ),
            metric("pc3d.search_windows", t.search_windows as f64, "count"),
            metric("pc3d.searches", t.searches as f64, "count"),
            metric("pc3d.resets", t.resets as f64, "count"),
            metric("pc3d.steady_windows", t.steady_windows as f64, "count"),
        ],
        steady_insts: t.steady_insts,
    }
}

fn run_pair(
    inputs: &Inputs,
    pair: &Pair,
    service: &Image,
    operating_qps: f64,
    t: &mut Totals,
    digest: &mut Digest,
) {
    let t_setup = Instant::now();
    let cfg = protean_bench::experiment_os();
    let llc = protean_bench::llc_lines(&cfg);
    let host_img = build_and_compile(pair.app, llc, Options::protean());
    let plain_img = build_and_compile(pair.app, llc, Options::plain());
    let solo = solo_bps(&plain_img, inputs.calibrate_secs);
    let mut os = Os::new(cfg);
    let ext = os.spawn(service, 0);
    let host = os.spawn(&host_img, 1);
    let w = inputs.warmup_secs;
    os.set_load(
        ext,
        LoadSchedule::steps(vec![
            (0.0, pair.high * operating_qps),
            (w + pair.t_low, pair.low * operating_qps),
            (w + pair.t_high, pair.high * operating_qps),
        ]),
    );
    let rt = span("protean.attach", || {
        Runtime::attach(&os, host, RuntimeConfig::on_core(2))
    })
    .expect("attach the runtime to the protean host");
    let pc3d = Pc3dConfig::default();
    let qos_floor = pc3d.qos_target - pc3d.qos_epsilon;
    let mut ctl = span("pc3d.new", || Pc3d::new(&mut os, rt, ext, pc3d));
    while os.now_seconds() < w {
        let g = trace::enter("pc3d.run_window");
        g.tag("warmup");
        ctl.run_window(&mut os);
    }
    t.setup_s += t_setup.elapsed().as_secs_f64();

    let pids = [ext, host];
    let end = w + inputs.span_secs;
    let t0_sim = os.now_seconds();
    let insts0 = insts(&os, pids);
    let searches0 = ctl.searches();
    let branches0 = os.counters(host).branches;
    let before: Vec<_> = pids.iter().map(|&p| os.counters(p)).collect();
    let dec0: Vec<_> = pids.iter().map(|&p| os.decode_stats(p)).collect();
    let t_run = Instant::now();
    while os.now_seconds() < end {
        let g = trace::enter("pc3d.run_window");
        let (s0, c0, i0) = (
            ctl.searches(),
            ctl.runtime().compilations(),
            insts(&os, pids),
        );
        ctl.run_window(&mut os);
        let retired = insts(&os, pids) - i0;
        if ctl.searches() == s0 && ctl.runtime().compilations() == c0 {
            g.tag("steady");
            t.steady_windows += 1;
            t.steady_insts += retired;
            let rec = ctl.history().last().expect("a window was recorded");
            t.violations += u64::from(rec.qos < qos_floor);
        } else {
            g.tag("search");
            t.search_windows += 1;
        }
    }
    t.wall_s += t_run.elapsed().as_secs_f64();

    let sim = os.now_seconds() - t0_sim;
    t.sim_secs += sim;
    t.insts += insts(&os, pids) - insts0;
    t.searches += ctl.searches() - searches0;
    let (re, rh) = ctl.resets();
    t.resets += re + rh;
    let host_bps = (os.counters(host).branches - branches0) as f64 / sim;
    t.utilization += ratio(host_bps, solo);
    let rt = ctl.runtime();
    t.compilations += rt.compilations();
    t.compile_cycles += rt.compile_cycles();
    t.gate_rejected += rt.rejected_dispatches();
    let gate = rt.gate_stats();
    t.verdict_hits += gate.verdict_cache_hits;
    t.verdict_lookups += gate.verdict_cache_hits + gate.verdict_cache_misses;
    for (i, &p) in pids.iter().enumerate() {
        let (c, d) = (os.counters(p), os.decode_stats(p));
        t.llc_hits += c.llc_hits - before[i].llc_hits;
        t.llc_misses += c.llc_misses - before[i].llc_misses;
        t.decoded_hits += d.hits - dec0[i].hits;
        t.decoded_lookups += d.hits + d.misses - dec0[i].hits - dec0[i].misses;
        t.decoded_invalidations += d.invalidations - dec0[i].invalidations;
        t.fused_ops += d.fused_ops - dec0[i].fused_ops;
    }

    digest.text(pair.app);
    digest.debug(&os.counters(ext));
    digest.debug(&os.counters(host));
    digest.debug(&ctl.history());
    digest.debug(&(rt.compile_cycles(), rt.compilations()));
}
