//! End-to-end and per-layer host-time benchmark for the Protean Code
//! reproduction.
//!
//! Three workloads drive the repository's crates through their public
//! APIs only:
//!
//! - [`colo`]: one co-located server (web-search next to a protean batch
//!   app under PC3D) over a long simulated span with seeded load steps;
//! - [`fleet`]: the discrete-event warehouse (a jobs-mode cluster, a
//!   pinned co-located fleet and a consolidating LS-only fleet);
//! - [`toolchain`]: the `pcc` compile, the `pir` analyses and the
//!   `protean` gate over every catalog entry.
//!
//! Each workload is split into *inputs* (generated from the seed and
//! nothing else), *set-up* (build, compile, calibrate, attach) and the
//! *timed* part. Every iteration returns an [`Outcome`]: host times, a
//! digest of the simulated outputs, the workload's own end-to-end figures
//! and per-layer counts. Layer host times come from [`trace`] spans
//! recorded around the calls the workloads make.

pub mod colo;
pub mod fleet;
pub mod toolchain;
pub mod trace;

use std::fmt::Write as _;

/// One named value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `count`, `share`.
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result of one iteration of a workload.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Host seconds spent building inputs into a runnable state.
    pub setup_s: f64,
    /// Host seconds of the timed part.
    pub wall_s: f64,
    /// Digest of every simulated output the iteration checks.
    pub digest: u64,
    /// The workload's own end-to-end figures (throughputs and simulated
    /// results), printed in the run's table.
    pub figures: Vec<Metric>,
    /// Per-layer counts and ratios read from the crates' public counters.
    pub counts: Vec<Metric>,
    /// Simulated instructions retired in PC3D windows classed as steady
    /// (colo only; zero elsewhere).
    pub steady_insts: u64,
}

/// Workload sizes: `Full` is what the benchmark measures, `Tiny` keeps the
/// same code paths small enough for unit tests.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few host seconds per iteration, for tests.
    Tiny,
}

/// The benchmark's workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One co-located server under PC3D.
    Colo,
    /// The discrete-event warehouse.
    Fleet,
    /// Compile, analyses and gate over the catalog.
    Toolchain,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [Workload::Colo, Workload::Fleet, Workload::Toolchain];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Colo => "colo",
            Workload::Fleet => "fleet",
            Workload::Toolchain => "toolchain",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A prepared workload: inputs generated from one seed, ready to run any
/// number of iterations.
#[derive(Debug)]
pub enum Prepared {
    /// See [`colo::Inputs`].
    Colo(colo::Inputs),
    /// See [`fleet::Inputs`].
    Fleet(fleet::Inputs),
    /// See [`toolchain::Inputs`].
    Toolchain(toolchain::Inputs),
}

impl Prepared {
    /// Generates the inputs of `workload` from `seed`.
    pub fn new(workload: Workload, seed: u64, size: Size) -> Prepared {
        match workload {
            Workload::Colo => Prepared::Colo(colo::inputs(seed, size)),
            Workload::Fleet => Prepared::Fleet(fleet::inputs(seed, size)),
            Workload::Toolchain => Prepared::Toolchain(toolchain::inputs(seed, size)),
        }
    }

    /// Runs one iteration. `workers` is the fleet's pool size (ignored by
    /// the single-threaded workloads).
    pub fn run(&self, workers: usize) -> Outcome {
        match self {
            Prepared::Colo(i) => colo::run(i),
            Prepared::Fleet(i) => fleet::run(i, workers),
            Prepared::Toolchain(i) => toolchain::run(i),
        }
    }
}

/// End-to-end metrics with their units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics measured as total span time: `(metric, span name,
/// span tag)`. Every workload reports every entry; a layer the workload
/// does not call reads zero.
pub const SPAN_METRICS: &[(&str, &str, Option<&str>)] = &[
    ("workloads.build_s", "workloads.build", None),
    ("pcc.compile_s", "pcc.compile", None),
    ("pcc.validated_compile_s", "pcc.compile_validated", None),
    ("pir.lint_s", "pir.lint_module", None),
    ("pir.certify_s", "pir.certify_module", None),
    ("pir.equiv_s", "pir.check_module", None),
    ("pir.osr_prove_s", "pir.prove_osr_transfer", None),
    ("protean.attach_s", "protean.attach", None),
    ("protean.vet_s", "protean.vet_variant", None),
    ("protean.compile_variant_s", "protean.compile_variant", None),
    ("protean.dispatch_s", "protean.dispatch", None),
    ("pc3d.search_window_s", "pc3d.run_window", Some("search")),
    ("datacenter.new_s", "datacenter.new", None),
    ("datacenter.run_s", "datacenter.run_with", None),
    ("datacenter.exec_s", "datacenter.exec", None),
];

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. A
/// traced run prints all of them for every workload; a layer the
/// workload does not exercise reads zero.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("pcc.compile_s", "s"),
    ("pcc.validated_compile_s", "s"),
    ("pir.lint_s", "s"),
    ("pir.certify_s", "s"),
    ("pir.equiv_s", "s"),
    ("pir.osr_prove_s", "s"),
    ("pir.ir_insts", "count"),
    ("pir.certified_points", "count"),
    ("pir.osr_recipes", "count"),
    ("protean.attach_s", "s"),
    ("protean.vet_s", "s"),
    ("protean.compile_variant_s", "s"),
    ("protean.dispatch_s", "s"),
    ("protean.compilations", "count"),
    ("protean.compile_cycles", "cycles"),
    ("protean.gate_rejected", "count"),
    ("protean.verdict_hit_ratio", "share"),
    ("machine.ns_per_sim_inst", "ns"),
    ("machine.decoded_hit_ratio", "share"),
    ("machine.decoded_invalidations", "count"),
    ("machine.fused_ops", "count"),
    ("machine.llc_miss_ratio", "share"),
    ("simos.idle_skip_share", "share"),
    ("pc3d.window_ms_p50", "ms"),
    ("pc3d.window_ms_p99", "ms"),
    ("pc3d.search_windows", "count"),
    ("pc3d.search_window_s", "s"),
    ("pc3d.steady_windows", "count"),
    ("pc3d.searches", "count"),
    ("pc3d.resets", "count"),
    ("datacenter.new_s", "s"),
    ("datacenter.run_s", "s"),
    ("datacenter.exec_s", "s"),
    ("datacenter.exec_share", "share"),
    ("datacenter.serial_s", "s"),
    ("datacenter.events", "count"),
    ("datacenter.slices", "count"),
    ("datacenter.us_per_event", "us"),
    ("pool.workers", "count"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

/// Per-layer metrics derived from one traced iteration's spans plus its
/// counts. [`PER_LAYER`] fixes the order they are printed in.
pub fn layer_metrics(spans: &[trace::Span], o: &Outcome) -> Vec<Metric> {
    let mut out: Vec<Metric> = SPAN_METRICS
        .iter()
        .map(|&(name, span, tag)| metric(name, trace::total(spans, span, tag), "s"))
        .collect();
    let run_s = trace::total(spans, "datacenter.run_with", None);
    let exec_s = trace::total(spans, "datacenter.exec", None);
    let events = o
        .counts
        .iter()
        .find(|m| m.name == "datacenter.events")
        .map_or(0.0, |m| m.value);
    out.push(metric(
        "datacenter.exec_share",
        ratio(exec_s, run_s),
        "share",
    ));
    out.push(metric("datacenter.serial_s", run_s - exec_s, "s"));
    out.push(metric(
        "datacenter.us_per_event",
        ratio(run_s * 1e6, events),
        "us",
    ));
    let steady_s = trace::total(spans, "pc3d.run_window", Some("steady"));
    out.push(metric(
        "machine.ns_per_sim_inst",
        ratio(steady_s * 1e9, o.steady_insts as f64),
        "ns",
    ));
    let mut windows: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "pc3d.run_window" && s.tag != "warmup")
        .map(|s| s.secs() * 1e3)
        .collect();
    windows.sort_by(f64::total_cmp);
    out.push(metric("pc3d.window_ms_p50", quantile(&windows, 0.50), "ms"));
    out.push(metric("pc3d.window_ms_p99", quantile(&windows, 0.99), "ms"));
    out.extend(o.counts.iter().cloned());
    out
}

/// `num / den`, or zero when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank quantile of sorted values (zero when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// SplitMix64: the benchmark's input generator. Only the seed decides
/// what it produces.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * u
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over everything written to it: the output digest.
#[derive(Clone, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a string in, followed by a separator.
    pub fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    /// Folds the `Debug` rendering of `v` in. Floats render exactly
    /// (shortest round-trip form), so equal digests mean equal values.
    pub fn debug<T: std::fmt::Debug>(&mut self, v: &T) {
        let mut s = String::new();
        let _ = write!(s, "{v:?}");
        self.text(&s);
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_pure_function_of_the_seed() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(5, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r = Rng::new(5, 1);
        let mut s = Rng::new(5, 2);
        assert_ne!(r.next_u64(), s.next_u64());
        let u = Rng::new(9, 0).uniform(2.0, 3.0);
        assert!((2.0..3.0).contains(&u));
    }

    #[test]
    fn statistics_helpers() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.99), 4.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn digest_separates_fields() {
        let mut a = Digest::default();
        a.text("ab");
        a.text("c");
        let mut b = Digest::default();
        b.text("a");
        b.text("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
