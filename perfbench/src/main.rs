//! Benchmark command line.
//!
//! ```text
//! perfbench --workload <colo|fleet|toolchain> --seed <n> --seconds <s> --trace <0|1> [--size tiny]
//! ```
//!
//! Runs iterations of the workload until `--seconds` have passed (at
//! least [`MIN_TIMED`] timed ones), checks that every iteration produced
//! the same output digest (and the recorded one, for recorded seeds), and
//! prints a table followed by one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` untraced and traced
//! iterations alternate and the metrics are the per-layer ones, medians
//! over the traced iterations, plus the tracing overhead. The traced run
//! also writes every span to `perfbench/out/`.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::{
    layer_metrics, median, peak_rss_mib, trace, Metric, Prepared, Size, Workload, END_TO_END,
};

/// Timed iterations every run makes, however short `--seconds` is.
const MIN_TIMED: usize = 3;
/// Pool workers of the timed fleet iterations.
const FLEET_WORKERS: usize = 2;
/// Recorded output digests: `<workload> <seed> <role> <digest>`.
const EXPECTED: &str = include_str!("../expected_digests.txt");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{k}`"))?
            .to_string();
        let v = it.next().ok_or_else(|| format!("`{k}` needs a value"))?;
        kv.insert(key, v);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not `{t}`")),
    };
    let size = match kv.get("size").map(String::as_str) {
        None | Some("full") => Size::Full,
        Some("tiny") => Size::Tiny,
        Some(s) => return Err(format!("--size must be full or tiny, not `{s}`")),
    };
    if let Some(extra) = kv
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace", "size"].contains(&k.as_str()))
    {
        return Err(format!("unknown option --{extra}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        size,
    })
}

fn expected_digest(workload: Workload, seed: u64) -> Option<u64> {
    EXPECTED
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() == 4 && f[0] == workload.name() && f[1].parse() == Ok(seed))
                .then(|| u64::from_str_radix(f[3], 16).expect("digest is hex"))
        })
}

/// One finished iteration.
struct Iter {
    outcome: perfbench::Outcome,
    /// Whether `wall_s` counts (the fleet's one-worker reference does not).
    timed: bool,
    /// Spans, for traced iterations.
    spans: Option<Vec<trace::Span>>,
    /// Host seconds of the whole iteration, checks included.
    elapsed: f64,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <colo|fleet|toolchain> --seed <n> --seconds <s> --trace <0|1> [--size tiny]"
            );
            return ExitCode::from(2);
        }
    };
    let prepared = Prepared::new(args.workload, args.seed, args.size);
    let t0 = Instant::now();
    let mut iters: Vec<Iter> = Vec::new();
    let mut run_id = 0u32;
    let fleet = args.workload == Workload::Fleet;
    loop {
        let timed = |it: &[Iter], traced: bool| {
            it.iter()
                .filter(|i| i.timed && i.spans.is_some() == traced)
                .count()
        };
        let done = t0.elapsed().as_secs_f64() >= args.seconds
            && timed(&iters, false) >= MIN_TIMED
            && (!args.trace || timed(&iters, true) >= MIN_TIMED);
        if done {
            break;
        }
        // The fleet's first iteration is the one-worker reference.
        let reference = fleet && iters.is_empty();
        let workers = if reference { 1 } else { FLEET_WORKERS };
        // Traced runs alternate untraced and traced iterations.
        let traced = args.trace && !reference && timed(&iters, false) > timed(&iters, true);
        if traced {
            trace::start(run_id);
        }
        let t_iter = Instant::now();
        let outcome = prepared.run(workers);
        let elapsed = t_iter.elapsed().as_secs_f64();
        let spans = traced.then(trace::finish);
        println!(
            "iteration {run_id}: setup_s {:.6} wall_s {:.6} workers {workers}{}{}",
            outcome.setup_s,
            outcome.wall_s,
            if traced { " traced" } else { "" },
            if reference {
                " (reference, untimed)"
            } else {
                ""
            },
        );
        run_id += 1;
        iters.push(Iter {
            outcome,
            timed: !reference,
            spans,
            elapsed,
        });
    }

    let first = iters[0].outcome.digest;
    let expected = (args.size == Size::Full)
        .then(|| expected_digest(args.workload, args.seed))
        .flatten();
    let reference = expected.unwrap_or(first);
    let failed = iters
        .iter()
        .filter(|i| i.outcome.digest != reference)
        .count();
    let correct = failed == 0;
    println!(
        "workload {} seed {} iterations {} digest {first:016x} ({})",
        args.workload.name(),
        args.seed,
        iters.len(),
        match expected {
            Some(e) if e == first => "matches the recorded digest".to_string(),
            Some(e) => format!("MISMATCH: recorded {e:016x}"),
            None => "no recorded digest for this seed; checked across iterations".to_string(),
        }
    );
    if fleet {
        println!(
            "fleet 1-worker vs {FLEET_WORKERS}-worker digests {}",
            if iters.iter().all(|i| i.outcome.digest == first) {
                "identical"
            } else {
                "DIFFER"
            }
        );
    }

    let untraced: Vec<&Iter> = iters.iter().filter(|i| i.spans.is_none()).collect();
    let timed_untraced: Vec<f64> = untraced
        .iter()
        .filter(|i| i.timed)
        .map(|i| i.outcome.wall_s)
        .collect();
    let wall_s = median(&timed_untraced);
    let setup_s = median(
        &untraced
            .iter()
            .map(|i| i.outcome.setup_s)
            .collect::<Vec<_>>(),
    );
    let e2e = [wall_s, setup_s, peak_rss_mib()];
    println!(
        "\nend-to-end (median of {} timed iterations)",
        timed_untraced.len()
    );
    for ((name, unit), v) in END_TO_END.iter().zip(e2e) {
        println!("  {name:<28} {v:>14.6} {unit}");
    }
    for m in median_metrics(
        untraced
            .iter()
            .filter(|i| i.timed)
            .map(|i| i.outcome.figures.clone()),
    ) {
        println!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }

    let metrics: Vec<(String, f64, String)> = if args.trace {
        let traced: Vec<&Iter> = iters.iter().filter(|i| i.spans.is_some()).collect();
        let all_spans: Vec<trace::Span> = traced
            .iter()
            .flat_map(|i| i.spans.clone().unwrap_or_default())
            .collect();
        write_spans(args.workload, args.seed, &all_spans);
        print_self_times(&traced);
        let traced_wall = median(&traced.iter().map(|i| i.outcome.wall_s).collect::<Vec<_>>());
        let mut layers = median_metrics(
            traced
                .iter()
                .map(|i| layer_metrics(i.spans.as_deref().unwrap_or_default(), &i.outcome)),
        );
        layers.push(perfbench::metric(
            "trace.overhead_s",
            traced_wall - wall_s,
            "s",
        ));
        layers.push(perfbench::metric(
            "trace.spans",
            all_spans.len() as f64 / traced.len() as f64,
            "count",
        ));
        println!(
            "\nper-layer (median of {} traced iterations; traced wall_s {traced_wall:.6} s vs untraced {wall_s:.6} s)",
            traced.len()
        );
        let values: BTreeMap<&str, &Metric> = layers.iter().map(|m| (m.name, m)).collect();
        perfbench::PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = values.get(name).map_or(0.0, |m| m.value);
                println!("  {name:<28} {v:>14.6} {unit}");
                (name.to_string(), v, unit.to_string())
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit.to_string()))
            .collect()
    };

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        iters.len(),
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// A finite JSON number with every digit Rust prints for `v`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Element-wise medians of equally shaped metric lists.
fn median_metrics(lists: impl Iterator<Item = Vec<Metric>>) -> Vec<Metric> {
    let lists: Vec<Vec<Metric>> = lists.collect();
    let Some(first) = lists.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(k, m)| {
            let vals: Vec<f64> = lists.iter().map(|l| l[k].value).collect();
            perfbench::metric(m.name, median(&vals), m.unit)
        })
        .collect()
}

fn print_self_times(traced: &[&Iter]) {
    let mut table: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
    let mut wall = 0.0;
    for it in traced {
        wall += it.elapsed;
        for (k, (n, total, own)) in trace::self_times(it.spans.as_deref().unwrap_or_default()) {
            let e = table.entry(k).or_default();
            e.0 += n;
            e.1 += total;
            e.2 += own;
        }
    }
    println!(
        "\nspan self time, summed over {} traced iterations ({wall:.3} s in all; self% is of that)",
        traced.len()
    );
    println!(
        "  {:<36} {:>8} {:>11} {:>11} {:>7}",
        "span", "calls", "total_s", "self_s", "self%"
    );
    let mut rows: Vec<_> = table.into_iter().collect();
    rows.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2));
    for (k, (n, total, own)) in rows {
        println!(
            "  {k:<36} {n:>8} {total:>11.4} {own:>11.4} {:>6.1}%",
            100.0 * perfbench::ratio(own, wall)
        );
    }
}

fn write_spans(workload: Workload, seed: u64, spans: &[trace::Span]) {
    let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let path = dir.join(format!("spans-{}-{seed}.jsonl", workload.name()));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, trace::jsonl(spans))) {
        Ok(()) => println!("\n{} spans written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
