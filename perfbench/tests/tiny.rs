//! The benchmark's own checks, on tiny inputs: every named metric is
//! printed with its unit, each workload's digest repeats, and the fleet's
//! digest does not depend on the pool's worker count.

use std::process::Command;

use perfbench::{layer_metrics, trace, Prepared, Size, Workload, END_TO_END, PER_LAYER};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Runs the benchmark binary on tiny inputs and returns its stdout.
fn run_binary(workload: Workload, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "3",
            "--seconds",
            "0",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"])
        .output()
        .expect("run the benchmark binary");
    assert!(out.status.success(), "{out:?}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// Asserts the last stdout line is the result object and that it holds
/// exactly `expected` metrics, each with its unit.
fn assert_result_line(stdout: &str, expected: &[(&str, &str)]) {
    let last = stdout.lines().last().expect("some output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    for (name, unit) in expected {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing: {last}"));
        let rest = &last[at + key.len()..];
        let value = rest.split(',').next().expect("a value");
        assert!(value.parse::<f64>().is_ok(), "{name} = {value}");
        assert!(
            rest.starts_with(&format!("{value}, \"unit\": \"{unit}\"}}")),
            "{name} unit: {rest}"
        );
    }
    assert_eq!(last.matches("\"unit\"").count(), expected.len(), "{last}");
}

#[test]
fn every_named_metric_is_printed_with_its_unit() {
    for w in Workload::ALL {
        assert_result_line(&run_binary(w, false), &END_TO_END);
        let traced = run_binary(w, true);
        assert_result_line(&traced, PER_LAYER);
        assert!(traced.contains("span self time"), "{traced}");
    }
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(
            BENCHMARK_JSON.contains(&entry),
            "{entry} not in BENCHMARK.json"
        );
    }
    assert_eq!(
        BENCHMARK_JSON.matches("\"unit\"").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
    for w in Workload::ALL {
        let entry = format!("{{\"name\": \"{}\", \"why\": ", w.name());
        assert!(BENCHMARK_JSON.contains(&entry), "{entry}");
    }
}

#[test]
fn layer_metrics_are_all_declared() {
    for w in Workload::ALL {
        let p = Prepared::new(w, 4, Size::Tiny);
        trace::start(0);
        let o = p.run(1);
        let spans = trace::finish();
        assert!(!spans.is_empty(), "{w:?} recorded no spans");
        for m in layer_metrics(&spans, &o) {
            assert!(
                PER_LAYER.contains(&(m.name, m.unit)),
                "{w:?}: {} ({}) is not declared",
                m.name,
                m.unit
            );
        }
        assert!(o.wall_s > 0.0 && o.setup_s > 0.0, "{w:?}: {o:?}");
    }
}

#[test]
fn digests_repeat_across_runs() {
    for w in [Workload::Colo, Workload::Toolchain] {
        let p = Prepared::new(w, 5, Size::Tiny);
        assert_eq!(p.run(1).digest, p.run(1).digest, "{w:?}");
    }
}

#[test]
fn fleet_digest_is_the_same_at_one_and_two_workers() {
    let p = Prepared::new(Workload::Fleet, 6, Size::Tiny);
    let one = p.run(1).digest;
    assert_eq!(one, p.run(2).digest);
    assert_eq!(one, p.run(1).digest);
}

#[test]
fn inputs_depend_only_on_the_seed() {
    for w in Workload::ALL {
        let a = format!("{:?}", Prepared::new(w, 9, Size::Full));
        assert_eq!(a, format!("{:?}", Prepared::new(w, 9, Size::Full)));
        assert_ne!(
            a,
            format!("{:?}", Prepared::new(w, 10, Size::Full)),
            "{w:?}"
        );
    }
}
