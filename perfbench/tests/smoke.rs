//! Smoke test of the benchmark harness at tiny input sizes: every
//! workload runs once untraced and once traced, passes its output
//! checks, and reports every metric `BENCHMARK.json` names, finite.

use perfbench::{run, Config, Scale, END_TO_END, PER_LAYER, WORKLOADS};

fn tiny(trace: bool) -> Config {
    Config {
        seed: 3,
        seconds: 0.05,
        trace,
        scale: Scale::Tiny,
    }
}

#[test]
fn every_workload_reports_every_metric() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let out = run(workload, &tiny(trace)).expect("a known workload runs");
            assert!(
                out.correct,
                "{workload} (trace {trace}): {:?}",
                out.problems
            );
            assert!(out.attempted > 0, "{workload}: nothing attempted");
            assert_eq!(out.failed, 0, "{workload}: operations failed");
            let expected: Vec<(&str, &str)> = if trace {
                PER_LAYER.to_vec()
            } else {
                END_TO_END.to_vec()
            };
            let reported: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.0, m.2)).collect();
            assert_eq!(reported, expected, "{workload} (trace {trace})");
            for (name, value, _) in &out.metrics {
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                assert!(
                    trace || *value > 0.0,
                    "{workload}: end-to-end {name} must never be 0"
                );
            }
            let line = out.json();
            assert!(
                line.starts_with("{\"correct\":true,\"attempted\":"),
                "{line}"
            );
            assert_eq!(line.matches("\"value\":").count(), expected.len());
            if trace {
                let coverage = out
                    .metrics
                    .iter()
                    .find(|m| m.0 == "trace.coverage")
                    .map(|m| m.1)
                    .expect("coverage is reported");
                assert!(coverage > 0.9, "{workload}: layer spans cover {coverage}");
            } else {
                assert!(out.tracer.spans().is_empty(), "{workload}: untraced spans");
            }
        }
    }
}

#[test]
fn metric_lists_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    for workload in WORKLOADS {
        assert!(
            json.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")),
            "{workload} missing from BENCHMARK.json"
        );
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ")),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    let named = json.matches("{\"name\": ").count();
    assert_eq!(named, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(run("no_such_workload", &tiny(false)).is_err());
}
