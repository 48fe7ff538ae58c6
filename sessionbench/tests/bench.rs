//! Tests of the benchmark itself, on small instances of its workloads.
//! Run from the repository root:
//!   cargo test --offline --manifest-path sessionbench/Cargo.toml

use sessionbench::json::valid_name;
use sessionbench::workload::{measure, setup, Inputs, Kind, Spec};
use sessionbench::{run_spec, Args};
use std::time::Duration;

fn small(kind: Kind) -> Spec {
    match kind {
        Kind::FabricDense => Spec {
            nodes: 8,
            sim_units: 2,
            ..Spec::full(kind)
        },
        _ => Spec {
            sim_units: 24,
            ..Spec::full(kind)
        },
    }
}

/// The simulated results of a small instance at `threads` workers.
fn sim_at(kind: Kind, threads: usize) -> sessionbench::workload::SimMetrics {
    let spec = small(kind).with_threads(threads);
    let inputs = Inputs::generate(&spec, 7);
    let mut sys = setup(&spec, &inputs);
    let r = measure(&spec, &inputs, &mut sys, Duration::ZERO);
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    assert_eq!(r.unresolved, 0);
    r.sim
}

#[test]
fn fabric_results_are_identical_at_one_and_two_workers() {
    let one = sim_at(Kind::FabricDense, 1);
    assert_eq!(one.sessions, 16);
    assert_eq!(one, sim_at(Kind::FabricDense, 2));
}

#[test]
fn faulted_serving_results_are_identical_at_one_and_two_workers() {
    let one = sim_at(Kind::ServePayloadFaults, 1);
    assert_eq!(one.sessions, 24);
    assert!(one.payload_attempts_per_session > 0.0);
    assert_eq!(one, sim_at(Kind::ServePayloadFaults, 2));
}

#[test]
fn seed_changes_the_generated_inputs() {
    for kind in Kind::ALL {
        let spec = small(kind);
        let a = Inputs::generate(&spec, 1);
        assert_eq!(a, Inputs::generate(&spec, 1), "{kind:?} not reproducible");
        let b = Inputs::generate(&spec, 2);
        assert_ne!(a, b, "{kind:?} inputs ignore the seed");
        match (&a, &b) {
            (Inputs::Fabric { poses: pa, .. }, Inputs::Fabric { poses: pb, .. }) => {
                // Same deployment, different slot assignment.
                assert_ne!(pa, pb);
                let key = |p: &Vec<milback_rf::geometry::Pose>| {
                    let mut k: Vec<u64> = p.iter().map(|q| q.position.x.to_bits()).collect();
                    k.sort_unstable();
                    k
                };
                assert_eq!(key(pa), key(pb));
            }
            (Inputs::Serve { schedule: sa, .. }, Inputs::Serve { schedule: sb, .. }) => {
                assert_ne!(sa.requests[..32], sb.requests[..32]);
            }
            _ => unreachable!(),
        }
    }
}

/// `(end_to_end names, per_layer names)` from BENCHMARK.json.
fn declared() -> (Vec<String>, Vec<String>) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let section = |key: &str| -> Vec<String> {
        let start = text.find(&format!("\"{key}\"")).expect(key);
        let end = start + text[start..].find(']').expect("closing bracket");
        text[start..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    };
    (section("end_to_end"), section("per_layer"))
}

#[test]
fn emitted_names_are_legal_and_match_the_declared_metrics() {
    let (e2e, per_layer) = declared();
    let spec = Spec {
        sim_units: 8,
        ..Spec::full(Kind::ServeLocalize)
    };
    for (trace, want) in [(false, &e2e), (true, &per_layer)] {
        let out = run_spec(&spec, 3, Duration::from_millis(200), trace);
        assert!(out.correct, "{:#?}", out.report);
        let names: Vec<String> = out.metrics.iter().map(|m| m.name.to_string()).collect();
        for n in &names {
            assert!(valid_name(n), "illegal metric name {n}");
        }
        assert_eq!(&names, want, "trace={trace}");
        let last = out.result_line;
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
    }
}

#[test]
fn arguments_parse_and_reject_unknown_workloads() {
    let args = |v: &[&str]| Args::parse(v.iter().map(|s| s.to_string()));
    let a = args(&[
        "--workload",
        "fabric_dense",
        "--seed",
        "4",
        "--seconds",
        "3",
        "--trace",
        "1",
    ])
    .unwrap();
    assert_eq!(a.workload, Kind::FabricDense);
    assert_eq!((a.seed, a.seconds, a.trace), (4, 3.0, true));
    let rest = ["--seconds", "3", "--trace", "0"];
    let with = |v: &[&str]| args(&[v, &rest[..]].concat());
    assert!(with(&["--workload", "serve_localize", "--seed", "1"]).is_ok());
    assert!(with(&["--workload", "nope", "--seed", "1"]).is_err());
    assert!(with(&["--workload", "serve_localize", "--seed", "x"]).is_err());
    assert!(with(&["--seed", "1"]).is_err());
    assert!(args(&[
        "--workload",
        "serve_localize",
        "--seed",
        "1",
        "--seconds",
        "3"
    ])
    .is_err());
    assert!(args(&[
        "--workload",
        "serve_localize",
        "--seed",
        "1",
        "--seconds",
        "0",
        "--trace",
        "0"
    ])
    .is_err());
    assert!(args(&[
        "--workload",
        "serve_localize",
        "--seed",
        "1",
        "--seconds",
        "3",
        "--trace",
        "2"
    ])
    .is_err());
}
