//! Self-test: runs every workload at reduced length, untraced and
//! traced, and checks that the result line carries exactly the metrics
//! `BENCHMARK.json` names, each finite and with its unit, and that the
//! digests repeat across repetitions and across invocations.

use std::process::Command;

use btsim_stats::JsonValue;

/// Reduced unit of work per workload: long enough for 100 steps per
/// repetition where the workload has them, short enough to run in
/// seconds.
const WORKLOADS: [(&str, &str); 4] = [
    ("acl_saturated", "0.02"),
    ("piconet_creation", "0.05"),
    ("power_modes", "0.2"),
    ("dense_floor", "0.05"),
];

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let JsonValue::Arr(items) = benchmark_json().get(section).expect("section").clone() else {
        panic!("{section} is not a list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| match m.get(k) {
                Some(JsonValue::Str(s)) => s.clone(),
                other => panic!("{section} entry lacks {k}: {other:?}"),
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark; returns (stdout lines, exit success).
fn run(workload: &str, scale: &str, seed: &str, trace: &str) -> (Vec<String>, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_btbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            seed,
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .args(["--scale", scale])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (
        stdout.lines().map(str::to_string).collect(),
        out.status.success(),
    )
}

/// Checks the result line against the declared metrics; returns the
/// digests the run printed.
fn check_result(lines: &[String], section: &str, context: &str) -> Vec<String> {
    let result = JsonValue::parse(lines.last().expect("output")).expect("last line is JSON");
    let JsonValue::Obj(fields) = &result else {
        panic!("{context}: result is not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{context}"
    );
    assert_eq!(
        result.get("correct"),
        Some(&JsonValue::Bool(true)),
        "{context}"
    );
    assert!(result.get("attempted").and_then(JsonValue::as_f64).unwrap() >= 1.0);
    assert_eq!(
        result.get("failed").and_then(JsonValue::as_f64),
        Some(0.0),
        "{context}"
    );
    let Some(JsonValue::Obj(metrics)) = result.get("metrics") else {
        panic!("{context}: no metrics object");
    };
    let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want = declared(section);
    assert_eq!(
        emitted,
        want.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
        "{context}: metric names"
    );
    for ((name, value), (_, unit)) in metrics.iter().zip(&want) {
        let v = value.get("value").and_then(JsonValue::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{context}: {name} = {v:?}");
        assert_eq!(
            value.get("unit"),
            Some(&JsonValue::Str(unit.clone())),
            "{context}: {name}"
        );
    }
    lines
        .iter()
        .filter(|l| l.starts_with("repetition"))
        .filter_map(|l| l.split("digest ").nth(1))
        .map(str::to_string)
        .collect()
}

#[test]
fn every_workload_emits_every_metric_with_stable_digests() {
    for (workload, scale) in WORKLOADS {
        let (first, ok) = run(workload, scale, "7", "0");
        assert!(ok, "{workload} failed:\n{}", first.join("\n"));
        let digests = check_result(&first, "end_to_end", workload);
        assert!(digests.len() >= 2, "{workload}: too few repetitions");
        assert!(
            digests.windows(2).all(|d| d[0] == d[1]),
            "{workload}: {digests:?}"
        );

        let (again, ok) = run(workload, scale, "7", "0");
        assert!(ok, "{workload} failed on the second invocation");
        assert_eq!(
            check_result(&again, "end_to_end", workload)[0],
            digests[0],
            "{workload}"
        );

        let (traced, ok) = run(workload, scale, "7", "1");
        assert!(ok, "{workload} traced run failed:\n{}", traced.join("\n"));
        check_result(&traced, "per_layer", workload);
    }
}

#[test]
fn a_bad_command_line_exits_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_btbench"))
        .args([
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
