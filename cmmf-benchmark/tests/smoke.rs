//! A smoke-scale pass of every workload through the real executables (the
//! benchmark and the daemon it spawns), checked against the metric
//! declarations in the repository's `BENCHMARK.json`.

use cmmf_benchmark::campaign;
use cmmf_benchmark::metrics::{Metric, END_TO_END, PER_LAYER};
use cmmf_benchmark::workload::{Scale, WorkSet, Workload, DEFAULT_CORPUS};
use std::collections::BTreeMap;
use std::process::Command;
use trace::json::{self, JsonValue};
use trace::Stopwatch;

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
}

fn field<'a>(entry: &'a JsonValue, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("entry without `{key}`: {entry:?}"))
}

/// `name -> unit` of a declared metric list.
fn declared(key: &str) -> BTreeMap<String, String> {
    let doc = benchmark_json();
    entries(&doc, key)
        .iter()
        .map(|m| (field(m, "name").to_string(), field(m, "unit").to_string()))
        .collect()
}

fn is_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_declares_the_registry() {
    let doc = benchmark_json();
    for (key, registry) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<(String, String, String)> = entries(&doc, key)
            .iter()
            .map(|m| {
                (
                    field(m, "name").to_string(),
                    field(m, "unit").to_string(),
                    field(m, "better").to_string(),
                )
            })
            .collect();
        let expected: Vec<(String, String, String)> = registry
            .iter()
            .map(|m: &Metric| (m.name.into(), m.unit.into(), m.better.name().into()))
            .collect();
        assert_eq!(listed, expected, "{key}");
    }
    let workloads: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);
    let setup = entries(&doc, "end_to_end")
        .iter()
        .find(|m| field(m, "name") == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(
        (field(setup, "unit"), field(setup, "better")),
        ("s", "lower")
    );
}

#[test]
fn smoke_pass_of_every_workload_prints_every_declared_metric() {
    let clock = Stopwatch::start();
    for workload in Workload::ALL {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let want = declared(key);
            let out = Command::new(env!("CARGO_BIN_EXE_cmmf-benchmark"))
                .args(["--workload", workload.name(), "--seed", "7"])
                .args(["--scale", "smoke", "--trace", trace])
                .output()
                .expect("the benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{} --trace {trace}: {}\n{stdout}",
                workload.name(),
                String::from_utf8_lossy(&out.stderr)
            );
            let lines: Vec<&str> = stdout.lines().collect();
            let (summary, metric_lines) = lines.split_last().expect("output is not empty");

            let mut printed = BTreeMap::new();
            for line in metric_lines {
                let parts: Vec<&str> = line.split(' ').collect();
                let [w, name, value, unit] = parts[..] else {
                    panic!("malformed metric line `{line}`");
                };
                assert_eq!(w, workload.name());
                assert!(is_metric_name(name), "bad metric name `{name}`");
                let v: f64 = value.parse().expect("numeric value");
                assert!(v.is_finite(), "{name} = {value}");
                printed.insert(name.to_string(), unit.to_string());
            }
            assert_eq!(printed, want, "{} --trace {trace}", workload.name());

            let doc = json::parse(summary).expect("summary line is JSON");
            assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(true));
            assert_eq!(doc.get("failed").and_then(JsonValue::as_usize), Some(0));
            assert!(doc.get("attempted").and_then(JsonValue::as_usize) >= Some(1));
            let Some(JsonValue::Object(metrics)) = doc.get("metrics") else {
                panic!("summary has no metrics object");
            };
            let in_json: BTreeMap<String, String> = metrics
                .iter()
                .map(|(name, m)| (name.clone(), field(m, "unit").to_string()))
                .collect();
            assert_eq!(in_json, want);
        }
    }
    let seconds = clock.seconds();
    assert!(seconds < 10.0, "smoke pass took {seconds:.1} s");
}

#[test]
fn bad_arguments_exit_with_usage_errors() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "table1", "--trace", "2"],
        &["--workload", "table1", "--seconds", "0"],
        &["--workload", "table1", "--workload", "table1"],
        &["--workload", "table1", "--frobnicate", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_cmmf-benchmark"))
            .args(args)
            .output()
            .expect("the benchmark runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn a_failed_campaign_fails_the_run_and_prints_no_metrics() {
    let workload = Workload::Table1;
    let set = WorkSet {
        scale: Scale::Smoke,
        corpus: DEFAULT_CORPUS,
        seed: 7,
        rounds: 1,
    };
    let (problems, setup) =
        campaign::build_problems(&workload.benchmarks(Scale::Smoke)).expect("smoke set-up");
    let mut campaigns = workload.campaigns(set);
    assert!(campaigns.len() >= 2);
    // Initialization sizes that are not nested make `Optimizer::run` fail.
    campaigns[1].cfg.n_init_impl = 0;

    let outcome = campaign::measure(&campaigns, &problems, setup, false).expect("measured");
    assert_eq!(outcome.failed, 1);
    assert!(!outcome.correct());
    let text = outcome
        .render(workload.name(), &END_TO_END)
        .expect("renders");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "metrics printed for a failed run: {text}");
    let doc = json::parse(lines[0]).expect("summary line is JSON");
    assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(false));
    assert_eq!(doc.get("failed").and_then(JsonValue::as_usize), Some(1));
    let Some(JsonValue::Object(metrics)) = doc.get("metrics") else {
        panic!("summary has no metrics object");
    };
    assert!(metrics.is_empty());
}
