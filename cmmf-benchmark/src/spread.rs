//! `--repeat N`: runs the same command N times with consecutive seeds, each
//! in a fresh process, and reports every metric's median, quartiles and
//! spread (interquartile distance over the median) — the statistics the
//! benchmark's regression bounds are judged by.

use crate::cli::Args;
use crate::stats::{quartiles, relative_spread};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use trace::json::{self, JsonValue};

/// Runs `args` `n` times and renders the spread report: one
/// `<workload> <metric> median=… q1=… q3=… spread=… <unit>` line per metric,
/// then a JSON summary line.
///
/// # Errors
///
/// A run that fails, reports `"correct": false`, or prints no summary.
pub fn run(args: &Args, n: usize) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut samples: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let seeds: Vec<u64> = (0..n as u64).map(|i| args.seed.wrapping_add(i)).collect();
    for &seed in &seeds {
        let out = Command::new(&exe)
            .args(args.forwarded(seed))
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running seed {seed}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let summary = stdout
            .lines()
            .last()
            .ok_or_else(|| format!("seed {seed} printed nothing"))?;
        let doc = json::parse(summary).map_err(|e| format!("seed {seed}: {e}"))?;
        if !out.status.success() || doc.get("correct").and_then(JsonValue::as_bool) != Some(true) {
            return Err(format!("seed {seed}: run failed ({})", out.status));
        }
        let Some(JsonValue::Object(metrics)) = doc.get("metrics") else {
            return Err(format!("seed {seed}: no metrics"));
        };
        for (name, m) in metrics {
            let value = m.get("value").and_then(JsonValue::as_f64);
            let unit = m.get("unit").and_then(JsonValue::as_str);
            let (Some(value), Some(unit)) = (value, unit) else {
                return Err(format!("seed {seed}: malformed metric `{name}`"));
            };
            let entry = samples
                .entry(name.clone())
                .or_insert_with(|| (unit.to_string(), Vec::new()));
            entry.1.push(value);
        }
    }

    let workload = args.workload.name();
    let mut text = String::new();
    let mut json_metrics = Vec::new();
    for (name, (unit, values)) in &samples {
        let [q1, median, q3] = quartiles(values).unwrap_or([values[0]; 3]);
        let spread = relative_spread(values).unwrap_or(0.0);
        text.push_str(&format!(
            "{workload} {name} median={median} q1={q1} q3={q3} spread={spread} {unit}\n"
        ));
        json_metrics.push(format!(
            "\"{name}\": {{\"median\": {median}, \"q1\": {q1}, \"q3\": {q3}, \"spread\": {spread}, \"unit\": \"{unit}\"}}"
        ));
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    text.push_str(&format!(
        "{{\"workload\": \"{workload}\", \"trace\": {}, \"seconds\": {}, \"corpus\": {}, \"seeds\": {:?}, \"hardware_threads\": {threads}, \"metrics\": {{{}}}}}\n",
        args.trace,
        args.seconds,
        args.corpus,
        seeds,
        json_metrics.join(", ")
    ));
    Ok(text)
}
