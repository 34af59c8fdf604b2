//! The command line.

use crate::metrics::declared;
use crate::workload::{Scale, WorkSet, Workload, DEFAULT_CORPUS};
use crate::{campaign, serve, spread};
use std::path::Path;
use std::process::ExitCode;

/// Usage text.
pub const USAGE: &str = "\
usage: cmmf-benchmark --workload <name> [--seed <u64>] [--seconds <s>] [--trace 0|1]
                      [--corpus <u64>] [--repeat <n>] [--scale full|smoke]
  --workload  table1 | realistic-n106-t1 | async-k4 | serve-quick
  --seed      orders the jobs of each round (default 2021)
  --seconds   measuring budget; sizes the work set (default 10)
  --trace     0: end-to-end metrics, tracing off; 1: per-layer metrics
  --corpus    seeds the jobs (default 2021, the benchmark of record)
  --repeat    run n times with seeds seed..seed+n and print each metric's
              median, quartiles and spread
  --scale     full (default) or smoke (tiny jobs, for tests)
The serve workload keeps the daemon's files under .bench_tmp/ in the
current directory and removes them when it ends.";

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Orders the jobs of each round.
    pub seed: u64,
    /// Seeds the jobs.
    pub corpus: u64,
    /// The measuring budget in seconds.
    pub seconds: f64,
    /// The traced (per-layer) pass.
    pub trace: bool,
    /// Spread mode: this many runs.
    pub repeat: Option<usize>,
    /// Job size.
    pub scale: Scale,
}

impl Args {
    /// The work set the arguments select.
    pub fn work_set(&self) -> WorkSet {
        WorkSet {
            scale: self.scale,
            corpus: self.corpus,
            seed: self.seed,
            rounds: self.workload.rounds(self.scale, self.seconds),
        }
    }

    /// The arguments of one run of this command with another seed.
    pub fn forwarded(&self, seed: u64) -> Vec<String> {
        vec![
            "--workload".into(),
            self.workload.name().into(),
            "--seed".into(),
            seed.to_string(),
            "--seconds".into(),
            self.seconds.to_string(),
            "--trace".into(),
            u8::from(self.trace).to_string(),
            "--corpus".into(),
            self.corpus.to_string(),
            "--scale".into(),
            match self.scale {
                Scale::Full => "full",
                Scale::Smoke => "smoke",
            }
            .into(),
        ]
    }
}

/// Parses the arguments after the program name; `None` asks for help.
///
/// # Errors
///
/// An unknown, repeated, missing or malformed flag.
pub fn parse(tokens: &[String]) -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut corpus = None;
    let mut seconds = None;
    let mut trace = None;
    let mut repeat = None;
    let mut scale = None;
    let mut it = tokens.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value `{value}` for {flag}");
        let slot_taken = match flag.as_str() {
            "--workload" => workload
                .replace(Workload::parse(value).ok_or_else(bad)?)
                .is_some(),
            "--seed" => seed
                .replace(value.parse::<u64>().map_err(|_| bad())?)
                .is_some(),
            "--corpus" => corpus
                .replace(value.parse::<u64>().map_err(|_| bad())?)
                .is_some(),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad());
                }
                seconds.replace(s).is_some()
            }
            "--trace" => trace
                .replace(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
                .is_some(),
            "--repeat" => {
                let n = value.parse::<usize>().map_err(|_| bad())?;
                if n == 0 {
                    return Err(bad());
                }
                repeat.replace(n).is_some()
            }
            "--scale" => scale
                .replace(match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(bad()),
                })
                .is_some(),
            other => return Err(format!("unknown flag `{other}`")),
        };
        if slot_taken {
            return Err(format!("{flag} given twice"));
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(2021),
        corpus: corpus.unwrap_or(DEFAULT_CORPUS),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        repeat,
        scale: scale.unwrap_or(Scale::Full),
    }))
}

/// Runs the command; the exit code is 0 only when every output checked out.
pub fn main(tokens: &[String]) -> ExitCode {
    let args = match parse(tokens) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One run (or the spread of `--repeat` runs), rendered for stdout. A run
/// whose outputs fail a check is an error: it prints the mismatches to
/// stderr and a summary reporting `"correct": false` with no metrics.
fn run(args: &Args) -> Result<String, String> {
    if let Some(n) = args.repeat {
        return spread::run(args, n);
    }
    let outcome = match args.workload {
        Workload::ServeQuick => {
            let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
            serve::run(
                &exe.with_file_name("cmmf-serve"),
                Path::new(".bench_tmp"),
                args.work_set(),
                args.trace,
            )?
        }
        w => campaign::run(w, args.work_set(), args.trace)?,
    };
    let text = outcome.render(args.workload.name(), declared(args.trace))?;
    if outcome.correct() {
        Ok(text)
    } else {
        print!("{text}");
        Err(outcome.mismatches.join("\n"))
    }
}
