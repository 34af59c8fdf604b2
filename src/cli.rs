//! Shared, validating command-line parsing for the workspace binaries.
//!
//! `cmmf-dse` and `cmmf-serve` both accept the same job-shaping flags
//! (`--iters`, `--seed`, `--variant`, …). This module gives them one
//! parser with the failure modes the binaries' first iteration lacked:
//!
//! * **duplicate flags are rejected** (`--iters 5 --iters 9` used to
//!   silently keep the last value),
//! * **degenerate values are rejected** (`--iters 0`, `--batch 0` used to
//!   be accepted, the latter silently clamped to 1),
//! * **ranges are validated** (`--divergence` must lie in `[0, 1]`; it used
//!   to be silently clamped),
//! * **unknown flags are usage errors** with a nonzero exit, never ignored.
//!
//! The pieces: [`ArgStream`] walks the raw tokens and tracks which flags
//! were already seen; [`JobFlags`] consumes the shared job-shaping subset
//! and converts it to a [`CmmfConfig`]; binaries match their own flags
//! around it and print their usage string alongside any [`CliError`].

use cmmf::{CmmfConfig, ModelVariant};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// A command-line usage error. Binaries print `message` together with their
/// usage string and exit nonzero (conventionally `2` for usage errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// What was wrong with the invocation.
    pub message: String,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

fn err(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
    }
}

/// A stream of raw command-line tokens with duplicate-flag tracking.
#[derive(Debug, Default)]
pub struct ArgStream {
    tokens: VecDeque<String>,
    seen: BTreeSet<String>,
}

impl ArgStream {
    /// Wraps an explicit token list (tests and library callers).
    pub fn new(tokens: Vec<String>) -> Self {
        ArgStream {
            tokens: tokens.into(),
            seen: BTreeSet::new(),
        }
    }

    /// The next raw token, if any.
    pub fn next_arg(&mut self) -> Option<String> {
        self.tokens.pop_front()
    }

    /// Whether `flag` was consumed (via [`ArgStream::flag_once`] or
    /// [`ArgStream::value_of`]) at some point. Lets callers distinguish an
    /// explicitly-passed default from an untouched one.
    pub fn was_seen(&self, flag: &str) -> bool {
        self.seen.contains(flag)
    }

    /// Records an occurrence of `flag`, rejecting a second one: every flag
    /// in this workspace is single-use, so a repeat is a typo or a confused
    /// script — last-wins silence would hide it.
    ///
    /// # Errors
    ///
    /// [`CliError`] if `flag` was already recorded.
    pub fn flag_once(&mut self, flag: &str) -> Result<(), CliError> {
        if self.seen.insert(flag.to_string()) {
            Ok(())
        } else {
            Err(err(format!("{flag} given more than once")))
        }
    }

    /// Consumes the value token following `flag` (recording the flag via
    /// [`ArgStream::flag_once`]).
    ///
    /// # Errors
    ///
    /// [`CliError`] on a duplicate flag or a missing value.
    pub fn value_of(&mut self, flag: &str) -> Result<String, CliError> {
        self.flag_once(flag)?;
        self.tokens
            .pop_front()
            .ok_or_else(|| err(format!("{flag} needs a value")))
    }

    /// Consumes and parses the value following `flag`.
    ///
    /// # Errors
    ///
    /// [`CliError`] on a duplicate flag, a missing value, or a parse failure.
    pub fn parsed<T>(&mut self, flag: &str) -> Result<T, CliError>
    where
        T: std::str::FromStr,
        T::Err: fmt::Display,
    {
        let raw = self.value_of(flag)?;
        raw.parse()
            .map_err(|e| err(format!("{flag}: invalid value `{raw}`: {e}")))
    }
}

/// Validates `v >= min` for a count-valued flag.
///
/// # Errors
///
/// [`CliError`] naming the flag and the minimum.
pub fn at_least(v: usize, min: usize, flag: &str) -> Result<usize, CliError> {
    if v >= min {
        Ok(v)
    } else {
        Err(err(format!("{flag} must be at least {min}, got {v}")))
    }
}

/// Validates `v` lies in `[0, 1]` (NaN rejected).
///
/// # Errors
///
/// [`CliError`] naming the flag and the admissible interval.
pub fn in_unit_interval(v: f64, flag: &str) -> Result<f64, CliError> {
    if (0.0..=1.0).contains(&v) {
        Ok(v)
    } else {
        Err(err(format!("{flag} must lie in [0, 1], got {v}")))
    }
}

/// Parses a `--variant` value: a protocol name of
/// [`serve::job::variant_by_name`].
///
/// # Errors
///
/// [`CliError`] on anything but `ours` or `fpl18`.
pub fn parse_variant(raw: &str) -> Result<ModelVariant, CliError> {
    serve::job::variant_by_name(raw)
        .ok_or_else(|| err(format!("unknown variant `{raw}` (ours|fpl18)")))
}

/// The job-shaping flags shared by `cmmf-dse` and `cmmf-serve submit`:
/// budget, seed, model variant, and the schedule (batch size and slots).
#[derive(Debug, Clone, PartialEq)]
pub struct JobFlags {
    /// BO steps (`--iters`, >= 1).
    pub iters: usize,
    /// Master seed (`--seed`).
    pub seed: u64,
    /// Surrogate variant (`--variant ours|fpl18`).
    pub variant: ModelVariant,
    /// Simulator cross-fidelity divergence (`--divergence`, in `[0, 1]`).
    pub divergence: f64,
    /// Picks per decision, run as one group (`--batch`, >= 1).
    pub batch: usize,
    /// Groups kept in flight (`--async-slots`, >= 1 when given; 0 behaves
    /// like 1, the sequential loop).
    pub async_slots: usize,
}

impl Default for JobFlags {
    fn default() -> Self {
        JobFlags {
            iters: 40,
            seed: 2021,
            variant: ModelVariant::paper(),
            divergence: 0.3,
            batch: 1,
            async_slots: 0,
        }
    }
}

impl JobFlags {
    /// The usage fragment for these flags, for embedding in a binary's
    /// usage string.
    pub const USAGE: &'static str = "[--iters N] [--seed S] [--variant ours|fpl18] \
                                     [--divergence D] [--batch Q] [--async-slots K]";

    /// Tries to consume `arg` (and its value, if any) as one of the shared
    /// job flags. Returns `Ok(false)` when `arg` is not a job flag, so the
    /// caller can match its own flags next.
    ///
    /// # Errors
    ///
    /// [`CliError`] on duplicate flags, missing/invalid values, or
    /// out-of-range values.
    pub fn try_consume(&mut self, arg: &str, args: &mut ArgStream) -> Result<bool, CliError> {
        match arg {
            "--iters" => self.iters = at_least(args.parsed(arg)?, 1, arg)?,
            "--seed" => self.seed = args.parsed(arg)?,
            "--variant" => self.variant = parse_variant(&args.value_of(arg)?)?,
            "--divergence" => self.divergence = in_unit_interval(args.parsed(arg)?, arg)?,
            "--batch" => self.batch = at_least(args.parsed(arg)?, 1, arg)?,
            "--async-slots" => self.async_slots = at_least(args.parsed(arg)?, 1, arg)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Maps the flags onto a [`CmmfConfig`] (everything else defaulted).
    pub fn to_config(&self) -> CmmfConfig {
        CmmfConfig {
            n_iter: self.iters,
            seed: self.seed,
            variant: self.variant,
            batch_size: self.batch,
            async_slots: self.async_slots,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consume_all(tokens: &[&str]) -> Result<JobFlags, CliError> {
        let mut args = ArgStream::new(tokens.iter().map(|s| s.to_string()).collect());
        let mut job = JobFlags::default();
        while let Some(arg) = args.next_arg() {
            if !job.try_consume(&arg, &mut args)? {
                return Err(err(format!("unknown flag `{arg}`")));
            }
        }
        Ok(job)
    }

    #[test]
    fn valid_flags_parse() {
        let job = consume_all(&[
            "--iters",
            "7",
            "--seed",
            "99",
            "--variant",
            "fpl18",
            "--divergence",
            "0.5",
            "--batch",
            "2",
            "--async-slots",
            "3",
        ])
        .unwrap();
        assert_eq!(job.iters, 7);
        assert_eq!(job.seed, 99);
        assert_eq!(job.variant, ModelVariant::fpl18());
        assert_eq!(job.divergence, 0.5);
        assert_eq!(job.batch, 2);
        assert_eq!(job.async_slots, 3);
        let cfg = job.to_config();
        assert_eq!(cfg.n_iter, 7);
        assert_eq!(cfg.batch_size, 2);
    }

    #[test]
    fn degenerate_values_are_rejected() {
        for bad in [
            &["--iters", "0"][..],
            &["--batch", "0"],
            &["--async-slots", "0"],
            &["--divergence", "1.5"],
            &["--divergence", "-0.1"],
            &["--divergence", "NaN"],
            &["--iters", "-3"],
            &["--seed", "twelve"],
            &["--variant", "theirs"],
            &["--iters"],
        ] {
            assert!(consume_all(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn duplicate_flags_are_rejected() {
        for bad in [
            &["--iters", "5", "--iters", "9"][..],
            &["--seed", "1", "--seed", "1"],
        ] {
            let e = consume_all(bad).unwrap_err();
            assert!(e.message.contains("more than once"), "{bad:?}: {e}");
        }
    }

    #[test]
    fn unknown_flags_are_not_consumed() {
        // A removed flag is as unknown as one that never existed.
        for flag in ["--frobnicate", "--mixed-precision", "--no-warm-start"] {
            let mut args = ArgStream::new(vec![flag.into()]);
            let mut job = JobFlags::default();
            let arg = args.next_arg().unwrap();
            assert_eq!(job.try_consume(&arg, &mut args), Ok(false));
            assert_eq!(job, JobFlags::default());
        }
    }
}
