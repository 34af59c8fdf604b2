//! Job specifications: what a tenant asks the daemon to optimize.
//!
//! A [`JobSpec`] names the tenant and session, the problem (a built-in
//! benchmark or an inline kernel spec), and the job-shaping knobs. It
//! round-trips losslessly through JSON (`job.json` in the session
//! directory and the `submit` protocol frame): floating-point knobs are
//! carried as IEEE-754 bit patterns so a daemon restart reconstructs the
//! *identical* configuration and the resumed run stays bit-identical.
//!
//! Seed isolation: a job's master seed is never used directly. The
//! optimizer and GP seeds are derived per tenant via
//! [`derived_seeds`] — two tenants submitting the same job seed get
//! uncorrelated RNG streams, so one tenant's workload cannot replay or
//! shadow another's.

use crate::error::ServeError;
use cmmf::{CmmfConfig, ModelVariant};
use fidelity_sim::{FlowSimulator, SimParams};
use hls_model::benchmarks::{self, Benchmark};
use hls_model::spec;
use hls_model::DesignSpace;
use rand::derive_stream_seed;
use trace::json::{self, JsonValue, JsonWriter};

/// Maximum length of a tenant or session name.
pub const NAME_MAX: usize = 64;

/// Most hyperparameter-search restarts a job may ask for (`gp_restarts`).
/// The search reserves every start up front, so an unbounded count aborts
/// the worker process on allocation; the repository's own callers use 0–4.
pub const GP_RESTARTS_MAX: usize = 64;

/// Most EIPV Monte-Carlo samples a job may ask for (`mc_samples`). The
/// estimate keeps one partial result per sample chunk, so an unbounded count
/// aborts the worker process on allocation; the repository's own callers use
/// 4–24.
pub const MC_SAMPLES_MAX: usize = 4096;

/// Validates a tenant/session name: 1–64 chars from `[A-Za-z0-9_-]`.
/// Doubles as path-traversal protection — names become directory names
/// under the storage root, and this alphabet admits no separators.
///
/// # Errors
///
/// [`ServeError::InvalidJob`] naming the offending field.
pub fn validate_name(kind: &str, name: &str) -> Result<(), ServeError> {
    if name.is_empty() || name.len() > NAME_MAX {
        return Err(ServeError::invalid(format!(
            "{kind} name must be 1..={NAME_MAX} characters, got {}",
            name.len()
        )));
    }
    if let Some(c) = name
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || *c == '_' || *c == '-'))
    {
        return Err(ServeError::invalid(format!(
            "{kind} name may only contain [A-Za-z0-9_-], got `{c}`"
        )));
    }
    Ok(())
}

/// FNV-1a hash of a tenant name, used as the tenant's RNG stream tag.
pub fn tenant_tag(tenant: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tenant.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Derives the per-tenant `(optimizer_seed, gp_seed)` pair from a job's
/// master seed. Public so tests and clients can predict a session's exact
/// result by running the optimizer directly with the same seeds.
pub fn derived_seeds(tenant: &str, job_seed: u64) -> (u64, u64) {
    let tag = tenant_tag(tenant);
    (
        derive_stream_seed(job_seed, &[tag, 0]),
        derive_stream_seed(job_seed, &[tag, 1]),
    )
}

/// The problem a job optimizes.
#[derive(Debug, Clone, PartialEq)]
pub enum Problem {
    /// One of the built-in paper/extended benchmarks, by display name
    /// (`"GEMM"`, `"SORT_RADIX"`, …).
    Benchmark(Benchmark),
    /// An inline kernel spec in the `cmmf-dse` text format.
    SpecText(String),
}

/// Looks up a benchmark by its display name (as printed by
/// [`Benchmark::name`]).
pub fn benchmark_by_name(name: &str) -> Option<Benchmark> {
    Benchmark::all()
        .into_iter()
        .chain(Benchmark::extended())
        .find(|b| b.name() == name)
}

/// Optional overrides of the optimizer's heavier defaults, used by quick
/// smoke jobs and the soak tests. `None` keeps the [`CmmfConfig`] default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Overrides {
    /// `CmmfConfig::n_init`.
    pub n_init: Option<usize>,
    /// `CmmfConfig::n_init_syn`.
    pub n_init_syn: Option<usize>,
    /// `CmmfConfig::n_init_impl`.
    pub n_init_impl: Option<usize>,
    /// `CmmfConfig::candidate_pool`.
    pub candidate_pool: Option<usize>,
    /// `CmmfConfig::mc_samples`.
    pub mc_samples: Option<usize>,
    /// `CmmfConfig::refit_every`.
    pub refit_every: Option<usize>,
    /// `CmmfConfig::final_prediction_pool`.
    pub final_prediction_pool: Option<usize>,
    /// `GpConfig::restarts`.
    pub gp_restarts: Option<usize>,
    /// `GpConfig::max_evals`.
    pub gp_max_evals: Option<usize>,
}

impl Overrides {
    /// The fast profile used by smoke jobs, CI, and the soak tests: small
    /// initialization, small pools, no hyperparameter restarts.
    pub fn quick() -> Self {
        Overrides {
            n_init: Some(5),
            n_init_syn: Some(3),
            n_init_impl: Some(2),
            candidate_pool: Some(30),
            mc_samples: Some(8),
            refit_every: Some(3),
            final_prediction_pool: Some(0),
            gp_restarts: Some(0),
            gp_max_evals: Some(50),
        }
    }
}

/// A complete optimization job: identity, problem, and knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Tenant the session belongs to (its directory and seed namespace).
    pub tenant: String,
    /// Session name, unique per tenant.
    pub session: String,
    /// What to optimize.
    pub problem: Problem,
    /// BO steps (>= 1).
    pub iters: usize,
    /// The job's master seed (tenant-isolated via [`derived_seeds`]).
    pub seed: u64,
    /// Surrogate variant.
    pub variant: ModelVariant,
    /// Simulator cross-fidelity divergence override, in `[0, 1]`. `None`
    /// keeps the benchmark's calibrated (or the spec default) value.
    pub divergence: Option<f64>,
    /// Picks per dispatch decision, run as one group (>= 1; see
    /// `CmmfConfig::batch_size`).
    pub batch: usize,
    /// Groups kept in flight; 0 behaves like 1, the sequential loop (see
    /// `CmmfConfig::async_slots`).
    pub async_slots: usize,
    /// Optional knob overrides (quick profiles).
    pub overrides: Overrides,
}

impl JobSpec {
    /// A job with default knobs for `tenant`/`session` on `problem`.
    pub fn new(tenant: impl Into<String>, session: impl Into<String>, problem: Problem) -> Self {
        JobSpec {
            tenant: tenant.into(),
            session: session.into(),
            problem,
            iters: 40,
            seed: 2021,
            variant: ModelVariant::paper(),
            divergence: None,
            batch: 1,
            async_slots: 0,
            overrides: Overrides::default(),
        }
    }

    /// Validates names, budget, and ranges, including the ranges the
    /// optimizer itself checks ([`CmmfConfig::validate`]) on the knobs with
    /// the overrides applied, so a degenerate job is refused at admission
    /// rather than failing in a worker. It also bounds what one job may cost
    /// ([`GP_RESTARTS_MAX`], [`MC_SAMPLES_MAX`]): an allocation failure
    /// aborts the daemon instead of failing the session, and recovery would
    /// re-enqueue the job on every restart.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidJob`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), ServeError> {
        validate_name("tenant", &self.tenant)?;
        validate_name("session", &self.session)?;
        if self.iters == 0 {
            return Err(ServeError::invalid("iters must be at least 1"));
        }
        if self.batch == 0 {
            return Err(ServeError::invalid("batch must be at least 1"));
        }
        let cfg = self.to_config();
        cfg.validate()
            .map_err(|e| ServeError::invalid(e.to_string()))?;
        // What one job may cost: far enough past these bounds the worker's
        // allocations abort the whole daemon, which `catch_unwind` cannot stop.
        for (knob, value, max) in [
            ("gp_restarts", cfg.gp.restarts, GP_RESTARTS_MAX),
            ("mc_samples", cfg.mc_samples, MC_SAMPLES_MAX),
        ] {
            if value > max {
                return Err(ServeError::invalid(format!(
                    "{knob} must be at most {max}, got {value}"
                )));
            }
        }
        if let Some(d) = self.divergence {
            if !(0.0..=1.0).contains(&d) {
                return Err(ServeError::invalid(format!(
                    "divergence must lie in [0, 1], got {d}"
                )));
            }
        }
        if let Problem::SpecText(text) = &self.problem {
            if text.trim().is_empty() {
                return Err(ServeError::invalid("spec text is empty"));
            }
        }
        Ok(())
    }

    /// The optimizer configuration this job runs with: knobs applied and
    /// seeds tenant-derived. Deterministic — the same spec always maps to
    /// the same config, which is what makes results reproducible from
    /// `job.json` alone.
    pub fn to_config(&self) -> CmmfConfig {
        let (seed, gp_seed) = derived_seeds(&self.tenant, self.seed);
        let mut cfg = CmmfConfig {
            n_iter: self.iters,
            variant: self.variant,
            batch_size: self.batch,
            async_slots: self.async_slots,
            seed,
            ..CmmfConfig::default()
        };
        cfg.gp.seed = gp_seed;
        let o = &self.overrides;
        if let Some(v) = o.n_init {
            cfg.n_init = v;
        }
        if let Some(v) = o.n_init_syn {
            cfg.n_init_syn = v;
        }
        if let Some(v) = o.n_init_impl {
            cfg.n_init_impl = v;
        }
        if let Some(v) = o.candidate_pool {
            cfg.candidate_pool = v;
        }
        if let Some(v) = o.mc_samples {
            cfg.mc_samples = v;
        }
        if let Some(v) = o.refit_every {
            cfg.refit_every = v;
        }
        if let Some(v) = o.final_prediction_pool {
            cfg.final_prediction_pool = v;
        }
        if let Some(v) = o.gp_restarts {
            cfg.gp.restarts = v;
        }
        if let Some(v) = o.gp_max_evals {
            cfg.gp.max_evals = v;
        }
        cfg
    }

    /// Builds the design space and simulator this job runs against.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidJob`] if the spec text does not parse or the
    /// space cannot be built.
    pub fn build_problem(&self) -> Result<(DesignSpace, FlowSimulator), ServeError> {
        let (space, mut params) = match &self.problem {
            Problem::Benchmark(b) => {
                let model = benchmarks::build(*b)
                    .map_err(|e| ServeError::invalid(format!("benchmark {}: {e}", b.name())))?;
                let space = model
                    .pruned_space()
                    .map_err(|e| ServeError::invalid(format!("benchmark {}: {e}", b.name())))?;
                (space, SimParams::for_benchmark(*b))
            }
            Problem::SpecText(text) => {
                let builder =
                    spec::parse(text).map_err(|e| ServeError::invalid(format!("spec: {e}")))?;
                let space = builder
                    .build_pruned()
                    .map_err(|e| ServeError::invalid(format!("spec: {e}")))?;
                (space, SimParams::default())
            }
        };
        if let Some(d) = self.divergence {
            params.divergence = d;
        }
        Ok((space, FlowSimulator::new(params)))
    }

    /// Serializes to one line of JSON (no trailing newline). Floating-point
    /// knobs are written as bit patterns (with a decimal mirror for human
    /// readers); parsing prefers the bits, so the round trip is exact.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(384);
        self.write_json(&mut w);
        w.finish()
    }

    /// Writes the [`JobSpec::to_json`] object into `w`, so a caller can embed
    /// the spec in a larger document (the `submit` request).
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("tenant").str(&self.tenant);
        w.key("session").str(&self.session);
        match &self.problem {
            Problem::Benchmark(b) => w.key("benchmark").str(b.name()),
            Problem::SpecText(text) => w.key("spec").str(text),
        };
        w.key("iters").usize(self.iters);
        w.key("seed").u64(self.seed);
        w.key("variant").str(variant_name(&self.variant));
        w.key("batch").usize(self.batch);
        w.key("async_slots").usize(self.async_slots);
        if let Some(d) = self.divergence {
            w.key("divergence").f64(d);
            w.key("divergence_bits").u64(d.to_bits());
        }
        let o = &self.overrides;
        for (key, val) in [
            ("n_init", o.n_init),
            ("n_init_syn", o.n_init_syn),
            ("n_init_impl", o.n_init_impl),
            ("candidate_pool", o.candidate_pool),
            ("mc_samples", o.mc_samples),
            ("refit_every", o.refit_every),
            ("final_prediction_pool", o.final_prediction_pool),
            ("gp_restarts", o.gp_restarts),
            ("gp_max_evals", o.gp_max_evals),
        ] {
            if let Some(v) = val {
                w.key(key).usize(v);
            }
        }
        w.end_object();
    }

    /// Parses a spec from a JSON object (a `submit` frame's `job` field or a
    /// stored `job.json`), then validates it.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidJob`] on missing/ill-typed fields or failed
    /// validation.
    pub fn from_json(doc: &JsonValue) -> Result<Self, ServeError> {
        let str_field = |key: &str| -> Result<String, ServeError> {
            doc.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| ServeError::invalid(format!("missing string field `{key}`")))
        };
        let tenant = str_field("tenant")?;
        let session = str_field("session")?;
        let problem =
            match (doc.get("benchmark"), doc.get("spec")) {
                (Some(b), None) => {
                    let name = b
                        .as_str()
                        .ok_or_else(|| ServeError::invalid("`benchmark` must be a string"))?;
                    Problem::Benchmark(benchmark_by_name(name).ok_or_else(|| {
                        ServeError::invalid(format!("unknown benchmark `{name}`"))
                    })?)
                }
                (None, Some(s)) => Problem::SpecText(
                    s.as_str()
                        .ok_or_else(|| ServeError::invalid("`spec` must be a string"))?
                        .to_string(),
                ),
                _ => {
                    return Err(ServeError::invalid(
                        "exactly one of `benchmark` or `spec` is required",
                    ))
                }
            };
        let mut job = JobSpec::new(tenant, session, problem);
        let usize_field = |key: &str| -> Result<Option<usize>, ServeError> {
            match doc.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_usize()
                    .map(Some)
                    .ok_or_else(|| ServeError::invalid(format!("`{key}` must be a count"))),
            }
        };
        if let Some(v) = usize_field("iters")? {
            job.iters = v;
        }
        if let Some(v) = doc.get("seed") {
            job.seed = v
                .as_u64()
                .ok_or_else(|| ServeError::invalid("`seed` must be a u64"))?;
        }
        if let Some(v) = doc.get("variant") {
            let name = v
                .as_str()
                .ok_or_else(|| ServeError::invalid("`variant` must be a string"))?;
            job.variant = variant_by_name(name)
                .ok_or_else(|| ServeError::invalid(format!("unknown variant `{name}`")))?;
        }
        if let Some(bits) = doc.get("divergence_bits") {
            let bits = bits
                .as_u64()
                .ok_or_else(|| ServeError::invalid("`divergence_bits` must be a u64"))?;
            job.divergence = Some(f64::from_bits(bits));
        } else if let Some(v) = doc.get("divergence") {
            job.divergence = Some(
                v.as_f64()
                    .ok_or_else(|| ServeError::invalid("`divergence` must be a number"))?,
            );
        }
        if let Some(v) = usize_field("batch")? {
            job.batch = v;
        }
        if let Some(v) = usize_field("async_slots")? {
            job.async_slots = v;
        }
        // Cross-step warm starts are gone; every `job.json` written before
        // their removal carries `"warm_start"` (`true` by default), so either
        // bool still loads, as the same job.
        if doc.get("warm_start").is_some_and(|v| v.as_bool().is_none()) {
            return Err(ServeError::invalid("`warm_start` must be a bool"));
        }
        // Mixed-precision screening is gone; `job.json` files written before
        // its removal carry `"mixed_precision": false`, which still loads.
        match doc.get("mixed_precision").map(JsonValue::as_bool) {
            None | Some(Some(false)) => {}
            Some(Some(true)) => {
                return Err(ServeError::invalid(
                    "`mixed_precision` is no longer supported; submit the job without it",
                ));
            }
            Some(None) => return Err(ServeError::invalid("`mixed_precision` must be a bool")),
        }
        job.overrides = Overrides {
            n_init: usize_field("n_init")?,
            n_init_syn: usize_field("n_init_syn")?,
            n_init_impl: usize_field("n_init_impl")?,
            candidate_pool: usize_field("candidate_pool")?,
            mc_samples: usize_field("mc_samples")?,
            refit_every: usize_field("refit_every")?,
            final_prediction_pool: usize_field("final_prediction_pool")?,
            gp_restarts: usize_field("gp_restarts")?,
            gp_max_evals: usize_field("gp_max_evals")?,
        };
        job.validate()?;
        Ok(job)
    }

    /// Parses a spec from a JSON string (see [`JobSpec::from_json`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidJob`] on unparsable JSON or failed validation.
    pub fn parse(text: &str) -> Result<Self, ServeError> {
        let doc =
            json::parse(text).map_err(|e| ServeError::invalid(format!("job is not JSON: {e}")))?;
        Self::from_json(&doc)
    }
}

/// The protocol name of a surrogate variant.
pub fn variant_name(v: &ModelVariant) -> &'static str {
    if *v == ModelVariant::fpl18() {
        "fpl18"
    } else {
        "ours"
    }
}

/// Looks up a surrogate variant by protocol name.
pub fn variant_by_name(name: &str) -> Option<ModelVariant> {
    match name {
        "ours" => Some(ModelVariant::paper()),
        "fpl18" => Some(ModelVariant::fpl18()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobSpec {
        let mut job = JobSpec::new("acme", "run-1", Problem::Benchmark(Benchmark::Gemm));
        job.iters = 6;
        job.seed = 99;
        job.divergence = Some(0.1 + 0.2); // deliberately not representable exactly
        job.batch = 2;
        job.overrides = Overrides::quick();
        job
    }

    #[test]
    fn json_round_trip_is_exact() {
        let job = sample();
        let back = JobSpec::parse(&job.to_json()).unwrap();
        assert_eq!(back, job);
        assert_eq!(
            back.divergence.unwrap().to_bits(),
            job.divergence.unwrap().to_bits()
        );
    }

    #[test]
    fn jobs_in_the_old_spaced_layout_still_load() {
        // `sample().to_json()` as written before `job.json` took the compact
        // layout, byte for byte: every stored job of an upgraded daemon
        // still loads as the same job.
        let old = r#"{"tenant": "acme", "session": "run-1", "benchmark": "GEMM", "iters": 6, "seed": 99, "variant": "ours", "batch": 2, "async_slots": 0, "divergence": 0.30000000000000004, "divergence_bits": 4599075939470750516, "n_init": 5, "n_init_syn": 3, "n_init_impl": 2, "candidate_pool": 30, "mc_samples": 8, "refit_every": 3, "final_prediction_pool": 0, "gp_restarts": 0, "gp_max_evals": 50}"#;
        let new = sample().to_json();
        assert_ne!(old, new);
        assert_eq!(json::parse(old).unwrap(), json::parse(&new).unwrap());
        assert_eq!(JobSpec::parse(old).unwrap(), sample());
    }

    #[test]
    fn validation_rejects_degenerate_jobs() {
        let mut bad = sample();
        bad.iters = 0;
        assert!(bad.validate().is_err());
        let mut bad = sample();
        bad.tenant = "a/b".into();
        assert!(bad.validate().is_err());
        let mut bad = sample();
        bad.session = String::new();
        assert!(bad.validate().is_err());
        let mut bad = sample();
        bad.divergence = Some(1.5);
        assert!(bad.validate().is_err());
        let mut bad = sample();
        bad.batch = 0;
        assert!(bad.validate().is_err());
        // Overrides the optimizer would reject (or panic on) are refused at
        // admission, and a stored job carrying one does not load.
        let degenerate: [fn(&mut Overrides); 8] = [
            |o| o.refit_every = Some(0),
            |o| o.mc_samples = Some(0),
            |o| o.candidate_pool = Some(0),
            |o| o.n_init_impl = Some(0),
            |o| o.n_init_syn = Some(1), // below quick()'s n_init_impl of 2
            |o| o.n_init = Some(2),     // below quick()'s n_init_syn of 3
            // Costs that abort the worker process on allocation.
            |o| o.gp_restarts = Some(GP_RESTARTS_MAX + 1),
            |o| o.mc_samples = Some(MC_SAMPLES_MAX + 1),
        ];
        for (i, break_it) in degenerate.iter().enumerate() {
            let mut bad = sample();
            break_it(&mut bad.overrides);
            assert!(
                matches!(bad.validate(), Err(ServeError::InvalidJob { .. })),
                "case {i}"
            );
            assert!(
                matches!(
                    JobSpec::parse(&bad.to_json()),
                    Err(ServeError::InvalidJob { .. })
                ),
                "case {i}"
            );
        }
    }

    #[test]
    fn the_cost_bounds_admit_their_own_value() {
        let mut job = sample();
        job.overrides.gp_restarts = Some(GP_RESTARTS_MAX);
        job.overrides.mc_samples = Some(MC_SAMPLES_MAX);
        assert!(job.validate().is_ok());
        assert_eq!(JobSpec::parse(&job.to_json()).unwrap(), job);
    }

    #[test]
    fn stored_warm_start_of_either_value_is_ignored() {
        // Every `job.json` persisted while cross-step warm starts existed
        // carries `"warm_start"`, mostly `true`. Both values load as the
        // same job, so an upgraded daemon recovers those sessions; a
        // non-bool is still malformed.
        let job = sample();
        let line = job.to_json();
        assert!(!line.contains("warm_start"), "{line}");
        for stored in ["true", "false"] {
            let stored = line.replacen(
                "\"async_slots\":0",
                &format!("\"async_slots\":0,\"warm_start\":{stored}"),
                1,
            );
            assert_ne!(stored, line);
            assert_eq!(JobSpec::parse(&stored).unwrap(), job);
        }
        for bad in ["1", "\"yes\"", "null"] {
            let line = line.replacen(
                "\"async_slots\":0",
                &format!("\"async_slots\":0,\"warm_start\":{bad}"),
                1,
            );
            assert!(
                matches!(JobSpec::parse(&line), Err(ServeError::InvalidJob { .. })),
                "{line}"
            );
        }
    }

    #[test]
    fn stored_mixed_precision_false_loads_and_true_is_rejected() {
        // Every `job.json` persisted before mixed precision was removed
        // carries `"mixed_precision": false`; those must keep loading as the
        // same job. A job asking for the removed screen is refused rather
        // than silently run with a different fit.
        let job = sample();
        let line = job.to_json();
        assert!(!line.contains("mixed_precision"), "{line}");
        let stored = line.replacen(
            "\"async_slots\":0",
            "\"async_slots\":0,\"mixed_precision\":false",
            1,
        );
        assert_ne!(stored, line);
        assert_eq!(JobSpec::parse(&stored).unwrap(), job);
        for bad in ["true", "1"] {
            let line = line.replacen(
                "\"async_slots\":0",
                &format!("\"async_slots\":0,\"mixed_precision\":{bad}"),
                1,
            );
            assert!(
                matches!(JobSpec::parse(&line), Err(ServeError::InvalidJob { .. })),
                "{line}"
            );
        }
    }

    #[test]
    fn tenants_get_isolated_seeds() {
        let (a_opt, a_gp) = derived_seeds("acme", 2021);
        let (b_opt, b_gp) = derived_seeds("bolt", 2021);
        assert_ne!(a_opt, b_opt);
        assert_ne!(a_gp, b_gp);
        assert_ne!(a_opt, a_gp);
        // And the derivation is stable (a daemon restart must agree).
        assert_eq!(derived_seeds("acme", 2021), (a_opt, a_gp));
    }

    #[test]
    fn config_reflects_overrides_and_derived_seeds() {
        let job = sample();
        let cfg = job.to_config();
        assert_eq!(cfg.n_iter, 6);
        assert_eq!(cfg.batch_size, 2);
        assert_eq!(cfg.candidate_pool, 30);
        assert_eq!(cfg.gp.restarts, 0);
        let (seed, gp_seed) = derived_seeds("acme", 99);
        assert_eq!(cfg.seed, seed);
        assert_eq!(cfg.gp.seed, gp_seed);
    }

    #[test]
    fn unknown_benchmarks_and_variants_are_rejected() {
        assert!(JobSpec::parse(r#"{"tenant": "t", "session": "s", "benchmark": "NOPE"}"#).is_err());
        assert!(JobSpec::parse(
            r#"{"tenant": "t", "session": "s", "benchmark": "GEMM", "variant": "theirs"}"#
        )
        .is_err());
        assert!(JobSpec::parse(r#"{"tenant": "t", "session": "s"}"#).is_err());
    }
}
