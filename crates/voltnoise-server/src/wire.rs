//! The wire format and its validating decoder: the daemon's
//! malformed-input boundary.
//!
//! A batch request is JSON of the shape
//!
//! ```json
//! {
//!   "jobs": [
//!     {"mapping": ["max","idle","idle","idle","idle","idle"],
//!      "stim_freq_hz": 2.5e6, "sync": true,
//!      "window_s": 25e-6, "seed": 1,
//!      "record_traces": false, "max_steps": 200000}
//!   ],
//!   "deadline_ms": 30000
//! }
//! ```
//!
//! Jobs are *testbed-relative*: a mapping of workload classes onto the
//! six cores plus the electrical knobs, exactly the vocabulary of
//! [`voltnoise_system::testbed::Testbed::loads_of_mapping`]. The server
//! compiles them against its testbed, so a wire job resolves to the
//! same content key as the equivalent locally-built
//! [`voltnoise_system::engine::SimJob`] — which is what makes
//! cross-client dedup and store resume exact.
//!
//! A `/rack` body is a JSON array of rack job specs (rack shape,
//! variation seed, active sites, stimulus, window and seed), decoded
//! and range-checked entry by entry; the server prices and compiles it
//! and answers through the same streamed envelope as `/jobs`.
//!
//! Decoding is *strict where silence would lie*: the vendored JSON
//! layer happily parses duplicate object keys (keeping both) and maps
//! non-finite floats through `null`, so this module re-walks the value
//! tree and rejects duplicate keys, unknown fields, `null`-encoded
//! NaNs, non-finite or non-positive numbers, wrong shapes and empty or
//! oversized batches — each with a machine-readable [`WireError`]
//! naming the offending job index. It never panics on any input.

use serde::Value;
use voltnoise_pdn::topology::NUM_CORES;
use voltnoise_system::telemetry::SignalTelemetry;
use voltnoise_system::workload::WorkloadKind;

/// Hard cap on jobs per batch: above this, admission arithmetic and
/// response streaming still work but a single request monopolizes the
/// engine, so the decoder refuses outright.
pub const MAX_JOBS_PER_BATCH: usize = 4096;

/// Wrapper giving the vendored [`Value`] a `Deserialize` impl, so a
/// request body can be parsed to a raw tree before validation.
struct RawValue(Value);

impl serde::Deserialize for RawValue {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(RawValue(v.clone()))
    }
}

/// One wire job: a testbed-relative simulation spec.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Workload class per core.
    pub mapping: [WorkloadKind; NUM_CORES],
    /// Stressmark stimulus frequency, Hz.
    pub stim_freq_hz: f64,
    /// TOD-synchronize the stressmark bursts (paper default sync spec).
    pub sync: bool,
    /// Simulated window, seconds (`None`: sized from stimulus periods).
    pub window_s: Option<f64>,
    /// Random seed of the free-run phases.
    pub seed: u64,
    /// Record per-core oscilloscope traces.
    pub record_traces: bool,
    /// Per-job accepted-step budget.
    pub max_steps: Option<usize>,
}

impl JobSpec {
    /// Estimated accepted transient steps this job will cost — the
    /// admission-control currency. An explicit budget is its own
    /// estimate; otherwise the estimate scales with the simulated
    /// window at the solver's coarse rate (a deliberate overcount:
    /// admission errs toward shedding, not overload).
    pub(crate) fn estimated_steps(&self) -> u64 {
        if let Some(budget) = self.max_steps {
            return budget as u64;
        }
        // Windows default to ~50 µs when unspecified.
        window_steps(self.window_s.unwrap_or(50e-6))
    }

    /// Serializes this spec back to its wire value — the inverse of the
    /// strict decoder, used by [`BatchRequest::to_json`]. Round-trips
    /// through [`parse_batch`] to an equal spec; optional fields absent
    /// in the spec stay absent on the wire, so two clients building the
    /// same spec emit the same bytes.
    pub fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = vec![
            (
                "mapping".to_string(),
                Value::Array(
                    self.mapping
                        .iter()
                        .map(|k| Value::Str(k.label().to_string()))
                        .collect(),
                ),
            ),
            ("stim_freq_hz".to_string(), Value::F64(self.stim_freq_hz)),
            ("sync".to_string(), Value::Bool(self.sync)),
            ("seed".to_string(), Value::U64(self.seed)),
            ("record_traces".to_string(), Value::Bool(self.record_traces)),
        ];
        if let Some(window_s) = self.window_s {
            fields.push(("window_s".to_string(), Value::F64(window_s)));
        }
        if let Some(max_steps) = self.max_steps {
            fields.push(("max_steps".to_string(), Value::U64(max_steps as u64)));
        }
        Value::Object(fields)
    }
}

/// Estimated accepted steps of one chip-scale solve of `window_s`
/// simulated seconds: the two-rate solver accepts on the order of 4e8
/// steps per simulated second on this topology.
fn window_steps(window_s: f64) -> u64 {
    (window_s * 4e8).max(1.0) as u64
}

/// A decoded batch request.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRequest {
    /// The jobs, in request order.
    pub jobs: Vec<JobSpec>,
    /// Wall-clock deadline for the whole batch, milliseconds (`None`:
    /// the server default applies).
    pub deadline_ms: Option<u64>,
}

impl BatchRequest {
    /// Total estimated step cost of the batch.
    pub(crate) fn estimated_steps(&self) -> u64 {
        self.jobs.iter().map(JobSpec::estimated_steps).sum()
    }

    /// Serializes the batch to a request body [`parse_batch`] accepts
    /// and decodes back to an equal value.
    pub fn to_json(&self) -> String {
        let mut fields: Vec<(String, Value)> = vec![(
            "jobs".to_string(),
            Value::Array(self.jobs.iter().map(JobSpec::to_value).collect()),
        )];
        if let Some(deadline_ms) = self.deadline_ms {
            fields.push(("deadline_ms".to_string(), Value::U64(deadline_ms)));
        }
        serde_json::to_string(&Value::Object(fields)).unwrap_or_else(|_| "{}".to_string())
    }
}

/// A typed decode failure: stable machine-readable `code`, human
/// `detail`, and the offending job index when one is identifiable.
/// Serialized as the body of every `400` response.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// Stable error code (`invalid-json`, `duplicate-key`,
    /// `unknown-field`, `missing-field`, `bad-type`, `non-finite`,
    /// `bad-value`, `empty-batch`, `batch-too-large`).
    pub code: &'static str,
    /// Human-readable description.
    pub detail: String,
    /// Index of the offending job within `jobs`, when identifiable.
    pub job: Option<usize>,
}

impl WireError {
    pub(crate) fn new(code: &'static str, detail: impl Into<String>) -> WireError {
        WireError {
            code,
            detail: detail.into(),
            job: None,
        }
    }

    fn at_job(mut self, index: usize) -> WireError {
        self.job = Some(index);
        self
    }

    /// The machine-readable JSON body of the `400` response.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            (
                "error".to_string(),
                Value::Str("invalid-request".to_string()),
            ),
            ("code".to_string(), Value::Str(self.code.to_string())),
            ("detail".to_string(), Value::Str(self.detail.clone())),
        ];
        if let Some(job) = self.job {
            fields.push(("job".to_string(), Value::U64(job as u64)));
        }
        render(&Value::Object(fields))
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.job {
            Some(job) => write!(f, "{} (job {job}): {}", self.code, self.detail),
            None => write!(f, "{}: {}", self.code, self.detail),
        }
    }
}

impl std::error::Error for WireError {}

/// Renders a raw value tree as compact JSON (the writer is total).
fn render(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|_| "{}".to_string())
}

/// A validated object view: duplicate keys and unknown fields rejected
/// up front, fields consumed by name afterwards.
struct StrictObject<'a> {
    entries: &'a [(String, Value)],
}

impl<'a> StrictObject<'a> {
    fn of(v: &'a Value, what: &str, allowed: &[&str]) -> Result<StrictObject<'a>, WireError> {
        let entries = v
            .as_object()
            .ok_or_else(|| WireError::new("bad-type", format!("{what} must be a JSON object")))?;
        for (i, (key, _)) in entries.iter().enumerate() {
            if entries[..i].iter().any(|(k, _)| k == key) {
                // The vendored parser keeps both entries and `field()`
                // silently serves the first — a wire request relying on
                // that would mean different things to different
                // decoders, so refuse it outright.
                return Err(WireError::new(
                    "duplicate-key",
                    format!("{what} has duplicate key {key:?}"),
                ));
            }
            if !allowed.contains(&key.as_str()) {
                return Err(WireError::new(
                    "unknown-field",
                    format!("{what} has unknown field {key:?} (allowed: {allowed:?})"),
                ));
            }
        }
        Ok(StrictObject { entries })
    }

    fn get(&self, name: &str) -> Option<&'a Value> {
        self.entries.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

/// A required, finite, strictly positive float field. `null` is called
/// out specifically: it is how NaN/Inf arrive over this wire.
fn finite_positive_f64(v: &Value, what: &str) -> Result<f64, WireError> {
    let x = match v {
        Value::F64(x) => *x,
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        Value::Null => {
            return Err(WireError::new(
                "non-finite",
                format!("{what} is null — NaN and infinities encode as null and are rejected"),
            ))
        }
        other => {
            return Err(WireError::new(
                "bad-type",
                format!("{what} must be a number, got {}", render(other)),
            ))
        }
    };
    if !x.is_finite() {
        return Err(WireError::new(
            "non-finite",
            format!("{what} must be finite, got {x}"),
        ));
    }
    if x <= 0.0 {
        return Err(WireError::new(
            "bad-value",
            format!("{what} must be positive, got {x}"),
        ));
    }
    Ok(x)
}

fn u64_field(v: &Value, what: &str) -> Result<u64, WireError> {
    match v {
        Value::U64(n) => Ok(*n),
        other => Err(WireError::new(
            "bad-type",
            format!(
                "{what} must be a non-negative integer, got {}",
                render(other)
            ),
        )),
    }
}

fn bool_field(v: &Value, what: &str) -> Result<bool, WireError> {
    match v {
        Value::Bool(b) => Ok(*b),
        other => Err(WireError::new(
            "bad-type",
            format!("{what} must be a boolean, got {}", render(other)),
        )),
    }
}

fn workload_of(v: &Value, what: &str) -> Result<WorkloadKind, WireError> {
    let label = match v {
        Value::Str(s) => s.as_str(),
        other => {
            return Err(WireError::new(
                "bad-type",
                format!(
                    "{what} must be a workload label string, got {}",
                    render(other)
                ),
            ))
        }
    };
    WorkloadKind::ALL
        .into_iter()
        .find(|k| k.label() == label)
        .ok_or_else(|| {
            WireError::new(
                "bad-value",
                format!("{what} must be one of \"idle\", \"med\", \"max\"; got {label:?}"),
            )
        })
}

/// The `"signal"` section of the `/stats` body: the engine's
/// spectral-signature telemetry reduced to counts plus bucket-floor
/// quantiles (exact to within a factor of two, like every
/// [`voltnoise_system::telemetry::LogHistogram`] reading). Quantile
/// fields are *absent* — not `null` — while no trace has been
/// analyzed, so the encoding never emits the `null` that strict
/// decoders reject as a smuggled NaN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignalStats {
    /// Scope traces analyzed (one per core per traced solve).
    pub traces: u64,
    /// Traces whose signature computation failed.
    pub rejected: u64,
    /// Median Welch-peak frequency bucket floor, Hz.
    pub peak_freq_hz_p50: Option<u64>,
    /// 95th-percentile Welch-peak frequency bucket floor, Hz.
    pub peak_freq_hz_p95: Option<u64>,
    /// Median die-band power bucket floor, 1e-15 V² units.
    pub band_power_femto_p50: Option<u64>,
    /// Median assessed min-entropy bucket floor, milli-bits/sample.
    pub min_entropy_millibits_p50: Option<u64>,
}

impl SignalStats {
    /// Reduces a telemetry aggregate to its wire summary.
    pub fn of(sig: &SignalTelemetry) -> SignalStats {
        SignalStats {
            traces: sig.traces,
            rejected: sig.rejected,
            peak_freq_hz_p50: sig.peak_freq_hz.median(),
            peak_freq_hz_p95: sig.peak_freq_hz.p95(),
            band_power_femto_p50: sig.band_power_femto.median(),
            min_entropy_millibits_p50: sig.min_entropy_millibits.median(),
        }
    }

    /// Serializes the summary to its wire value; absent quantiles stay
    /// absent on the wire, so two servers with equal telemetry emit the
    /// same bytes.
    pub fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = vec![
            ("traces".to_string(), Value::U64(self.traces)),
            ("rejected".to_string(), Value::U64(self.rejected)),
        ];
        let optional = [
            ("peak_freq_hz_p50", self.peak_freq_hz_p50),
            ("peak_freq_hz_p95", self.peak_freq_hz_p95),
            ("band_power_femto_p50", self.band_power_femto_p50),
            ("min_entropy_millibits_p50", self.min_entropy_millibits_p50),
        ];
        for (name, value) in optional {
            if let Some(v) = value {
                fields.push((name.to_string(), Value::U64(v)));
            }
        }
        Value::Object(fields)
    }

    /// Compact JSON rendering of [`SignalStats::to_value`].
    pub fn to_json(&self) -> String {
        render(&self.to_value())
    }
}

/// One `/rack` entry: a rack shape + variation draw, the site ordinals
/// running the max-dI/dt stressmark (everything else idles), and the
/// solve window/seed. The server compiles it to a content-keyed rack
/// [`voltnoise_system::engine::SimJob`], so repeated requests ride the
/// engine's memo cache and store.
#[derive(Debug, serde::Deserialize)]
pub(crate) struct RackJobSpec {
    /// Drawers on the rack's supply spine.
    pub(crate) drawers: usize,
    /// Chips per drawer.
    pub(crate) chips_per_drawer: usize,
    /// Seed of the per-chip process-variation draw (passed through
    /// `VariationSpec::paper_default`).
    pub(crate) variation_seed: u64,
    /// Site ordinals (drawer-major) running the stressmark.
    pub(crate) active: Vec<usize>,
    /// Stressmark stimulus frequency, Hz.
    pub(crate) stim_freq_hz: f64,
    /// TOD-synchronize the stressmark bursts.
    pub(crate) sync: bool,
    /// Simulated window, seconds.
    pub(crate) window_s: f64,
    /// Random seed of the free-run phases.
    pub(crate) seed: u64,
}

impl RackJobSpec {
    /// Estimated accepted steps: a rack solve scales with its chip
    /// count, so this is the chip-scale window estimate times the
    /// population.
    pub(crate) fn estimated_steps(&self) -> u64 {
        window_steps(self.window_s) * (self.drawers * self.chips_per_drawer) as u64
    }

    /// Checks the shape and values of entry `i`.
    fn check(&self, i: usize) -> Result<(), WireError> {
        let bad = |detail: String| Err(WireError::new("bad-value", format!("jobs[{i}]: {detail}")));
        if self.drawers == 0 || self.chips_per_drawer == 0 {
            return bad("rack shape must be at least 1x1".into());
        }
        if !(self.stim_freq_hz.is_finite() && self.stim_freq_hz > 0.0) {
            return bad("stim_freq_hz must be finite and positive".into());
        }
        if !(self.window_s.is_finite() && self.window_s > 0.0) {
            return bad("window_s must be finite and positive".into());
        }
        let sites = self.drawers * self.chips_per_drawer * NUM_CORES;
        if let Some(&site) = self.active.iter().find(|&&s| s >= sites) {
            return bad(format!(
                "active site {site} is outside the {sites}-site rack"
            ));
        }
        Ok(())
    }
}

/// Decodes a `/rack` body: a non-empty JSON array of [`RackJobSpec`]s,
/// each checked as it decodes.
///
/// # Errors
///
/// Returns an `invalid-json`, `empty-batch`, `bad-type` or `bad-value`
/// [`WireError`] naming the first offending entry.
pub(crate) fn parse_rack(body: &str) -> Result<Vec<RackJobSpec>, WireError> {
    let RawValue(root) = serde_json::from_str::<RawValue>(body)
        .map_err(|e| WireError::new("invalid-json", e.to_string()))?;
    let items = match root.as_array() {
        Some(items) if !items.is_empty() => items,
        Some(_) => {
            return Err(WireError::new(
                "empty-batch",
                "rack batch must not be empty",
            ))
        }
        None => {
            let detail = "rack batch must be a JSON array of rack job specs";
            return Err(WireError::new("bad-type", detail));
        }
    };
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let spec = <RackJobSpec as serde::Deserialize>::from_value(item)
            .map_err(|e| WireError::new("bad-type", format!("jobs[{i}]: {e}")))?;
        spec.check(i)?;
        out.push(spec);
    }
    Ok(out)
}

fn job_of(v: &Value, index: usize) -> Result<JobSpec, WireError> {
    let what = format!("jobs[{index}]");
    let obj = StrictObject::of(
        v,
        &what,
        &[
            "mapping",
            "stim_freq_hz",
            "sync",
            "window_s",
            "seed",
            "record_traces",
            "max_steps",
        ],
    )?;
    let mapping_v = obj
        .get("mapping")
        .ok_or_else(|| WireError::new("missing-field", format!("{what} is missing \"mapping\"")))?;
    let entries = mapping_v.as_array().ok_or_else(|| {
        WireError::new(
            "bad-type",
            format!("{what}.mapping must be an array of {NUM_CORES} workload labels"),
        )
    })?;
    if entries.len() != NUM_CORES {
        return Err(WireError::new(
            "bad-value",
            format!(
                "{what}.mapping must name all {NUM_CORES} cores, got {}",
                entries.len()
            ),
        ));
    }
    let mut mapping = [WorkloadKind::Idle; NUM_CORES];
    for (core, entry) in entries.iter().enumerate() {
        mapping[core] = workload_of(entry, &format!("{what}.mapping[{core}]"))?;
    }
    let stim_v = obj.get("stim_freq_hz").ok_or_else(|| {
        WireError::new(
            "missing-field",
            format!("{what} is missing \"stim_freq_hz\""),
        )
    })?;
    let stim_freq_hz = finite_positive_f64(stim_v, &format!("{what}.stim_freq_hz"))?;
    let sync = obj
        .get("sync")
        .map(|v| bool_field(v, &format!("{what}.sync")))
        .transpose()?
        .unwrap_or(false);
    let window_s = obj
        .get("window_s")
        .map(|v| finite_positive_f64(v, &format!("{what}.window_s")))
        .transpose()?;
    let seed = obj
        .get("seed")
        .map(|v| u64_field(v, &format!("{what}.seed")))
        .transpose()?
        .unwrap_or(1);
    let record_traces = obj
        .get("record_traces")
        .map(|v| bool_field(v, &format!("{what}.record_traces")))
        .transpose()?
        .unwrap_or(false);
    let max_steps = obj
        .get("max_steps")
        .map(|v| {
            let n = u64_field(v, &format!("{what}.max_steps"))?;
            if n == 0 {
                return Err(WireError::new(
                    "bad-value",
                    format!("{what}.max_steps must be at least 1"),
                ));
            }
            usize::try_from(n).map_err(|_| {
                WireError::new("bad-value", format!("{what}.max_steps does not fit usize"))
            })
        })
        .transpose()?;
    Ok(JobSpec {
        mapping,
        stim_freq_hz,
        sync,
        window_s,
        seed,
        record_traces,
        max_steps,
    })
}

/// Decodes and validates one batch request body.
///
/// # Errors
///
/// Returns a typed [`WireError`] — never panics, never drops a job —
/// for malformed JSON, duplicate keys, unknown or missing fields,
/// `null`-encoded non-finite numbers, shape mismatches, empty batches
/// and batches beyond [`MAX_JOBS_PER_BATCH`].
pub fn parse_batch(body: &str) -> Result<BatchRequest, WireError> {
    let RawValue(root) = serde_json::from_str::<RawValue>(body)
        .map_err(|e| WireError::new("invalid-json", e.to_string()))?;
    let obj = StrictObject::of(&root, "batch", &["jobs", "deadline_ms"])?;
    let jobs_v = obj
        .get("jobs")
        .ok_or_else(|| WireError::new("missing-field", "batch is missing \"jobs\""))?;
    let entries = jobs_v
        .as_array()
        .ok_or_else(|| WireError::new("bad-type", "\"jobs\" must be an array"))?;
    if entries.is_empty() {
        return Err(WireError::new("empty-batch", "\"jobs\" must not be empty"));
    }
    if entries.len() > MAX_JOBS_PER_BATCH {
        return Err(WireError::new(
            "batch-too-large",
            format!(
                "batch of {} jobs exceeds the {MAX_JOBS_PER_BATCH}-job cap",
                entries.len()
            ),
        ));
    }
    let mut jobs = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        jobs.push(job_of(entry, i).map_err(|e| e.at_job(i))?);
    }
    let deadline_ms = obj
        .get("deadline_ms")
        .map(|v| {
            let ms = u64_field(v, "deadline_ms")?;
            if ms == 0 {
                return Err(WireError::new(
                    "bad-value",
                    "deadline_ms must be at least 1",
                ));
            }
            Ok(ms)
        })
        .transpose()?;
    Ok(BatchRequest { jobs, deadline_ms })
}

#[cfg(test)]
mod tests {
    use super::*;

    const VALID: &str = r#"{"jobs":[{"mapping":["max","idle","idle","idle","idle","idle"],"stim_freq_hz":2.5e6,"sync":true,"window_s":2.5e-5,"seed":7,"record_traces":false,"max_steps":50000}],"deadline_ms":30000}"#;

    #[test]
    fn valid_batch_decodes_fully() {
        let batch = parse_batch(VALID).unwrap();
        assert_eq!(batch.jobs.len(), 1);
        let job = &batch.jobs[0];
        assert_eq!(job.mapping[0], WorkloadKind::MaxDidt);
        assert_eq!(job.mapping[5], WorkloadKind::Idle);
        assert_eq!(job.stim_freq_hz, 2.5e6);
        assert!(job.sync);
        assert_eq!(job.window_s, Some(2.5e-5));
        assert_eq!(job.seed, 7);
        assert_eq!(job.max_steps, Some(50000));
        assert_eq!(batch.deadline_ms, Some(30000));
        assert_eq!(batch.estimated_steps(), 50000);
    }

    #[test]
    fn batch_to_json_round_trips_through_the_strict_decoder() {
        let batch = parse_batch(VALID).unwrap();
        let redecoded = parse_batch(&batch.to_json()).unwrap();
        assert_eq!(batch, redecoded);
        // A spec with all optionals absent must also round-trip (the
        // serializer must not invent defaulted fields).
        let sparse = parse_batch(
            r#"{"jobs":[{"mapping":["idle","idle","idle","idle","idle","idle"],"stim_freq_hz":1000.0}]}"#,
        )
        .unwrap();
        assert_eq!(sparse, parse_batch(&sparse.to_json()).unwrap());
        // Same batch, same bytes: routers on different hosts agree.
        assert_eq!(
            batch.to_json(),
            parse_batch(&batch.to_json()).unwrap().to_json()
        );
    }

    #[test]
    fn optional_fields_default() {
        let batch = parse_batch(
            r#"{"jobs":[{"mapping":["idle","idle","idle","idle","idle","idle"],"stim_freq_hz":1000.0}]}"#,
        )
        .unwrap();
        let job = &batch.jobs[0];
        assert!(!job.sync);
        assert_eq!(job.window_s, None);
        assert_eq!(job.seed, 1);
        assert!(!job.record_traces);
        assert_eq!(job.max_steps, None);
        assert_eq!(batch.deadline_ms, None);
        // The unbudgeted estimate is the window heuristic, never zero.
        assert!(job.estimated_steps() > 0);
    }

    /// Fuzz-style sweep: every proper prefix of a valid body must fail
    /// with a typed error, not a panic or a silent partial decode.
    #[test]
    fn truncated_payloads_all_fail_typed() {
        for cut in 0..VALID.len() {
            let truncated = &VALID[..cut];
            let err = parse_batch(truncated)
                .expect_err(&format!("prefix of {cut} bytes must not decode"));
            assert!(!err.code.is_empty());
            assert!(!err.to_json().is_empty());
        }
    }

    #[test]
    fn nan_arrives_as_null_and_is_rejected_as_non_finite() {
        // serde_json (vendored and real) prints NaN/Inf as null; a
        // decoder that "tolerantly" read NaN here would poison the
        // content key downstream.
        let body = r#"{"jobs":[{"mapping":["idle","idle","idle","idle","idle","idle"],"stim_freq_hz":null}]}"#;
        let err = parse_batch(body).unwrap_err();
        assert_eq!(err.code, "non-finite");
        assert_eq!(err.job, Some(0));
        assert!(err.to_json().contains("\"job\":0"), "{}", err.to_json());
    }

    #[test]
    fn duplicate_keys_are_rejected_not_first_wins() {
        let body = r#"{"jobs":[{"mapping":["idle","idle","idle","idle","idle","idle"],"stim_freq_hz":1.0,"stim_freq_hz":2.0}]}"#;
        let err = parse_batch(body).unwrap_err();
        assert_eq!(err.code, "duplicate-key");
        assert_eq!(err.job, Some(0));
        let outer = r#"{"jobs":[],"jobs":[]}"#;
        assert_eq!(parse_batch(outer).unwrap_err().code, "duplicate-key");
    }

    #[test]
    fn unknown_fields_and_wrong_shapes_are_typed() {
        let cases: &[(&str, &str)] = &[
            (
                r#"{"jobs":[{"mapping":["idle","idle","idle","idle","idle","idle"],"stim_freq_hz":1.0,"bogus":1}]}"#,
                "unknown-field",
            ),
            (r#"{"jobs":[{"stim_freq_hz":1.0}]}"#, "missing-field"),
            (
                r#"{"jobs":[{"mapping":"max","stim_freq_hz":1.0}]}"#,
                "bad-type",
            ),
            (
                r#"{"jobs":[{"mapping":["max","idle"],"stim_freq_hz":1.0}]}"#,
                "bad-value",
            ),
            (
                r#"{"jobs":[{"mapping":["max","idle","idle","idle","idle","turbo"],"stim_freq_hz":1.0}]}"#,
                "bad-value",
            ),
            (
                r#"{"jobs":[{"mapping":["idle","idle","idle","idle","idle","idle"],"stim_freq_hz":-5.0}]}"#,
                "bad-value",
            ),
            (
                r#"{"jobs":[{"mapping":["idle","idle","idle","idle","idle","idle"],"stim_freq_hz":1.0,"seed":-3}]}"#,
                "bad-type",
            ),
            (
                r#"{"jobs":[{"mapping":["idle","idle","idle","idle","idle","idle"],"stim_freq_hz":1.0,"max_steps":0}]}"#,
                "bad-value",
            ),
            (r#"{"jobs":[]}"#, "empty-batch"),
            (r#"{"jobs":[1]}"#, "bad-type"),
            (r#"{"deadline_ms":5}"#, "missing-field"),
            (
                r#"{"jobs":[{"mapping":["idle","idle","idle","idle","idle","idle"],"stim_freq_hz":1.0}],"deadline_ms":0}"#,
                "bad-value",
            ),
            (
                r#"{"jobs":[{"mapping":["idle","idle","idle","idle","idle","idle"],"stim_freq_hz":1.0}],"surprise":true}"#,
                "unknown-field",
            ),
            ("[]", "bad-type"),
            ("not json at all", "invalid-json"),
            ("", "invalid-json"),
        ];
        for (body, code) in cases {
            let err = parse_batch(body).unwrap_err();
            assert_eq!(err.code, *code, "body {body:?} gave {err}");
        }
    }

    #[test]
    fn wire_error_json_is_machine_readable() {
        let err = parse_batch(r#"{"jobs":[{"mapping":["idle","idle","idle","idle","idle","idle"],"stim_freq_hz":null}]}"#)
            .unwrap_err();
        let json = err.to_json();
        assert!(json.contains("\"error\":\"invalid-request\""), "{json}");
        assert!(json.contains("\"code\":\"non-finite\""), "{json}");
        assert!(json.contains("\"detail\":"), "{json}");
    }

    #[test]
    fn empty_telemetry_omits_quantiles_and_round_trips() {
        let stats = SignalStats::of(&SignalTelemetry::default());
        assert_eq!(stats.traces, 0);
        assert_eq!(stats.peak_freq_hz_p50, None);
        // Absent, not null: a strict decoder would reject null.
        assert_eq!(stats.to_json(), r#"{"traces":0,"rejected":0}"#);
    }

    #[test]
    fn populated_telemetry_summarizes_bucket_floors() {
        let mut tel = SignalTelemetry::default();
        tel.record_signature(&voltnoise_pdn::signal::TraceSignature {
            peak_freq_hz: 2.5e6,
            peak_psd: 1e-9,
            band_power: 3e-7,
            min_entropy_bits: 1.5,
        });
        tel.record_rejected();
        let stats = SignalStats::of(&tel);
        assert_eq!(stats.traces, 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.peak_freq_hz_p50, Some(1 << 21)); // floor(2.5 MHz)
        assert_eq!(stats.min_entropy_millibits_p50, Some(1 << 10)); // 1500 mb
        assert_eq!(
            stats.to_json(),
            r#"{"traces":1,"rejected":1,"peak_freq_hz_p50":2097152,"peak_freq_hz_p95":2097152,"band_power_femto_p50":268435456,"min_entropy_millibits_p50":1024}"#
        );
    }

    #[test]
    fn batch_size_cap_is_enforced() {
        let one = r#"{"mapping":["idle","idle","idle","idle","idle","idle"],"stim_freq_hz":1.0}"#;
        let body = format!(
            r#"{{"jobs":[{}]}}"#,
            vec![one; MAX_JOBS_PER_BATCH + 1].join(",")
        );
        assert_eq!(parse_batch(&body).unwrap_err().code, "batch-too-large");
    }
}
