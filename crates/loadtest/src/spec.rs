//! The versioned declarative scenario spec (`multiclust-loadtest/v1`).
//!
//! A scenario file describes everything one load-test run needs: the
//! planted-truth dataset the quality floors are judged against, the
//! arrival pattern (closed-loop workers or a paced open-loop rate on the
//! logical tick clock), the operation mix with per-family fit weights,
//! the server budget, optional chaos, and the declarative expectations
//! the judge enforces.
//!
//! Parsing is hand-rolled over the JSON [`Value`] tree so every rejection
//! is one clean line naming the offending field (`scenario field
//! "arrival.mode": ...`) — the same convention the serve protocol and the
//! trace readers follow: a malformed data file is a data problem, never a
//! usage dump.

use serde::Value;

/// Schema tag every scenario file must carry.
pub const SCHEMA: &str = "multiclust-loadtest/v1";

/// One planted view of the synthetic dataset (mirrors the generator's
/// `ViewSpec`).
#[derive(Clone, Debug, PartialEq)]
pub struct ViewDef {
    /// Attributes carrying this view.
    pub dims: usize,
    /// Clusters planted in this view.
    pub clusters: usize,
    /// Distance between neighbouring cluster centres.
    pub separation: f64,
    /// Gaussian noise around each centre.
    pub noise: f64,
}

/// Shape of the planted-truth dataset the workload fits against.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetSpec {
    /// Object count.
    pub n: usize,
    /// Unclustered uniform-noise attributes appended after the views.
    pub noise_dims: usize,
    /// The planted views (≥ 1).
    pub views: Vec<ViewDef>,
}

/// How requests arrive at the service.
#[derive(Clone, Debug, PartialEq)]
pub enum Arrival {
    /// `workers` concurrent closed-loop clients share a budget of
    /// `requests` total operations (round-robin).
    Closed {
        /// Concurrent driver clients.
        workers: usize,
        /// Total operation budget across all workers.
        requests: usize,
    },
    /// Open-loop pacing on the logical tick clock: each of `ticks`
    /// barrier-released rounds issues `rate` operations spread over
    /// `workers` clients. No wall-clock sleeps are involved — the tick
    /// clock is the barrier itself, so the schedule is deterministic.
    Open {
        /// Concurrent driver clients.
        workers: usize,
        /// Operations released per tick.
        rate: usize,
        /// Number of ticks.
        ticks: usize,
    },
}

impl Arrival {
    /// Concurrent driver clients.
    pub fn workers(&self) -> usize {
        match self {
            Arrival::Closed { workers, .. } | Arrival::Open { workers, .. } => *workers,
        }
    }

    /// Total planned operations.
    pub fn total_requests(&self) -> usize {
        match self {
            Arrival::Closed { requests, .. } => *requests,
            Arrival::Open { rate, ticks, .. } => rate * ticks,
        }
    }
}

/// Weighted operation mix. Fit weights are per algorithm family, in
/// file order; the other operations carry one weight each.
#[derive(Clone, Debug, PartialEq)]
pub struct MixSpec {
    /// `family name → weight` for fit operations (file order preserved).
    pub fit: Vec<(String, u64)>,
    /// Weight of `assign` operations.
    pub assign: u64,
    /// Weight of `compare` operations.
    pub compare: u64,
    /// Weight of `list` operations.
    pub list: u64,
    /// Weight of `evict` operations.
    pub evict: u64,
}

impl MixSpec {
    /// Sum of all weights (validated > 0 at parse time).
    pub fn total_weight(&self) -> u64 {
        self.fit.iter().map(|(_, w)| *w).sum::<u64>()
            + self.assign
            + self.compare
            + self.list
            + self.evict
    }
}

/// Parameters every fit request carries.
#[derive(Clone, Debug, PartialEq)]
pub struct FitParams {
    /// Cluster count.
    pub k: usize,
    /// RNG seed served fits run at (quality floors are judged on these
    /// solutions, so the seed is part of the scenario, not the driver).
    pub seed: u64,
}

/// Server budget for the run.
#[derive(Clone, Debug, PartialEq)]
pub struct ServerSpec {
    /// Model-registry capacity.
    pub capacity: usize,
    /// Thread budget (`0` = inherit `MULTICLUST_THREADS` from the
    /// environment — what the byte-identical replay gate relies on).
    pub threads: usize,
}

/// Chaos knobs forwarded to the server (all zero = disabled).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChaosSpec {
    /// Sleep before every `slow_every`-th workload op.
    pub slow_every: u64,
    /// Sleep duration in milliseconds.
    pub slow_ms: u64,
    /// Drop the connection on every `drop_every`-th workload op.
    pub drop_every: u64,
}

/// One declarative assertion the judge enforces over the run record.
#[derive(Clone, Debug, PartialEq)]
pub enum Expectation {
    /// `latency_us[op].quantile() <= max_ms` (measured in microseconds,
    /// the ceiling in milliseconds).
    Latency {
        /// Operation the ceiling applies to (`fit`, `assign`, ...).
        op: String,
        /// `p50`, `p90` or `p99`.
        quantile: String,
        /// Ceiling in milliseconds.
        max_ms: u64,
    },
    /// `errors / requests <= max`.
    ErrorRate {
        /// Maximum tolerated error fraction.
        max: f64,
    },
    /// At most `max` errors with the named structured code.
    ErrorBudget {
        /// Structured error code (`transport`, `unknown-model`, ...).
        code: String,
        /// Budget for that code.
        max: u64,
    },
    /// At least `min` errors with the named code — how a chaos scenario
    /// proves its degradation actually happened.
    MinErrors {
        /// Structured error code.
        code: String,
        /// Required minimum.
        min: u64,
    },
    /// Best ARI/NMI of the family's served solutions against any planted
    /// truth must reach the floor.
    QualityFloor {
        /// Algorithm family the floor applies to.
        family: String,
        /// `ari` or `nmi`.
        measure: String,
        /// Minimum acceptable agreement.
        floor: f64,
    },
    /// `telemetry.events_dropped <= max` (usually 0).
    EventsDropped {
        /// Maximum tolerated dropped events.
        max: u64,
    },
    /// Every served fit must match the in-process reference fit byte for
    /// byte (zero mismatches).
    ServeEquivalence,
    /// The server's own chaos counters must report exactly this many
    /// slowed and dropped workload ops — the scenario proving its chaos
    /// knobs actually fired (and fired deterministically).
    ChaosFired {
        /// Exact `serve.chaos.slowed` count expected.
        slowed: u64,
        /// Exact `serve.chaos.dropped` count expected.
        dropped: u64,
    },
    /// Allocation peak ceiling, judged only when `MULTICLUST_ALLOC=1`
    /// (skipped — and counted as passing — otherwise).
    AllocPeak {
        /// Ceiling on the peak live heap, in bytes.
        max_bytes: u64,
    },
}

impl Expectation {
    /// The spec `kind` tag.
    pub fn kind(&self) -> &'static str {
        match self {
            Expectation::Latency { .. } => "latency",
            Expectation::ErrorRate { .. } => "error-rate",
            Expectation::ErrorBudget { .. } => "error-budget",
            Expectation::MinErrors { .. } => "min-errors",
            Expectation::QualityFloor { .. } => "quality-floor",
            Expectation::EventsDropped { .. } => "events-dropped",
            Expectation::ServeEquivalence => "serve-equivalence",
            Expectation::ChaosFired { .. } => "chaos-fired",
            Expectation::AllocPeak { .. } => "alloc-peak",
        }
    }
}

/// A fully parsed `multiclust-loadtest/v1` scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (lands in the report).
    pub name: String,
    /// Master seed: drives the planted dataset and the op-mix draws.
    pub seed: u64,
    /// Dataset shape.
    pub dataset: DatasetSpec,
    /// Arrival pattern.
    pub arrival: Arrival,
    /// Operation mix.
    pub mix: MixSpec,
    /// Fit parameters.
    pub fit: FitParams,
    /// Server budget.
    pub server: ServerSpec,
    /// Chaos knobs.
    pub chaos: ChaosSpec,
    /// Judged expectations.
    pub expectations: Vec<Expectation>,
}

// ---------------------------------------------------------------------
// Parsing: Value tree → spec, one clean line per rejection
// ---------------------------------------------------------------------

type Fields = [(String, Value)];

fn get<'a>(fields: &'a Fields, name: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn err<T>(path: &str, what: impl std::fmt::Display) -> Result<T, String> {
    Err(format!("scenario field {path:?}: {what}"))
}

fn as_object<'a>(v: &'a Value, path: &str) -> Result<&'a Fields, String> {
    match v {
        Value::Object(fields) => Ok(fields),
        other => err(path, format_args!("expected an object, got {}", type_name(other))),
    }
}

fn type_name(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "a boolean",
        Value::Int(_) => "an integer",
        Value::Float(_) => "a float",
        Value::String(_) => "a string",
        Value::Array(_) => "an array",
        Value::Object(_) => "an object",
    }
}

fn req<'a>(fields: &'a Fields, parent: &str, name: &str) -> Result<&'a Value, String> {
    get(fields, name).ok_or_else(|| {
        let path = join(parent, name);
        format!("scenario field {path:?}: missing")
    })
}

fn join(parent: &str, name: &str) -> String {
    if parent.is_empty() {
        name.to_string()
    } else {
        format!("{parent}.{name}")
    }
}

fn usize_at(fields: &Fields, parent: &str, name: &str) -> Result<usize, String> {
    let path = join(parent, name);
    match req(fields, parent, name)? {
        Value::Int(i) if *i >= 0 => Ok(*i as usize),
        other => err(&path, format_args!("expected a non-negative integer, got {}", type_name(other))),
    }
}

fn u64_at(fields: &Fields, parent: &str, name: &str) -> Result<u64, String> {
    let path = join(parent, name);
    match req(fields, parent, name)? {
        Value::Int(i) if *i >= 0 => Ok(*i as u64),
        other => err(&path, format_args!("expected a non-negative integer, got {}", type_name(other))),
    }
}

fn u64_or(fields: &Fields, parent: &str, name: &str, default: u64) -> Result<u64, String> {
    match get(fields, name) {
        None => Ok(default),
        Some(_) => u64_at(fields, parent, name),
    }
}

fn f64_at(fields: &Fields, parent: &str, name: &str) -> Result<f64, String> {
    let path = join(parent, name);
    match req(fields, parent, name)? {
        Value::Float(f) => Ok(*f),
        Value::Int(i) => Ok(*i as f64),
        other => err(&path, format_args!("expected a number, got {}", type_name(other))),
    }
}

fn string_at(fields: &Fields, parent: &str, name: &str) -> Result<String, String> {
    let path = join(parent, name);
    match req(fields, parent, name)? {
        Value::String(s) => Ok(s.clone()),
        other => err(&path, format_args!("expected a string, got {}", type_name(other))),
    }
}

fn parse_dataset(v: &Value) -> Result<DatasetSpec, String> {
    let fields = as_object(v, "dataset")?;
    let n = usize_at(fields, "dataset", "n")?;
    if n == 0 {
        return err("dataset.n", "must be at least 1");
    }
    let noise_dims = match get(fields, "noise_dims") {
        None => 0,
        Some(_) => usize_at(fields, "dataset", "noise_dims")?,
    };
    let views_value = req(fields, "dataset", "views")?;
    let Value::Array(items) = views_value else {
        return err("dataset.views", format_args!("expected an array, got {}", type_name(views_value)));
    };
    if items.is_empty() {
        return err("dataset.views", "needs at least one planted view");
    }
    let mut views = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let path = format!("dataset.views[{i}]");
        let vf = as_object(item, &path)?;
        let dims = usize_at(vf, &path, "dims")?;
        let clusters = usize_at(vf, &path, "clusters")?;
        if dims == 0 || clusters == 0 {
            return err(&path, "dims and clusters must both be at least 1");
        }
        if clusters > n {
            return err(&path, format_args!("plants {clusters} clusters in {n} objects"));
        }
        views.push(ViewDef {
            dims,
            clusters,
            separation: f64_at(vf, &path, "separation")?,
            noise: f64_at(vf, &path, "noise")?,
        });
    }
    Ok(DatasetSpec { n, noise_dims, views })
}

fn parse_arrival(v: &Value) -> Result<Arrival, String> {
    let fields = as_object(v, "arrival")?;
    let mode = string_at(fields, "arrival", "mode")?;
    let workers = usize_at(fields, "arrival", "workers")?;
    if workers == 0 {
        return err("arrival.workers", "must be at least 1");
    }
    match mode.as_str() {
        "closed" => {
            let requests = usize_at(fields, "arrival", "requests")?;
            if requests == 0 {
                return err("arrival.requests", "must be at least 1");
            }
            Ok(Arrival::Closed { workers, requests })
        }
        "open" => {
            let rate = usize_at(fields, "arrival", "rate")?;
            let ticks = usize_at(fields, "arrival", "ticks")?;
            if rate == 0 || ticks == 0 {
                return err("arrival.rate", "rate and ticks must both be at least 1");
            }
            Ok(Arrival::Open { workers, rate, ticks })
        }
        other => err("arrival.mode", format_args!("expected \"closed\" or \"open\", got {other:?}")),
    }
}

fn parse_mix(v: &Value) -> Result<MixSpec, String> {
    let fields = as_object(v, "mix")?;
    let fit_value = req(fields, "mix", "fit")?;
    let Value::Object(fit_fields) = fit_value else {
        return err("mix.fit", format_args!(
            "expected an object of family → weight, got {}",
            type_name(fit_value)
        ));
    };
    let mut fit = Vec::with_capacity(fit_fields.len());
    for (family, weight) in fit_fields {
        let path = format!("mix.fit.{family}");
        match weight {
            Value::Int(w) if *w >= 0 => fit.push((family.clone(), *w as u64)),
            other => {
                return err(&path, format_args!(
                    "expected a non-negative integer weight, got {}",
                    type_name(other)
                ))
            }
        }
    }
    let mix = MixSpec {
        fit,
        assign: u64_or(fields, "mix", "assign", 0)?,
        compare: u64_or(fields, "mix", "compare", 0)?,
        list: u64_or(fields, "mix", "list", 0)?,
        evict: u64_or(fields, "mix", "evict", 0)?,
    };
    if mix.fit.iter().map(|(_, w)| *w).sum::<u64>() == 0 {
        return err("mix.fit", "needs at least one family with a positive weight");
    }
    Ok(mix)
}

fn parse_expectation(v: &Value, i: usize) -> Result<Expectation, String> {
    let path = format!("expectations[{i}]");
    let fields = as_object(v, &path)?;
    let kind = string_at(fields, &path, "kind")?;
    match kind.as_str() {
        "latency" => {
            let quantile = string_at(fields, &path, "quantile")?;
            if !matches!(quantile.as_str(), "p50" | "p90" | "p99") {
                return err(
                    &join(&path, "quantile"),
                    format_args!("expected \"p50\", \"p90\" or \"p99\", got {quantile:?}"),
                );
            }
            Ok(Expectation::Latency {
                op: string_at(fields, &path, "op")?,
                quantile,
                max_ms: u64_at(fields, &path, "max_ms")?,
            })
        }
        "error-rate" => Ok(Expectation::ErrorRate { max: f64_at(fields, &path, "max")? }),
        "error-budget" => Ok(Expectation::ErrorBudget {
            code: string_at(fields, &path, "code")?,
            max: u64_at(fields, &path, "max")?,
        }),
        "min-errors" => Ok(Expectation::MinErrors {
            code: string_at(fields, &path, "code")?,
            min: u64_at(fields, &path, "min")?,
        }),
        "quality-floor" => {
            let measure = string_at(fields, &path, "measure")?;
            if !matches!(measure.as_str(), "ari" | "nmi") {
                return err(
                    &join(&path, "measure"),
                    format_args!("expected \"ari\" or \"nmi\", got {measure:?}"),
                );
            }
            Ok(Expectation::QualityFloor {
                family: string_at(fields, &path, "family")?,
                measure,
                floor: f64_at(fields, &path, "floor")?,
            })
        }
        "events-dropped" => Ok(Expectation::EventsDropped { max: u64_at(fields, &path, "max")? }),
        "serve-equivalence" => Ok(Expectation::ServeEquivalence),
        "chaos-fired" => Ok(Expectation::ChaosFired {
            slowed: u64_at(fields, &path, "slowed")?,
            dropped: u64_at(fields, &path, "dropped")?,
        }),
        "alloc-peak" => Ok(Expectation::AllocPeak { max_bytes: u64_at(fields, &path, "max_bytes")? }),
        other => err(
            &join(&path, "kind"),
            format_args!(
                "unknown expectation kind {other:?} (expected latency, error-rate, \
                 error-budget, min-errors, quality-floor, events-dropped, \
                 serve-equivalence, chaos-fired or alloc-peak)"
            ),
        ),
    }
}

impl ScenarioSpec {
    /// Parses a scenario file's text. Every rejection is one clean line
    /// naming the offending field.
    pub fn parse(text: &str) -> Result<ScenarioSpec, String> {
        let value = serde_json::parse_value(text)
            .map_err(|e| format!("scenario is not valid JSON: {e}"))?;
        Self::from_value(&value)
    }

    /// Parses an already-decoded JSON value.
    pub fn from_value(value: &Value) -> Result<ScenarioSpec, String> {
        let fields = as_object(value, "scenario")?;
        let schema = string_at(fields, "", "schema")?;
        if schema != SCHEMA {
            return err("schema", format_args!("expected {SCHEMA:?}, got {schema:?}"));
        }
        let fit_fields = as_object(req(fields, "", "fit")?, "fit")?;
        let k = usize_at(fit_fields, "fit", "k")?;
        if k == 0 {
            return err("fit.k", "must be at least 1");
        }
        let server_fields = as_object(req(fields, "", "server")?, "server")?;
        let capacity = usize_at(server_fields, "server", "capacity")?;
        if capacity == 0 {
            return err("server.capacity", "must be at least 1");
        }
        let chaos = match get(fields, "chaos") {
            None => ChaosSpec::default(),
            Some(v) => {
                let cf = as_object(v, "chaos")?;
                ChaosSpec {
                    slow_every: u64_or(cf, "chaos", "slow_every", 0)?,
                    slow_ms: u64_or(cf, "chaos", "slow_ms", 0)?,
                    drop_every: u64_or(cf, "chaos", "drop_every", 0)?,
                }
            }
        };
        let expectations_value = req(fields, "", "expectations")?;
        let Value::Array(items) = expectations_value else {
            return err("expectations", format_args!(
                "expected an array, got {}",
                type_name(expectations_value)
            ));
        };
        if items.is_empty() {
            return err("expectations", "needs at least one judged expectation");
        }
        let mut expectations = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            expectations.push(parse_expectation(item, i)?);
        }
        let spec = ScenarioSpec {
            name: string_at(fields, "", "name")?,
            seed: u64_at(fields, "", "seed")?,
            dataset: parse_dataset(req(fields, "", "dataset")?)?,
            arrival: parse_arrival(req(fields, "", "arrival")?)?,
            mix: parse_mix(req(fields, "", "mix")?)?,
            fit: FitParams { k, seed: u64_at(fit_fields, "fit", "seed")? },
            server: ServerSpec {
                capacity,
                threads: match get(server_fields, "threads") {
                    None => 0,
                    Some(_) => usize_at(server_fields, "server", "threads")?,
                },
            },
            chaos,
            expectations,
        };
        if spec.dataset.n > 0 && spec.fit.k > spec.dataset.n {
            return err("fit.k", format_args!(
                "k = {} out of range for {} objects",
                spec.fit.k, spec.dataset.n
            ));
        }
        Ok(spec)
    }

    /// Serializes the spec back to its canonical JSON value (fixed field
    /// order — `parse(to_json(spec))` is the identity, the property the
    /// round-trip tests pin).
    pub fn to_value(&self) -> Value {
        let views = self
            .dataset
            .views
            .iter()
            .map(|v| {
                Value::Object(vec![
                    ("dims".to_string(), Value::Int(v.dims as i64)),
                    ("clusters".to_string(), Value::Int(v.clusters as i64)),
                    ("separation".to_string(), Value::Float(v.separation)),
                    ("noise".to_string(), Value::Float(v.noise)),
                ])
            })
            .collect();
        let arrival = match &self.arrival {
            Arrival::Closed { workers, requests } => Value::Object(vec![
                ("mode".to_string(), Value::String("closed".to_string())),
                ("workers".to_string(), Value::Int(*workers as i64)),
                ("requests".to_string(), Value::Int(*requests as i64)),
            ]),
            Arrival::Open { workers, rate, ticks } => Value::Object(vec![
                ("mode".to_string(), Value::String("open".to_string())),
                ("workers".to_string(), Value::Int(*workers as i64)),
                ("rate".to_string(), Value::Int(*rate as i64)),
                ("ticks".to_string(), Value::Int(*ticks as i64)),
            ]),
        };
        let mix = Value::Object(vec![
            (
                "fit".to_string(),
                Value::Object(
                    self.mix
                        .fit
                        .iter()
                        .map(|(family, w)| (family.clone(), Value::Int(*w as i64)))
                        .collect(),
                ),
            ),
            ("assign".to_string(), Value::Int(self.mix.assign as i64)),
            ("compare".to_string(), Value::Int(self.mix.compare as i64)),
            ("list".to_string(), Value::Int(self.mix.list as i64)),
            ("evict".to_string(), Value::Int(self.mix.evict as i64)),
        ]);
        let expectations = self.expectations.iter().map(expectation_value).collect();
        Value::Object(vec![
            ("schema".to_string(), Value::String(SCHEMA.to_string())),
            ("name".to_string(), Value::String(self.name.clone())),
            ("seed".to_string(), Value::Int(self.seed as i64)),
            (
                "dataset".to_string(),
                Value::Object(vec![
                    ("n".to_string(), Value::Int(self.dataset.n as i64)),
                    ("noise_dims".to_string(), Value::Int(self.dataset.noise_dims as i64)),
                    ("views".to_string(), Value::Array(views)),
                ]),
            ),
            ("arrival".to_string(), arrival),
            ("mix".to_string(), mix),
            (
                "fit".to_string(),
                Value::Object(vec![
                    ("k".to_string(), Value::Int(self.fit.k as i64)),
                    ("seed".to_string(), Value::Int(self.fit.seed as i64)),
                ]),
            ),
            (
                "server".to_string(),
                Value::Object(vec![
                    ("capacity".to_string(), Value::Int(self.server.capacity as i64)),
                    ("threads".to_string(), Value::Int(self.server.threads as i64)),
                ]),
            ),
            (
                "chaos".to_string(),
                Value::Object(vec![
                    ("slow_every".to_string(), Value::Int(self.chaos.slow_every as i64)),
                    ("slow_ms".to_string(), Value::Int(self.chaos.slow_ms as i64)),
                    ("drop_every".to_string(), Value::Int(self.chaos.drop_every as i64)),
                ]),
            ),
            ("expectations".to_string(), Value::Array(expectations)),
        ])
    }

    /// Pretty JSON rendering of [`Self::to_value`].
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).unwrap_or_default()
    }
}

/// Serializes one expectation (used by both the spec writer and the
/// report's judged-expectations section).
pub fn expectation_value(e: &Expectation) -> Value {
    let mut fields = vec![("kind".to_string(), Value::String(e.kind().to_string()))];
    match e {
        Expectation::Latency { op, quantile, max_ms } => {
            fields.push(("op".to_string(), Value::String(op.clone())));
            fields.push(("quantile".to_string(), Value::String(quantile.clone())));
            fields.push(("max_ms".to_string(), Value::Int(*max_ms as i64)));
        }
        Expectation::ErrorRate { max } => {
            fields.push(("max".to_string(), Value::Float(*max)));
        }
        Expectation::ErrorBudget { code, max } => {
            fields.push(("code".to_string(), Value::String(code.clone())));
            fields.push(("max".to_string(), Value::Int(*max as i64)));
        }
        Expectation::MinErrors { code, min } => {
            fields.push(("code".to_string(), Value::String(code.clone())));
            fields.push(("min".to_string(), Value::Int(*min as i64)));
        }
        Expectation::QualityFloor { family, measure, floor } => {
            fields.push(("family".to_string(), Value::String(family.clone())));
            fields.push(("measure".to_string(), Value::String(measure.clone())));
            fields.push(("floor".to_string(), Value::Float(*floor)));
        }
        Expectation::EventsDropped { max } => {
            fields.push(("max".to_string(), Value::Int(*max as i64)));
        }
        Expectation::ServeEquivalence => {}
        Expectation::ChaosFired { slowed, dropped } => {
            fields.push(("slowed".to_string(), Value::Int(*slowed as i64)));
            fields.push(("dropped".to_string(), Value::Int(*dropped as i64)));
        }
        Expectation::AllocPeak { max_bytes } => {
            fields.push(("max_bytes".to_string(), Value::Int(*max_bytes as i64)));
        }
    }
    Value::Object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> String {
        r#"{
            "schema": "multiclust-loadtest/v1",
            "name": "t",
            "seed": 1,
            "dataset": {"n": 8, "views": [{"dims": 2, "clusters": 2, "separation": 10.0, "noise": 0.5}]},
            "arrival": {"mode": "closed", "workers": 2, "requests": 6},
            "mix": {"fit": {"kmeans": 1}, "assign": 1},
            "fit": {"k": 2, "seed": 7},
            "server": {"capacity": 8},
            "expectations": [{"kind": "error-rate", "max": 0.0}]
        }"#
        .to_string()
    }

    #[test]
    fn minimal_parses_with_defaults() {
        let spec = ScenarioSpec::parse(&minimal()).unwrap();
        assert_eq!(spec.name, "t");
        assert_eq!(spec.dataset.noise_dims, 0);
        assert_eq!(spec.server.threads, 0);
        assert_eq!(spec.chaos, ChaosSpec::default());
        assert_eq!(spec.arrival.total_requests(), 6);
        assert_eq!(spec.mix.total_weight(), 2);
    }

    #[test]
    fn rejections_name_the_field() {
        let cases = [
            (r#"{"schema": "nope"}"#, "\"schema\""),
            (
                &minimal().replace(r#""mode": "closed""#, r#""mode": "banana""#),
                "\"arrival.mode\"",
            ),
            (&minimal().replace(r#""k": 2"#, r#""k": 0"#), "\"fit.k\""),
            (
                &minimal().replace(r#""fit": {"kmeans": 1}"#, r#""fit": {}"#),
                "\"mix.fit\"",
            ),
            (
                &minimal().replace(r#""kind": "error-rate", "max": 0.0"#, r#""kind": "vibes""#),
                "\"expectations[0].kind\"",
            ),
            (
                &minimal().replace(r#""capacity": 8"#, r#""capacity": 0"#),
                "\"server.capacity\"",
            ),
        ];
        for (text, needle) in cases {
            let e = ScenarioSpec::parse(text).expect_err(needle);
            assert!(e.contains(needle), "{needle} not named in: {e}");
            assert!(!e.contains('\n'), "one clean line: {e}");
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        let spec = ScenarioSpec::parse(&minimal()).unwrap();
        let again = ScenarioSpec::parse(&spec.to_json()).unwrap();
        assert_eq!(spec, again);
    }
}
