//! The `multiclust-serve/v1` wire protocol: one JSON object per line in
//! both directions.
//!
//! Requests carry an `op` (`fit`, `assign`, `compare`, `list`, `evict`,
//! `stats`, `dump`, `shutdown`) plus op-specific fields, and an optional `id`
//! that is echoed verbatim in the response. Responses always carry
//! `schema`, the echoed `id`, and `ok`; failures carry a structured
//! `error: {code, message}` object instead of op output — a malformed
//! request never terminates the connection, let alone the server.
//!
//! Response field order is fixed (the vendored `serde` `Value` object
//! preserves insertion order) and floats print shortest-roundtrip, so a
//! response body is byte-stable for byte-identical requests.

use std::io::{BufRead, ErrorKind};

use multiclust_data::overflowing_column;
use serde::{field, Value};

/// Protocol schema identifier, stamped on every response.
pub const SCHEMA: &str = "multiclust-serve/v1";

/// Default cap on one request line, overridable via
/// `MULTICLUST_SERVE_MAX_LINE` (bytes).
pub const DEFAULT_MAX_LINE: usize = 32 * 1024 * 1024;

/// A structured protocol failure: machine-readable code plus a one-line
/// human message. Rendered as the response's `error` object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolError {
    /// Stable machine-readable code (`bad-json`, `bad-request`,
    /// `unknown-op`, `unknown-model`, `line-too-long`, `io`, `internal`).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ProtocolError {
    /// A `bad-request` error (shape/validation problems).
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self { code: "bad-request", message: message.into() }
    }
}

/// Where a request's dataset comes from.
#[derive(Clone, Debug)]
pub enum DataSource {
    /// Inline row-major matrix.
    Inline(Vec<Vec<f64>>),
    /// Server-side CSV path.
    Path {
        /// CSV file path, resolved on the server's filesystem.
        path: String,
        /// Whether the first CSV line is a header row.
        header: bool,
    },
}

/// A parsed request, one variant per op.
#[derive(Clone, Debug)]
pub enum Request {
    /// Fit a family and register the solutions as a model.
    Fit {
        /// Registry name for the fitted model (auto-assigned if absent).
        model: Option<String>,
        /// Family name (resolved by the dispatch closure).
        family: String,
        /// The objects to cluster.
        source: DataSource,
        /// Cluster count (default 2).
        k: usize,
        /// RNG seed (default 42).
        seed: u64,
        /// Optional reference labels (`-1` = noise) for the
        /// alternative/orthogonal paradigms.
        given: Option<Vec<Option<usize>>>,
        /// Optional attribute groups for the multi-view paradigm.
        views: Option<Vec<Vec<usize>>>,
    },
    /// Predict labels for new objects against a registered model.
    Assign {
        /// Registered model name.
        model: String,
        /// The objects to label.
        source: DataSource,
    },
    /// Dissimilarity measures between two registered solutions.
    Compare {
        /// First model name.
        a: String,
        /// Second model name.
        b: String,
        /// Solution index within `a` (default 0).
        sa: usize,
        /// Solution index within `b` (default 0).
        sb: usize,
    },
    /// List registered models in insertion order.
    List,
    /// Drop one model from the registry.
    Evict {
        /// Registered model name.
        model: String,
    },
    /// Server statistics (uptime, per-op latency sketches, gauges).
    Stats,
    /// Dump the flight recorder to a server-side file and return its
    /// path — the forensics hook for remote clients.
    Dump,
    /// Stop accepting, drain, flush, exit.
    Shutdown,
}

impl Request {
    /// The op name (span label, stats key).
    pub fn op(&self) -> &'static str {
        match self {
            Request::Fit { .. } => "fit",
            Request::Assign { .. } => "assign",
            Request::Compare { .. } => "compare",
            Request::List => "list",
            Request::Evict { .. } => "evict",
            Request::Stats => "stats",
            Request::Dump => "dump",
            Request::Shutdown => "shutdown",
        }
    }
}

// ---------------------------------------------------------------------
// Typed field readers over a request object
// ---------------------------------------------------------------------

fn field_str(obj: &[(String, Value)], key: &str) -> Result<Option<String>, ProtocolError> {
    match field(obj, key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::String(s)) => Ok(Some(s.clone())),
        Some(other) => Err(ProtocolError::bad_request(format!(
            "field {key:?} must be a string, got {other:?}"
        ))),
    }
}

fn field_usize(obj: &[(String, Value)], key: &str) -> Result<Option<usize>, ProtocolError> {
    match field(obj, key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Int(i)) if *i >= 0 => Ok(Some(*i as usize)),
        Some(other) => Err(ProtocolError::bad_request(format!(
            "field {key:?} must be a non-negative integer, got {other:?}"
        ))),
    }
}

fn field_u64(obj: &[(String, Value)], key: &str) -> Result<Option<u64>, ProtocolError> {
    match field(obj, key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Int(i)) if *i >= 0 => Ok(Some(*i as u64)),
        Some(other) => Err(ProtocolError::bad_request(format!(
            "field {key:?} must be a non-negative integer, got {other:?}"
        ))),
    }
}

fn field_bool(obj: &[(String, Value)], key: &str) -> Result<bool, ProtocolError> {
    match field(obj, key) {
        None | Some(Value::Null) => Ok(false),
        Some(Value::Bool(b)) => Ok(*b),
        Some(other) => Err(ProtocolError::bad_request(format!(
            "field {key:?} must be a bool, got {other:?}"
        ))),
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Parses the `data`/`path` pair of a request. Ragged or empty inline
/// matrices are rejected here — `Dataset::from_rows` would panic — and
/// so are non-finite cells and columns too large to fit
/// ([`overflowing_column`]).
fn parse_source(obj: &[(String, Value)]) -> Result<DataSource, ProtocolError> {
    match (field(obj, "data"), field_str(obj, "path")?) {
        (Some(_), Some(_)) => Err(ProtocolError::bad_request(
            "give either inline \"data\" or a \"path\", not both",
        )),
        (None, None) => Err(ProtocolError::bad_request(
            "missing dataset: give inline \"data\" (array of rows) or a \"path\"",
        )),
        (None, Some(path)) => {
            Ok(DataSource::Path { path, header: field_bool(obj, "header")? })
        }
        (Some(Value::Array(rows)), None) => {
            if rows.is_empty() {
                return Err(ProtocolError::bad_request("\"data\" has no rows"));
            }
            let mut out = Vec::with_capacity(rows.len());
            let mut width = None;
            for (i, row) in rows.iter().enumerate() {
                let Value::Array(cells) = row else {
                    return Err(ProtocolError::bad_request(format!(
                        "\"data\" row {i} is not an array"
                    )));
                };
                let mut parsed = Vec::with_capacity(cells.len());
                for (j, cell) in cells.iter().enumerate() {
                    let Some(x) = number(cell) else {
                        return Err(ProtocolError::bad_request(format!(
                            "\"data\" row {i} cell {j} is not a number"
                        )));
                    };
                    // The codec reads an overflowing literal such as
                    // `1e999` as ±inf; no family or model takes that.
                    if !x.is_finite() {
                        return Err(ProtocolError::bad_request(format!(
                            "\"data\" row {i} cell {j} is not finite"
                        )));
                    }
                    parsed.push(x);
                }
                match width {
                    None if parsed.is_empty() => {
                        return Err(ProtocolError::bad_request(format!(
                            "\"data\" row {i} is empty"
                        )));
                    }
                    None => width = Some(parsed.len()),
                    Some(w) if parsed.len() != w => {
                        return Err(ProtocolError::bad_request(format!(
                            "ragged \"data\": row {i} has {} cells, expected {w}",
                            parsed.len()
                        )));
                    }
                    Some(_) => {}
                }
                out.push(parsed);
            }
            if let Some(j) = overflowing_column(out.iter().map(Vec::as_slice)) {
                return Err(ProtocolError::bad_request(format!(
                    "\"data\" column {j} is too large: sums or squared distances over the data overflow"
                )));
            }
            Ok(DataSource::Inline(out))
        }
        (Some(other), None) => Err(ProtocolError::bad_request(format!(
            "\"data\" must be an array of rows, got {other:?}"
        ))),
    }
}

fn parse_given(obj: &[(String, Value)]) -> Result<Option<Vec<Option<usize>>>, ProtocolError> {
    match field(obj, "given") {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Array(labels)) => {
            let mut out = Vec::with_capacity(labels.len());
            for (i, l) in labels.iter().enumerate() {
                match l {
                    Value::Int(v) if *v >= 0 => out.push(Some(*v as usize)),
                    Value::Int(_) => out.push(None),
                    other => {
                        return Err(ProtocolError::bad_request(format!(
                            "\"given\" label {i} must be an integer, got {other:?}"
                        )));
                    }
                }
            }
            Ok(Some(out))
        }
        Some(other) => Err(ProtocolError::bad_request(format!(
            "\"given\" must be an array of integer labels, got {other:?}"
        ))),
    }
}

fn parse_views(obj: &[(String, Value)]) -> Result<Option<Vec<Vec<usize>>>, ProtocolError> {
    match field(obj, "views") {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Array(groups)) => {
            let mut out = Vec::with_capacity(groups.len());
            for (g, group) in groups.iter().enumerate() {
                let Value::Array(dims) = group else {
                    return Err(ProtocolError::bad_request(format!(
                        "\"views\" group {g} is not an array of dimension indices"
                    )));
                };
                let mut parsed = Vec::with_capacity(dims.len());
                for d in dims {
                    match d {
                        Value::Int(v) if *v >= 0 => parsed.push(*v as usize),
                        other => {
                            return Err(ProtocolError::bad_request(format!(
                                "\"views\" group {g} holds a non-index {other:?}"
                            )));
                        }
                    }
                }
                if parsed.is_empty() {
                    return Err(ProtocolError::bad_request(format!(
                        "\"views\" group {g} is empty"
                    )));
                }
                out.push(parsed);
            }
            Ok(Some(out))
        }
        Some(other) => Err(ProtocolError::bad_request(format!(
            "\"views\" must be an array of dimension-index groups, got {other:?}"
        ))),
    }
}

/// Parses one request line. Returns the echoed `id` (Null when absent or
/// unparseable) alongside the request or error, so error responses still
/// correlate.
pub fn parse_request(line: &str) -> (Value, Result<Request, ProtocolError>) {
    let value = match serde_json::parse_value(line) {
        Ok(v) => v,
        Err(e) => {
            return (
                Value::Null,
                Err(ProtocolError { code: "bad-json", message: e.to_string() }),
            );
        }
    };
    let Value::Object(obj) = value else {
        return (
            Value::Null,
            Err(ProtocolError::bad_request("request must be a JSON object")),
        );
    };
    let id = field(&obj, "id").cloned().unwrap_or(Value::Null);
    let parsed = parse_request_fields(&obj);
    (id, parsed)
}

fn parse_request_fields(obj: &[(String, Value)]) -> Result<Request, ProtocolError> {
    let op = field_str(obj, "op")?
        .ok_or_else(|| ProtocolError::bad_request("missing \"op\" field"))?;
    match op.as_str() {
        "fit" => {
            let family = field_str(obj, "family")?.ok_or_else(|| {
                ProtocolError::bad_request("fit needs a \"family\" field")
            })?;
            Ok(Request::Fit {
                model: field_str(obj, "model")?,
                family,
                source: parse_source(obj)?,
                k: field_usize(obj, "k")?.unwrap_or(2),
                seed: field_u64(obj, "seed")?.unwrap_or(42),
                given: parse_given(obj)?,
                views: parse_views(obj)?,
            })
        }
        "assign" => Ok(Request::Assign {
            model: field_str(obj, "model")?.ok_or_else(|| {
                ProtocolError::bad_request("assign needs a \"model\" field")
            })?,
            source: parse_source(obj)?,
        }),
        "compare" => Ok(Request::Compare {
            a: field_str(obj, "a")?.ok_or_else(|| {
                ProtocolError::bad_request("compare needs an \"a\" model field")
            })?,
            b: field_str(obj, "b")?.ok_or_else(|| {
                ProtocolError::bad_request("compare needs a \"b\" model field")
            })?,
            sa: field_usize(obj, "sa")?.unwrap_or(0),
            sb: field_usize(obj, "sb")?.unwrap_or(0),
        }),
        "list" => Ok(Request::List),
        "evict" => Ok(Request::Evict {
            model: field_str(obj, "model")?.ok_or_else(|| {
                ProtocolError::bad_request("evict needs a \"model\" field")
            })?,
        }),
        "stats" => Ok(Request::Stats),
        "dump" => Ok(Request::Dump),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ProtocolError {
            code: "unknown-op",
            message: format!(
                "unknown op {other:?} (expected fit, assign, compare, list, evict, stats, dump or shutdown)"
            ),
        }),
    }
}

// ---------------------------------------------------------------------
// Bounded line codec
// ---------------------------------------------------------------------

/// Outcome of one bounded line read.
pub enum BoundedLine {
    /// A complete line (newline stripped) within the cap.
    Line(Vec<u8>),
    /// The line exceeded the cap; its bytes were drained up to and
    /// including the newline, so the connection stays usable.
    TooLong,
    /// Clean end of stream.
    Eof,
    /// The stop callback fired while waiting for bytes.
    Stopped,
}

/// Reads one newline-terminated line, capping it at `max` bytes. On a
/// read timeout (`WouldBlock`/`TimedOut`) the `should_stop` callback
/// decides between giving up ([`BoundedLine::Stopped`]) and retrying —
/// that is how handler threads stay joinable through a server shutdown
/// while a client holds its connection open.
pub fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    max: usize,
    should_stop: &dyn Fn() -> bool,
) -> std::io::Result<BoundedLine> {
    let mut buf = Vec::new();
    let mut overflow = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if should_stop() {
                    return Ok(BoundedLine::Stopped);
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            // EOF. A trailing unterminated fragment counts as a line so a
            // client that forgets the final newline still gets an answer.
            return Ok(if overflow {
                BoundedLine::TooLong
            } else if buf.is_empty() {
                BoundedLine::Eof
            } else {
                BoundedLine::Line(buf)
            });
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if !overflow && buf.len() + pos > max {
                    overflow = true;
                    buf.clear();
                }
                if !overflow {
                    buf.extend_from_slice(&chunk[..pos]);
                }
                reader.consume(pos + 1);
                return Ok(if overflow { BoundedLine::TooLong } else { BoundedLine::Line(buf) });
            }
            None => {
                let len = chunk.len();
                if !overflow && buf.len() + len > max {
                    overflow = true;
                    buf.clear();
                }
                if !overflow {
                    buf.extend_from_slice(chunk);
                }
                reader.consume(len);
            }
        }
    }
}

/// The configured request-line cap: `MULTICLUST_SERVE_MAX_LINE` in bytes,
/// else [`DEFAULT_MAX_LINE`].
pub fn max_line_bytes() -> usize {
    std::env::var("MULTICLUST_SERVE_MAX_LINE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(DEFAULT_MAX_LINE)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(line: &str) -> Request {
        let (_, r) = parse_request(line);
        r.expect("request should parse")
    }

    fn parse_err(line: &str) -> ProtocolError {
        let (_, r) = parse_request(line);
        r.expect_err("request should be rejected")
    }

    #[test]
    fn fit_request_round_trips() {
        let r = parse_ok(
            r#"{"id":1,"op":"fit","family":"kmeans","k":3,"seed":7,
               "data":[[1,2],[3,4]],"given":[0,-1],"views":[[0],[1]]}"#,
        );
        let Request::Fit { family, source, k, seed, given, views, model } = r else {
            panic!("not a fit");
        };
        assert_eq!(family, "kmeans");
        assert_eq!(k, 3);
        assert_eq!(seed, 7);
        assert_eq!(model, None);
        assert_eq!(given, Some(vec![Some(0), None]));
        assert_eq!(views, Some(vec![vec![0], vec![1]]));
        let DataSource::Inline(rows) = source else { panic!("not inline") };
        assert_eq!(rows, vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
    }

    #[test]
    fn ragged_data_is_rejected_before_dataset_construction() {
        let e = parse_err(r#"{"op":"fit","family":"kmeans","data":[[1,2],[3]]}"#);
        assert_eq!(e.code, "bad-request");
        assert!(e.message.contains("ragged"), "{}", e.message);
    }

    #[test]
    fn non_finite_data_is_rejected_for_fit_and_assign() {
        let e = parse_err(r#"{"op":"fit","family":"kmeans","k":2,"data":[[1e999,0],[1,1]]}"#);
        assert_eq!(e.code, "bad-request");
        assert_eq!(e.message, "\"data\" row 0 cell 0 is not finite");
        let e = parse_err(r#"{"op":"assign","model":"m","data":[[-1e999,0],[1e999,1]]}"#);
        assert_eq!(e.code, "bad-request");
        assert_eq!(e.message, "\"data\" row 0 cell 0 is not finite");
        let e = parse_err(r#"{"op":"assign","model":"m","data":[[0,0],[1,-1e999]]}"#);
        assert_eq!(e.message, "\"data\" row 1 cell 1 is not finite");
    }

    #[test]
    fn overflowing_data_is_rejected_for_fit_and_assign() {
        let huge = "[[1.7e308,-1.7e308],[-1.7e308,1.7e308],[1,2],[1.7e308,1.7e308]]";
        for req in [
            format!(r#"{{"op":"fit","family":"spectral","k":2,"data":{huge}}}"#),
            format!(r#"{{"op":"assign","model":"m","data":{huge}}}"#),
        ] {
            let e = parse_err(&req);
            assert_eq!(e.code, "bad-request");
            assert!(e.message.starts_with("\"data\" column 0 is too large"), "{}", e.message);
        }
    }

    #[test]
    fn truncated_json_is_bad_json() {
        let e = parse_err(r#"{"op":"fit","family""#);
        assert_eq!(e.code, "bad-json");
    }

    #[test]
    fn unknown_op_is_flagged() {
        let e = parse_err(r#"{"op":"transmogrify"}"#);
        assert_eq!(e.code, "unknown-op");
    }

    #[test]
    fn id_is_recovered_even_from_invalid_requests() {
        let (id, r) = parse_request(r#"{"id":"req-9","op":"nope"}"#);
        assert_eq!(id, serde::Value::String("req-9".to_string()));
        assert!(r.is_err());
    }

    #[test]
    fn bounded_reader_caps_and_drains() {
        let data = format!("{}\nshort\n", "x".repeat(100));
        let mut r = std::io::BufReader::new(data.as_bytes());
        let never = || false;
        match read_line_bounded(&mut r, 10, &never).unwrap() {
            BoundedLine::TooLong => {}
            _ => panic!("expected TooLong"),
        }
        match read_line_bounded(&mut r, 10, &never).unwrap() {
            BoundedLine::Line(l) => assert_eq!(l, b"short"),
            _ => panic!("expected the next line to survive"),
        }
        match read_line_bounded(&mut r, 10, &never).unwrap() {
            BoundedLine::Eof => {}
            _ => panic!("expected EOF"),
        }
    }
}
