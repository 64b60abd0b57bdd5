//! The accept/dispatch loop: binds a [`Listen`] address, serves the
//! `multiclust-serve/v1` protocol, and keeps every fitted model in a
//! bounded LRU [`ModelRegistry`].
//!
//! [`Server::run`] blocks in `accept()`, so a new connection reaches its
//! handler thread as soon as the kernel queues it. Shutdown wakes that
//! blocked call once: the handler that answers `shutdown` sets the stop
//! flag, then opens and drops one connection to the bound address (the
//! loopback address of the same family when bound to `0.0.0.0` or
//! `::`). The loop checks the flag after every `accept()` returns.
//!
//! Handler sockets carry a short read timeout for the drain alone: a
//! handler idling on a kept-open connection sees the stop flag on its
//! next timeout and exits, and [`Server::run`] joins them all before
//! returning — no leaked threads. Every request executes under a
//! `serve.<op>` telemetry span, beside `serve.parse`, `serve.encode` and
//! `serve.write` spans for its other layers, feeding the
//! `multiclust-trace/v2` sink exactly like a CLI run; independently of
//! the telemetry switch the server keeps its own per-op counters and
//! latency quantile sketches for the `stats` op.

use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use multiclust_core::measures::diss::{
    adjusted_rand_index, jaccard_index, normalized_mutual_information, rand_index,
    variation_of_information,
};
use multiclust_core::Clustering;
use multiclust_data::io::{read_csv, CsvError};
use multiclust_data::Dataset;
use multiclust_telemetry::Sketch;
use serde::{field, Value};

use crate::protocol::{
    self, BoundedLine, DataSource, ProtocolError, Request, SCHEMA,
};
use crate::registry::{FittedModel, ModelRegistry};
use crate::{client, FitDispatch, FitSpec, Listen};

/// Server construction parameters.
pub struct ServerConfig {
    /// Model-registry capacity (LRU bound, min 1).
    pub capacity: usize,
    /// Executes `fit` requests (supplied by the harness layer).
    pub dispatch: FitDispatch,
}

/// What a completed [`Server::run`] reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerSummary {
    /// Total requests answered (including error responses).
    pub requests: u64,
    /// How many of them were error responses.
    pub errors: u64,
}

#[derive(Default)]
struct Stats {
    requests: std::collections::BTreeMap<String, u64>,
    errors: u64,
    latency_us: std::collections::BTreeMap<String, Sketch>,
}

struct Shared {
    dispatch: FitDispatch,
    registry: Mutex<ModelRegistry>,
    stats: Mutex<Stats>,
    stop: AtomicBool,
    // Where the `shutdown` handler connects to wake the accept loop; for
    // a Unix listener also the socket file `run` removes on exit.
    wake: Listen,
    start: Instant,
    max_line: usize,
    // Connection ids for request correlation: every record a request
    // leaves behind (span fields, flight ring, trace lines) carries the
    // accepting connection's id alongside the request id.
    conn_seq: AtomicU64,
}

enum ListenerKind {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// A bound, not-yet-running protocol server.
pub struct Server {
    listener: ListenerKind,
    shared: Arc<Shared>,
    addr: String,
}

impl Server {
    /// Binds the address and prepares the shared state. The request-line
    /// cap is read from `MULTICLUST_SERVE_MAX_LINE` at bind time.
    pub fn bind(listen: &Listen, config: ServerConfig) -> std::io::Result<Server> {
        let (listener, wake, addr) = match listen {
            Listen::Tcp(a) => {
                let l = TcpListener::bind(a.as_str())?;
                let bound = l.local_addr()?;
                let wake = Listen::Tcp(wake_addr(bound).to_string());
                (ListenerKind::Tcp(l), wake, format!("tcp:{bound}"))
            }
            Listen::Unix(p) => {
                // A stale socket file from a dead server blocks the bind;
                // remove it (a live server would still hold the listener).
                let _ = std::fs::remove_file(p);
                let l = UnixListener::bind(p)?;
                (ListenerKind::Unix(l), listen.clone(), format!("unix:{}", p.display()))
            }
        };
        let shared = Arc::new(Shared {
            dispatch: config.dispatch,
            registry: Mutex::new(ModelRegistry::new(config.capacity)),
            stats: Mutex::new(Stats::default()),
            stop: AtomicBool::new(false),
            wake,
            start: Instant::now(),
            max_line: protocol::max_line_bytes(),
            conn_seq: AtomicU64::new(0),
        });
        Ok(Server { listener, shared, addr })
    }

    /// The bound address in `tcp:host:port` / `unix:path` form — feed it
    /// back to [`Listen::parse`] to connect (port 0 resolves here).
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// Serves until a `shutdown` request, then joins every handler
    /// thread and removes a Unix socket file if one was bound. A failure
    /// confined to one incoming connection drops that connection and
    /// leaves a `serve.accept.<kind>` flight error; any other `accept()`
    /// error ends the run with `Err`, after the same drain.
    pub fn run(self) -> std::io::Result<ServerSummary> {
        let Server { listener, shared, .. } = self;
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let result = loop {
            let accepted = match &listener {
                ListenerKind::Tcp(l) => l.accept().map(|(s, _)| {
                    s.set_nodelay(true).ok();
                    split(s, TcpStream::set_read_timeout, TcpStream::try_clone)
                }),
                ListenerKind::Unix(l) => l
                    .accept()
                    .map(|(s, _)| split(s, UnixStream::set_read_timeout, UnixStream::try_clone)),
            };
            // Checked after every wake-up: the connection that woke the
            // loop for shutdown is dropped unserved.
            if shared.stop.load(Ordering::SeqCst) {
                break Ok(());
            }
            let failed = match accepted {
                Ok(Ok((reader, writer))) => {
                    let conn_shared = Arc::clone(&shared);
                    match std::thread::Builder::new()
                        .name("serve-conn".to_string())
                        .spawn(move || handle_connection(&conn_shared, reader, writer))
                    {
                        Ok(handle) => {
                            handlers.retain(|h| !h.is_finished());
                            handlers.push(handle);
                            continue;
                        }
                        Err(_) => "spawn",
                    }
                }
                Ok(Err(step)) => step,
                Err(e) => match accept_error_kind(&e) {
                    Some(kind) => kind,
                    None => {
                        shared.stop.store(true, Ordering::SeqCst);
                        break Err(e);
                    }
                },
            };
            multiclust_telemetry::flight::record_error(&format!("serve.accept.{failed}"), None);
        };
        // Close the listener before joining: a wake connect still queued
        // behind a full backlog then fails instead of holding its handler.
        drop(listener);
        for h in handlers {
            let _ = h.join();
        }
        if let Listen::Unix(p) = &shared.wake {
            let _ = std::fs::remove_file(p);
        }
        result?;
        let stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
        Ok(ServerSummary {
            requests: stats.requests.values().sum(),
            errors: stats.errors,
        })
    }
}

/// The address that reaches a listener bound to `bound`: an unspecified
/// IP (`0.0.0.0`, `::`) becomes the loopback address of its family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Classifies an `accept()` error: `Some(kind)` for a failure confined
/// to the one incoming connection, which the loop drops and survives;
/// `None` for a failure of the listener itself, which ends the run.
fn accept_error_kind(e: &std::io::Error) -> Option<&'static str> {
    match e.kind() {
        ErrorKind::Interrupted => Some("interrupted"),
        ErrorKind::ConnectionAborted => Some("connection-aborted"),
        ErrorKind::ConnectionReset => Some("connection-reset"),
        _ => None,
    }
}

type Halves = (Box<dyn Read + Send>, Box<dyn Write + Send>);

/// Splits an accepted stream into a handler's read and write halves,
/// with the read timeout the shutdown drain relies on. `Err` names the
/// failed step for the flight record.
fn split<S: Read + Write + Send + 'static>(
    stream: S,
    set_read_timeout: fn(&S, Option<Duration>) -> std::io::Result<()>,
    try_clone: fn(&S) -> std::io::Result<S>,
) -> Result<Halves, &'static str> {
    set_read_timeout(&stream, Some(Duration::from_millis(50))).map_err(|_| "read-timeout")?;
    let reader = try_clone(&stream).map_err(|_| "clone")?;
    Ok((Box::new(reader), Box::new(stream)))
}

fn handle_connection(
    shared: &Shared,
    reader: Box<dyn Read + Send>,
    mut writer: Box<dyn Write + Send>,
) {
    use multiclust_telemetry::flight;
    let mut reader = BufReader::new(reader);
    let stop = || shared.stop.load(Ordering::SeqCst);
    let conn = shared.conn_seq.fetch_add(1, Ordering::SeqCst) + 1;
    loop {
        let line = match protocol::read_line_bounded(&mut reader, shared.max_line, &stop) {
            Ok(BoundedLine::Line(bytes)) => bytes,
            Ok(BoundedLine::TooLong) => {
                let e = ProtocolError {
                    code: "line-too-long",
                    message: format!(
                        "request line exceeds {} bytes (MULTICLUST_SERVE_MAX_LINE)",
                        shared.max_line
                    ),
                };
                record(shared, "invalid", 0, true);
                if write_response(&mut writer, &error_response(&Value::Null, &e)).is_err() {
                    return;
                }
                continue;
            }
            Ok(BoundedLine::Eof) | Ok(BoundedLine::Stopped) | Err(_) => return,
        };
        if line.iter().all(u8::is_ascii_whitespace) {
            continue;
        }
        let started = Instant::now();
        // The parse, the op and the response's encode and write each get
        // a span of their own, side by side, so a trace shows which layer
        // a request's time went to.
        let (id, parsed, req_id) = {
            let _span = multiclust_telemetry::span("serve.parse");
            let (id, parsed) = match String::from_utf8(line) {
                Ok(text) => protocol::parse_request(&text),
                Err(_) => (
                    Value::Null,
                    Err(ProtocolError {
                        code: "bad-json",
                        message: "request line is not UTF-8".to_string(),
                    }),
                ),
            };
            // Correlation context: the echoed request id plus this
            // connection's id tag every span, trace line and flight
            // record the request leaves, from this parse span (installed
            // before it closes) to the write.
            let req_id = id_text(&id);
            flight::set_request(req_id.as_deref().unwrap_or(""), conn);
            (id, parsed, req_id)
        };
        let (op, span_name) =
            parsed.as_ref().map_or(("invalid", "serve.invalid"), |r| (r.op(), r.span_name()));
        let shutdown = matches!(parsed, Ok(Request::Shutdown));
        // The span covers the op's execution; it lands in the trace sink
        // and the duration sketches exactly like a CLI phase.
        let response = {
            let _span = multiclust_telemetry::span(span_name);
            match parsed {
                Ok(req) => execute(shared, &id, req),
                Err(e) => error_response(&id, &e),
            }
        };
        let micros = started.elapsed().as_micros() as u64;
        let failed = !matches!(
            field(as_object(&response), "ok"),
            Some(Value::Bool(true))
        );
        record(shared, op, micros, failed);
        // The telemetry span above only exists when telemetry is on; the
        // flight ring is on regardless, so mirror the request into it
        // directly when the span could not.
        if !multiclust_telemetry::enabled() {
            flight::record_span(span_name, micros.saturating_mul(1000));
        }
        if failed {
            let code = error_code(&response).unwrap_or("error");
            flight::record_error(&format!("serve.{op}.{code}"), req_id.as_deref());
            // An `internal` failure (a caught family panic) is exactly
            // the moment the flight recorder exists for: dump it now,
            // while the evidence is still in the ring.
            if code == "internal" {
                auto_dump(op, req_id.as_deref());
            }
        }
        let written = write_response(&mut writer, &response);
        flight::clear_request();
        if written.is_err() {
            return;
        }
        if shutdown {
            shared.stop.store(true, Ordering::SeqCst);
            // Wake the accept loop. If this connect fails because the
            // backlog is full, the queued connections wake `accept()`
            // instead, so the error is safe to ignore.
            let _ = client::Connection::open(&shared.wake);
            return;
        }
    }
}

/// The request `id` as a correlation string: JSON strings unquoted, any
/// other non-null id in its JSON rendering.
fn id_text(id: &Value) -> Option<String> {
    match id {
        Value::Null => None,
        Value::String(s) => Some(s.clone()),
        other => serde_json::to_string(other).ok(),
    }
}

/// The `error.code` of a failed response, if structured.
fn error_code(response: &Value) -> Option<&str> {
    match field(as_object(response), "error")? {
        Value::Object(e) => match field(e, "code")? {
            Value::String(code) => Some(code.as_str()),
            _ => None,
        },
        _ => None,
    }
}

/// Dumps the flight ring after an `internal` error. The stderr line is
/// the operator's trail: path, record count, failing op and request id.
fn auto_dump(op: &str, request: Option<&str>) {
    use multiclust_telemetry::flight;
    let path = flight::default_dump_path("serve");
    if let Ok(Some(records)) = flight::dump_to_file(&path) {
        eprintln!(
            "serve: flight dump: {} ({records} records; op {op}; request {})",
            path.display(),
            request.unwrap_or("-"),
        );
    }
}

fn as_object(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(fields) => fields,
        _ => &[],
    }
}

fn record(shared: &Shared, op: &str, micros: u64, failed: bool) {
    let mut stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
    *stats.requests.entry(op.to_string()).or_insert(0) += 1;
    stats.latency_us.entry(op.to_string()).or_default().record(micros);
    if failed {
        stats.errors += 1;
    }
}

fn write_response(writer: &mut dyn Write, response: &Value) -> std::io::Result<()> {
    let text = {
        let _span = multiclust_telemetry::span("serve.encode");
        serde_json::to_string(response)
            .unwrap_or_else(|_| format!("{{\"schema\":\"{SCHEMA}\",\"ok\":false}}"))
    };
    let _span = multiclust_telemetry::span("serve.write");
    writer.write_all(text.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

// ---------------------------------------------------------------------
// Response builders
// ---------------------------------------------------------------------

fn ok_head(id: &Value, op: &str) -> Vec<(String, Value)> {
    vec![
        ("schema".to_string(), Value::String(SCHEMA.to_string())),
        ("id".to_string(), id.clone()),
        ("ok".to_string(), Value::Bool(true)),
        ("op".to_string(), Value::String(op.to_string())),
    ]
}

fn error_response(id: &Value, e: &ProtocolError) -> Value {
    Value::Object(vec![
        ("schema".to_string(), Value::String(SCHEMA.to_string())),
        ("id".to_string(), id.clone()),
        ("ok".to_string(), Value::Bool(false)),
        (
            "error".to_string(),
            Value::Object(vec![
                ("code".to_string(), Value::String(e.code.to_string())),
                ("message".to_string(), Value::String(e.message.clone())),
            ]),
        ),
    ])
}

fn labels_value(assignments: &[Option<usize>]) -> Value {
    Value::Array(
        assignments
            .iter()
            .map(|a| Value::Int(a.map_or(-1, |l| l as i64)))
            .collect(),
    )
}

fn solutions_value(solutions: &[Clustering]) -> Value {
    Value::Array(
        solutions
            .iter()
            .map(|c| labels_value(c.assignments()))
            .collect(),
    )
}

fn strings_value(names: &[String]) -> Value {
    Value::Array(names.iter().map(|n| Value::String(n.clone())).collect())
}

// ---------------------------------------------------------------------
// Op execution
// ---------------------------------------------------------------------

fn execute(shared: &Shared, id: &Value, req: Request) -> Value {
    let result = match req {
        Request::Fit { model, family, source, k, seed, given, views } => {
            op_fit(shared, id, model, family, source, k, seed, given, views)
        }
        Request::Assign { model, source } => op_assign(shared, id, &model, source),
        Request::Compare { a, b, sa, sb } => op_compare(shared, id, &a, &b, sa, sb),
        Request::List => Ok(op_list(shared, id)),
        Request::Evict { model } => op_evict(shared, id, &model),
        Request::Stats => Ok(op_stats(shared, id)),
        Request::Dump => op_dump(id),
        Request::Shutdown => Ok(Value::Object(ok_head(id, "shutdown"))),
    };
    result.unwrap_or_else(|e| error_response(id, &e))
}

fn load_source(source: DataSource) -> Result<Dataset, ProtocolError> {
    match source {
        DataSource::Inline(data) => Ok(data),
        // Only a failed read is an I/O error; content that was read and
        // then refused is the client's bad request, as it is inline.
        DataSource::Path { path, header } => {
            read_csv(Path::new(&path), header).map_err(|e| ProtocolError {
                code: if matches!(e, CsvError::Io(_)) { "io" } else { "bad-request" },
                message: format!("reading {path}: {e}"),
            })
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn op_fit(
    shared: &Shared,
    id: &Value,
    model: Option<String>,
    family: String,
    source: DataSource,
    k: usize,
    seed: u64,
    given: Option<Vec<Option<usize>>>,
    views: Option<Vec<Vec<usize>>>,
) -> Result<Value, ProtocolError> {
    let data = load_source(source)?;
    let (n, d) = (data.len(), data.dims());
    if n == 0 || d == 0 {
        return Err(ProtocolError::bad_request("dataset is empty"));
    }
    if k == 0 || k > n {
        return Err(ProtocolError::bad_request(format!(
            "k = {k} out of range for {n} objects"
        )));
    }
    let given = match given {
        Some(labels) if labels.len() != n => {
            return Err(ProtocolError::bad_request(format!(
                "\"given\" has {} labels, dataset has {n} objects",
                labels.len()
            )));
        }
        Some(labels) => {
            // `Clustering` sizes its member lists by the largest label, so
            // an out-of-range label would ask the allocator for that much
            // and abort the process.
            if let Some((i, Some(v))) =
                labels.iter().enumerate().find(|(_, l)| l.is_some_and(|v| v >= n))
            {
                return Err(ProtocolError::bad_request(format!(
                    "\"given\" label {i} is {v}, dataset has {n} objects"
                )));
            }
            Clustering::from_options(labels)
        }
        // Default reference: one all-encompassing cluster, the neutral
        // "no prior structure" input for the alternative paradigms.
        None => Clustering::from_labels(&vec![0usize; n]),
    };
    let view_groups = match views {
        Some(groups) => {
            for (g, group) in groups.iter().enumerate() {
                if let Some(&bad) = group.iter().find(|&&dim| dim >= d) {
                    return Err(ProtocolError::bad_request(format!(
                        "\"views\" group {g} names dimension {bad}, dataset has {d}"
                    )));
                }
            }
            groups
        }
        None => vec![(0..d).collect()],
    };
    let spec = FitSpec { family, data, given, view_groups, k, seed };
    // A panicking family (adversarial input the adapter did not gate)
    // must cost one error response, not the process: same contract as
    // every other malformed request.
    let fitted = match catch_unwind(AssertUnwindSafe(|| (shared.dispatch)(&spec))) {
        Ok(result) => result.map_err(ProtocolError::bad_request)?,
        Err(_) => {
            return Err(ProtocolError {
                code: "internal",
                message: format!("fit of family {:?} panicked", spec.family),
            });
        }
    };
    let mut registry = shared.registry.lock().unwrap_or_else(|e| e.into_inner());
    let name = model.unwrap_or_else(|| registry.auto_name());
    let fitted_model = FittedModel::new(
        name.clone(),
        spec.family.clone(),
        k,
        seed,
        &spec.data,
        fitted,
    );
    let solutions = solutions_value(&fitted_model.solutions);
    let evicted = registry.insert(fitted_model);
    let mut fields = ok_head(id, "fit");
    fields.push(("model".to_string(), Value::String(name)));
    fields.push(("family".to_string(), Value::String(spec.family)));
    fields.push(("n".to_string(), Value::Int(n as i64)));
    fields.push(("d".to_string(), Value::Int(d as i64)));
    fields.push(("k".to_string(), Value::Int(k as i64)));
    fields.push(("seed".to_string(), Value::Int(seed as i64)));
    fields.push(("solutions".to_string(), solutions));
    fields.push(("evicted".to_string(), strings_value(&evicted)));
    Ok(Value::Object(fields))
}

fn unknown_model(name: &str) -> ProtocolError {
    ProtocolError {
        code: "unknown-model",
        message: format!("no model {name:?} registered (fit one first, or list what is live)"),
    }
}

fn op_assign(
    shared: &Shared,
    id: &Value,
    model: &str,
    source: DataSource,
) -> Result<Value, ProtocolError> {
    let data = load_source(source)?;
    let mut registry = shared.registry.lock().unwrap_or_else(|e| e.into_inner());
    let m = registry.touch(model).ok_or_else(|| unknown_model(model))?;
    if data.dims() != m.d {
        return Err(ProtocolError::bad_request(format!(
            "dataset has {} dims, model {model:?} was fitted on {}",
            data.dims(),
            m.d
        )));
    }
    let assigned = m.assign(&data);
    let mut fields = ok_head(id, "assign");
    fields.push(("model".to_string(), Value::String(model.to_string())));
    fields.push(("n".to_string(), Value::Int(data.len() as i64)));
    fields.push((
        "solutions".to_string(),
        Value::Array(assigned.iter().map(|s| labels_value(s)).collect()),
    ));
    Ok(Value::Object(fields))
}

fn op_compare(
    shared: &Shared,
    id: &Value,
    a: &str,
    b: &str,
    sa: usize,
    sb: usize,
) -> Result<Value, ProtocolError> {
    let mut registry = shared.registry.lock().unwrap_or_else(|e| e.into_inner());
    let (ca, na) = {
        let m = registry.touch(a).ok_or_else(|| unknown_model(a))?;
        let c = m.solutions.get(sa).ok_or_else(|| {
            ProtocolError::bad_request(format!(
                "model {a:?} has {} solutions, no index {sa}",
                m.solutions.len()
            ))
        })?;
        (c.clone(), m.n)
    };
    let (cb, nb) = {
        let m = registry.touch(b).ok_or_else(|| unknown_model(b))?;
        let c = m.solutions.get(sb).ok_or_else(|| {
            ProtocolError::bad_request(format!(
                "model {b:?} has {} solutions, no index {sb}",
                m.solutions.len()
            ))
        })?;
        (c.clone(), m.n)
    };
    if na != nb {
        return Err(ProtocolError::bad_request(format!(
            "models cover different object counts: {a:?} has {na}, {b:?} has {nb}"
        )));
    }
    let mut fields = ok_head(id, "compare");
    fields.push(("a".to_string(), Value::String(a.to_string())));
    fields.push(("b".to_string(), Value::String(b.to_string())));
    fields.push(("sa".to_string(), Value::Int(sa as i64)));
    fields.push(("sb".to_string(), Value::Int(sb as i64)));
    fields.push((
        "measures".to_string(),
        Value::Object(vec![
            ("rand_index".to_string(), Value::Float(rand_index(&ca, &cb))),
            (
                "adjusted_rand_index".to_string(),
                Value::Float(adjusted_rand_index(&ca, &cb)),
            ),
            ("jaccard_index".to_string(), Value::Float(jaccard_index(&ca, &cb))),
            (
                "normalized_mutual_information".to_string(),
                Value::Float(normalized_mutual_information(&ca, &cb)),
            ),
            (
                "variation_of_information".to_string(),
                Value::Float(variation_of_information(&ca, &cb)),
            ),
        ]),
    ));
    Ok(Value::Object(fields))
}

fn op_list(shared: &Shared, id: &Value) -> Value {
    let registry = shared.registry.lock().unwrap_or_else(|e| e.into_inner());
    let mut fields = ok_head(id, "list");
    fields.push(("capacity".to_string(), Value::Int(registry.capacity() as i64)));
    fields.push((
        "models".to_string(),
        Value::Array(
            registry
                .list()
                .iter()
                .map(|m| {
                    Value::Object(vec![
                        ("model".to_string(), Value::String(m.name.clone())),
                        ("family".to_string(), Value::String(m.family.clone())),
                        ("n".to_string(), Value::Int(m.n as i64)),
                        ("d".to_string(), Value::Int(m.d as i64)),
                        ("k".to_string(), Value::Int(m.k as i64)),
                        ("seed".to_string(), Value::Int(m.seed as i64)),
                        (
                            "solutions".to_string(),
                            Value::Int(m.solutions.len() as i64),
                        ),
                    ])
                })
                .collect(),
        ),
    ));
    Value::Object(fields)
}

fn op_evict(shared: &Shared, id: &Value, model: &str) -> Result<Value, ProtocolError> {
    let mut registry = shared.registry.lock().unwrap_or_else(|e| e.into_inner());
    if !registry.remove(model) {
        return Err(unknown_model(model));
    }
    let mut fields = ok_head(id, "evict");
    fields.push(("model".to_string(), Value::String(model.to_string())));
    Ok(Value::Object(fields))
}

/// `dump`: serialize the flight ring to a server-side file and return
/// its path and record count, so a remote client can trigger forensics
/// without shell access to the server host.
fn op_dump(id: &Value) -> Result<Value, ProtocolError> {
    use multiclust_telemetry::flight;
    let path = flight::default_dump_path("serve");
    match flight::dump_to_file(&path) {
        Ok(Some(records)) => {
            let mut fields = ok_head(id, "dump");
            fields.push((
                "path".to_string(),
                Value::String(path.display().to_string()),
            ));
            fields.push(("records".to_string(), Value::Int(records as i64)));
            Ok(Value::Object(fields))
        }
        Ok(None) => Err(ProtocolError::bad_request(
            "flight recorder is disabled (MULTICLUST_FLIGHT=0)",
        )),
        Err(e) => Err(ProtocolError {
            code: "io",
            message: format!("writing flight dump {}: {e}", path.display()),
        }),
    }
}

fn sketch_value(s: &Sketch) -> Value {
    Value::Object(vec![
        ("count".to_string(), Value::Int(s.count as i64)),
        ("p50".to_string(), Value::Int(s.p50() as i64)),
        ("p90".to_string(), Value::Int(s.p90() as i64)),
        ("p99".to_string(), Value::Int(s.p99() as i64)),
        ("max".to_string(), Value::Int(s.max as i64)),
    ])
}

fn op_stats(shared: &Shared, id: &Value) -> Value {
    use multiclust_telemetry::alloc;
    let stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
    let registry = shared.registry.lock().unwrap_or_else(|e| e.into_inner());
    let mut fields = ok_head(id, "stats");
    fields.push((
        "uptime_ms".to_string(),
        Value::Int(shared.start.elapsed().as_millis() as i64),
    ));
    fields.push((
        "requests".to_string(),
        Value::Object(
            stats
                .requests
                .iter()
                .map(|(op, &n)| (op.clone(), Value::Int(n as i64)))
                .collect(),
        ),
    ));
    fields.push(("errors".to_string(), Value::Int(stats.errors as i64)));
    fields.push((
        "latency_us".to_string(),
        Value::Object(
            stats
                .latency_us
                .iter()
                .map(|(op, s)| (op.clone(), sketch_value(s)))
                .collect(),
        ),
    ));
    fields.push(("models".to_string(), Value::Int(registry.len() as i64)));
    fields.push(("capacity".to_string(), Value::Int(registry.capacity() as i64)));
    fields.push(("evictions".to_string(), Value::Int(registry.evictions() as i64)));
    // Observability health gauges: a client can detect silent telemetry
    // loss (event-cap truncation, a full trace sink) without shell access
    // to the server's stderr.
    fields.push((
        "events_dropped".to_string(),
        Value::Int(multiclust_telemetry::dropped_events() as i64),
    ));
    fields.push((
        "trace.write_errors".to_string(),
        Value::Int(multiclust_telemetry::trace::trace_write_errors() as i64),
    ));
    fields.push((
        "alloc".to_string(),
        if alloc::alloc_enabled() {
            let t = alloc::alloc_totals();
            Value::Object(vec![
                ("count".to_string(), Value::Int(t.count as i64)),
                ("bytes".to_string(), Value::Int(t.bytes as i64)),
                ("peak".to_string(), Value::Int(t.peak as i64)),
            ])
        } else {
            Value::Null
        },
    ));
    Value::Object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_errors_of_one_connection_are_survivable() {
        for (kind, name) in [
            (ErrorKind::Interrupted, "interrupted"),
            (ErrorKind::ConnectionAborted, "connection-aborted"),
            (ErrorKind::ConnectionReset, "connection-reset"),
        ] {
            assert_eq!(accept_error_kind(&kind.into()), Some(name));
        }
        for kind in [ErrorKind::InvalidInput, ErrorKind::OutOfMemory, ErrorKind::Other] {
            assert_eq!(accept_error_kind(&kind.into()), None, "{kind:?} ends the run");
        }
    }

    #[test]
    fn wake_addr_maps_unspecified_ips_to_loopback() {
        let wake = |s: &str| wake_addr(s.parse().expect("socket address")).to_string();
        assert_eq!(wake("0.0.0.0:4100"), "127.0.0.1:4100");
        assert_eq!(wake("[::]:4100"), "[::1]:4100");
        assert_eq!(wake("10.1.2.3:4100"), "10.1.2.3:4100");
        assert_eq!(wake("[::1]:4100"), "[::1]:4100");
    }
}
