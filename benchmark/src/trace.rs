//! In-memory spans recorded from the benchmark's own files around each
//! call into a layer, written out as JSONL when the run ends.
//!
//! A span has a name, a start and end (nanoseconds since the benchmark
//! started), the span that caused it and, for a served request, the
//! request id the server echoed. A layer's self time is its span minus
//! the part of that interval its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use serde::Value;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// The instant every span offset is measured from.
pub fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn offset_ns(t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(origin()).as_nanos()).unwrap_or(u64::MAX)
}

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub request: Option<String>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span sink of one thread. A disabled recorder (the untraced run) keeps
/// nothing, so end-to-end timings carry no recording cost.
pub struct Recorder {
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        origin();
        Self {
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves an id for a span whose interval is recorded later with
    /// [`Recorder::record_as`], so children can name it while it is open.
    pub fn open(&self) -> u64 {
        if self.enabled {
            NEXT_ID.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records a finished interval under a fresh id.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
        request: Option<&str>,
    ) {
        let id = self.open();
        self.record_as(id, name, parent, start, end, request);
    }

    /// Records an interval under an id reserved by [`Recorder::open`].
    pub fn record_as(
        &mut self,
        id: u64,
        name: &str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
        request: Option<&str>,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            id,
            parent: parent.filter(|&p| p != 0),
            name: name.to_string(),
            start_ns: offset_ns(start),
            end_ns: offset_ns(end),
            request: request.map(str::to_string),
        });
    }

    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Value::Object(vec![
                ("id".into(), Value::Int(s.id as i64)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::Int(p as i64)),
                ),
                ("name".into(), Value::String(s.name.clone())),
                ("start_ns".into(), Value::Int(s.start_ns as i64)),
                ("end_ns".into(), Value::Int(s.end_ns as i64)),
                (
                    "request".into(),
                    s.request.clone().map_or(Value::Null, Value::String),
                ),
            ]);
            let text = serde_json::to_string(&line).expect("span serialization is infallible");
            writeln!(out, "{text}")?;
        }
        out.flush()
    }
}

/// Total self time per span name: each span's duration minus the union of
/// its children's intervals, clipped to the span.
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut run: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
        }
        *out.entry(s.name.clone()).or_insert(0) += s.duration_ns().saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "pass", 0, 100),
            // Overlapping children count once: [10, 50).
            span(2, Some(1), "fit", 10, 30),
            span(3, Some(1), "fit", 20, 50),
            // A child running past its parent is clipped: [90, 100).
            span(4, Some(1), "fit", 90, 120),
        ];
        let self_ns = self_time_ns(&spans);
        assert_eq!(self_ns["pass"], 100 - 40 - 10);
        assert_eq!(self_ns["fit"], 20 + 30 + 30);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false);
        let t = Instant::now();
        assert_eq!(r.open(), 0);
        r.record("x", None, t, t, None);
        assert!(r.spans().is_empty());
    }
}
