//! Periodic metrics snapshots: the `--metrics` producer of the
//! [`multiclust-trace/v2`](crate::trace) format.
//!
//! [`start_metrics`] spawns one telemetry-owned sampler thread that
//! writes a `snapshot` line — counters, span and histogram quantiles,
//! allocator gauges and the dropped-event count — on a wall-clock
//! interval ([`INTERVAL`] from the CLI), so a long fit or the resident
//! service has a live signal without waiting for the end-of-run trace
//! flush. The stream is observational only: the sampler reads the
//! registry under its lock but never writes to it, never touches stdout,
//! and never consumes randomness, so output stays byte-identical with the
//! stream on or off.
//!
//! The producer `meta` line carries `source` and `interval_ms`. A
//! snapshot is written immediately on start and a final one on
//! [`stop_metrics`], so even a run shorter than the interval yields at
//! least two; the `end` line counts them in `snapshots`.

use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Duration;

use serde::Value;

use crate::int;
use crate::trace::Writer;

/// The CLI's wall-clock sampling interval.
pub const INTERVAL: Duration = Duration::from_millis(200);

/// The running sampler: its stop channel and thread.
static SAMPLER: Mutex<Option<(Sender<()>, JoinHandle<()>)>> = Mutex::new(None);

/// Opens `path` (truncating), writes the meta lines, and spawns the
/// sampler thread. Any previously running stream is stopped first. Does
/// not flip the main telemetry switch — callers that want content in the
/// snapshots should also call [`crate::set_enabled`] (the CLI's
/// `--metrics` does both).
pub fn start_metrics(path: &Path, interval: Duration) -> std::io::Result<()> {
    stop_metrics();
    let interval = interval.max(Duration::from_millis(1));
    let meta = vec![
        ("source".into(), Value::String("metrics".into())),
        ("interval_ms".into(), int(interval.as_millis() as u64)),
    ];
    let mut writer = Writer::new(BufWriter::new(File::create(path)?), meta);
    writer.flush();
    let (stop, stopped) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name("multiclust-metrics".into())
        .spawn(move || {
            let mut seq = 0u64;
            // Wait on the stop channel rather than sleeping, so a stop
            // returns at once even at long intervals.
            loop {
                writer.snapshot(seq, &crate::snapshot());
                writer.flush();
                seq += 1;
                if stopped.recv_timeout(interval) != Err(RecvTimeoutError::Timeout) {
                    break;
                }
            }
            // One final snapshot, so the stream always ends with the
            // run's complete totals.
            writer.snapshot(seq, &crate::snapshot());
            writer.finish(vec![("snapshots".into(), int(seq + 1))]);
        })?;
    let mut guard = SAMPLER.lock().unwrap_or_else(|p| p.into_inner());
    *guard = Some((stop, handle));
    Ok(())
}

/// Signals the sampler to write its final snapshot and `end` line, then
/// joins it. No-op when no stream is running.
pub fn stop_metrics() {
    let sampler = SAMPLER.lock().unwrap_or_else(|p| p.into_inner()).take();
    if let Some((stop, handle)) = sampler {
        let _ = stop.send(());
        let _ = handle.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_yields_meta_two_snapshots_and_end() {
        let path = std::env::temp_dir()
            .join(format!("multiclust-metrics-test-{}.jsonl", std::process::id()));
        start_metrics(&path, Duration::from_millis(5)).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        stop_metrics();
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert!(lines.len() >= 4, "expected meta + ≥2 snapshots + end:\n{body}");
        let first: Value = serde_json::from_str(lines[0]).unwrap();
        let Value::Object(obj) = &first else { panic!("meta not an object") };
        assert!(obj.iter().any(|(k, v)| {
            k == "schema" && matches!(v, Value::String(s) if s == crate::trace::TRACE_SCHEMA)
        }));
        let snapshots = lines
            .iter()
            .filter(|l| {
                let v: Value = serde_json::from_str(l).expect("every line parses");
                let Value::Object(o) = v else { return false };
                o.iter().any(|(k, v)| {
                    k == "type" && matches!(v, Value::String(s) if s == "snapshot")
                })
            })
            .count();
        assert!(snapshots >= 2, "only {snapshots} snapshot lines:\n{body}");
        assert!(body.contains("\"type\":\"end\"") || body.contains("\"type\": \"end\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn write_failures_are_counted() {
        // `/dev/full` accepts opens but fails every write with ENOSPC.
        // Skip where it doesn't exist.
        let full = Path::new("/dev/full");
        if !full.exists() {
            return;
        }
        let _guard = crate::TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        crate::reset();
        start_metrics(full, Duration::from_millis(5)).expect("/dev/full opens");
        stop_metrics();
        assert!(crate::trace::trace_write_errors() > 0, "full stream must be counted");
        crate::reset();
    }
}
