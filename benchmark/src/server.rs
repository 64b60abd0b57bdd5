//! The shipped `multiclust serve` binary as a child process, and a
//! protocol client with a per-request timeout.
//!
//! The child is killed and reaped when its handle drops, on every exit
//! path including a panic, so no run leaves a server behind.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use serde::Value;

/// A request that has not answered within this long has failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// A running server child; dropping it kills the process.
pub struct ServerProcess {
    child: Child,
    addr: SocketAddr,
}

impl ServerProcess {
    /// Starts `bin serve` on an ephemeral localhost port and waits for its
    /// ready line. The child sees no `MULTICLUST_*` variable, so it always
    /// runs with its defaults.
    pub fn boot(bin: &Path) -> Result<ServerProcess, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("MULTICLUST_") {
                cmd.env_remove(key);
            }
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut line = String::new();
            let read = BufReader::new(stdout).read_line(&mut line);
            let _ = tx.send(read.map(|_| line));
        });
        let ready = rx.recv_timeout(REQUEST_TIMEOUT);
        let mut server = ServerProcess {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        if ready.is_err() {
            // Killing the child closes the pipe, which ends the reader.
            server.kill();
        }
        let _ = reader.join();
        let line = match ready {
            Ok(Ok(line)) => line,
            Ok(Err(e)) => return Err(format!("reading the server's ready line: {e}")),
            Err(_) => return Err("the server printed no ready line within 30 s".to_string()),
        };
        let addr = match serde_json::parse_value(line.trim()) {
            Ok(Value::Object(fields)) => {
                fields.into_iter().find_map(|(k, v)| match (k.as_str(), v) {
                    ("addr", Value::String(a)) => {
                        a.strip_prefix("tcp:").and_then(|a| a.parse().ok())
                    }
                    _ => None,
                })
            }
            _ => None,
        };
        server.addr = addr.ok_or_else(|| format!("unexpected ready line {:?}", line.trim()))?;
        Ok(server)
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the server to shut down, waiting up to the request timeout
    /// before the drop guard kills it.
    pub fn shutdown(mut self) {
        let asked = Conn::open(self.addr).and_then(|mut c| c.roundtrip(r#"{"op":"shutdown"}"#));
        if asked.is_ok() {
            let deadline = Instant::now() + REQUEST_TIMEOUT;
            while Instant::now() < deadline {
                if let Ok(Some(_)) = self.child.try_wait() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        self.kill();
    }

    fn kill(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        self.kill();
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// One protocol connection. Every read and write gives up after
/// [`REQUEST_TIMEOUT`].
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request line and reads its one response line.
    pub fn roundtrip(&mut self, request: &str) -> std::io::Result<String> {
        self.writer.write_all(request.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "the server closed the connection before answering",
            ));
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }
}

/// Server-side p50 latency per op in milliseconds, from the `stats` op's
/// sketches (parse plus execute, without socket time).
pub fn server_p50_ms(addr: SocketAddr) -> Result<Vec<(String, f64)>, String> {
    let line = Conn::open(addr)
        .and_then(|mut c| c.roundtrip(r#"{"id":"stats","op":"stats"}"#))
        .map_err(|e| format!("stats: {e}"))?;
    let fields = crate::check::envelope(&line, "stats", "stats")?;
    let Value::Object(ops) = crate::check::field(&fields, "latency_us")? else {
        return Err("stats: latency_us is not an object".to_string());
    };
    Ok(ops
        .iter()
        .filter_map(|(op, sketch)| match sketch {
            Value::Object(s) => s.iter().find_map(|(k, v)| match (k.as_str(), v) {
                ("p50", Value::Int(us)) => Some((op.clone(), *us as f64 / 1e3)),
                _ => None,
            }),
            _ => None,
        })
        .collect())
}
