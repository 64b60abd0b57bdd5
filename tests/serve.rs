//! End-to-end rig for `multiclust serve`: boots the server (in-process
//! and as the real binary), drives concurrent clients with a mixed
//! fit/assign/compare workload, and pins down the protocol contract —
//! conformance, LRU registry behaviour, served-vs-in-process bit
//! identity, malformed-request robustness, concurrency determinism and
//! clean shutdown.

use std::fs;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use multiclust::harness::{all_families, catalog, fit_dispatch, FitInput};
use multiclust::serve::{client, Listen, Server, ServerConfig};
use multiclust::telemetry::trace;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_multiclust"))
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("multiclust-serve-{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Boots an in-process server over the harness dispatch on an ephemeral
/// TCP port; the join handle returns the run summary on clean shutdown.
fn boot(
    capacity: usize,
) -> (Listen, std::thread::JoinHandle<multiclust::serve::ServerSummary>) {
    boot_at("127.0.0.1:0", capacity)
}

/// [`boot`] on any `--listen` address.
fn boot_at(
    addr: &str,
    capacity: usize,
) -> (Listen, std::thread::JoinHandle<multiclust::serve::ServerSummary>) {
    let listen = Listen::parse(addr).unwrap();
    let config = ServerConfig { capacity, dispatch: fit_dispatch() };
    let server = Server::bind(&listen, config).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (Listen::parse(&addr).unwrap(), handle)
}

/// A spawned `multiclust serve`. Dropping it kills and reaps a server
/// that has not exited yet, so a test that panics before
/// [`shutdown_clean`] leaves no server running.
struct ServeChild(Child);

impl Drop for ServeChild {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

/// Spawns the real binary's `serve` command and parses the ready line
/// for the bound address.
fn spawn_serve(extra_args: &[&str], envs: &[(&str, &str)]) -> (ServeChild, Listen) {
    let mut cmd = bin();
    cmd.args(["serve", "--listen", "127.0.0.1:0"])
        .args(extra_args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = ServeChild(cmd.spawn().expect("serve spawns"));
    let mut ready = String::new();
    BufReader::new(child.0.stdout.take().expect("piped stdout"))
        .read_line(&mut ready)
        .expect("ready line");
    assert!(
        ready.starts_with(r#"{"type":"ready","schema":"multiclust-serve/v1""#),
        "ready line announces the schema: {ready}"
    );
    let addr = ready
        .split(r#""addr":""#)
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or_else(|| panic!("ready line carries the address: {ready}"))
        .to_string();
    (child, Listen::parse(&addr).unwrap())
}

/// Sends `shutdown` and asserts the child exits cleanly with the
/// shutdown summary on stderr and no panic output.
fn shutdown_clean(mut child: ServeChild, listen: &Listen) {
    let resp = client::roundtrip(listen, r#"{"id":"bye","op":"shutdown"}"#)
        .expect("shutdown roundtrip");
    assert!(resp.contains(r#""ok":true"#), "{resp}");
    let status = child.0.wait().expect("serve exits");
    assert!(status.success(), "clean shutdown must exit 0: {status:?}");
    let mut stderr = String::new();
    use std::io::Read as _;
    child.0.stderr.take().expect("piped stderr").read_to_string(&mut stderr).unwrap();
    assert!(stderr.contains("shut down cleanly"), "summary on stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "no panic output: {stderr}");
}

/// A tiny two-blob inline dataset, written straight into request JSON.
const BLOBS: &str = "[[0,0],[0.2,0.1],[0.1,0.3],[0.3,0.2],[9,9],[9.2,9.1],[9.1,9.3],[9.3,9.2]]";

/// The mixed workload one client plays: two fits (single- and
/// multi-solution families), an assign against the first model, and a
/// cross-model compare — all ids and model names namespaced per client,
/// so responses are independent of cross-client interleaving.
fn client_script(i: usize) -> Vec<String> {
    vec![
        format!(
            r#"{{"id":"c{i}-fit-a","op":"fit","model":"c{i}-a","family":"kmeans","k":2,"seed":{seed},"data":{BLOBS}}}"#,
            seed = 100 + i
        ),
        format!(
            r#"{{"id":"c{i}-fit-b","op":"fit","model":"c{i}-b","family":"dec-kmeans","k":2,"seed":{seed},"data":{BLOBS}}}"#,
            seed = 200 + i
        ),
        format!(
            r#"{{"id":"c{i}-assign","op":"assign","model":"c{i}-a","data":[[0.1,0.1],[9.1,9.1]]}}"#
        ),
        format!(r#"{{"id":"c{i}-cmp","op":"compare","a":"c{i}-a","b":"c{i}-b","sa":0,"sb":1}}"#),
    ]
}

/// Plays `clients` concurrent sessions (released together through a
/// barrier) and returns each client's responses in request order.
fn play_concurrent(listen: &Listen, clients: usize) -> Vec<Vec<String>> {
    let barrier = Arc::new(Barrier::new(clients));
    let mut handles = Vec::new();
    for i in 0..clients {
        let listen = listen.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let script = client_script(i);
            barrier.wait();
            client::session(&listen, &script).expect("client session")
        }));
    }
    handles.into_iter().map(|h| h.join().expect("client thread")).collect()
}

/// The headline rig: the real binary, three simultaneous clients with a
/// mixed workload, protocol conformance on every response, and a clean
/// shutdown that flushes the trace's final snapshot.
#[test]
fn concurrent_clients_mixed_workload_clean_shutdown() {
    let dir = workdir("rig");
    let trace = dir.join("serve.trace.jsonl");
    let (child, listen) = spawn_serve(&["--trace", trace.to_str().unwrap()], &[]);

    let all = play_concurrent(&listen, 3);
    for (i, responses) in all.iter().enumerate() {
        let script = client_script(i);
        assert_eq!(responses.len(), script.len());
        for (req, resp) in script.iter().zip(responses) {
            // Conformance: schema header, id echo, success.
            assert!(
                resp.starts_with(r#"{"schema":"multiclust-serve/v1""#),
                "schema leads every response: {resp}"
            );
            let id = req.split(r#""id":""#).nth(1).unwrap().split('"').next().unwrap();
            assert!(resp.contains(&format!(r#""id":"{id}""#)), "id echo: {resp}");
            assert!(resp.contains(r#""ok":true"#), "workload succeeds: {resp}");
        }
        // The compare response carries all five agreement measures.
        let cmp = &responses[3];
        for measure in ["rand_index", "adjusted_rand_index", "variation_of_information"] {
            assert!(cmp.contains(measure), "{cmp}");
        }
    }

    // The server saw all 3 clients' models.
    let stats = client::roundtrip(&listen, r#"{"id":"st","op":"stats"}"#).unwrap();
    assert!(stats.contains(r#""fit":6"#), "6 fits recorded: {stats}");
    assert!(stats.contains(r#""models":6"#), "6 models live: {stats}");
    assert!(stats.contains(r#""uptime_ms""#), "{stats}");
    assert!(stats.contains(r#""events_dropped":0"#), "no telemetry lost: {stats}");

    shutdown_clean(child, &listen);

    // Clean shutdown flushed the telemetry: the trace carries a span per
    // request, then its final snapshot and the end line.
    let trace_raw = fs::read_to_string(&trace).expect("trace written");
    assert!(trace_raw.contains(r#""path":"serve.fit""#), "{trace_raw}");
    assert!(trace_raw.contains(r#""path":"serve.assign""#), "{trace_raw}");
    assert!(trace_raw.contains(r#""path":"serve.compare""#), "{trace_raw}");
    // Each layer of a request has its own span, tagged with the request
    // id: parse, the op, the response's encode and its write.
    for layer in ["parse", "fit", "encode", "write"] {
        let tagged = format!(r#""path":"serve.{layer}","#);
        assert!(
            trace_raw
                .lines()
                .any(|l| l.contains(&tagged) && l.contains(r#""request_id":"c0-fit-a""#)),
            "serve.{layer} span of c0-fit-a: {trace_raw}"
        );
    }
    let tail: Vec<&str> = trace_raw.lines().rev().take(2).collect();
    assert!(tail[0].starts_with(r#"{"type":"end""#), "flushed end line: {trace_raw}");
    assert!(
        tail[1].starts_with(r#"{"type":"snapshot""#) && tail[1].contains(r#""counters""#),
        "final snapshot flushed: {trace_raw}"
    );
}

/// Clients that drop mid-session do not disturb the others: while three
/// clients play their scripts against the shipped binary, one connection
/// sends a complete `fit` and closes without reading the answer, and
/// another sends half a request line and closes. The three sessions stay
/// byte-identical to a run without the droppers, `stats` counts the
/// abandoned fit, the fragment is answered as the `bad-json` error any
/// unterminated last line gets, and shutdown still drains cleanly.
#[test]
fn dropped_connections_do_not_disturb_other_clients() {
    use std::io::Write as _;
    let (child, listen) = spawn_serve(&[], &[]);
    let Listen::Tcp(addr) = listen.clone() else { unreachable!("spawn_serve listens on TCP") };
    let droppers = std::thread::spawn(move || {
        let abandoned = format!(
            r#"{{"id":"gone-fit","op":"fit","model":"gone","family":"kmeans","k":2,"seed":9,"data":{BLOBS}}}"#
        );
        for line in [format!("{abandoned}\n"), abandoned[..abandoned.len() / 2].to_string()] {
            let mut conn = std::net::TcpStream::connect(addr.as_str()).expect("dropper connects");
            conn.write_all(line.as_bytes()).expect("dropper writes");
        }
    });
    let disturbed = play_concurrent(&listen, 3);
    droppers.join().expect("dropper thread");

    // Both dropped connections are served asynchronously; wait (bounded)
    // until their requests are counted.
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let stats = client::roundtrip(&listen, r#"{"id":"st","op":"stats"}"#).unwrap();
        if stats.contains(r#""fit":7"#) && stats.contains(r#""invalid":1"#) {
            break stats;
        }
        assert!(Instant::now() < deadline, "dropped requests never counted: {stats}");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(stats.contains(r#""errors":1,"#), "only the fragment errored: {stats}");
    shutdown_clean(child, &listen);

    let (child, listen) = spawn_serve(&[], &[]);
    let undisturbed = play_concurrent(&listen, 3);
    shutdown_clean(child, &listen);
    assert_eq!(disturbed, undisturbed, "droppers leaked into other clients' responses");
}

/// A served `fit` must be bit-identical to the in-process fit for every
/// one of the eight algorithm families at the same seed.
#[test]
fn served_fit_is_bit_identical_for_all_families() {
    let scenario = &catalog(42)[0]; // planted-two-views: every family supports it
    let (listen, handle) = boot(16);
    for family in all_families() {
        let baseline = family.fit(&FitInput {
            data: &scenario.dataset,
            given: &scenario.given,
            view_groups: &scenario.view_groups,
            k: scenario.k,
            seed: 42,
        });
        let rows: Vec<String> = scenario
            .dataset
            .rows()
            .map(|r| {
                let cells: Vec<String> = r.iter().map(|x| format!("{x:?}")).collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        let given: Vec<String> = scenario
            .given
            .assignments()
            .iter()
            .map(|a| a.map_or(-1i64, |l| l as i64).to_string())
            .collect();
        let views: Vec<String> = scenario
            .view_groups
            .iter()
            .map(|g| {
                let dims: Vec<String> = g.iter().map(ToString::to_string).collect();
                format!("[{}]", dims.join(","))
            })
            .collect();
        let request = format!(
            r#"{{"id":"{f}","op":"fit","model":"{f}","family":"{f}","k":{k},"seed":42,"data":[{data}],"given":[{given}],"views":[{views}]}}"#,
            f = family.name(),
            k = scenario.k,
            data = rows.join(","),
            given = given.join(","),
            views = views.join(","),
        );
        let resp = client::roundtrip(&listen, &request).expect("fit roundtrip");
        assert!(resp.contains(r#""ok":true"#), "{}: {resp}", family.name());
        // Rebuild the exact solutions JSON from the in-process fit and
        // demand it appears verbatim in the response: bit identity.
        let expected: Vec<String> = baseline
            .iter()
            .map(|c| {
                let labels: Vec<String> = c
                    .assignments()
                    .iter()
                    .map(|a| a.map_or(-1i64, |l| l as i64).to_string())
                    .collect();
                format!("[{}]", labels.join(","))
            })
            .collect();
        let expected = format!(r#""solutions":[{}]"#, expected.join(","));
        assert!(
            resp.contains(&expected),
            "{}: served labels diverge\nwanted {expected}\nin {resp}",
            family.name()
        );
    }
    client::roundtrip(&listen, r#"{"id":"bye","op":"shutdown"}"#).unwrap();
    let summary = handle.join().expect("server thread joins");
    assert_eq!(summary.errors, 0, "no error responses in this test");
}

/// The registry is a bounded LRU: the oldest untouched model is evicted
/// at capacity, eviction is reported in the `fit` response, and evicted
/// models answer `unknown-model` afterwards.
#[test]
fn registry_evicts_least_recently_used() {
    let (listen, handle) = boot(2);
    let fit = |name: &str, seed: u64| {
        format!(
            r#"{{"id":"fit-{name}","op":"fit","model":"{name}","family":"kmeans","k":2,"seed":{seed},"data":{BLOBS}}}"#
        )
    };
    let mut conn = client::Connection::open(&listen).unwrap();
    assert!(conn.roundtrip(&fit("a", 1)).unwrap().contains(r#""evicted":[]"#));
    assert!(conn.roundtrip(&fit("b", 2)).unwrap().contains(r#""evicted":[]"#));

    // Touch `a` so `b` becomes the LRU victim for the third fit.
    let touch = conn
        .roundtrip(r#"{"id":"touch","op":"assign","model":"a","data":[[1,1]]}"#)
        .unwrap();
    assert!(touch.contains(r#""ok":true"#), "{touch}");
    let third = conn.roundtrip(&fit("c", 3)).unwrap();
    assert!(third.contains(r#""evicted":["b"]"#), "LRU victim is b: {third}");

    let list = conn.roundtrip(r#"{"id":"ls","op":"list"}"#).unwrap();
    assert!(list.contains(r#""model":"a""#) && list.contains(r#""model":"c""#), "{list}");
    assert!(!list.contains(r#""model":"b""#), "{list}");

    let gone = conn
        .roundtrip(r#"{"id":"gone","op":"assign","model":"b","data":[[1,1]]}"#)
        .unwrap();
    assert!(gone.contains(r#""code":"unknown-model""#), "{gone}");

    // Explicit evict frees a slot and reports double-eviction cleanly.
    let evict = conn.roundtrip(r#"{"id":"ev","op":"evict","model":"a"}"#).unwrap();
    assert!(evict.contains(r#""ok":true"#), "{evict}");
    let again = conn.roundtrip(r#"{"id":"ev2","op":"evict","model":"a"}"#).unwrap();
    assert!(again.contains(r#""code":"unknown-model""#), "{again}");

    let stats = conn.roundtrip(r#"{"id":"st","op":"stats"}"#).unwrap();
    assert!(stats.contains(r#""evictions":1"#), "{stats}");
    assert!(stats.contains(r#""capacity":2"#), "{stats}");

    conn.roundtrip(r#"{"id":"bye","op":"shutdown"}"#).unwrap();
    handle.join().expect("server thread joins");
}

/// Malformed requests each earn a structured error response — never a
/// process exit, a usage dump or a dropped connection — and the server
/// keeps serving afterwards, on the same connection and on new ones.
#[test]
fn malformed_requests_get_structured_errors_and_server_survives() {
    let (child, listen) = spawn_serve(&[], &[("MULTICLUST_SERVE_MAX_LINE", "1024")]);
    let mut conn = client::Connection::open(&listen).unwrap();

    // Oversized line: drained and rejected, connection still usable.
    let huge = format!(r#"{{"id":"big","op":"fit","pad":"{}"}}"#, "x".repeat(2000));
    let resp = conn.roundtrip(&huge).unwrap();
    assert!(resp.contains(r#""ok":false"#), "{resp}");
    assert!(resp.contains(r#""code":"line-too-long""#), "{resp}");
    assert!(resp.contains("1024"), "names the cap: {resp}");

    // Truncated JSON.
    let resp = conn.roundtrip(r#"{"id":"t","op":"fit""#).unwrap();
    assert!(resp.contains(r#""code":"bad-json""#), "{resp}");

    // Unknown op, id still echoed.
    let resp = conn.roundtrip(r#"{"id":"u","op":"frobnicate"}"#).unwrap();
    assert!(resp.contains(r#""code":"unknown-op""#), "{resp}");
    assert!(resp.contains(r#""id":"u""#), "{resp}");
    assert!(resp.contains("frobnicate"), "names the op: {resp}");

    // Bad model id.
    let resp = conn
        .roundtrip(r#"{"id":"m","op":"assign","model":"nope","data":[[1,1]]}"#)
        .unwrap();
    assert!(resp.contains(r#""code":"unknown-model""#), "{resp}");

    // Ragged dataset: caught by validation, not a panic.
    let resp = conn
        .roundtrip(r#"{"id":"r","op":"fit","family":"kmeans","k":2,"data":[[1,2],[3]]}"#)
        .unwrap();
    assert!(resp.contains(r#""code":"bad-request""#), "{resp}");
    assert!(resp.contains("ragged"), "{resp}");

    // Out-of-range k and unknown family are bad requests too.
    let resp = conn
        .roundtrip(r#"{"id":"k","op":"fit","family":"kmeans","k":99,"data":[[1,2],[3,4]]}"#)
        .unwrap();
    assert!(resp.contains(r#""code":"bad-request""#), "{resp}");
    let resp = conn
        .roundtrip(r#"{"id":"f","op":"fit","family":"astrology","k":2,"data":[[1,2],[3,4]]}"#)
        .unwrap();
    assert!(resp.contains(r#""code":"bad-request""#), "{resp}");
    assert!(resp.contains("kmeans"), "error names known families: {resp}");

    // After all of that, a well-formed request still works — same
    // connection and a fresh one.
    let good = format!(
        r#"{{"id":"ok","op":"fit","model":"ok","family":"kmeans","k":2,"seed":5,"data":{BLOBS}}}"#
    );
    assert!(conn.roundtrip(&good).unwrap().contains(r#""ok":true"#));
    let fresh = client::roundtrip(&listen, r#"{"id":"ls","op":"list"}"#).unwrap();
    assert!(fresh.contains(r#""model":"ok""#), "{fresh}");

    shutdown_clean(child, &listen);
}

/// A panicking fit handler earns a structured `internal` error, and the
/// flight recorder's dump — fetched through the `dump` protocol op —
/// names the failing request id, closing the correlation loop the
/// recorder exists for.
#[test]
fn panicking_dispatch_leaves_request_id_in_flight_dump() {
    let listen = Listen::parse("127.0.0.1:0").unwrap();
    let config = ServerConfig {
        capacity: 4,
        dispatch: Arc::new(|spec: &multiclust::serve::FitSpec| {
            panic!("injected dispatch panic: family {:?}", spec.family)
        }),
    };
    let server = Server::bind(&listen, config).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    let listen = Listen::parse(&addr).unwrap();

    let fit = format!(
        r#"{{"id":"boom-req-7","op":"fit","model":"m","family":"kmeans","k":2,"seed":1,"data":{BLOBS}}}"#
    );
    let resp = client::roundtrip(&listen, &fit).expect("panic becomes a response");
    assert!(resp.contains(r#""ok":false"#), "{resp}");
    assert!(resp.contains(r#""code":"internal""#), "{resp}");
    assert!(resp.contains(r#""id":"boom-req-7""#), "id echoed even on panic: {resp}");

    // The recorder is on by default (MULTICLUST_FLIGHT unset in tests);
    // `dump` snapshots it and answers with the file path.
    let dump = client::roundtrip(&listen, r#"{"id":"d","op":"dump"}"#).unwrap();
    assert!(dump.contains(r#""ok":true"#), "{dump}");
    let path = dump
        .split(r#""path":""#)
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or_else(|| panic!("dump response carries the path: {dump}"));
    let raw = fs::read_to_string(path).expect("dump file written");
    assert!(
        raw.contains("boom-req-7"),
        "dump correlates the failing request id:\n{raw}"
    );
    assert!(raw.contains("serve.fit.internal"), "error record names the op: {raw}");
    // The one reader prints the failing id and op in its last-errors list.
    let parsed = trace::read_trace(std::path::Path::new(path)).expect("dump parses");
    let errors = trace::last_errors(&parsed);
    assert!(errors.contains("serve.fit.internal  request_id=boom-req-7"), "{errors}");
    let _ = fs::remove_file(path);

    client::roundtrip(&listen, r#"{"id":"bye","op":"shutdown"}"#).unwrap();
    let summary = handle.join().expect("server thread joins");
    assert_eq!(summary.errors, 1, "exactly the panicked fit errored");
}

/// Determinism: the same 3-client script replayed against a fresh server
/// yields byte-identical response bodies per request id — and so does
/// running the server under `MULTICLUST_THREADS=1` vs `=4`.
#[test]
fn concurrent_replay_is_byte_identical_across_runs_and_thread_counts() {
    let mut runs = Vec::new();
    for threads in ["1", "1", "4"] {
        let (child, listen) = spawn_serve(&[], &[("MULTICLUST_THREADS", threads)]);
        let responses = play_concurrent(&listen, 3);
        shutdown_clean(child, &listen);
        runs.push(responses);
    }
    assert_eq!(
        runs[0], runs[1],
        "replaying the same script against a fresh server must be byte-identical"
    );
    assert_eq!(
        runs[0], runs[2],
        "server thread count must not leak into response bytes"
    );
}

/// `MULTICLUST_LISTEN` is honoured when `--listen` is absent, including
/// the Unix-socket form, and the socket file is removed on shutdown.
#[test]
fn unix_socket_via_env_cleans_up_on_shutdown() {
    let dir = workdir("unix-env");
    let sock = dir.join("serve.sock");
    let addr = format!("unix:{}", sock.display());
    let mut cmd = bin();
    cmd.arg("serve")
        .env("MULTICLUST_LISTEN", &addr)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = ServeChild(cmd.spawn().expect("serve spawns"));
    let mut ready = String::new();
    BufReader::new(child.0.stdout.take().unwrap()).read_line(&mut ready).unwrap();
    assert!(ready.contains(&addr), "ready line echoes the env address: {ready}");

    let listen = Listen::parse(&addr).unwrap();
    let resp = client::roundtrip(&listen, r#"{"id":"1","op":"list"}"#).unwrap();
    assert!(resp.contains(r#""ok":true"#), "{resp}");

    client::roundtrip(&listen, r#"{"id":"2","op":"shutdown"}"#).unwrap();
    assert!(child.0.wait().unwrap().success());
    assert!(!sock.exists(), "socket file removed on clean shutdown");
}

/// A request on a fresh connection is served when it arrives: the accept
/// loop blocks in `accept()` rather than polling, so the median `list`
/// over new connections stays far below a 5 ms poll interval.
#[test]
fn fresh_connection_is_served_without_an_accept_poll() {
    let (listen, handle) = boot(1);
    let mut micros: Vec<u128> = (0..21)
        .map(|i| {
            let started = Instant::now();
            let resp = client::roundtrip(&listen, &format!(r#"{{"id":"{i}","op":"list"}}"#))
                .expect("list roundtrip");
            assert!(resp.contains(r#""ok":true"#), "{resp}");
            started.elapsed().as_micros()
        })
        .collect();
    micros.sort_unstable();
    client::roundtrip(&listen, r#"{"id":"bye","op":"shutdown"}"#).unwrap();
    handle.join().expect("server thread joins");
    assert!(micros[10] < 2500, "median fresh-connection list took {} us: {micros:?}", micros[10]);
}

/// `shutdown` wakes an accept loop that has sat idle in `accept()`, on
/// a loopback, an unspecified (`0.0.0.0`) and a Unix-socket address; a
/// hang fails the test after 5 s instead of stalling the suite.
#[test]
fn shutdown_wakes_an_idle_accept_loop() {
    let dir = workdir("idle-shutdown");
    let unix = format!("unix:{}", dir.join("idle.sock").display());
    for addr in ["127.0.0.1:0", "0.0.0.0:0", unix.as_str()] {
        let (listen, handle) = boot_at(addr, 1);
        std::thread::sleep(Duration::from_millis(200));
        let resp = client::roundtrip(&listen, r#"{"id":"bye","op":"shutdown"}"#)
            .expect("shutdown roundtrip");
        assert!(resp.contains(r#""ok":true"#), "{addr}: {resp}");
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(handle.join().is_ok()));
        let returned_ok = rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("{addr}: run() did not return within 5 s of shutdown"));
        assert!(returned_ok, "{addr}: run() returned Err");
    }
}

/// A `given` label past the dataset is a `bad-request`, not an abort:
/// `Clustering` sizes its member lists by the largest label, so a label
/// of four billion would otherwise ask the allocator for ~96 GB and kill
/// the process. The same server answers the next request.
#[test]
fn out_of_range_given_label_is_a_bad_request() {
    let (listen, handle) = boot(4);
    let mut conn = client::Connection::open(&listen).unwrap();
    let resp = conn
        .roundtrip(
            r#"{"id":"g","op":"fit","family":"coala","k":2,"data":[[0,0],[0.2,0.1],[9,9],[9.2,9.1]],"given":[0,0,1,4000000000]}"#,
        )
        .unwrap();
    assert!(resp.contains(r#""code":"bad-request""#), "{resp}");
    assert!(
        resp.contains(r#"\"given\" label 3 is 4000000000, dataset has 4 objects"#),
        "names the label: {resp}"
    );
    let list = conn.roundtrip(r#"{"id":"ls","op":"list"}"#).unwrap();
    assert!(list.contains(r#""ok":true"#), "{list}");
    conn.roundtrip(r#"{"id":"bye","op":"shutdown"}"#).unwrap();
    handle.join().expect("server thread joins");
}

/// PROCLUS keeps two dimensions per cluster, so a served proclus fit on
/// one-dimensional data is refused as a `bad-request` naming the
/// family's minimum, before the family runs: no panic, no `internal`.
#[test]
fn one_dimensional_proclus_fit_is_a_bad_request() {
    let dir = workdir("proclus-1d");
    let flight_dir = dir.to_str().unwrap();
    let (child, listen) = spawn_serve(&[], &[("MULTICLUST_FLIGHT_DIR", flight_dir)]);
    let resp = client::roundtrip(
        &listen,
        r#"{"id":"p","op":"fit","family":"proclus","k":1,"data":[[0],[1],[2]]}"#,
    )
    .unwrap();
    assert!(resp.contains(r#""code":"bad-request""#), "{resp}");
    assert!(
        resp.contains(r#"family \"proclus\" needs data with at least 2 dimensions, got 1"#),
        "names the family and its minimum: {resp}"
    );
    shutdown_clean(child, &listen);
    let _ = fs::remove_dir_all(&dir);
}

/// The served face of the k-means++ NaN-total bug: thirty rows whose first
/// column alternates between ~1e-300 and ~1e80 once made Qi–Davidson's
/// inner k-means++ panic, and the `orthogonal` fit answered `internal`.
#[test]
fn orthogonal_fit_on_extreme_scales_answers_ok() {
    let (rows, given): (Vec<String>, Vec<String>) = (0..30)
        .map(|i| {
            let c1 = if i % 2 == 0 {
                1e-300 * (i + 1) as f64
            } else {
                1e80 * (1.0 + i as f64 / 30.0)
            };
            let row = format!("[{c1:?},{:?},{:?}]", 1e-301 * (i + 1) as f64, 1e-300);
            (row, ((i + 1) % 2).to_string())
        })
        .unzip();
    let request = format!(
        r#"{{"id":"x","op":"fit","family":"orthogonal","k":2,"seed":1,"data":[{}],"given":[{}]}}"#,
        rows.join(","),
        given.join(","),
    );
    let (child, listen) = spawn_serve(&[], &[]);
    let resp = client::roundtrip(&listen, &request).unwrap();
    assert!(resp.contains(r#""ok":true"#), "{resp}");
    shutdown_clean(child, &listen);
}

/// Finite cells too large to fit (a column whose range squares past
/// `f64::MAX`) once made the served spectral, PROCLUS, orthogonal and
/// multi-view fits panic and answer `internal`; the request parser now
/// refuses them as a `bad-request`, and the server keeps serving.
#[test]
fn huge_finite_cells_are_a_bad_request() {
    let data = "[[1.7e308,-1.7e308],[-1.7e308,1.7e308],[1.0,2.0],[1.7e308,1.7e308]]";
    let (child, listen) = spawn_serve(&[], &[]);
    for family in ["spectral", "proclus", "orthogonal", "multiview"] {
        let request = format!(
            r#"{{"id":"h","op":"fit","family":"{family}","k":2,"data":{data},"given":[0,1,0,1]}}"#
        );
        let resp = client::roundtrip(&listen, &request).unwrap();
        assert!(resp.contains(r#""code":"bad-request""#), "{family}: {resp}");
        assert!(resp.contains(r#"\"data\" column 0 is too large"#), "{family}: {resp}");
    }
    shutdown_clean(child, &listen);
}

/// Refused content read from a `path` is the client's bad request, as it
/// is inline; only a failed read is an `io` error.
#[test]
fn refused_path_data_is_a_bad_request_and_unreadable_path_is_io() {
    let dir = workdir("path-refused");
    let huge = dir.join("huge.csv");
    fs::write(&huge, "1.7e308,-1.7e308\n-1.7e308,1.7e308\n1.0,2.0\n1.7e308,1.7e308\n").unwrap();
    let nan = dir.join("nan.csv");
    fs::write(&nan, "0,0\n0.2,NaN\n9,9\n9.2,9.1\n").unwrap();
    let (child, listen) = spawn_serve(&[], &[]);
    for (file, why) in [(&huge, "too large"), (&nan, "is not a finite number")] {
        let request = format!(
            r#"{{"id":"p","op":"fit","family":"kmeans","k":2,"path":"{}"}}"#,
            file.display()
        );
        let resp = client::roundtrip(&listen, &request).unwrap();
        assert!(resp.contains(r#""code":"bad-request""#), "{}: {resp}", file.display());
        assert!(resp.contains(why), "{}: {resp}", file.display());
    }
    let missing = dir.join("missing.csv");
    let request = format!(
        r#"{{"id":"m","op":"fit","family":"kmeans","k":2,"path":"{}"}}"#,
        missing.display()
    );
    let resp = client::roundtrip(&listen, &request).unwrap();
    assert!(resp.contains(r#""code":"io""#), "{resp}");
    shutdown_clean(child, &listen);
}

/// Inline `data` is read straight into the dataset's buffer: every
/// number spelling converts as the `Value` codec does (`-0` is +0.0, an
/// integer beyond `i64` goes through `f64`), and refused data answers the
/// same message the `Value` validation always gave.
#[test]
fn inline_data_spellings_and_refusals_answer_as_before() {
    let (child, listen) = spawn_serve(&[], &[]);
    let mut conn = client::Connection::open(&listen).unwrap();
    let fit = |data: &str| {
        format!(
            r#"{{"id":"f","op":"fit","model":"m","family":"kmeans","k":3,"seed":3,"data":{data}}}"#
        )
    };
    let mixed = conn
        .roundtrip(&fit(
            "[[1, -0],[2,1E0],[ 1E2 ,2.50e-3],[101,  -1],[9223372036854775808,5],[9223372036854775808,6]]",
        ))
        .unwrap();
    let floats = conn
        .roundtrip(&fit(
            "[[1.0,0.0],[2.0,1.0],[100.0,0.0025],[101.0,-1.0],[9223372036854775808.0,5.0],[9223372036854775808.0,6.0]]",
        ))
        .unwrap();
    assert!(mixed.contains(r#""solutions":[[0,0,2,2,1,1]]"#), "{mixed}");
    assert_eq!(mixed, floats);

    for (data, message) in [
        ("[[0.1,0.1],[9,9,9]]", r#"ragged \"data\": row 1 has 3 cells, expected 2"#),
        (r#"[[0.1,0.1],[9,"x"]]"#, r#"\"data\" row 1 cell 1 is not a number"#),
        ("[[0.1,0.1],[9,1e999]]", r#"\"data\" row 1 cell 1 is not finite"#),
    ] {
        let resp = conn
            .roundtrip(&format!(r#"{{"id":"a","op":"assign","model":"m","data":{data}}}"#))
            .unwrap();
        let want = format!(
            r#"{{"schema":"multiclust-serve/v1","id":"a","ok":false,"error":{{"code":"bad-request","message":"{message}"}}}}"#
        );
        assert_eq!(resp, want);
    }
    drop(conn);
    shutdown_clean(child, &listen);
}
