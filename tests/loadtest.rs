//! End-to-end rig for `multiclust loadtest`: runs the shipped scenarios
//! through the real binary and pins the contract — a passing smoke run
//! with a parseable `multiclust-loadtest-report/v1` verdict, canonical
//! reports byte-identical across `MULTICLUST_THREADS`, every injectable
//! fault caught by its scenario, and clean one-line rejection of
//! malformed specs. No raw sleeps anywhere: the
//! driver's readiness comes from the serve ready line and its pacing
//! from barriers, so these tests are wall-clock-robust by construction.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_multiclust"))
}

fn scenario(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("multiclust-loadtest-{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = bin();
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("loadtest runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn smoke_scenario_passes_and_reports() {
    let out = run(&["loadtest", &scenario("smoke.json")], &[]);
    let report = stdout(&out);
    assert!(out.status.success(), "{report}\n{}", stderr(&out));
    assert!(report.contains("\"schema\": \"multiclust-loadtest-report/v1\""), "{report}");
    assert!(report.contains("\"verdict\": \"PASS\""), "{report}");
    assert!(report.contains("\"transcript_digest\": \"fnv1a:"), "{report}");
    // The human summary stays on stderr; stdout is pure JSON contract.
    assert!(report.trim_start().starts_with('{'), "{report}");
    assert!(stderr(&out).contains("loadtest smoke: PASS"), "{}", stderr(&out));
}

#[test]
fn canonical_report_replays_byte_identically_across_threads() {
    let args = ["loadtest", &scenario("smoke.json"), "--canonical"];
    let one = run(&args, &[("MULTICLUST_THREADS", "1")]);
    let four = run(&args, &[("MULTICLUST_THREADS", "4")]);
    assert!(one.status.success(), "{}", stderr(&one));
    assert!(four.status.success(), "{}", stderr(&four));
    assert_eq!(
        stdout(&one),
        stdout(&four),
        "canonical report must be a pure function of the scenario"
    );
    assert!(stdout(&one).contains("\"timing\": null"), "{}", stdout(&one));
}

#[test]
fn canonical_report_matches_the_blessed_golden() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/loadtest_smoke.json");
    let expected = fs::read_to_string(&golden).expect("golden exists (--bless to create)");
    let out = run(&["loadtest", &scenario("smoke.json"), "--canonical"], &[]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(stdout(&out), expected, "refresh with --golden ... --bless");
}

#[test]
fn injected_rng_fault_fails_serve_equivalence() {
    let out = run(
        &["loadtest", &scenario("smoke.json"), "--inject", "serve-perturbs-rng"],
        &[],
    );
    assert!(!out.status.success(), "a perturbed server must not pass");
    let report = stdout(&out);
    assert!(report.contains("\"verdict\": \"FAIL\""), "{report}");
    assert!(report.contains("\"inject\": \"serve-perturbs-rng\""), "{report}");
    // The mismatch is caught where it should be: serve-equivalence.
    assert!(stderr(&out).contains("FAIL serve-equivalence"), "{}", stderr(&out));
}

#[test]
fn injected_desync_fault_fails_serve_equivalence() {
    let out =
        run(&["loadtest", &scenario("smoke.json"), "--inject", "desync-kernels"], &[]);
    assert!(!out.status.success(), "a label-flipping server must not pass");
    assert!(stderr(&out).contains("FAIL serve-equivalence"), "{}", stderr(&out));
}

#[test]
fn injected_drop_connection_chaos_breaches_the_transport_budget() {
    let out =
        run(&["loadtest", &scenario("smoke.json"), "--inject", "drop-connection"], &[]);
    assert!(!out.status.success(), "dropped connections must not pass");
    let err = stderr(&out);
    assert!(err.contains("FAIL error-budget"), "{err}");
    assert!(err.contains("transport"), "{err}");
}

#[test]
fn injected_slow_handler_breaches_a_latency_ceiling() {
    let dir = workdir("slow");
    let path = dir.join("tight.json");
    // A deliberately tiny scenario so the doubled-ceiling sleep stays
    // cheap: 4 ops, one worker, 200 ms p50 ceiling → 400 ms sleeps.
    fs::write(
        &path,
        r#"{
            "schema": "multiclust-loadtest/v1",
            "name": "tight",
            "seed": 3,
            "dataset": {"n": 12, "views": [{"dims": 2, "clusters": 2, "separation": 12.0, "noise": 0.5}]},
            "arrival": {"mode": "closed", "workers": 1, "requests": 4},
            "mix": {"fit": {"kmeans": 1}},
            "fit": {"k": 2, "seed": 3},
            "server": {"capacity": 8},
            "expectations": [
                {"kind": "latency", "op": "fit", "quantile": "p50", "max_ms": 200},
                {"kind": "serve-equivalence"}
            ]
        }"#,
    )
    .expect("write scenario");
    let clean = run(&["loadtest", path.to_str().unwrap()], &[]);
    assert!(clean.status.success(), "clean run passes: {}", stderr(&clean));
    let out = run(&["loadtest", path.to_str().unwrap(), "--inject", "slow-handler"], &[]);
    assert!(!out.status.success(), "a slowed handler must not pass");
    assert!(stderr(&out).contains("FAIL latency"), "{}", stderr(&out));
}

#[test]
fn chaos_scenario_passes_degraded_and_proves_the_degradation() {
    let out = run(&["loadtest", &scenario("chaos.json")], &[]);
    let report = stdout(&out);
    assert!(out.status.success(), "{report}\n{}", stderr(&out));
    assert!(report.contains("\"verdict\": \"PASS\""), "{report}");
    // min-errors proves chaos actually dropped connections — a chaos
    // scenario with zero transport errors would be testing nothing.
    assert!(stderr(&out).contains("PASS min-errors"), "{}", stderr(&out));
}

#[test]
fn quality_scenario_exercises_the_open_loop_tick_clock() {
    let out = run(&["loadtest", &scenario("quality.json")], &[]);
    assert!(out.status.success(), "{}\n{}", stdout(&out), stderr(&out));
    assert!(stdout(&out).contains("\"verdict\": \"PASS\""), "{}", stdout(&out));
}

#[test]
fn binary_boot_drives_the_shipped_server() {
    let out = run(&["loadtest", &scenario("smoke.json"), "--boot", "binary"], &[]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("\"boot\": \"binary\""), "{}", stdout(&out));
}

#[test]
fn in_process_faults_refuse_the_binary_boot() {
    let out = run(
        &[
            "loadtest",
            &scenario("smoke.json"),
            "--boot",
            "binary",
            "--inject",
            "serve-perturbs-rng",
        ],
        &[],
    );
    assert!(!out.status.success());
    assert!(stderr(&out).contains("in-process"), "{}", stderr(&out));
}

#[test]
fn malformed_scenarios_die_with_one_clean_line() {
    let dir = workdir("malformed");
    let path = dir.join("bad.json");
    fs::write(
        &path,
        r#"{"schema": "multiclust-loadtest/v1", "name": "bad", "seed": 1,
            "dataset": {"n": 8, "views": [{"dims": 2, "clusters": 2, "separation": 10.0, "noise": 0.5}]},
            "arrival": {"mode": "banana", "workers": 2, "requests": 4},
            "mix": {"fit": {"kmeans": 1}}, "fit": {"k": 2, "seed": 1},
            "server": {"capacity": 8},
            "expectations": [{"kind": "error-rate", "max": 0.0}]}"#,
    )
    .expect("write scenario");
    let out = run(&["loadtest", path.to_str().unwrap()], &[]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("\"arrival.mode\""), "names the bad field: {err}");
    assert!(!err.contains("usage:"), "data errors never dump usage: {err}");
    assert_eq!(err.trim().lines().count(), 1, "one clean line: {err}");
}

#[test]
fn unknown_fault_names_the_registry() {
    let out = run(&["loadtest", &scenario("smoke.json"), "--inject", "gremlins"], &[]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("slow-handler") && err.contains("serve-perturbs-rng"), "{err}");
}
