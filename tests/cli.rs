//! End-to-end smoke tests for the `multiclust` CLI binary.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use multiclust::core::measures::diss::adjusted_rand_index;
use multiclust::core::Clustering;
use multiclust::data::io::write_csv;
use multiclust::data::synthetic::four_blob_square;
use multiclust::data::seeded_rng;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_multiclust"))
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("multiclust-cli-{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Parses CLI label output: one row per object, comma-separated columns.
fn parse_labels(stdout: &str, column: usize) -> Clustering {
    let assignments: Vec<Option<usize>> = stdout
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| {
            let cell: i64 = l.split(',').nth(column).unwrap().trim().parse().unwrap();
            if cell < 0 {
                None
            } else {
                Some(cell as usize)
            }
        })
        .collect();
    Clustering::from_options(assignments)
}

#[test]
fn kmeans_roundtrip_through_csv() {
    let dir = workdir("kmeans");
    let fb = four_blob_square(20, 10.0, 0.6, &mut seeded_rng(801));
    let input = dir.join("data.csv");
    write_csv(&fb.dataset, &input).unwrap();

    let out = bin()
        .args(["kmeans", "--input", input.to_str().unwrap(), "--k", "4"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let found = parse_labels(&String::from_utf8_lossy(&out.stdout), 0);
    assert_eq!(found.len(), 80);
    let truth = Clustering::from_labels(&fb.blob);
    assert!(adjusted_rand_index(&found, &truth) > 0.95);
}

/// Thirty rows whose first column alternates between ~1e-300 and ~1e80,
/// with `(i + 1) % 2` as the given labels: the rows under which
/// Qi–Davidson's inner k-means++ once summed its distances to NaN.
fn extreme_scale_rows() -> (Vec<[f64; 3]>, Vec<usize>) {
    (0..30)
        .map(|i| {
            let c1 = if i % 2 == 0 {
                1e-300 * (i + 1) as f64
            } else {
                1e80 * (1.0 + i as f64 / 30.0)
            };
            ([c1, 1e-301 * (i + 1) as f64, 1e-300], (i + 1) % 2)
        })
        .unzip()
}

/// k-means++ falls back to a uniform pick when its distance total is NaN,
/// as it does for a zero total, instead of panicking on an empty range.
#[test]
fn qidavidson_on_extreme_scales_does_not_panic() {
    let dir = workdir("qidavidson-extreme");
    let (rows, given) = extreme_scale_rows();
    let input = dir.join("data.csv");
    let text: String = rows.iter().map(|r| format!("{:?},{:?},{:?}\n", r[0], r[1], r[2])).collect();
    fs::write(&input, text).unwrap();
    let labels_path = dir.join("given.csv");
    fs::write(&labels_path, given.iter().map(|l| format!("{l}\n")).collect::<String>()).unwrap();
    let out = bin()
        .args(["alternative", "--method", "qidavidson", "--k", "2", "--seed", "1"])
        .args(["--input", input.to_str().unwrap(), "--given", labels_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 30);
}

/// Finite cells too large to fit: the first column's range squares past
/// `f64::MAX`, so a covariance overflows. The eigensolver behind
/// metric flipping and Qi–Davidson once panicked on it; the reader now
/// refuses the file with one line and exit 1.
#[test]
fn huge_finite_cells_are_refused_at_load() {
    let dir = workdir("huge-cells");
    let input = dir.join("data.csv");
    fs::write(&input, "1.7e308,-1.7e308\n-1.7e308,1.7e308\n1.0,2.0\n1.7e308,1.7e308\n").unwrap();
    let labels_path = dir.join("given.csv");
    fs::write(&labels_path, "0\n1\n0\n1\n").unwrap();
    for method in ["metricflip", "qidavidson"] {
        let out = bin()
            .args(["alternative", "--method", method, "--k", "2"])
            .args(["--input", input.to_str().unwrap(), "--given", labels_path.to_str().unwrap()])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{method}: {stderr}");
        assert!(stderr.contains("column 1: values too large"), "{method}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{method}: one clean line: {stderr}");
        assert!(out.stdout.is_empty(), "{method}");
    }
}

#[test]
fn dec_kmeans_emits_two_columns() {
    let dir = workdir("dec");
    let fb = four_blob_square(20, 10.0, 0.6, &mut seeded_rng(802));
    let input = dir.join("data.csv");
    write_csv(&fb.dataset, &input).unwrap();

    let out = bin()
        .args([
            "dec-kmeans",
            "--input",
            input.to_str().unwrap(),
            "--ks",
            "2,2",
            "--lambda",
            "10",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let a = parse_labels(&stdout, 0);
    let b = parse_labels(&stdout, 1);
    assert_eq!(a.len(), 80);
    assert_eq!(b.len(), 80);
}

#[test]
fn alternative_against_given_labels() {
    let dir = workdir("alt");
    let fb = four_blob_square(20, 10.0, 0.6, &mut seeded_rng(803));
    let input = dir.join("data.csv");
    write_csv(&fb.dataset, &input).unwrap();
    let labels_path = dir.join("given.csv");
    let given_text: String = fb
        .horizontal
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
    fs::write(&labels_path, given_text).unwrap();

    let out = bin()
        .args([
            "alternative",
            "--input",
            input.to_str().unwrap(),
            "--given",
            labels_path.to_str().unwrap(),
            "--k",
            "2",
            "--method",
            "qidavidson",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let given = parse_labels(&stdout, 0);
    let alt = parse_labels(&stdout, 1);
    let vertical = Clustering::from_labels(&fb.vertical);
    assert!(adjusted_rand_index(&alt, &vertical) > 0.9);
    assert!(adjusted_rand_index(&alt, &given) < 0.1);
}

#[test]
fn compare_reports_measures() {
    let dir = workdir("compare");
    let a_path = dir.join("a.csv");
    let b_path = dir.join("b.csv");
    fs::write(&a_path, "0\n0\n1\n1\n").unwrap();
    fs::write(&b_path, "1\n1\n0\n0\n").unwrap();
    let out = bin()
        .args([
            "compare",
            "--a",
            a_path.to_str().unwrap(),
            "--b",
            b_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("rand_index,1.000000"), "{stdout}");
    assert!(stdout.contains("adjusted_rand_index,1.000000"));
    assert!(stdout.contains("variation_of_information,0.000000"));
}

#[test]
fn subspace_lists_clusters() {
    let dir = workdir("subspace");
    let fb = four_blob_square(25, 10.0, 0.5, &mut seeded_rng(804));
    let input = dir.join("data.csv");
    write_csv(&fb.dataset, &input).unwrap();
    let out = bin()
        .args([
            "subspace",
            "--input",
            input.to_str().unwrap(),
            "--xi",
            "5",
            "--tau",
            "0.1",
            "--select",
            "osclu",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.starts_with("# cluster_id"));
    assert!(stdout.lines().count() > 1, "at least one cluster reported");
}

#[test]
fn bad_flags_fail_with_usage() {
    let out = bin().args(["kmeans", "--k", "3"]).output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("missing required flag --input"));
    assert!(stderr.contains("usage:"));

    // A boolean flag given a value is refused, not read as "on":
    // `--header=0` would otherwise drop the first data row.
    let dir = workdir("bool-value");
    let input = dir.join("four.csv");
    fs::write(&input, "1,2\n3,4\n5,6\n7,8\n").unwrap();
    let out = bin()
        .args(["kmeans", "--input", input.to_str().unwrap(), "--k", "2", "--header=0"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "--header=0 must be refused");
    assert!(out.stdout.is_empty(), "no labels printed");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("flag --header takes no value"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");

    // A misspelt or retired flag is refused, not ignored: `--sead 7`
    // would otherwise print labels from the default seed.
    for flag in [["--sead", "7"], ["--metrics", "x"]] {
        let out = bin()
            .args(["kmeans", "--input", input.to_str().unwrap(), "--k", "2"])
            .args(flag)
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "{flag:?} must be refused");
        assert!(out.stdout.is_empty(), "{flag:?}: no labels printed");
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(stderr.contains(&format!("unknown flag {}", flag[0])), "{stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
    }
}

#[test]
fn malformed_csv_fails_cleanly() {
    let dir = workdir("ragged");
    let ragged = dir.join("ragged.csv");
    fs::write(&ragged, "1.0,2.0\n3.0\n5.0,6.0\n").unwrap();
    let garbage = dir.join("garbage.csv");
    fs::write(&garbage, "1.0,2.0\n3.0,not-a-number\n").unwrap();

    for input in [&ragged, &garbage] {
        let out = bin()
            .args(["kmeans", "--input", input.to_str().unwrap(), "--k", "2"])
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "{input:?} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(stderr.starts_with("error:"), "clean error line, got: {stderr}");
        assert!(
            !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
            "no panic output, got: {stderr}"
        );
        assert!(stderr.contains("line 2"), "names the offending line: {stderr}");
        assert!(!stderr.contains("usage:"), "no usage dump on a data error: {stderr}");
    }

    // An unreadable label file is a data error too.
    let missing = dir.join("missing.csv");
    let out = bin()
        .args(["compare", "--a", missing.to_str().unwrap(), "--b", ragged.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.starts_with("error: reading"), "{stderr}");
    assert!(!stderr.contains("usage:"), "no usage dump on a data error: {stderr}");
}

#[test]
fn k_larger_than_dataset_fails_cleanly() {
    let dir = workdir("bigk");
    let input = dir.join("tiny.csv");
    fs::write(&input, "1.0,2.0\n3.0,4.0\n").unwrap();
    let out = bin()
        .args(["kmeans", "--input", input.to_str().unwrap(), "--k", "5"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("--k is 5 but the input has only 2 objects"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// PR-3 acceptance: a clean `verify` run against the committed golden
/// fixtures exits 0 and prints the invariant × family matrix.
#[test]
fn verify_clean_run_exits_zero() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let out = bin()
        .args(["verify", "--family", "kmeans", "--golden-dir", golden.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("verification matrix"), "{stdout}");
    assert!(stdout.contains("partition-validity"), "{stdout}");
    assert!(stdout.contains("kmeans            match"), "golden line: {stdout}");
    assert!(out.stderr.is_empty(), "clean run is quiet on stderr");
}

/// Injected faults as (fault, violated invariant, detail text).
const FAULT_ROWS: [(&str, &str, &str); 4] = [
    ("asymmetric-diss", "diss-symmetry", "matrix[0][1]"),
    ("trace-perturbs-rng", "trace-invariance", "tracing moved labels"),
    ("alloc-perturbs-rng", "alloc-invariance", "allocation accounting moved labels"),
    ("serve-perturbs-rng", "serve-equivalence", "served fit diverged"),
];

/// An injected fault must flip the exit code and name its targeted
/// invariant with the violation detail in the report — with no usage
/// dump, because the run itself was well-formed.
fn assert_fault_caught(fault: &str) {
    let (_, invariant, detail) =
        FAULT_ROWS.iter().find(|row| row.0 == fault).expect("fault has a row");
    let out = bin()
        .args(["verify", "--family", "kmeans", "--inject", fault, "--golden-dir", "none"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "fault {fault} must fail the run");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains(&format!("violation: {invariant}")), "{fault}: {stdout}");
    assert!(stdout.contains(detail), "{fault}: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(!stderr.contains("usage:"), "{fault}: no usage dump: {stderr}");
}

#[test]
fn verify_trace_fault_fails_with_named_invariant() {
    assert_fault_caught("trace-perturbs-rng");
}

#[test]
fn verify_alloc_fault_fails_with_named_invariant() {
    assert_fault_caught("alloc-perturbs-rng");
}

#[test]
fn verify_serve_fault_fails_with_named_invariant() {
    assert_fault_caught("serve-perturbs-rng");
}

#[test]
fn verify_injected_fault_fails_with_named_invariant() {
    assert_fault_caught("asymmetric-diss");

    let bad = bin()
        .args(["verify", "--inject", "nonsense"])
        .output()
        .expect("binary runs");
    assert!(!bad.status.success());
    let stderr = String::from_utf8_lossy(&bad.stderr).to_string();
    assert!(stderr.contains("unknown fault"), "{stderr}");
    assert!(stderr.contains("asymmetric-diss"), "lists known faults: {stderr}");
}

/// `--telemetry` must not perturb the verification report: stdout stays
/// byte-identical and the run still passes.
#[test]
fn verify_with_telemetry_keeps_stdout_identical() {
    let args = ["verify", "--family", "coala", "--golden-dir", "none"];
    let plain = bin().args(args).output().expect("binary runs");
    assert!(plain.status.success());
    let traced = bin().args(args).arg("--telemetry").output().expect("binary runs");
    assert!(traced.status.success());
    assert_eq!(plain.stdout, traced.stdout, "report must stay byte-identical");
    assert!(
        String::from_utf8_lossy(&traced.stderr).contains("spans"),
        "telemetry report lands on stderr"
    );
}

/// Flipping the runtime kernel switch must not change any command's
/// stdout by a single byte: the engine is a pure optimization.
#[test]
fn kernel_mode_switch_keeps_stdout_identical() {
    let dir = workdir("kernel-mode");
    let fb = four_blob_square(20, 10.0, 0.6, &mut seeded_rng(807));
    let input = dir.join("data.csv");
    write_csv(&fb.dataset, &input).unwrap();
    let labels_path = dir.join("given.csv");
    let given_text: String = fb.horizontal.iter().map(|l| format!("{l}\n")).collect();
    fs::write(&labels_path, given_text).unwrap();

    let cases: Vec<Vec<&str>> = vec![
        vec!["kmeans", "--input", input.to_str().unwrap(), "--k", "4", "--seed", "9"],
        vec!["dec-kmeans", "--input", input.to_str().unwrap(), "--ks", "2,2"],
        vec![
            "alternative",
            "--input",
            input.to_str().unwrap(),
            "--given",
            labels_path.to_str().unwrap(),
            "--k",
            "2",
            "--method",
            "coala",
        ],
    ];
    for args in &cases {
        let naive = bin()
            .args(args)
            .env("MULTICLUST_KERNELS", "naive")
            .output()
            .expect("binary runs");
        assert!(naive.status.success(), "{args:?}");
        // The blocked kernels must leave stdout byte-identical to the
        // naive reference.
        let blocked = bin()
            .args(args)
            .env("MULTICLUST_KERNELS", "blocked")
            .output()
            .expect("binary runs");
        assert!(blocked.status.success(), "{args:?} under blocked");
        assert_eq!(blocked.stdout, naive.stdout, "{args:?} diverged under blocked");
    }
}

/// PR-5 acceptance: `--trace <file>` leaves stdout byte-identical while
/// streaming a `multiclust-trace/v2` JSONL file that `trace` and
/// `trace --collapse` read back.
#[test]
fn trace_flag_streams_jsonl_without_touching_stdout() {
    let dir = workdir("trace");
    let fb = four_blob_square(20, 10.0, 0.6, &mut seeded_rng(808));
    let input = dir.join("data.csv");
    write_csv(&fb.dataset, &input).unwrap();
    let trace_path = dir.join("run.trace.jsonl");
    let base_args =
        ["kmeans", "--input", input.to_str().unwrap(), "--k", "4", "--seed", "11"];

    let plain = bin().args(base_args).output().expect("binary runs");
    assert!(plain.status.success());
    let traced = bin()
        .args(base_args)
        .args(["--trace", trace_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(traced.status.success(), "{}", String::from_utf8_lossy(&traced.stderr));
    assert_eq!(plain.stdout, traced.stdout, "stdout must stay byte-identical");

    // Every line of the sink file is standalone JSON; the first line
    // carries the schema version; run metadata is present.
    let raw = fs::read_to_string(&trace_path).expect("trace file written");
    for (i, line) in raw.lines().enumerate() {
        serde_json::from_str::<serde_json::Value>(line)
            .unwrap_or_else(|e| panic!("trace line {}: {e}: {line}", i + 1));
    }
    assert!(
        raw.starts_with(r#"{"type":"meta","schema":"multiclust-trace/v2"}"#),
        "first line announces the schema: {raw}"
    );
    assert!(raw.contains(r#""command":"kmeans""#), "{raw}");
    assert!(raw.contains(r#""dataset_n":80"#), "{raw}");
    assert!(raw.contains(r#""type":"end""#), "flushed end line: {raw}");

    // The attribution and flamegraph views both read it back, and a
    // healthy k-means trajectory diagnoses clean.
    let summary = bin()
        .args(["trace", trace_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(summary.status.success());
    let text = String::from_utf8_lossy(&summary.stdout).to_string();
    assert!(text.starts_with(&format!("trace {}: source trace,", trace_path.display())), "{text}");
    assert!(text.contains("kmeans.fit"), "{text}");
    assert!(text.contains("self%"), "attribution columns: {text}");
    assert!(text.contains("trajectory kmeans.iter"), "convergence report: {text}");
    assert!(text.contains("no findings"), "{text}");
    assert!(!text.contains("last errors"), "no error section without errors: {text}");

    let collapsed = bin()
        .args(["trace", "--collapse", trace_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(collapsed.status.success());
    let stacks = String::from_utf8_lossy(&collapsed.stdout).to_string();
    assert!(stacks.lines().any(|l| l.starts_with("kmeans.fit ")), "{stacks}");
}

/// A seeded non-monotone objective trajectory must flip `trace` to a
/// non-zero exit and be named in its convergence report.
#[test]
fn diagnose_flags_non_monotone_trajectory() {
    let dir = workdir("diagnose");
    let bad = dir.join("bad.trace.jsonl");
    fs::write(
        &bad,
        concat!(
            "{\"type\":\"meta\",\"schema\":\"multiclust-trace/v2\"}\n",
            "{\"type\":\"event\",\"seq\":0,\"name\":\"kmeans.iter\",",
            "\"fields\":{\"restart\":0.0,\"iter\":0.0,\"inertia\":100.0}}\n",
            "{\"type\":\"event\",\"seq\":1,\"name\":\"kmeans.iter\",",
            "\"fields\":{\"restart\":0.0,\"iter\":1.0,\"inertia\":90.0}}\n",
            "{\"type\":\"event\",\"seq\":2,\"name\":\"kmeans.iter\",",
            "\"fields\":{\"restart\":0.0,\"iter\":2.0,\"inertia\":95.0}}\n",
            "{\"type\":\"end\",\"events_dropped\":0,\"lines\":5}\n",
        ),
    )
    .unwrap();

    let out = bin().args(["trace", bad.to_str().unwrap()]).output().expect("runs");
    assert!(!out.status.success(), "rising objective must fail the run");
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("non-monotone"), "{text}");
    assert!(text.contains("kmeans.iter"), "{text}");
}

/// PR-7 acceptance: a run with `MULTICLUST_ALLOC=1` and `--trace` leaves
/// stdout byte-identical, the trace summary gains per-phase `alloc.peak`
/// attribution, and the trace's final snapshot carries the live
/// allocation gauges.
#[test]
fn alloc_instrumentation_keeps_stdout_identical() {
    let dir = workdir("alloc");
    let fb = four_blob_square(20, 10.0, 0.6, &mut seeded_rng(809));
    let input = dir.join("data.csv");
    write_csv(&fb.dataset, &input).unwrap();
    let trace_path = dir.join("run.trace.jsonl");
    let base_args =
        ["kmeans", "--input", input.to_str().unwrap(), "--k", "4", "--seed", "13"];

    let plain = bin().args(base_args).output().expect("binary runs");
    assert!(plain.status.success());
    let instrumented = bin()
        .args(base_args)
        .args(["--trace", trace_path.to_str().unwrap()])
        .env("MULTICLUST_ALLOC", "1")
        .output()
        .expect("binary runs");
    assert!(
        instrumented.status.success(),
        "{}",
        String::from_utf8_lossy(&instrumented.stderr)
    );
    assert_eq!(plain.stdout, instrumented.stdout, "stdout must stay byte-identical");

    // The trace summary attributes allocations per phase.
    let summary = bin()
        .args(["trace", trace_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(summary.status.success());
    let text = String::from_utf8_lossy(&summary.stdout).to_string();
    assert!(text.contains("alloc.peak"), "alloc columns in the summary: {text}");
    assert!(text.contains("kmeans.fit"), "{text}");

    // The final snapshot carries the gauges, with accounting on.
    let raw = fs::read_to_string(&trace_path).expect("trace file written");
    let snapshot = raw
        .lines()
        .find(|l| l.starts_with(r#"{"type":"snapshot""#))
        .unwrap_or_else(|| panic!("final snapshot written: {raw}"));
    assert!(snapshot.contains(r#""alloc":{"enabled":true"#), "alloc gauges: {snapshot}");
}

/// A truncated or corrupt trace must fail `trace` with a clean
/// single-line error naming the offending line — no panic, and no usage
/// dump burying the cause.
#[test]
fn diagnose_corrupt_trace_fails_cleanly() {
    let dir = workdir("diagnose-corrupt");
    // Mid-line truncation, as left behind by a crashed producer…
    let truncated = dir.join("truncated.jsonl");
    fs::write(
        &truncated,
        "{\"type\":\"meta\",\"schema\":\"multiclust-trace/v2\"}\n{\"type\":\"event\",\"seq\":0,\"na",
    )
    .unwrap();
    // …and a line that is not JSON at all.
    let invalid = dir.join("invalid.jsonl");
    fs::write(
        &invalid,
        "{\"type\":\"meta\",\"schema\":\"multiclust-trace/v2\"}\nnot json at all\n",
    )
    .unwrap();

    for (path, what) in [(&truncated, "truncated"), (&invalid, "invalid")] {
        let out = bin().args(["trace", path.to_str().unwrap()]).output().expect("runs");
        assert!(!out.status.success(), "{what} trace must fail");
        assert!(out.stdout.is_empty(), "{what}: nothing on stdout");
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(stderr.starts_with("error:"), "clean error line: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "one line: {stderr}");
        assert!(stderr.contains("line 2"), "names the offending line: {stderr}");
        assert!(
            !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
            "no panic output: {stderr}"
        );
        assert!(!stderr.contains("usage:"), "no usage dump on a data error: {stderr}");
    }
}

/// PR-8 acceptance: a malformed request sent through `multiclust client`
/// comes back as a structured protocol error line on stdout — no usage
/// dump, no process exit — and the server keeps answering afterwards.
#[test]
fn client_transports_structured_protocol_errors() {
    use std::io::BufRead;
    let mut serve = bin()
        .args(["serve", "--listen", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("serve spawns");
    let mut ready = String::new();
    std::io::BufReader::new(serve.stdout.take().unwrap())
        .read_line(&mut ready)
        .expect("ready line");
    let addr = ready
        .split(r#""addr":""#)
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or_else(|| panic!("ready line carries the address: {ready}"))
        .to_string();

    // A ragged dataset is a *protocol* error: the client exits 0 (the
    // transport worked) and prints the server's structured error line.
    let out = bin()
        .args(["client", "--connect", &addr, "--request"])
        .arg(r#"{"id":"r","op":"fit","family":"kmeans","k":2,"data":[[1,2],[3]]}"#)
        .output()
        .expect("client runs");
    assert!(out.status.success(), "transported errors exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains(r#""ok":false"#), "{stdout}");
    assert!(stdout.contains(r#""code":"bad-request""#), "{stdout}");
    assert!(stdout.contains("ragged"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(!stderr.contains("usage:"), "no usage dump: {stderr}");

    // The server survived and still answers.
    let out = bin()
        .args(["client", "--connect", &addr, "--request", r#"{"id":"ls","op":"list"}"#])
        .output()
        .expect("client runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains(r#""ok":true"#));

    // An unreachable server, by contrast, is a runtime error: clean
    // one-line message, no usage dump.
    let dead = bin()
        .args(["client", "--connect", "127.0.0.1:1", "--request", r#"{"op":"list"}"#])
        .output()
        .expect("client runs");
    assert!(!dead.status.success());
    let stderr = String::from_utf8_lossy(&dead.stderr).to_string();
    assert!(stderr.starts_with("error: client:"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");

    let out = bin()
        .args(["client", "--connect", &addr, "--request", r#"{"id":"x","op":"shutdown"}"#])
        .output()
        .expect("client runs");
    assert!(out.status.success());
    assert!(serve.wait().expect("serve exits").success());
}

/// `--telemetry` leaves stdout byte-identical and prints the text report
/// on stderr: at least one span with nonzero time, the per-iteration
/// k-means events and the parallel-pool task counter. The flag takes no
/// value, so `--telemetry=json` and `--telemetry=xml` are refused.
#[test]
fn telemetry_text_mode_and_bad_mode() {
    let dir = workdir("telemetry-text");
    let fb = four_blob_square(20, 10.0, 0.6, &mut seeded_rng(805));
    let input = dir.join("data.csv");
    write_csv(&fb.dataset, &input).unwrap();
    let base_args = ["kmeans", "--input", input.to_str().unwrap(), "--k", "3", "--seed", "9"];

    let plain = bin().args(base_args).output().expect("binary runs");
    assert!(plain.status.success());
    assert!(plain.stderr.is_empty(), "no stderr without the flag");
    let out = bin().args(base_args).arg("--telemetry").output().expect("binary runs");
    assert!(out.status.success());
    assert_eq!(plain.stdout, out.stdout, "stdout must stay byte-identical");

    let report = String::from_utf8(out.stderr).expect("utf-8 stderr");
    // Each section is a header line followed by indented rows.
    let rows = |header: &str| -> Vec<&str> {
        report
            .lines()
            .skip_while(|l| !l.starts_with(header))
            .skip(1)
            .take_while(|l| l.starts_with("  "))
            .map(str::trim)
            .collect()
    };
    // `path  count  total_ms  p50_ms  p99_ms  max_ms`
    assert!(
        rows("spans").iter().any(|r| r.starts_with("kmeans.fit ")
            && r.split_whitespace().nth(2).and_then(|t| t.parse::<f64>().ok()) > Some(0.0)),
        "kmeans.fit span with nonzero time: {report}"
    );
    assert!(
        rows("events").iter().any(|r| r.starts_with("kmeans.iter ")),
        "per-iteration kmeans events present: {report}"
    );
    assert!(
        rows("counters").iter().any(|r| r.strip_prefix("parallel.tasks = ")
            .and_then(|n| n.parse::<u64>().ok())
            .is_some_and(|n| n > 0)),
        "parallel-pool task counter present: {report}"
    );

    for bad_mode in ["--telemetry=json", "--telemetry=xml"] {
        let bad = bin().args(base_args).arg(bad_mode).output().expect("binary runs");
        assert!(!bad.status.success(), "{bad_mode} must be refused");
        let stderr = String::from_utf8_lossy(&bad.stderr).to_string();
        assert!(stderr.contains("flag --telemetry takes no value"), "{stderr}");
    }
}

/// Every algorithm parameter outside its constructor's range — NaN and
/// ±∞ included — is a usage error naming the flag, not a panic from the
/// constructor's assert.
#[test]
fn out_of_range_parameters_fail_with_usage() {
    let dir = workdir("param-range");
    let data = dir.join("data.csv");
    fs::write(&data, "0,0\n0.1,0\n0,0.1\n5,5\n5.1,5\n5,5.1\n").unwrap();
    let given = dir.join("given.csv");
    fs::write(&given, "0\n0\n0\n1\n1\n1\n").unwrap();
    let (data, given) = (data.to_str().unwrap(), given.to_str().unwrap());
    let dbscan = ["dbscan", "--input", data];
    let dec = ["dec-kmeans", "--input", data, "--ks", "2,2"];
    let alternative = ["alternative", "--input", data, "--given", given, "--k", "2"];
    let subspace = ["subspace", "--input", data];
    let cases = [
        ("eps", &dbscan[..], "--eps nan --min-pts 2"),
        ("eps", &dbscan[..], "--eps -1 --min-pts 2"),
        ("eps", &dbscan[..], "--eps inf --min-pts 2"),
        ("min-pts", &dbscan[..], "--eps 1 --min-pts 0"),
        ("lambda", &dec[..], "--lambda nan"),
        ("lambda", &dec[..], "--lambda inf"),
        ("w", &alternative[..], "--method coala --w nan"),
        ("w", &alternative[..], "--method coala --w inf"),
        ("w", &alternative[..], "--method mincentropy --w nan"),
        ("w", &alternative[..], "--method mincentropy --w -1"),
        ("xi", &subspace[..], "--xi 0 --tau 0.5"),
        ("tau", &subspace[..], "--xi 4 --tau nan"),
        ("tau", &subspace[..], "--xi 4 --tau -1"),
        ("tau", &subspace[..], "--xi 4 --tau inf"),
        ("beta", &subspace[..], "--xi 4 --tau 0.5 --beta 2"),
        ("beta", &subspace[..], "--xi 4 --tau 0.5 --beta nan"),
        ("alpha", &subspace[..], "--xi 4 --tau 0.5 --alpha -1"),
        ("alpha", &subspace[..], "--xi 4 --tau 0.5 --alpha nan"),
    ];
    for (flag, command, params) in cases {
        let args = [command, &params.split(' ').collect::<Vec<_>>()].concat();
        let out = bin().args(&args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: no labels printed");
        let names_flag = stderr.contains(&format!("error: --{flag} must be"));
        assert!(names_flag, "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// A mistyped `MULTICLUST_KERNELS` or `MULTICLUST_THREADS` is refused at
/// startup instead of falling back to the default, which would let a
/// naive-vs-blocked or 1-vs-4-thread comparison compare a mode with
/// itself. An empty value keeps the default.
#[test]
fn invalid_kernel_or_thread_variable_is_refused() {
    let dir = workdir("env-vars");
    let data = dir.join("data.csv");
    fs::write(&data, "0,0\n0.1,0\n5,5\n5.1,5\n").unwrap();
    let kmeans = ["kmeans", "--input", data.to_str().unwrap(), "--k", "2", "--seed", "1"];
    let cases = [
        ("MULTICLUST_KERNELS", "Naive", "must be naive or blocked"),
        ("MULTICLUST_KERNELS", "fast", "must be naive or blocked"),
        ("MULTICLUST_THREADS", "abc", "must be a positive integer"),
        ("MULTICLUST_THREADS", "0", "must be a positive integer"),
        ("MULTICLUST_THREADS", "-1", "must be a positive integer"),
        ("MULTICLUST_THREADS", "4x", "must be a positive integer"),
    ];
    for (var, value, expected) in cases {
        let out = bin().args(kmeans).env(var, value).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert_eq!(out.status.code(), Some(1), "{var}={value}: {stderr}");
        assert!(out.stdout.is_empty(), "{var}={value}: no labels printed");
        assert!(stderr.contains(&format!("error: {var} {expected}")), "{var}={value}: {stderr}");
    }
    for var in ["MULTICLUST_KERNELS", "MULTICLUST_THREADS"] {
        let out = bin().args(kmeans).env(var, "").output().expect("binary runs");
        assert!(out.status.success(), "{var} empty keeps the default");
    }
}

/// A label file may hold only integers below its row count (negatives
/// are noise): `1.7` is not silently truncated, and `1e12` is refused
/// before `Clustering` tries to allocate by it. Both commands that read
/// label files fail with one clean line naming the file and row.
#[test]
fn out_of_range_or_fractional_labels_fail_cleanly() {
    let dir = workdir("bad-labels");
    let data = dir.join("data.csv");
    fs::write(&data, "0,0\n0.1,0\n5,5\n5.1,5\n").unwrap();
    let good = dir.join("good.csv");
    fs::write(&good, "0\n0\n1\n-1\n").unwrap();
    let huge = dir.join("huge.csv");
    fs::write(&huge, "0\n0\n1\n1e12\n").unwrap();
    let fractional = dir.join("fractional.csv");
    fs::write(&fractional, "0\n0\n1.7\n1\n").unwrap();

    for (labels, row, value) in [(&huge, 4, "1000000000000"), (&fractional, 3, "1.7")] {
        let labels = labels.to_str().unwrap();
        let runs = [
            bin().args(["compare", "--a", good.to_str().unwrap(), "--b", labels]).output(),
            bin()
                .args(["alternative", "--input", data.to_str().unwrap(), "--given", labels])
                .args(["--k", "2"])
                .output(),
        ];
        for out in runs {
            let out = out.expect("binary runs");
            assert!(!out.status.success(), "{labels} must be rejected");
            let stderr = String::from_utf8_lossy(&out.stderr).to_string();
            assert_eq!(
                stderr,
                format!(
                    "error: label file {labels} row {row}: label {value} is not an integer \
                     below the row count 4\n"
                ),
                "one clean line, no usage dump"
            );
        }
    }
}

/// `--trace` parses `--seed` as every command does, so a seed past
/// `i64::MAX` runs traced exactly as untraced and lands in the meta line
/// as its decimal string.
#[test]
fn trace_accepts_every_seed_the_command_accepts() {
    let dir = workdir("trace-seed");
    let input = dir.join("data.csv");
    fs::write(&input, "0,0\n0.1,0\n5,5\n5.1,5\n").unwrap();
    let trace_path = dir.join("run.trace.jsonl");
    let base_args =
        ["kmeans", "--input", input.to_str().unwrap(), "--k", "2", "--seed", "18446744073709551615"];

    let plain = bin().args(base_args).output().expect("binary runs");
    assert!(plain.status.success(), "{}", String::from_utf8_lossy(&plain.stderr));
    let traced = bin()
        .args(base_args)
        .args(["--trace", trace_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(traced.status.success(), "{}", String::from_utf8_lossy(&traced.stderr));
    assert_eq!(plain.stdout, traced.stdout, "stdout must stay byte-identical");

    let parsed = multiclust::telemetry::trace::read_trace(&trace_path).expect("trace parses");
    assert!(parsed.ended, "flushed end line");
    let raw = fs::read_to_string(&trace_path).unwrap();
    assert!(raw.contains(r#""seed":"18446744073709551615""#), "{raw}");
}

/// The retired timing commands and the retired load tester are gone:
/// each is an unknown command.
#[test]
fn retired_bench_and_trend_commands_are_unknown() {
    for command in ["bench", "trend", "loadtest"] {
        let out = bin().arg(command).output().expect("binary runs");
        assert!(!out.status.success(), "{command}");
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(stderr.starts_with(&format!("error: unknown command {command:?}")), "{stderr}");
    }
}
