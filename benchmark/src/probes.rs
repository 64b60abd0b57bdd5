//! Per-layer probes: each times calls into one module's public functions
//! from outside the program, on inputs made from the run seed, and reads
//! only the counters and the `stats` op the program already exposes.
//!
//! Every traced run measures every layer, so each workload's traced
//! output carries the full per-layer set; which end-to-end metric each
//! layer metric should move is listed in the benchmark's README.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use multiclust_base::KMeans;
use multiclust_core::measures::diss::{
    adjusted_rand_index, jaccard_index, normalized_mutual_information, rand_index,
    variation_of_information,
};
use multiclust_data::{seeded_rng, Dataset};
use multiclust_linalg::kernels::{
    assign_by_dist, gaussian_affinity_matrix, sq_dist_matrix, sq_norms, NearestAssign,
};
use multiclust_linalg::{top_eigenpairs, Matrix, SymmetricEigen};
use rand::SeedableRng;

use crate::check::{envelope, Tally};
use crate::churn::{self, Generator, RATES};
use crate::fit::{FitSet, Kind};
use crate::inputs::{family, fit, fit_request, planted, FIT_SEED, SERVED};
use crate::report::{metric, Metric};
use crate::server::{server_p50_ms, Conn, ServerProcess};
use crate::session::{self, Player, Timed, OPS};
use crate::stats::{median, ms, percentile};
use crate::trace::Recorder;

/// Kernel work counters read per probe pass (`kernels.<name>`): the ones
/// each pass moves at the default settings. `screen.pruned` counts only
/// under f32 screening, the large pass builds no pairwise matrix and the
/// small one trips no cancellation guard.
fn kernel_counters(kind: Kind) -> [&'static str; 8] {
    let sixth = match kind {
        Kind::Large => "guard_trips",
        Kind::Small => "matrix.entries",
    };
    [
        "exact",
        "estimates",
        "assign.scanned",
        "assign.skipped",
        "assign.bypass",
        sixth,
        "flops",
        "bytes_touched",
    ]
}

/// Length of each step of the probe ladder.
const PROBE_STEP: Duration = Duration::from_millis(1500);

pub struct Probes<'a> {
    pub seed: u64,
    pub smoke: bool,
    pub server_bin: &'a Path,
    pub out: Vec<Metric>,
}

/// Median wall time of `reps` calls, in ms.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            ms(t.elapsed())
        })
        .collect();
    median(&times).expect("at least one repetition")
}

impl Probes<'_> {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.out.push(metric(name, value, unit, samples));
    }

    /// Runs every probe. Served answers are checked like the workloads'.
    pub fn run(&mut self, rec: &mut Recorder, tally: &mut Tally) -> Result<(), String> {
        for kind in [Kind::Large, Kind::Small] {
            let t = Instant::now();
            self.families(kind, tally);
            rec.record(
                &format!("probe.families.{}", label(kind)),
                None,
                t,
                Instant::now(),
                None,
            );
        }
        let t = Instant::now();
        self.linalg();
        self.parallel();
        self.data_and_core();
        rec.record("probe.in-process", None, t, Instant::now(), None);
        let t = Instant::now();
        let server = ServerProcess::boot(self.server_bin)?;
        let outcome = self
            .serve(&server, rec, tally)
            .and_then(|()| self.loadgen(&server, rec, tally));
        server.shutdown();
        rec.record("probe.serve", None, t, Instant::now(), None);
        outcome
    }

    /// Two timed passes per family set with telemetry off, then one pass
    /// with it on for the work counters of one pass.
    fn families(&mut self, kind: Kind, tally: &mut Tally) {
        let mut set = FitSet::new(kind, self.seed, 1, self.smoke, false);
        let off = &mut Recorder::new(false);
        let timed: Vec<Vec<Duration>> = (0..2).map(|_| set.pass(0, off, tally).1).collect();
        for (f, spec) in kind.specs().iter().enumerate() {
            let calls: Vec<f64> = timed.iter().map(|t| ms(t[f])).collect();
            self.push(
                spec.metric,
                median(&calls).unwrap_or(f64::NAN),
                "ms",
                calls.len(),
            );
        }
        multiclust_telemetry::reset();
        multiclust_telemetry::set_enabled(true);
        let (pass, _) = set.pass(0, off, tally);
        multiclust_telemetry::set_enabled(false);
        let snap = multiclust_telemetry::snapshot();
        multiclust_telemetry::reset();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
        let l = label(kind);
        for c in kernel_counters(kind) {
            self.push(
                format!("kernels.{l}.{c}"),
                counter(&format!("kernels.{c}")),
                "count",
                1,
            );
        }
        let (skipped, scanned) = (
            counter("kernels.assign.skipped"),
            counter("kernels.assign.scanned"),
        );
        let ratio = if skipped + scanned > 0.0 {
            skipped / (skipped + scanned)
        } else {
            0.0
        };
        self.push(format!("kernels.{l}.skip_ratio"), ratio, "ratio", 1);
        self.push(
            format!("parallel.{l}.fanout"),
            counter("parallel.regions.fanout"),
            "count",
            1,
        );
        let busy: f64 = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("parallel.worker.") && k.ends_with(".busy_ns"))
            .map(|(_, &v)| v as f64)
            .sum();
        let capacity = multiclust_parallel::current_threads() as f64 * pass.as_nanos() as f64;
        self.push(
            format!("parallel.{l}.utilisation_pct"),
            100.0 * busy / capacity,
            "%",
            1,
        );
    }

    /// Direct calls into the distance kernels and eigensolvers on the
    /// workloads' own data shapes.
    fn linalg(&mut self) {
        let large = planted(self.seed, "fit-large", 0, Kind::Large.n(self.smoke)).data;
        let (d, points) = (large.dims(), large.as_slice());
        let norms = sq_norms(d, points);
        for k in [4, 32] {
            let centers = KMeans::new(k)
                .fit(&large, &mut seeded_rng(FIT_SEED))
                .centroids;
            let t = time_ms(5, || {
                NearestAssign::new(large.len()).assign(d, points, &norms, &centers)
            });
            self.push(format!("linalg.nearest_assign_k{k}_ms"), t, "ms", 5);
            if k == 4 {
                let t = time_ms(5, || assign_by_dist(d, points, &norms, &centers));
                self.push("linalg.assign_by_dist_ms", t, "ms", 5);
            }
        }

        let small = planted(self.seed, "fit-small", 0, Kind::Small.n(self.smoke)).data;
        let (d, flat, n) = (small.dims(), small.as_slice(), small.len());
        self.push(
            "linalg.sq_dist_matrix_ms",
            time_ms(10, || sq_dist_matrix(d, flat)),
            "ms",
            10,
        );
        let sigma = mean_distance(&small, 32);
        let denom = 2.0 * sigma * sigma;
        self.push(
            "linalg.gaussian_affinity_ms",
            time_ms(10, || gaussian_affinity_matrix(d, flat, denom)),
            "ms",
            10,
        );
        let w = gaussian_affinity_matrix(d, flat, denom);
        let dinv: Vec<f64> = (0..n)
            .map(|i| {
                let deg: f64 = (0..n).map(|j| w[(i, j)]).sum();
                if deg > 0.0 {
                    1.0 / deg.sqrt()
                } else {
                    0.0
                }
            })
            .collect();
        let norm = Matrix::from_fn(n, n, |i, j| dinv[i] * w[(i, j)] * dinv[j]);
        self.push(
            "linalg.symmetric_eigen_ms",
            time_ms(3, || SymmetricEigen::new(&norm)),
            "ms",
            3,
        );
        let t = time_ms(5, || {
            top_eigenpairs(
                &norm,
                4,
                1.0,
                1e-10,
                500,
                &mut rand::rngs::StdRng::seed_from_u64(0x5eed_cafe),
            )
        });
        self.push("linalg.top_eigenpairs_ms", t, "ms", 5);
    }

    /// The fixed cost of one parallel region: every region spawns scoped
    /// threads, whatever its work.
    fn parallel(&mut self) {
        let t = time_ms(200, || multiclust_parallel::par_map_indexed(64, 1, |i| i));
        self.push("parallel.region_us", t * 1e3, "us", 200);
    }

    fn data_and_core(&mut self) {
        let n = Kind::Large.n(self.smoke);
        let mut i = 0;
        let t = time_ms(3, || {
            i += 1;
            planted(self.seed, "probe.generate", i, n)
        });
        self.push("data.planted_views_ms", t, "ms", 3);
        let rows_n = if self.smoke { 400 } else { 4000 };
        let p = planted(self.seed, "probe.rows", 0, rows_n);
        let rows: Vec<Vec<f64>> = p.data.rows().map(<[f64]>::to_vec).collect();
        self.push(
            "data.from_rows_ms",
            time_ms(10, || Dataset::from_rows(&rows)),
            "ms",
            10,
        );
        let (a, b) = (&p.truths[0], &p.truths[1]);
        let t = time_ms(20, || {
            (
                rand_index(a, b),
                adjusted_rand_index(a, b),
                normalized_mutual_information(a, b),
                variation_of_information(a, b),
                jaccard_index(a, b),
            )
        });
        self.push("core.compare_us", t * 1e3, "us", 20);
    }

    /// Codec, server/outside split, connection cost and serving overhead,
    /// all measured against a server of its own.
    fn serve(
        &mut self,
        server: &ServerProcess,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let (pool, n, rows) = if self.smoke {
            (4, 400, 100)
        } else {
            (4, 4000, 1000)
        };
        let inputs = session::Inputs::new(self.seed, pool, n, rows, false);
        let addr = server.addr();

        // Sessions on one connection: client latency per op, then the
        // server's own p50 of the same requests from `stats`.
        let mut player = Player::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut timed: Vec<Timed> = Vec::new();
        let sessions = if self.smoke { 4 } else { 10 };
        for i in 0..sessions {
            player.session(&inputs, i, rec, tally, &mut timed);
        }
        let server_p50 = server_p50_ms(addr)?;
        let mut client_fit_p50 = f64::NAN;
        for op in OPS {
            let client: Vec<f64> = timed.iter().filter(|t| t.op == op).map(|t| t.ms).collect();
            let client_p50 = median(&client).unwrap_or(f64::NAN);
            let server = server_p50
                .iter()
                .find(|(o, _)| o == op)
                .map_or(f64::NAN, |(_, v)| *v);
            self.push(
                format!("serve.server_{op}_ms_p50"),
                server,
                "ms",
                client.len(),
            );
            self.push(
                format!("serve.outside_{op}_ms_p50"),
                client_p50 - server,
                "ms",
                client.len(),
            );
            if op == "fit" {
                client_fit_p50 = client_p50;
            }
        }

        // The same fits in-process: what serving adds on top.
        let local: Vec<f64> = (0..sessions)
            .map(|i| {
                let c = i % pool;
                let p = planted(self.seed, "serve-session", c, n);
                let fam = family(SERVED[c % SERVED.len()]);
                let t = Instant::now();
                black_box(fit(fam.as_ref(), &p, 4));
                ms(t.elapsed())
            })
            .collect();
        self.push(
            "serve.fit_overhead_ms",
            client_fit_p50 - median(&local).unwrap_or(f64::NAN),
            "ms",
            local.len(),
        );

        // Connection cost: `list` on a kept-open connection, then on a
        // fresh connection each time.
        let reps = if self.smoke { 20 } else { 200 };
        let mut conn = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
        let list = r#"{"id":"probe","op":"list"}"#;
        conn.roundtrip(list).map_err(|e| format!("list: {e}"))?;
        let open: Vec<f64> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                tally.record(
                    conn.roundtrip(list)
                        .map(drop)
                        .map_err(|e| format!("list: {e}")),
                );
                ms(t.elapsed()) * 1e3
            })
            .collect();
        let fresh: Vec<f64> = (0..reps / 2)
            .map(|_| {
                let t = Instant::now();
                let answer = Conn::open(addr).and_then(|mut c| c.roundtrip(list));
                tally.record(answer.map(drop).map_err(|e| format!("list: {e}")));
                ms(t.elapsed()) * 1e3
            })
            .collect();
        let rtt = median(&open).unwrap_or(f64::NAN);
        self.push("serve.rtt_open_us_p50", rtt, "us", open.len());
        self.push(
            "serve.connect_wait_us_p50",
            median(&fresh).unwrap_or(f64::NAN) - rtt,
            "us",
            fresh.len(),
        );

        // The codec on the workload's own lines.
        let fit_line = fit_request("probe.fit", "probe", inputs.fit_body(0));
        let assign_line = inputs.assign_line();
        let response = conn.roundtrip(&fit_line).map_err(|e| format!("fit: {e}"))?;
        tally.record(envelope(&response, "probe.fit", "fit").map(drop));
        let value = serde_json::parse_value(&response).map_err(|e| format!("fit response: {e}"))?;
        self.push(
            "serve.parse_fit_ms",
            time_ms(5, || serde_json::parse_value(&fit_line)),
            "ms",
            5,
        );
        self.push(
            "serve.parse_assign_ms",
            time_ms(10, || serde_json::parse_value(&assign_line)),
            "ms",
            10,
        );
        self.push(
            "serve.encode_fit_ms",
            time_ms(10, || serde_json::to_string(&value)),
            "ms",
            10,
        );
        self.push(
            "serve.fit_request_kb",
            fit_line.len() as f64 / 1024.0,
            "KiB",
            1,
        );
        self.push(
            "serve.assign_request_kb",
            assign_line.len() as f64 / 1024.0,
            "KiB",
            1,
        );
        Ok(())
    }

    /// The churn ladder at every rate, with short steps.
    fn loadgen(
        &mut self,
        server: &ServerProcess,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let inputs = churn::Inputs::new(self.seed, false);
        inputs.register(server.addr(), tally)?;
        let mut gens = Generator::pair();
        let mut steps = Vec::new();
        for rate in RATES {
            let step = churn::run_step(
                server.addr(),
                &inputs,
                &mut gens,
                rate,
                PROBE_STEP,
                rec,
                tally,
            );
            let name = format!("loadgen.r{rate}");
            let scheduled = (step.sent + step.dropped) as usize;
            let late = percentile(&step.late_ms, 0.9).unwrap_or(f64::NAN);
            self.push(
                format!("{name}.late_ms_p90"),
                late,
                "ms",
                step.late_ms.len(),
            );
            self.push(format!("{name}.sent"), step.sent as f64, "count", scheduled);
            self.push(
                format!("{name}.completed"),
                step.completed as f64,
                "count",
                scheduled,
            );
            steps.push(step);
        }
        self.push(
            "loadgen.max_rate_per_s",
            churn::max_rate(&steps),
            "1/s",
            steps.len(),
        );
        Ok(())
    }
}

fn label(kind: Kind) -> &'static str {
    match kind {
        Kind::Large => "large",
        Kind::Small => "small",
    }
}

/// Mean pairwise distance over the first `m` rows: the Gaussian bandwidth
/// the spectral families derive.
fn mean_distance(data: &Dataset, m: usize) -> f64 {
    let m = data.len().min(m);
    let mut sum = 0.0;
    let mut count = 0u32;
    for i in 0..m {
        for j in (i + 1)..m {
            let d2: f64 = data
                .row(i)
                .iter()
                .zip(data.row(j))
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            sum += d2.sqrt();
            count += 1;
        }
    }
    if count == 0 || sum == 0.0 {
        1.0
    } else {
        sum / f64::from(count)
    }
}
