//! The four workloads behind one interface: set up, run one unit of work,
//! run the untraced measurement window.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::check::Tally;
use crate::churn::{self, Generator, StepResult, METRIC_RATE, RATES};
use crate::fit::{FitSet, Kind};
use crate::inputs::SERVED;
use crate::report::{metric, Metric};
use crate::server::{self, ServerProcess};
use crate::session::{self, Player, Timed, OPS};
use crate::stats::{median, ms, percentile, tail};
use crate::trace::Recorder;

pub const NAMES: [&str; 4] = ["fit-large", "fit-small", "serve-session", "serve-churn"];

/// Run-wide settings every workload reads.
pub struct Settings<'a> {
    pub seed: u64,
    pub smoke: bool,
    pub inject: bool,
    pub server_bin: &'a Path,
}

pub trait Workload {
    /// Runs unit `index` of the workload's inputs and returns its latency
    /// in ms; two calls with one index do the same work.
    fn unit(&mut self, index: usize, rec: &mut Recorder, tally: &mut Tally) -> f64;

    /// The untraced measurement window of about `seconds`. Returns the
    /// latency samples (ms) of the end-to-end metric and adds the
    /// workload's own detail metrics.
    fn window(&mut self, seconds: f64, tally: &mut Tally, details: &mut Vec<Metric>) -> Vec<f64>;

    /// Peak resident set of the process doing the work, in MiB.
    fn peak_rss_mb(&self) -> Option<f64>;
}

/// Sets a workload up: inputs, expected outputs, server boot, warm-up.
pub fn setup(name: &str, s: &Settings, tally: &mut Tally) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "fit-large" => Box::new(FitWorkload::new(Kind::Large, s, tally)),
        "fit-small" => Box::new(FitWorkload::new(Kind::Small, s, tally)),
        "serve-session" => Box::new(SessionWorkload::new(s, tally)?),
        "serve-churn" => Box::new(ChurnWorkload::new(s, tally)?),
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {NAMES:?})"
            ))
        }
    })
}

/// p50 and, where the sample supports it, the tail of `samples` as detail
/// metrics named `<prefix>_p50` and `<prefix>_p90|p99`.
fn latency_details(details: &mut Vec<Metric>, prefix: &str, samples: &[f64]) {
    if let Some(p50) = median(samples) {
        details.push(metric(format!("{prefix}_p50"), p50, "ms", samples.len()));
    }
    for (q, label) in [(0.9, "p90"), (0.99, "p99")] {
        if let Some(v) = percentile(samples, q) {
            details.push(metric(format!("{prefix}_{label}"), v, "ms", samples.len()));
        }
    }
}

// ---------------------------------------------------------------------

struct FitWorkload {
    kind: Kind,
    set: FitSet,
}

impl FitWorkload {
    fn new(kind: Kind, s: &Settings, tally: &mut Tally) -> FitWorkload {
        let mut set = FitSet::new(kind, s.seed, kind.pool(s.smoke), s.smoke, s.inject);
        set.pass(0, &mut Recorder::new(false), tally);
        FitWorkload { kind, set }
    }
}

impl Workload for FitWorkload {
    fn unit(&mut self, index: usize, rec: &mut Recorder, tally: &mut Tally) -> f64 {
        ms(self.set.pass(index % self.set.len(), rec, tally).0)
    }

    fn window(&mut self, seconds: f64, tally: &mut Tally, details: &mut Vec<Metric>) -> Vec<f64> {
        let specs = self.kind.specs();
        let mut passes = Vec::new();
        let mut per_family = vec![Vec::new(); specs.len()];
        let start = Instant::now();
        // The window starts by revisiting the warm-up's dataset, so even a
        // short run checks one digest.
        let mut i = 0;
        while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let (pass, times) = self
                .set
                .pass(i % self.set.len(), &mut Recorder::new(false), tally);
            passes.push(ms(pass));
            for (f, t) in times.into_iter().enumerate() {
                per_family[f].push(ms(t));
            }
            i += 1;
        }
        for (spec, times) in specs.iter().zip(&per_family) {
            details.push(metric(
                format!("fit.{}", spec.metric),
                median(times).unwrap_or(f64::NAN),
                "ms",
                times.len(),
            ));
        }
        latency_details(details, "pass_ms", &passes);
        passes
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        server::peak_rss_mb("/proc/self/status")
    }
}

// ---------------------------------------------------------------------

struct SessionWorkload {
    server: ServerProcess,
    inputs: session::Inputs,
    player: Player,
}

impl SessionWorkload {
    fn new(s: &Settings, tally: &mut Tally) -> Result<SessionWorkload, String> {
        let (pool, n, rows) = if s.smoke {
            (8, 400, 100)
        } else {
            (32, 4000, 1000)
        };
        let inputs = session::Inputs::new(s.seed, pool, n, rows, s.inject);
        let server = ServerProcess::boot(s.server_bin)?;
        let player = Player::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let mut w = SessionWorkload {
            server,
            inputs,
            player,
        };
        // One warm-up round also fills the registry to its steady shape.
        w.round(0, &mut Recorder::new(false), tally, &mut Vec::new());
        Ok(w)
    }

    /// Round `index`: one session per served family, on the next four
    /// datasets of the pool, so every round does the same mix of work.
    fn round(
        &mut self,
        index: usize,
        rec: &mut Recorder,
        tally: &mut Tally,
        timed: &mut Vec<Timed>,
    ) -> Duration {
        (0..SERVED.len())
            .map(|j| {
                self.player
                    .session(&self.inputs, index * SERVED.len() + j, rec, tally, timed)
            })
            .sum()
    }
}

impl Workload for SessionWorkload {
    fn unit(&mut self, index: usize, rec: &mut Recorder, tally: &mut Tally) -> f64 {
        ms(self.round(index, rec, tally, &mut Vec::new()))
    }

    fn window(&mut self, seconds: f64, tally: &mut Tally, details: &mut Vec<Metric>) -> Vec<f64> {
        let mut rounds = Vec::new();
        let mut timed: Vec<Timed> = Vec::new();
        let start = Instant::now();
        let mut i = 1;
        while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
            rounds.push(ms(self.round(
                i,
                &mut Recorder::new(false),
                tally,
                &mut timed,
            )));
            i += 1;
        }
        let wall = start.elapsed().as_secs_f64();
        for op in OPS {
            let v: Vec<f64> = timed.iter().filter(|t| t.op == op).map(|t| t.ms).collect();
            latency_details(details, &format!("{op}_ms"), &v);
        }
        let small: Vec<f64> = timed
            .iter()
            .filter(|t| matches!(t.op, "compare" | "list" | "evict"))
            .map(|t| t.ms)
            .collect();
        latency_details(details, "small_ms", &small);
        details.push(metric(
            "ops_per_s",
            timed.len() as f64 / wall,
            "1/s",
            timed.len(),
        ));
        latency_details(details, "round_ms", &rounds);
        rounds
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        self.server.peak_rss_mb()
    }
}

// ---------------------------------------------------------------------

struct ChurnWorkload {
    server: ServerProcess,
    inputs: churn::Inputs,
    gens: [Generator; 2],
}

/// Share of the window each ladder step gets; the 200/s step carries the
/// end-to-end metric, so it runs longest (enough samples for a p99).
const STEP_SHARE: [f64; 4] = [0.2, 0.4, 0.2, 0.2];

impl ChurnWorkload {
    fn new(s: &Settings, tally: &mut Tally) -> Result<ChurnWorkload, String> {
        let inputs = churn::Inputs::new(s.seed, s.inject);
        let server = ServerProcess::boot(s.server_bin)?;
        inputs.register(server.addr(), tally)?;
        let mut gens = Generator::pair();
        let warm = Duration::from_millis(if s.smoke { 100 } else { 300 });
        churn::run_step(
            server.addr(),
            &inputs,
            &mut gens,
            RATES[0],
            warm,
            &mut Recorder::new(false),
            tally,
        );
        Ok(ChurnWorkload {
            server,
            inputs,
            gens,
        })
    }

    fn step(
        &mut self,
        rate: f64,
        length: Duration,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) -> StepResult {
        churn::run_step(
            self.server.addr(),
            &self.inputs,
            &mut self.gens,
            rate,
            length,
            rec,
            tally,
        )
    }
}

/// Detail metrics of one ladder step.
fn step_details(details: &mut Vec<Metric>, prefix: &str, step: &StepResult) {
    let scheduled = (step.sent + step.dropped) as usize;
    latency_details(details, &format!("{prefix}.churn_ms"), &step.latency_ms);
    if let Some((label, v)) = tail(&step.late_ms) {
        details.push(metric(
            format!("{prefix}.late_ms_{label}"),
            v,
            "ms",
            step.late_ms.len(),
        ));
    }
    details.push(metric(
        format!("{prefix}.sent"),
        step.sent as f64,
        "count",
        scheduled,
    ));
    details.push(metric(
        format!("{prefix}.completed"),
        step.completed as f64,
        "count",
        scheduled,
    ));
    details.push(metric(
        format!("{prefix}.dropped"),
        step.dropped as f64,
        "count",
        scheduled,
    ));
}

impl Workload for ChurnWorkload {
    /// One short step at the metric rate; its median latency.
    fn unit(&mut self, _index: usize, rec: &mut Recorder, tally: &mut Tally) -> f64 {
        let step = self.step(METRIC_RATE, Duration::from_millis(500), rec, tally);
        median(&step.latency_ms).unwrap_or(f64::NAN)
    }

    fn window(&mut self, seconds: f64, tally: &mut Tally, details: &mut Vec<Metric>) -> Vec<f64> {
        let mut done: Vec<StepResult> = Vec::new();
        for (rate, share) in RATES.into_iter().zip(STEP_SHARE) {
            if !churn::ladder_continues(&done) {
                break;
            }
            let step = self.step(
                rate,
                Duration::from_secs_f64(seconds * share),
                &mut Recorder::new(false),
                tally,
            );
            step_details(details, &format!("r{rate}"), &step);
            done.push(step);
        }
        details.push(metric(
            "max_rate_per_s",
            churn::max_rate(&done),
            "1/s",
            done.len(),
        ));
        let at_metric = done
            .iter()
            .find(|s| s.rate == METRIC_RATE)
            .expect("the ladder always runs 200/s");
        at_metric.latency_ms.clone()
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        self.server.peak_rss_mb()
    }
}
