//! serve-churn: independent users, each request on a new connection (the
//! pattern of `multiclust client`). Two generator threads run an open
//! loop on a schedule; a request is timed from when it was due, so a
//! stall shows up in every request queued behind it.
//!
//! The rate climbs a ladder. A step meets the limit when no request
//! failed or was dropped and both the latency and the generator's
//! lateness stay within 10 ms at the highest percentile the step's sample
//! supports.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use multiclust_core::Clustering;
use serde::Value;

use crate::check::{corrupt, envelope, field_equals, solutions_equal, Tally};
use crate::inputs::{
    assign_request, centroids, compare_request, evict_request, family, fit, fit_body, fit_request,
    list_request, nearest_labels, planted, rows_json, SERVED,
};
use crate::server::Conn;
use crate::session::{list_names, measures};
use crate::stats::{ms, tail};
use crate::trace::Recorder;

/// Latency and lateness limit of a ladder step.
pub const LIMIT_MS: f64 = 10.0;
/// The ladder, in requests per second.
pub const RATES: [f64; 4] = [100.0, 200.0, 400.0, 800.0];
/// The step whose latency is the workload's end-to-end metric.
pub const METRIC_RATE: f64 = 200.0;
const THREADS: usize = 2;
const K: usize = 4;

#[derive(Clone, Copy, Debug)]
enum Op {
    Assign,
    List,
    Compare,
    Fit,
    Evict,
}

/// 40% assign, 20% list, 20% compare, 10% fit, 10% evict. Each thread
/// walks this cycle, so a fit always precedes the evict that removes it.
const MIX: [Op; 10] = [
    Op::Assign,
    Op::List,
    Op::Assign,
    Op::Compare,
    Op::Fit,
    Op::Assign,
    Op::List,
    Op::Assign,
    Op::Compare,
    Op::Evict,
];

// ---------------------------------------------------------------------
// Open-loop timing
// ---------------------------------------------------------------------

/// Time since the start of a step.
pub trait Clock {
    fn now(&self) -> Duration;
    fn sleep_until(&mut self, t: Duration);
}

struct RealClock(Instant);

impl Clock for RealClock {
    fn now(&self) -> Duration {
        Instant::now().saturating_duration_since(self.0)
    }

    fn sleep_until(&mut self, t: Duration) {
        loop {
            let now = self.now();
            if now >= t {
                return;
            }
            std::thread::sleep(t - now);
        }
    }
}

/// One request of an open loop, on the step's clock.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    pub ok: bool,
}

/// Sends the requests due at `first + k·interval` before `end`, each when
/// it is due or, when the previous one ran long, as soon as it returns.
/// Requests still unsent at `end` are dropped and counted. Returns the
/// samples and the dropped count.
pub fn open_loop(
    clock: &mut dyn Clock,
    first: Duration,
    interval: Duration,
    end: Duration,
    mut send: impl FnMut(usize) -> bool,
) -> (Vec<Sample>, u64) {
    let mut samples = Vec::new();
    let mut k = 0usize;
    loop {
        let due = first + interval * k as u32;
        if due >= end {
            return (samples, 0);
        }
        clock.sleep_until(due);
        let sent = clock.now();
        if sent >= end {
            let remaining = (end - due).as_nanos().div_ceil(interval.as_nanos().max(1));
            return (samples, remaining as u64);
        }
        let ok = send(k);
        samples.push(Sample {
            due,
            sent,
            done: clock.now(),
            ok,
        });
        k += 1;
    }
}

// ---------------------------------------------------------------------
// Steps and the ladder rule
// ---------------------------------------------------------------------

/// The outcome of one fixed-rate step.
#[derive(Clone, Debug, Default)]
pub struct StepResult {
    pub rate: f64,
    pub sent: u64,
    pub completed: u64,
    pub failed: u64,
    pub dropped: u64,
    /// Latency from due time of every request answered correctly, in ms.
    pub latency_ms: Vec<f64>,
    /// How late the generator sent each request, in ms.
    pub late_ms: Vec<f64>,
}

impl StepResult {
    /// Whether the step met the limit. A step too short to support a tail
    /// percentile cannot show that it did.
    pub fn passes(&self) -> bool {
        let within = |v: &[f64]| tail(v).is_some_and(|(_, x)| x <= LIMIT_MS);
        self.failed == 0 && self.dropped == 0 && within(&self.latency_ms) && within(&self.late_ms)
    }
}

/// The highest rate such that it and every lower step met the limit
/// (0 when the first step missed).
pub fn max_rate(steps: &[StepResult]) -> f64 {
    steps
        .iter()
        .take_while(|s| s.passes())
        .map(|s| s.rate)
        .fold(0.0, f64::max)
}

/// Whether the ladder goes on after these steps: the 100 and 200 steps
/// always run, later ones only while every step so far met the limit.
pub fn ladder_continues(done: &[StepResult]) -> bool {
    done.len() < 2 || done.iter().all(StepResult::passes)
}

// ---------------------------------------------------------------------
// Inputs and request generation
// ---------------------------------------------------------------------

/// One label array per solution of a model.
type Labels = Vec<Vec<Option<usize>>>;

struct Resident {
    name: String,
    body: String,
    solutions: Vec<Clustering>,
    expected: Labels,
}

struct FitCase {
    body: String,
    expected: Labels,
}

/// Everything the churn mix sends and every answer it must get back.
pub struct Inputs {
    residents: Vec<Resident>,
    /// Rows to assign, with the labels each resident must give them.
    batches: Vec<(String, Vec<Labels>)>,
    fits: Vec<FitCase>,
    /// Resident pairs to compare, with the expected measures.
    compares: Vec<(usize, usize, Value)>,
}

impl Inputs {
    pub fn new(seed: u64, inject: bool) -> Inputs {
        let base = planted(seed, "serve-churn.resident", 0, 1000);
        let residents: Vec<Resident> = SERVED
            .iter()
            .enumerate()
            .map(|(i, fam)| {
                let solutions = fit(family(fam).as_ref(), &base, K);
                let mut expected: Vec<_> =
                    solutions.iter().map(|c| c.assignments().to_vec()).collect();
                if inject && i == 0 {
                    corrupt(&mut expected);
                }
                Resident {
                    name: format!("r{i}"),
                    body: fit_body(fam, K, &base),
                    solutions,
                    expected,
                }
            })
            .collect();
        let centers: Vec<Vec<_>> = residents
            .iter()
            .map(|r| {
                r.solutions
                    .iter()
                    .map(|c| centroids(&base.data, c))
                    .collect()
            })
            .collect();
        let batches = (0..32)
            .map(|b| {
                let rows = planted(seed, "serve-churn.assign", b, 16).data;
                let expected = centers
                    .iter()
                    .map(|cs| cs.iter().map(|c| nearest_labels(c, &rows)).collect())
                    .collect();
                (rows_json(&rows, 0, rows.len()), expected)
            })
            .collect();
        let fits = (0..8)
            .map(|i| {
                let fam = SERVED[i % SERVED.len()];
                let p = planted(seed, "serve-churn.fit", i, 200);
                let expected = fit(family(fam).as_ref(), &p, K)
                    .iter()
                    .map(|c| c.assignments().to_vec())
                    .collect();
                FitCase {
                    body: fit_body(fam, K, &p),
                    expected,
                }
            })
            .collect();
        let compares = (0..residents.len())
            .map(|a| {
                let b = (a + 1) % residents.len();
                (
                    a,
                    b,
                    measures(&residents[a].solutions[0], &residents[b].solutions[0]),
                )
            })
            .collect();
        Inputs {
            residents,
            batches,
            fits,
            compares,
        }
    }

    /// Fits the resident models on the server, checking each answer.
    pub fn register(&self, addr: SocketAddr, tally: &mut Tally) -> Result<(), String> {
        let mut conn = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
        for r in &self.residents {
            let id = format!("register.{}", r.name);
            let line = conn
                .roundtrip(&fit_request(&id, &r.name, &r.body))
                .map_err(|e| format!("{id}: {e}"))?;
            tally
                .record(envelope(&line, &id, "fit").and_then(|f| solutions_equal(&f, &r.expected)));
        }
        Ok(())
    }
}

enum Expect {
    Assign(usize, usize),
    List,
    Compare(usize),
    Fit(usize, String),
    Evict(String),
}

/// One generator thread's position in the mix. It keeps its place across
/// steps, and evicts only models it fitted itself, so the two threads
/// never race on a model.
pub struct Generator {
    thread: usize,
    count: usize,
    pending: VecDeque<String>,
}

impl Generator {
    pub fn pair() -> [Generator; THREADS] {
        std::array::from_fn(|thread| Generator {
            thread,
            count: 0,
            pending: VecDeque::new(),
        })
    }

    fn next(&mut self, inputs: &Inputs) -> (String, String, Expect) {
        let c = self.count;
        self.count += 1;
        let id = format!("c{}.{c}", self.thread);
        let (line, expect) = match MIX[c % MIX.len()] {
            Op::Assign => {
                let (r, b) = (c % inputs.residents.len(), (c / 2) % inputs.batches.len());
                (
                    assign_request(&id, &inputs.residents[r].name, &inputs.batches[b].0),
                    Expect::Assign(r, b),
                )
            }
            Op::List => (list_request(&id), Expect::List),
            Op::Compare => {
                let i = (c / MIX.len()) % inputs.compares.len();
                let (a, b, _) = &inputs.compares[i];
                let line = compare_request(
                    &id,
                    &inputs.residents[*a].name,
                    &inputs.residents[*b].name,
                    0,
                    0,
                );
                (line, Expect::Compare(i))
            }
            Op::Fit => {
                let i = (c / MIX.len()) % inputs.fits.len();
                let model = format!("f{}.{c}", self.thread);
                self.pending.push_back(model.clone());
                (
                    fit_request(&id, &model, &inputs.fits[i].body),
                    Expect::Fit(i, model),
                )
            }
            Op::Evict => {
                let model = self.pending.pop_front().unwrap_or_default();
                (evict_request(&id, &model), Expect::Evict(model))
            }
        };
        (id, line, expect)
    }
}

fn op_name(e: &Expect) -> &'static str {
    match e {
        Expect::Assign(..) => "assign",
        Expect::List => "list",
        Expect::Compare(_) => "compare",
        Expect::Fit(..) => "fit",
        Expect::Evict(_) => "evict",
    }
}

fn check(inputs: &Inputs, id: &str, expect: &Expect, line: &str) -> Result<(), String> {
    let fields = envelope(line, id, op_name(expect))?;
    match expect {
        Expect::Assign(r, b) => solutions_equal(&fields, &inputs.batches[*b].1[*r]),
        Expect::List => {
            let names = list_names(&fields)?;
            match inputs
                .residents
                .iter()
                .find(|r| !names.contains(&Value::String(r.name.clone())))
            {
                Some(r) => Err(format!("list misses resident {}", r.name)),
                None => Ok(()),
            }
        }
        Expect::Compare(i) => field_equals(&fields, "measures", &inputs.compares[*i].2),
        Expect::Fit(i, model) => {
            field_equals(&fields, "model", &Value::String(model.clone()))?;
            solutions_equal(&fields, &inputs.fits[*i].expected)
        }
        Expect::Evict(model) => field_equals(&fields, "model", &Value::String(model.clone())),
    }
}

/// Runs one step at `rate` for `length` with both generators, each
/// request on a fresh connection.
pub fn run_step(
    addr: SocketAddr,
    inputs: &Inputs,
    gens: &mut [Generator; THREADS],
    rate: f64,
    length: Duration,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> StepResult {
    let interval = Duration::from_secs_f64(THREADS as f64 / rate);
    // Both threads share one schedule: thread t sends requests t, t+2, …
    let start = Instant::now() + Duration::from_millis(2);
    let step_id = rec.open();
    let traced = rec.enabled();
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = gens
            .iter_mut()
            .map(|gen| {
                s.spawn(move || {
                    let mut local = Recorder::new(traced);
                    let mut checks = Tally::default();
                    let mut clock = RealClock(start);
                    let first = Duration::from_secs_f64(gen.thread as f64 / rate);
                    let (samples, dropped) = open_loop(&mut clock, first, interval, length, |_| {
                        let (id, line, expect) = gen.next(inputs);
                        let t0 = Instant::now();
                        let answer = Conn::open(addr).and_then(|mut c| c.roundtrip(&line));
                        local.record(
                            op_name(&expect),
                            Some(step_id),
                            t0,
                            Instant::now(),
                            Some(&id),
                        );
                        let outcome = answer
                            .map_err(|e| format!("{id}: {e}"))
                            .and_then(|l| check(inputs, &id, &expect, &l));
                        let ok = outcome.is_ok();
                        checks.record(outcome);
                        ok
                    });
                    (samples, dropped, local, checks)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    rec.record_as(
        step_id,
        &format!("step.{rate}"),
        None,
        start,
        start + length,
        None,
    );
    let mut step = StepResult {
        rate,
        ..StepResult::default()
    };
    for (samples, dropped, local, checks) in outcomes {
        rec.absorb(local);
        step.failed += checks.failed;
        tally.absorb(checks);
        step.dropped += dropped;
        for s in samples {
            step.sent += 1;
            step.late_ms.push(ms(s.sent - s.due));
            if s.ok {
                step.completed += 1;
                step.latency_ms.push(ms(s.done - s.due));
            }
        }
    }
    step
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::rc::Rc;

    use super::*;

    /// A clock that moves only when a sleep or the fake service says so.
    #[derive(Clone)]
    struct FakeClock(Rc<Cell<Duration>>);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&mut self, t: Duration) {
            self.0.set(self.0.get().max(t));
        }
    }

    /// Runs an open loop whose request `k` takes `service(k)`.
    fn simulate(interval: u64, end: u64, service: impl Fn(usize) -> u64) -> (Vec<Sample>, u64) {
        let ms = Duration::from_millis;
        let mut clock = FakeClock(Rc::new(Cell::new(Duration::ZERO)));
        let time = clock.clone();
        open_loop(&mut clock, ms(0), ms(interval), ms(end), |k| {
            time.0.set(time.0.get() + ms(service(k)));
            true
        })
    }

    #[test]
    fn a_stall_makes_the_requests_behind_it_late() {
        let ms = Duration::from_millis;
        // Service takes 1 ms, except request 3, which stalls for 50 ms.
        let (samples, dropped) = simulate(10, 200, |k| if k == 3 { 50 } else { 1 });
        assert_eq!(dropped, 0);
        assert_eq!(samples.len(), 20);
        let latency: Vec<Duration> = samples.iter().map(|s| s.done - s.due).collect();
        let late: Vec<Duration> = samples.iter().map(|s| s.sent - s.due).collect();
        assert_eq!(latency[2], ms(1));
        assert_eq!(latency[3], ms(50));
        // Request 4 was due at 40 ms but could only go at 80 ms.
        assert_eq!(late[4], ms(40));
        assert_eq!(latency[4], ms(41));
        assert_eq!(late[5], ms(31));
        assert_eq!(late[8], ms(4));
        assert_eq!(late[9], ms(0));
    }

    #[test]
    fn requests_unsent_at_the_end_are_dropped() {
        // Sent at 0, 35 and 70 ms; at 105 ms the step is over and the
        // seven requests due from 30 ms on were never sent.
        let (samples, dropped) = simulate(10, 100, |_| 35);
        assert_eq!(samples.len(), 3);
        assert_eq!(dropped, 7);
    }

    fn step(rate: f64, latency: f64, failed: u64) -> StepResult {
        StepResult {
            rate,
            failed,
            latency_ms: vec![latency; 200],
            late_ms: vec![0.5; 200],
            ..StepResult::default()
        }
    }

    #[test]
    fn max_rate_is_the_last_step_before_the_first_miss() {
        let ladder = [
            step(100.0, 3.0, 0),
            step(200.0, 4.0, 0),
            step(400.0, 30.0, 0),
            step(800.0, 3.0, 0),
        ];
        assert_eq!(max_rate(&ladder), 200.0);
        assert_eq!(max_rate(&[step(100.0, 3.0, 1), step(200.0, 3.0, 0)]), 0.0);
        assert_eq!(max_rate(&[step(100.0, 3.0, 0), step(200.0, 3.0, 0)]), 200.0);
        // Too few samples to show the p90: the step cannot pass.
        let mut short = step(100.0, 1.0, 0);
        short.latency_ms.truncate(50);
        assert!(!short.passes());
    }

    #[test]
    fn the_ladder_always_runs_two_steps_then_stops_at_a_miss() {
        let miss = step(100.0, 30.0, 0);
        assert!(ladder_continues(std::slice::from_ref(&miss)));
        assert!(!ladder_continues(&[miss, step(200.0, 1.0, 0)]));
        assert!(ladder_continues(&[
            step(100.0, 1.0, 0),
            step(200.0, 1.0, 0)
        ]));
    }
}
