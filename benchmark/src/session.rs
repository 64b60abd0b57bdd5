//! serve-session: one client on one kept-open connection, in a closed
//! loop. A session fits a model on an inline dataset, sends eight
//! `assign`s and two `compare`s against the previous model and one `list`,
//! then evicts the model from two sessions back, so registry writes run
//! beside reads. Every answer must equal the in-process result.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use multiclust_core::measures::diss::{
    adjusted_rand_index, jaccard_index, normalized_mutual_information, rand_index,
    variation_of_information,
};
use multiclust_core::Clustering;
use serde::Value;

use crate::check::{corrupt, envelope, field, field_equals, solutions_equal, Tally};
use crate::inputs::{
    assign_request, centroids, compare_request, evict_request, family, fit, fit_body, fit_request,
    list_request, nearest_labels, planted, rows_json, SERVED,
};
use crate::server::Conn;
use crate::stats::ms;
use crate::trace::Recorder;

/// The ops a session sends, in report order.
pub const OPS: [&str; 5] = ["fit", "assign", "compare", "list", "evict"];
const ASSIGNS: usize = 8;
const K: usize = 4;

/// One dataset with its family, its fit request and every answer the
/// server must give about it.
struct Combo {
    family: &'static str,
    n: usize,
    fit_body: String,
    solutions: Vec<Clustering>,
    expected_fit: Vec<Vec<Option<usize>>>,
    /// Labels of each assign chunk under each solution.
    expected_assign: Vec<Vec<Vec<Option<usize>>>>,
}

/// The inputs of the session workload, a pure function of the seed.
pub struct Inputs {
    combos: Vec<Combo>,
    /// The rows every session assigns, in chunks, as JSON.
    assign_json: Vec<String>,
}

impl Inputs {
    /// `pool` datasets of `n` rows, dataset `i` fitted by `SERVED[i % 4]`,
    /// and eight chunks of `assign_rows` rows that every model labels.
    pub fn new(seed: u64, pool: usize, n: usize, assign_rows: usize, inject: bool) -> Inputs {
        let extra = planted(seed, "serve-session.assign", 0, ASSIGNS * assign_rows).data;
        let chunks: Vec<_> = (0..ASSIGNS)
            .map(|j| extra.select(&(j * assign_rows..(j + 1) * assign_rows).collect::<Vec<_>>()))
            .collect();
        let combos = (0..pool)
            .map(|i| {
                let fam = SERVED[i % SERVED.len()];
                let p = planted(seed, "serve-session", i, n);
                let solutions = fit(family(fam).as_ref(), &p, K);
                let mut expected_fit: Vec<Vec<Option<usize>>> =
                    solutions.iter().map(|c| c.assignments().to_vec()).collect();
                if inject && i == 0 {
                    corrupt(&mut expected_fit);
                }
                let centers: Vec<_> = solutions.iter().map(|c| centroids(&p.data, c)).collect();
                Combo {
                    family: fam,
                    n,
                    fit_body: fit_body(fam, K, &p),
                    expected_assign: chunks
                        .iter()
                        .map(|c| centers.iter().map(|cs| nearest_labels(cs, c)).collect())
                        .collect(),
                    expected_fit,
                    solutions,
                }
            })
            .collect();
        Inputs {
            combos,
            assign_json: chunks.iter().map(|c| rows_json(c, 0, c.len())).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.combos.len()
    }

    /// The fixed part of combo `i`'s fit request (see [`fit_body`]).
    pub fn fit_body(&self, i: usize) -> &str {
        &self.combos[i].fit_body
    }

    /// An assign request line, as the codec probes parse it.
    pub fn assign_line(&self) -> String {
        assign_request("probe", "probe", &self.assign_json[0])
    }
}

/// Client-observed latency of one request.
pub struct Timed {
    pub op: &'static str,
    pub ms: f64,
}

enum Req {
    Fit,
    Assign(usize),
    Compare(usize, usize),
    List,
    Evict(String),
}

impl Req {
    fn op(&self) -> &'static str {
        match self {
            Req::Fit => "fit",
            Req::Assign(_) => "assign",
            Req::Compare(..) => "compare",
            Req::List => "list",
            Req::Evict(_) => "evict",
        }
    }
}

/// Plays sessions over one connection. Session `s` fits model `m{s}`;
/// the first two only fill the registry, so every later session sees the
/// same registry shape.
pub struct Player {
    conn: Conn,
    next: usize,
    prev_combo: Option<usize>,
}

impl Player {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Player> {
        Ok(Player {
            conn: Conn::open(addr)?,
            next: 0,
            prev_combo: None,
        })
    }

    /// Runs the next session on combo `index % pool`, then checks every
    /// answer. Returns the session's wall time; each request's latency is
    /// appended to `timed`.
    pub fn session(
        &mut self,
        inputs: &Inputs,
        index: usize,
        rec: &mut Recorder,
        tally: &mut Tally,
        timed: &mut Vec<Timed>,
    ) -> Duration {
        let s = self.next;
        let c = index % inputs.len();
        let prev_c = self.prev_combo.unwrap_or(c);
        self.next += 1;
        self.prev_combo = Some(c);
        let combo = &inputs.combos[c];
        let prev = &inputs.combos[prev_c];
        let model = format!("m{s}");
        let prev_model = format!("m{}", s.saturating_sub(1));

        let mut reqs = vec![Req::Fit];
        reqs.extend((0..ASSIGNS).map(Req::Assign));
        reqs.push(Req::Compare(0, 0));
        reqs.push(Req::Compare(
            combo.solutions.len() - 1,
            prev.solutions.len() - 1,
        ));
        reqs.push(Req::List);
        if let Some(old) = s.checked_sub(2) {
            reqs.push(Req::Evict(format!("m{old}")));
        }
        let lines: Vec<(String, String)> = reqs
            .iter()
            .enumerate()
            .map(|(j, r)| {
                let id = format!("s{s}.{j}");
                let line = match r {
                    Req::Fit => fit_request(&id, &model, &combo.fit_body),
                    Req::Assign(j) => assign_request(&id, &model, &inputs.assign_json[*j]),
                    Req::Compare(sa, sb) => compare_request(&id, &model, &prev_model, *sa, *sb),
                    Req::List => list_request(&id),
                    Req::Evict(old) => evict_request(&id, old),
                };
                (id, line)
            })
            .collect();

        let session_id = rec.open();
        let start = Instant::now();
        let mut answers = Vec::with_capacity(lines.len());
        for (r, (id, line)) in reqs.iter().zip(&lines) {
            let t0 = Instant::now();
            let answer = self.conn.roundtrip(line);
            let t1 = Instant::now();
            rec.record(r.op(), Some(session_id), t0, t1, Some(id));
            timed.push(Timed {
                op: r.op(),
                ms: ms(t1 - t0),
            });
            answers.push(answer);
        }
        let end = Instant::now();
        rec.record_as(session_id, "session", None, start, end, None);

        for (r, ((id, _), answer)) in reqs.iter().zip(lines.iter().zip(answers)) {
            let outcome = answer.map_err(|e| e.to_string()).and_then(|line| {
                let fields = envelope(&line, id, r.op())?;
                match r {
                    Req::Fit => {
                        field_equals(&fields, "model", &Value::String(model.clone()))?;
                        field_equals(&fields, "family", &Value::String(combo.family.to_string()))?;
                        field_equals(&fields, "n", &Value::Int(combo.n as i64))?;
                        field_equals(&fields, "k", &Value::Int(K as i64))?;
                        field_equals(&fields, "evicted", &Value::Array(Vec::new()))?;
                        solutions_equal(&fields, &combo.expected_fit)
                    }
                    Req::Assign(j) => solutions_equal(&fields, &combo.expected_assign[*j]),
                    Req::Compare(sa, sb) => field_equals(
                        &fields,
                        "measures",
                        &measures(&combo.solutions[*sa], &prev.solutions[*sb]),
                    ),
                    Req::List => {
                        let want: Vec<Value> = (s.saturating_sub(2)..=s)
                            .map(|m| Value::String(format!("m{m}")))
                            .collect();
                        list_names(&fields).and_then(|got| {
                            if got == want {
                                Ok(())
                            } else {
                                Err(format!("models {got:?}, expected {want:?}"))
                            }
                        })
                    }
                    Req::Evict(old) => field_equals(&fields, "model", &Value::String(old.clone())),
                }
            });
            tally.record(outcome.map_err(|e| format!("session {s} {} {id}: {e}", r.op())));
        }
        end - start
    }
}

/// The model names of a `list` answer, in order.
pub fn list_names(fields: &[(String, Value)]) -> Result<Vec<Value>, String> {
    let Value::Array(models) = field(fields, "models")? else {
        return Err("models is not an array".to_string());
    };
    Ok(models
        .iter()
        .filter_map(|m| match m {
            Value::Object(f) => field(f, "model").ok().cloned(),
            _ => None,
        })
        .collect())
}

/// The `measures` object the server must answer for a compare.
pub fn measures(a: &Clustering, b: &Clustering) -> Value {
    let f = |x: f64| {
        if x.is_finite() {
            Value::Float(x)
        } else {
            Value::Null
        }
    };
    Value::Object(vec![
        ("rand_index".into(), f(rand_index(a, b))),
        ("adjusted_rand_index".into(), f(adjusted_rand_index(a, b))),
        ("jaccard_index".into(), f(jaccard_index(a, b))),
        (
            "normalized_mutual_information".into(),
            f(normalized_mutual_information(a, b)),
        ),
        (
            "variation_of_information".into(),
            f(variation_of_information(a, b)),
        ),
    ])
}
