//! Per-layer replays: calls into each layer's `pub` functions on the
//! inputs a run generated, each replay repeated [`REPS`] times so the
//! report can give a median and quartiles.
//!
//! Every replay is a span (see [`crate::trace`]). The result maps each
//! per-layer metric to its repetition values (or to one exact count);
//! `run.py` reduces them to medians.

use std::path::Path;
use std::time::Instant;

use rbbench::cache::{cell_key, CacheKey, HitTier, ResultCache};
use rbbench::journal::validate_report_roundtrip;
use rbbench::sweep::{CellReport, SweepCell, SweepSpec};
use rbbench::workloads::{AsyncIntervals, DistSpec, MatrixFreeLumpability};
use rbmarkov::matfree::FlagChainOp;
use rbmarkov::paper::AsyncParams;
use rbserve::protocol::cell_line;
use rbserve::Request;
use rbsim::derive_seed;
use serde::Value;

use crate::plan::{Op, Serve, Stream};
use crate::trace::Spans;

/// Repetitions of every timed replay.
pub const REPS: usize = 10;

/// Hot-tier capacity `rbserve` runs with by default.
const SERVER_HOT_CAP: usize = 1024;

/// Simulation cells timed per repetition on a serve workload (a seeded
/// sample of the run's cells; cold cells run up to ~12 ms each).
const SIM_SAMPLE: usize = 48;

/// Cap on the served cells (and request lines) a serve replay takes, in
/// session order, so one repetition stays well under a second however
/// fast the session ran.
const MAX_REPLAY: usize = 8192;

/// The `n` values of `fig2_markov`'s matrix-free scaling sweep.
pub const FIG2_NS: [usize; 4] = [8, 12, 16, 20];

/// One per-layer result: repetition values, or one exact value.
enum Figure {
    /// One value per repetition.
    Reps(Vec<f64>),
    /// A value that does not vary between repetitions (a count).
    Exact(f64),
}

/// Named per-layer results, in report order (`BENCHMARK.json` declares
/// their units).
#[derive(Default)]
pub struct Layers {
    /// `(metric, figure)`.
    rows: Vec<(String, Figure)>,
}

impl Layers {
    fn reps(&mut self, name: &str, values: Vec<f64>) {
        self.rows.push((name.to_string(), Figure::Reps(values)));
    }

    fn exact(&mut self, name: &str, value: f64) {
        self.rows.push((name.to_string(), Figure::Exact(value)));
    }

    /// The results as a JSON object `{metric: {reps | value}}`.
    pub fn to_value(&self) -> Value {
        Value::Map(
            self.rows
                .iter()
                .map(|(name, fig)| {
                    let body = match fig {
                        Figure::Reps(v) => (
                            "reps".to_string(),
                            Value::Seq(v.iter().map(|&x| Value::Num(x)).collect()),
                        ),
                        Figure::Exact(x) => ("value".to_string(), Value::Num(*x)),
                    };
                    (name.clone(), Value::Map(vec![body]))
                })
                .collect(),
        )
    }
}

/// Runs `body` [`REPS`] times under a span named `name`; each run
/// returns how many calls it made, and the result is microseconds per
/// call for each repetition.
fn per_call_us(spans: &mut Spans, name: &str, mut body: impl FnMut() -> usize) -> Vec<f64> {
    (0..REPS)
        .map(|rep| {
            let start = spans.now_ns();
            let t = Instant::now();
            let calls = body().max(1);
            let us = t.elapsed().as_secs_f64() * 1e6 / calls as f64;
            spans.close(rep as u64 + 1, name, start);
            us
        })
        .collect()
}

/// One cell a serve session delivered, with everything the replays need.
struct Served {
    sweep: String,
    idx: usize,
    cached: bool,
    cell_spec: std::sync::Arc<SweepSpec>,
    seed: u64,
    key: CacheKey,
}

/// The lines and cells of a serve session, regenerated from its seed
/// and the number of ops each connection sent (at most [`MAX_REPLAY`]
/// of each, taken evenly from the connections' stream prefixes).
struct SessionInputs {
    lines: Vec<String>,
    served: Vec<Served>,
}

/// A finished serve session: what it sent and where its cache is.
pub struct Session<'a> {
    /// Its workload.
    pub kind: Serve,
    /// Its seed.
    pub seed: u64,
    /// Ops each connection sent.
    pub ops_per_conn: &'a [usize],
    /// Its cache directory (the server has exited).
    pub cache_dir: &'a Path,
}

fn session_inputs(kind: Serve, seed: u64, ops_per_conn: &[usize]) -> Result<SessionInputs, String> {
    let mut lines = Vec::new();
    let mut served = Vec::new();
    let share = MAX_REPLAY / ops_per_conn.len().max(1);
    for (conn, &ops) in ops_per_conn.iter().enumerate() {
        let (first_line, first_cell) = (lines.len(), served.len());
        for op in Stream::new(kind, seed, conn).take(ops) {
            if lines.len() - first_line >= share || served.len() - first_cell >= share {
                break;
            }
            lines.push(op.line());
            let Op::Submit { sweep, warm } = op else {
                continue;
            };
            let spec = std::sync::Arc::new(sweep.spec()?);
            for idx in 0..spec.cells.len() {
                let seed = derive_seed(spec.master_seed, spec.seed_index(idx));
                let key =
                    cell_key(&spec.cells[idx], seed).ok_or("async_grid cells are cacheable")?;
                served.push(Served {
                    sweep: sweep.name.clone(),
                    idx,
                    cached: warm,
                    cell_spec: std::sync::Arc::clone(&spec),
                    seed,
                    key,
                });
            }
        }
    }
    Ok(SessionInputs { lines, served })
}

/// Replays the serve-path layers (protocol, cache tiers, codec, WAL)
/// on a finished session's inputs and its cache directory, and with
/// `sim` the simulation on a sample of its cells.
pub fn serve_layers(
    out: &mut Layers,
    spans: &mut Spans,
    session: &Session,
    work_dir: &Path,
    sim: bool,
) -> Result<(), String> {
    let (seed, cache_dir) = (session.seed, session.cache_dir);
    let inputs = session_inputs(session.kind, seed, session.ops_per_conn)?;
    let served = &inputs.served;
    let cache = ResultCache::open(cache_dir).map_err(|e| e.to_string())?;
    let reports: Vec<CellReport> = served
        .iter()
        .map(|s| {
            cache
                .lookup(&s.key)
                .map(|mut r| {
                    r.id = s.cell_spec.cells[s.idx].id.clone();
                    r
                })
                .ok_or_else(|| format!("served cell `{}`/{} is not in the cache", s.sweep, s.idx))
        })
        .collect::<Result<_, _>>()?;

    out.reps(
        "protocol.parse_us",
        per_call_us(spans, "protocol.parse", || {
            for line in &inputs.lines {
                if let Ok(Request::Submit(sub)) = Request::parse(line) {
                    std::hint::black_box(sub.build_spec().ok());
                }
            }
            inputs.lines.len()
        }),
    );

    let mut line_bytes = 0usize;
    out.reps(
        "protocol.cell_line_us",
        per_call_us(spans, "protocol.cell_line", || {
            line_bytes = 0;
            for (s, r) in served.iter().zip(&reports) {
                line_bytes += cell_line(&s.sweep, s.idx, s.cached, r).len();
            }
            served.len()
        }),
    );
    out.exact(
        "protocol.cell_line_bytes",
        line_bytes as f64 / served.len().max(1) as f64,
    );

    out.reps(
        "cache.key_us",
        per_call_us(spans, "cache.key", || {
            for s in served {
                std::hint::black_box(cell_key(&s.cell_spec.cells[s.idx], s.seed));
            }
            served.len()
        }),
    );

    let raw = per_call_us(spans, "cache.lookup_raw", || {
        for s in served {
            std::hint::black_box(cache.lookup_raw(&s.key));
        }
        served.len()
    });
    let full = per_call_us(spans, "cache.lookup", || {
        for s in served {
            std::hint::black_box(cache.lookup(&s.key));
        }
        served.len()
    });
    out.reps(
        "cache.decode_us",
        full.iter().zip(&raw).map(|(f, r)| f - r).collect(),
    );
    out.reps("cache.lookup_raw_us", raw);

    // The session's key stream through a freshly opened cache at the
    // server's default hot-tier capacity, timing each call by tier.
    let (mut hot, mut warm) = (Vec::new(), Vec::new());
    for rep in 0..REPS {
        let mut tiered = ResultCache::open(cache_dir).map_err(|e| e.to_string())?;
        tiered.set_hot_capacity(SERVER_HOT_CAP);
        let start = spans.now_ns();
        let (mut hot_ns, mut hot_n, mut warm_ns, mut warm_n) = (0u128, 0u64, 0u128, 0u64);
        for s in served {
            let t = Instant::now();
            let hit = tiered.lookup_tiered(&s.key);
            let ns = t.elapsed().as_nanos();
            match hit.map(|(_, tier)| tier) {
                Some(HitTier::Hot) => (hot_ns, hot_n) = (hot_ns + ns, hot_n + 1),
                Some(HitTier::Warm) => (warm_ns, warm_n) = (warm_ns + ns, warm_n + 1),
                None => return Err(format!("served cell `{}`/{} missed", s.sweep, s.idx)),
            }
        }
        spans.close(rep as u64 + 1, "cache.lookup_tiered", start);
        hot.push(hot_ns as f64 / 1e3 / hot_n.max(1) as f64);
        warm.push(warm_ns as f64 / 1e3 / warm_n.max(1) as f64);
    }
    out.reps("cache.tiered_hot_us", hot);
    out.reps("cache.tiered_warm_us", warm);

    let mut rep = 0;
    let mut insert_err = None;
    out.reps(
        "cache.insert_us",
        per_call_us(spans, "cache.insert", || {
            rep += 1;
            let dir = work_dir.join(format!("insert-{rep}"));
            let _ = std::fs::remove_dir_all(&dir);
            let result = ResultCache::open(&dir)
                .map_err(|e| e.to_string())
                .and_then(|mut c| {
                    for (s, r) in served.iter().zip(&reports) {
                        c.insert(&s.key, r).map_err(|e| e.to_string())?;
                    }
                    Ok(())
                });
            let _ = std::fs::remove_dir_all(&dir);
            if let Err(e) = result {
                insert_err = Some(e);
            }
            served.len()
        }),
    );
    if let Some(e) = insert_err {
        return Err(e);
    }

    drop(cache);
    let mut open_err = None;
    out.reps(
        "cache.open_ms",
        per_call_us(spans, "cache.open", || {
            if let Err(e) = ResultCache::open(cache_dir) {
                open_err = Some(e.to_string());
            }
            1
        })
        .into_iter()
        .map(|us| us / 1e3)
        .collect(),
    );
    if let Some(e) = open_err {
        return Err(e);
    }

    out.reps(
        "codec.roundtrip_us",
        per_call_us(spans, "codec.roundtrip", || {
            for r in &reports {
                std::hint::black_box(validate_report_roundtrip(r).is_ok());
            }
            reports.len()
        }),
    );

    if !sim {
        return Ok(());
    }
    // Simulation: a seeded sample of the distinct cells the run served.
    let mut seen = std::collections::HashSet::new();
    let mut cells: Vec<(&SweepCell, u64)> = served
        .iter()
        .filter(|s| seen.insert(s.key.hash()))
        .map(|s| (&s.cell_spec.cells[s.idx], s.seed))
        .collect();
    let stride = (cells.len() / SIM_SAMPLE).max(1);
    let offset = (derive_seed(seed, 0x51) % stride as u64) as usize;
    cells = cells
        .into_iter()
        .skip(offset)
        .step_by(stride)
        .take(SIM_SAMPLE)
        .collect();
    sim_layers(out, spans, &cells);
    Ok(())
}

/// `sim.*`: `SweepCell::run` per cell, the events it simulated, and the
/// event rate.
fn sim_layers(out: &mut Layers, spans: &mut Spans, cells: &[(&SweepCell, u64)]) {
    let mut events = 0.0;
    let cell_us = per_call_us(spans, "sim.cell", || {
        events = 0.0;
        for &(cell, seed) in cells {
            events += cell.run(seed).metric("events").map_or(0.0, |m| m.value());
        }
        cells.len()
    });
    let per_cell = events / cells.len().max(1) as f64;
    out.reps(
        "sim.events_per_us",
        cell_us.iter().map(|us| per_cell / us).collect(),
    );
    out.reps("sim.cell_us", cell_us);
    out.exact("sim.events_per_cell", per_cell);
}

/// `table1`'s sweep as the binary builds it (five 3-process cases at
/// constant ρ, 200 000 lines each) under master seed `seed`.
pub fn table1_spec(seed: u64) -> SweepSpec {
    type Case = ((f64, f64, f64), (f64, f64, f64));
    let cases: [Case; 5] = [
        ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)),
        ((1.5, 1.0, 0.5), (1.0, 1.0, 1.0)),
        ((1.0, 1.0, 1.0), (1.5, 0.5, 1.0)),
        ((1.5, 1.0, 0.5), (1.5, 0.5, 1.0)),
        ((1.5, 1.0, 0.5), (0.5, 1.5, 1.0)),
    ];
    let cells = cases
        .iter()
        .enumerate()
        .map(|(k, &(mu, lam))| {
            let params = AsyncParams::three(mu, lam);
            let hi = params.interval_quantile(0.999);
            SweepCell::named(
                format!("case{}", k + 1),
                AsyncIntervals::new(params, 200_000).with_distribution(DistSpec::new(0.0, hi, 40)),
            )
        })
        .collect();
    SweepSpec::new("table1_sweep", seed, cells)
}

/// Replays the figure-path layers: sweep dispatch and simulation on
/// `table1`'s cells (seeded as the run seeded `table1`), and the
/// matrix-free Markov kernels at `fig2_markov`'s sizes.
///
/// Dispatch is the wall time of `SweepSpec::run(2)` beyond the
/// two-thread makespan the serial cell times predict, per cell: the
/// cells differ by up to a third in length, so on two threads one
/// idles at the end, and that idle time is the schedule's, not the
/// dispatcher's.
pub fn figure_layers(out: &mut Layers, spans: &mut Spans, table1_seed: u64, sim: bool) {
    let spec = table1_spec(table1_seed);
    let seeds: Vec<u64> = (0..spec.cells.len())
        .map(|i| derive_seed(spec.master_seed, spec.seed_index(i)))
        .collect();
    let mut dispatch = Vec::new();
    let mut serial_us = Vec::new();
    for rep in 0..REPS {
        let start = spans.now_ns();
        let t = Instant::now();
        std::hint::black_box(spec.run(2));
        let wall = t.elapsed().as_secs_f64() * 1e6;
        spans.close(rep as u64 + 1, "sweep.run2", start);
        let mut cell_us = Vec::with_capacity(spec.cells.len());
        for (cell, &seed) in spec.cells.iter().zip(&seeds) {
            let start = spans.now_ns();
            let t = Instant::now();
            std::hint::black_box(cell.run(seed));
            cell_us.push(t.elapsed().as_secs_f64() * 1e6);
            spans.close(rep as u64 + 1, "sim.cell", start);
        }
        dispatch.push((wall - makespan(&cell_us, 2)) / cell_us.len() as f64);
        serial_us.push(cell_us.iter().sum::<f64>() / cell_us.len() as f64);
    }
    out.reps("sweep.dispatch_us_per_cell", dispatch);
    if sim {
        let events: f64 = spec
            .cells
            .iter()
            .zip(&seeds)
            .map(|(c, &s)| c.run(s).metric("events").map_or(0.0, |m| m.value()))
            .sum::<f64>()
            / spec.cells.len() as f64;
        out.reps(
            "sim.events_per_us",
            serial_us.iter().map(|us| events / us).collect(),
        );
        out.reps("sim.cell_us", serial_us);
        out.exact("sim.events_per_cell", events);
    }

    for n in FIG2_NS {
        let cell = SweepCell::named(format!("matfree/n{n}"), MatrixFreeLumpability { n });
        let ms = per_call_us(spans, &format!("markov.matfree.n{n}"), || {
            std::hint::black_box(cell.run(0));
            1
        });
        out.reps(
            &format!("markov.matfree_ms.n{n}"),
            ms.into_iter().map(|us| us / 1e3).collect(),
        );
    }
    for n in [16, 20] {
        let op = FlagChainOp::new(&fig2_params(n));
        let start = spans.now_ns();
        let (_, outcome) = op.solve(&vec![1.0; op.n_transient()], false);
        spans.close(1, &format!("markov.solve.n{n}"), start);
        out.exact(
            &format!("markov.bicgstab_iters.n{n}"),
            outcome.iterations as f64,
        );
    }
    let op = FlagChainOp::new(&fig2_params(20));
    let x = vec![1.0; op.n_transient()];
    let mut y = vec![0.0; op.n_transient()];
    out.reps(
        "markov.apply_us.n20",
        per_call_us(spans, "markov.apply.n20", || {
            op.apply_neg_qtt(&x, &mut y);
            std::hint::black_box(&y);
            1
        }),
    );
    out.exact("markov.apply_bytes.n20", apply_bytes(20, op.n_transient()));
}

/// The wall time `threads` workers need for jobs of the given lengths
/// when each free worker claims the next job in order, as
/// `SweepSpec::run` hands out cells.
fn makespan(jobs: &[f64], threads: usize) -> f64 {
    let mut free_at = vec![0.0_f64; threads];
    for &job in jobs {
        let next = free_at
            .iter_mut()
            .min_by(|a, b| a.total_cmp(b))
            .expect("at least one thread");
        *next += job;
    }
    free_at.into_iter().fold(0.0, f64::max)
}

/// The chain `MatrixFreeLumpability { n }` solves: symmetric rates,
/// μ = 1, λ = 1/(n−1).
fn fig2_params(n: usize) -> AsyncParams {
    AsyncParams::symmetric(n, 1.0, 1.0 / (n as f64 - 1.0))
}

/// Bytes one `apply_neg_qtt` streams over a transient block of `states`
/// states, counting every `f64` read or written once (no cache reuse):
/// the diagonal pass reads the exit rate and `x` and writes `y`; each of
/// the `n` R1 passes touches the half of the masks with that flag clear,
/// and each of the n(n−1)/2 R2/R3 passes the three quarters with a
/// member flag set, each touch reading `x` and updating `y` (24 bytes).
fn apply_bytes(n: usize, states: usize) -> f64 {
    let states = states as f64;
    let pairs = (n * (n - 1) / 2) as f64;
    8.0 * 3.0 * states + 24.0 * states * (0.5 * n as f64 + 0.75 * pairs)
}

#[cfg(test)]
mod tests {
    use super::makespan;

    #[test]
    fn makespan_follows_in_order_claims() {
        assert_eq!(makespan(&[1.0, 1.0, 1.0, 1.0], 2), 2.0);
        // The fifth job goes to whichever worker frees up first.
        assert_eq!(makespan(&[160.0, 204.0, 146.0, 188.0, 197.0], 2), 503.0);
        assert_eq!(makespan(&[3.0, 1.0, 1.0, 1.0], 2), 3.0);
    }
}
