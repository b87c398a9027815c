//! The closed-loop load generator: [`plan::CONNECTIONS`] clients, each
//! sending its next op only after the previous one completed, over
//! plain `std::net` sockets with default options (as `rbclient` does).
//!
//! After the timed window every answer is checked against an
//! in-process reference: cell lines byte-for-byte against
//! `SweepCell::run` (every warm hit, a seeded sample of solved cells),
//! `done` hit/miss counts against what the generator expects, and each
//! quantile against the reference report's distribution.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rbbench::sweep::CellReport;
use rbserve::protocol::{cell_line, render};
use rbsim::derive_seed;
use serde::Value;

use crate::plan::{Op, Serve, Stream, Sweep, CONNECTIONS};
use crate::trace::Spans;

/// One `submit` as the client saw it.
pub struct SubmitRecord {
    /// Connection that sent it.
    pub conn: usize,
    /// Send time, nanoseconds after the window opened.
    pub start_ns: u64,
    /// Send → `done`, nanoseconds.
    pub latency_ns: u64,
    /// Send → first `cell` event, nanoseconds.
    pub first_cell_ns: u64,
    /// The server's own `done.solve_ns`.
    pub solve_ns: f64,
    /// Cells the sweep holds.
    pub cells: usize,
    /// Whether the generator expected every cell to hit.
    pub warm: bool,
}

/// Everything one driven session produced.
pub struct Session {
    /// Completed submits.
    pub submits: Vec<SubmitRecord>,
    /// Quantile queries as `(connection, send time, latency)`, in
    /// nanoseconds after the window opened.
    pub quantiles: Vec<(usize, u64, u64)>,
    /// Ops attempted (sent) across connections.
    pub attempted: u64,
    /// Ops that failed, were shed, or failed a correctness check.
    pub failed: u64,
    /// First few failure messages.
    pub errors: Vec<String>,
    /// Ops each connection sent (replays regenerate exactly these).
    pub ops_per_conn: Vec<usize>,
    /// When the window opened.
    pub origin: Instant,
    /// First op sent → last op answered, seconds.
    pub window_s: f64,
    /// Server `metrics` counters before and after the window.
    pub counters_before: HashMap<String, f64>,
    /// See `counters_before`.
    pub counters_after: HashMap<String, f64>,
    /// Cell responses checked byte-for-byte against a reference.
    pub cells_checked: u64,
}

/// A connection's raw answers, checked after the window closes.
#[derive(Default)]
struct ConnLog {
    ops: Vec<(Op, Result<Answer, String>)>,
    submits: Vec<SubmitRecord>,
    quantiles: Vec<(usize, u64, u64)>,
    window_end: Option<Instant>,
    /// Set when the connection never opened (one failed op).
    connect_error: Option<String>,
}

enum Answer {
    /// The cell lines kept for the byte comparison (`None` for a solved
    /// cell outside the sample) and the parsed `done` event.
    Submit {
        cell_lines: Vec<Option<Arc<str>>>,
        done: Value,
    },
    /// The quantile answer's `x`.
    Quantile(f64),
    /// A well-formed refusal (`ok: false`, shed): a failed op, but the
    /// connection stays usable.
    Refused(String),
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("socket timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut bytes = line.as_bytes().to_vec();
        bytes.push(b'\n');
        self.writer
            .write_all(&bytes)
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => {
                line.pop();
                Ok(line)
            }
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// The server's counters from one `metrics` request.
    fn metrics(&mut self) -> Result<HashMap<String, f64>, String> {
        self.send(r#"{"op":"metrics"}"#)?;
        let v = parse(&self.recv()?)?;
        let Some(Value::Seq(items)) = v.get("metrics") else {
            return Err("metrics answer has no `metrics` list".into());
        };
        Ok(items
            .iter()
            .filter_map(|m| match (m.get("name"), m.get("value")) {
                (Some(Value::Str(n)), Some(Value::Num(x))) => Some((n.clone(), *x)),
                _ => None,
            })
            .collect())
    }
}

fn parse(line: &str) -> Result<Value, String> {
    serde_json::from_str(line).map_err(|e| format!("unparseable answer `{line}`: {e}"))
}

fn num(v: &Value, key: &str) -> Option<f64> {
    match v.get(key) {
        Some(Value::Num(x)) => Some(*x),
        _ => None,
    }
}

fn ok(v: &Value) -> bool {
    matches!(v.get("ok"), Some(Value::Bool(true)))
}

/// Repeated warm hits return identical lines; one copy is kept.
#[derive(Default)]
struct Interner(HashSet<Arc<str>>);

impl Interner {
    fn intern(&mut self, line: String) -> Arc<str> {
        if let Some(kept) = self.0.get(line.as_str()) {
            return Arc::clone(kept);
        }
        let kept: Arc<str> = line.into();
        self.0.insert(Arc::clone(&kept));
        kept
    }
}

/// Sends one op and reads its whole answer; `Err` means the connection
/// itself failed.
fn exchange(
    conn: &mut Conn,
    op: &Op,
    seed: u64,
    lines: &mut Interner,
    started: Instant,
) -> Result<(Answer, Option<u64>), String> {
    conn.send(&op.line())?;
    match op {
        Op::Quantile { .. } => {
            let v = parse(&conn.recv()?)?;
            let answer = match num(&v, "x") {
                Some(x) if ok(&v) => Answer::Quantile(x),
                _ => Answer::Refused(format!("quantile refused: {}", render(&v))),
            };
            Ok((answer, None))
        }
        Op::Submit { sweep, warm } => {
            let first = parse(&conn.recv()?)?;
            if !ok(&first) || first.get("event") != Some(&Value::Str("accepted".into())) {
                let why = format!("submit not accepted: {}", render(&first));
                return Ok((Answer::Refused(why), None));
            }
            let mut cell_lines = Vec::new();
            let mut first_cell = None;
            loop {
                let line = conn.recv()?;
                // Cell lines are kept raw for the byte comparison; only
                // the event tag is sniffed here.
                if line.starts_with(r#"{"ok":true,"event":"cell""#) {
                    first_cell.get_or_insert_with(|| started.elapsed().as_nanos() as u64);
                    let checked = *warm || sampled(seed, sweep, cell_lines.len());
                    cell_lines.push(checked.then(|| lines.intern(line)));
                    continue;
                }
                let done = parse(&line)?;
                if done.get("event") != Some(&Value::Str("done".into())) {
                    return Err(format!("unexpected event mid-sweep: {line}"));
                }
                return Ok((Answer::Submit { cell_lines, done }, first_cell));
            }
        }
    }
}

fn drive_conn(
    kind: Serve,
    seed: u64,
    conn_id: usize,
    addr: &str,
    origin: Instant,
    deadline: Instant,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut lines = Interner::default();
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            log.connect_error = Some(e);
            return log;
        }
    };
    for op in Stream::new(kind, seed, conn_id) {
        if Instant::now() >= deadline {
            break;
        }
        let started = Instant::now();
        let start_ns = started.duration_since(origin).as_nanos() as u64;
        let answer = exchange(&mut conn, &op, seed, &mut lines, started);
        let elapsed = started.elapsed().as_nanos() as u64;
        log.window_end = Some(Instant::now());
        let broken = answer.is_err();
        let answer = answer.map(|(answer, first_cell)| {
            match (&answer, &op) {
                (Answer::Submit { done, .. }, Op::Submit { sweep, warm }) => {
                    log.submits.push(SubmitRecord {
                        conn: conn_id,
                        start_ns,
                        latency_ns: elapsed,
                        first_cell_ns: first_cell.unwrap_or(elapsed),
                        solve_ns: num(done, "solve_ns").unwrap_or(0.0),
                        cells: sweep.cells(),
                        warm: *warm,
                    })
                }
                (Answer::Quantile(_), _) => log.quantiles.push((conn_id, start_ns, elapsed)),
                _ => {}
            }
            answer
        });
        log.ops.push((op, answer));
        if broken {
            // The stream position is unknown after a transport error;
            // stop this connection rather than misattribute answers.
            break;
        }
    }
    log
}

/// Reference reports of a sweep, computed in process.
fn reference(sweep: &Sweep) -> Result<Vec<CellReport>, String> {
    let spec = sweep.spec()?;
    Ok(spec
        .cells
        .iter()
        .enumerate()
        .map(|(idx, cell)| cell.run(derive_seed(spec.master_seed, spec.seed_index(idx))))
        .collect())
}

/// Whether the solved (cold) cell `idx` of `sweep` is in the seeded
/// byte-compared sample (one in eight, plus every first cell).
fn sampled(seed: u64, sweep: &Sweep, idx: usize) -> bool {
    idx == 0 || derive_seed(seed ^ sweep.seed, idx as u64).is_multiple_of(8)
}

struct Checker {
    refs: HashMap<String, Vec<CellReport>>,
    quantiles: HashMap<(String, String, u64), f64>,
    cells_checked: u64,
}

impl Checker {
    fn reports(&mut self, sweep: &Sweep) -> Result<&Vec<CellReport>, String> {
        if !self.refs.contains_key(&sweep.name) {
            self.refs.insert(sweep.name.clone(), reference(sweep)?);
        }
        Ok(&self.refs[&sweep.name])
    }

    fn check(&mut self, op: &Op, answer: &Answer) -> Result<(), String> {
        match (op, answer) {
            (Op::Submit { sweep, warm }, Answer::Submit { cell_lines, done }) => {
                let cells = sweep.cells() as f64;
                let (want_hits, want_misses) = if *warm { (cells, 0.0) } else { (0.0, cells) };
                if !ok(done)
                    || num(done, "cells") != Some(cells)
                    || num(done, "cache_hits") != Some(want_hits)
                    || num(done, "cache_misses") != Some(want_misses)
                {
                    return Err(format!(
                        "sweep `{}`: done {} but expected {cells} cells, {want_hits} hits, {want_misses} misses",
                        sweep.name,
                        render(done)
                    ));
                }
                if cell_lines.len() != sweep.cells() {
                    return Err(format!(
                        "sweep `{}`: {} cell events for {cells} cells",
                        sweep.name,
                        cell_lines.len()
                    ));
                }
                for (idx, got) in cell_lines.iter().enumerate() {
                    let Some(got) = got else {
                        continue;
                    };
                    let want = cell_line(&sweep.name, idx, *warm, &self.reports(sweep)?[idx]);
                    if **got != *want {
                        return Err(format!(
                            "sweep `{}` cell {idx}: served bytes differ from the in-process reference",
                            sweep.name
                        ));
                    }
                    self.cells_checked += 1;
                }
                Ok(())
            }
            (Op::Quantile { sweep, cell, p }, Answer::Quantile(x)) => {
                if !x.is_finite() {
                    return Err(format!(
                        "quantile {p} of `{}`/{cell} is not finite",
                        sweep.name
                    ));
                }
                let key = (sweep.name.clone(), cell.clone(), p.to_bits());
                if let Some(prev) = self.quantiles.insert(key, *x) {
                    if prev.to_bits() != x.to_bits() {
                        return Err(format!(
                            "quantile {p} of `{}`/{cell} changed across repeats: {prev} then {x}",
                            sweep.name
                        ));
                    }
                }
                let idx = sweep
                    .cell_ids()
                    .iter()
                    .position(|id| id == cell)
                    .ok_or("quantile on a cell the sweep lacks")?;
                let want = self.reports(sweep)?[idx]
                    .metric("X_dist")
                    .and_then(|m| m.dist())
                    .and_then(|d| d.quantile_at(*p))
                    .ok_or("reference report has no X_dist quantile")?;
                if want.to_bits() != x.to_bits() {
                    return Err(format!(
                        "quantile {p} of `{}`/{cell}: served {x}, reference {want}",
                        sweep.name
                    ));
                }
                Ok(())
            }
            (_, Answer::Refused(why)) => Err(why.clone()),
            _ => Err("answer shape does not match the op".into()),
        }
    }
}

/// Runs one closed-loop session of `kind` against the server at `addr`
/// for `seconds`, then checks every answer. With `spans`, each op is
/// recorded as a span (client-side only; the program is not traced).
pub fn run(
    kind: Serve,
    seed: u64,
    seconds: f64,
    addr: &str,
    spans: Option<&mut Spans>,
) -> Result<Session, String> {
    let mut control = Conn::open(addr)?;
    let counters_before = control.metrics()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let logs: Vec<ConnLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| s.spawn(move || drive_conn(kind, seed, c, addr, start, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window_end = logs
        .iter()
        .filter_map(|l| l.window_end)
        .max()
        .unwrap_or_else(Instant::now);
    let counters_after = control.metrics()?;

    let mut checker = Checker {
        refs: HashMap::new(),
        quantiles: HashMap::new(),
        cells_checked: 0,
    };
    let mut session = Session {
        submits: Vec::new(),
        quantiles: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        ops_per_conn: Vec::new(),
        origin: start,
        window_s: window_end.duration_since(start).as_secs_f64(),
        counters_before,
        counters_after,
        cells_checked: 0,
    };
    for log in logs {
        session.ops_per_conn.push(log.ops.len());
        if let Some(e) = log.connect_error {
            session.attempted += 1;
            session.failed += 1;
            session.errors.push(e);
        }
        for (op, answer) in &log.ops {
            session.attempted += 1;
            let verdict = answer
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|a| checker.check(op, a));
            if let Err(e) = verdict {
                session.failed += 1;
                if session.errors.len() < 5 {
                    session.errors.push(e);
                }
            }
        }
        session.submits.extend(log.submits);
        session.quantiles.extend(log.quantiles);
    }
    session.cells_checked = checker.cells_checked;
    if let Some(spans) = spans {
        spans.record_session(&session);
    }
    Ok(session)
}

/// Sends `shutdown` so the server drains and exits on its own.
pub fn shutdown(addr: &str) -> Result<(), String> {
    let mut conn = Conn::open(addr)?;
    conn.send(r#"{"op":"shutdown"}"#)?;
    conn.recv().map(|_| ())
}
