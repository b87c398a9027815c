//! `perfbench` — the in-process half of the benchmark. `run.py` starts
//! the programs under test and calls this binary for the work that
//! needs the repository's `pub` API or a native client:
//!
//! ```text
//! perfbench fill   --seed S --dir DIR
//! perfbench drive  --workload W --seed S --seconds T --addr HOST:PORT
//!                  [--spans FILE] [--shutdown]
//! perfbench layers --serve W --seed S --ops N0,N1 --cache DIR --work-dir DIR
//!                  --table1-seed T --sim serve|table1 --spans FILE
//! ```
//!
//! Each prints one JSON object on stdout; errors go to stderr with a
//! non-zero exit.

mod drive;
mod layers;
mod plan;
mod trace;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use rbbench::cache::{cell_key, ResultCache};
use rbserve::protocol::{obj, render};
use rbsim::derive_seed;
use serde::Value;

use crate::plan::Serve;
use crate::trace::Spans;

/// `--flag value` pairs (and bare `--flag`s, mapped to "").
fn flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().cloned().unwrap_or_default(),
            _ => String::new(),
        };
        out.insert(name.to_string(), value);
    }
    Ok(out)
}

fn get<'a>(f: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    f.get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{name}"))
}

fn get_u64(f: &HashMap<String, String>, name: &str) -> Result<u64, String> {
    get(f, name)?.parse().map_err(|e| format!("--{name}: {e}"))
}

fn serve_kind(name: &str) -> Result<Serve, String> {
    Serve::from_name(name).ok_or_else(|| format!("`{name}` is not a serve workload"))
}

fn nums<T: Copy + Into<f64>>(xs: impl IntoIterator<Item = T>) -> Value {
    Value::Seq(xs.into_iter().map(|x| Value::Num(x.into())).collect())
}

fn counters(c: &HashMap<String, f64>) -> Value {
    let mut keys: Vec<_> = c.keys().collect();
    keys.sort();
    Value::Map(
        keys.into_iter()
            .map(|k| (k.clone(), Value::Num(c[k])))
            .collect(),
    )
}

/// Fills a fresh cache with the warm workload's sweeps through the
/// public API: `build_spec` → `cell_key` → `SweepCell::run` → `insert`.
fn fill(f: &HashMap<String, String>) -> Result<Value, String> {
    let seed = get_u64(f, "seed")?;
    let dir = PathBuf::from(get(f, "dir")?);
    let started = Instant::now();
    let mut cache = ResultCache::open(&dir).map_err(|e| e.to_string())?;
    let mut cells = 0usize;
    for sweep in plan::fill_sweeps(seed) {
        let spec = sweep.spec()?;
        for (idx, cell) in spec.cells.iter().enumerate() {
            let seed = derive_seed(spec.master_seed, spec.seed_index(idx));
            let key = cell_key(cell, seed).ok_or("async_grid cells are cacheable")?;
            cache
                .insert(&key, &cell.run(seed))
                .map_err(|e| e.to_string())?;
            cells += 1;
        }
    }
    Ok(obj(vec![
        ("cells", Value::Num(cells as f64)),
        ("seconds", Value::Num(started.elapsed().as_secs_f64())),
    ]))
}

fn drive(f: &HashMap<String, String>) -> Result<Value, String> {
    let kind = serve_kind(get(f, "workload")?)?;
    let seed = get_u64(f, "seed")?;
    let seconds: f64 = get(f, "seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let addr = get(f, "addr")?;
    let mut spans = f.get("spans").map(|_| Spans::default());
    let s = drive::run(kind, seed, seconds, addr, spans.as_mut())?;
    if let (Some(spans), Some(path)) = (&spans, f.get("spans")) {
        std::fs::write(path, spans.to_json()).map_err(|e| format!("write {path}: {e}"))?;
    }
    if f.contains_key("shutdown") {
        drive::shutdown(addr)?;
    }
    let submits = &s.submits;
    Ok(obj(vec![
        ("attempted", Value::Num(s.attempted as f64)),
        ("failed", Value::Num(s.failed as f64)),
        (
            "errors",
            Value::Seq(s.errors.iter().map(|e| Value::Str(e.clone())).collect()),
        ),
        (
            "ops_per_conn",
            nums(s.ops_per_conn.iter().map(|&n| n as f64)),
        ),
        ("window_s", Value::Num(s.window_s)),
        ("cells_checked", Value::Num(s.cells_checked as f64)),
        (
            "submits",
            obj(vec![
                (
                    "latency_ns",
                    nums(submits.iter().map(|r| r.latency_ns as f64)),
                ),
                (
                    "first_cell_ns",
                    nums(submits.iter().map(|r| r.first_cell_ns as f64)),
                ),
                ("solve_ns", nums(submits.iter().map(|r| r.solve_ns))),
                ("cells", nums(submits.iter().map(|r| r.cells as f64))),
                (
                    "warm",
                    nums(submits.iter().map(|r| f64::from(u8::from(r.warm)))),
                ),
            ]),
        ),
        ("quantile_ns", nums(s.quantiles.iter().map(|q| q.2 as f64))),
        ("counters_before", counters(&s.counters_before)),
        ("counters_after", counters(&s.counters_after)),
    ]))
}

fn layers(f: &HashMap<String, String>) -> Result<Value, String> {
    let kind = serve_kind(get(f, "serve")?)?;
    let seed = get_u64(f, "seed")?;
    let ops: Vec<usize> = get(f, "ops")?
        .split(',')
        .map(|n| n.parse().map_err(|e| format!("--ops: {e}")))
        .collect::<Result<_, _>>()?;
    let cache = PathBuf::from(get(f, "cache")?);
    let work_dir = PathBuf::from(get(f, "work-dir")?);
    let table1_seed = get_u64(f, "table1-seed")?;
    let sim_on_table1 = match get(f, "sim")? {
        "table1" => true,
        "serve" => false,
        other => return Err(format!("--sim must be serve or table1, got `{other}`")),
    };
    std::fs::create_dir_all(&work_dir).map_err(|e| e.to_string())?;
    let mut spans = Spans::default();
    let mut out = layers::Layers::default();
    let session = layers::Session {
        kind,
        seed,
        ops_per_conn: &ops,
        cache_dir: &cache,
    };
    layers::serve_layers(&mut out, &mut spans, &session, &work_dir, !sim_on_table1)?;
    layers::figure_layers(&mut out, &mut spans, table1_seed, sim_on_table1);
    let path = get(f, "spans")?;
    std::fs::write(path, spans.to_json()).map_err(|e| format!("write {path}: {e}"))?;
    Ok(out.to_value())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("usage: perfbench fill|drive|layers --flag value ...");
        return ExitCode::from(2);
    };
    let result = flags(&args[1..]).and_then(|f| match cmd.as_str() {
        "fill" => fill(&f),
        "drive" => drive(&f),
        "layers" => layers(&f),
        other => Err(format!("unknown command `{other}`")),
    });
    match result {
        Ok(v) => {
            println!("{}", render(&v));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
