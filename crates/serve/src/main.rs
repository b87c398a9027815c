//! The `rbserve` binary: parse flags, spawn the server, join.
//!
//! ```text
//! rbserve [--addr HOST:PORT] [--workers N] [--queue N]
//!         [--max-cells N] [--cache DIR]
//!         [--compact-every N] [--hot-cap N]
//!         [--cell-timeout-ms N] [--cell-retries N]
//!         [--io-timeout-ms N] [--idle-timeout-ms N]
//!         [--chaos-seed N] [--chaos-panic N] [--chaos-hang N]
//!         [--chaos-garble N] [--chaos-hang-ms N] [--chaos-every-attempt]
//! ```
//!
//! Prints `rbserve: listening on <addr>` once bound (with the real
//! port when `--addr` asked for port 0), then serves until a client
//! sends `shutdown` and every admitted job has finished.
//!
//! The `--chaos-*` flags arm deterministic fault injection into solve
//! attempts (seeded — the same flags replay the same faults); any one
//! of them enables the schedule. They exist for chaos testing and
//! demos, never production serving.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use rbserve::{ChaosConfig, ServerConfig};

const USAGE: &str =
    "usage: rbserve [--addr HOST:PORT] [--workers N] [--queue N] [--max-cells N] [--cache DIR]
               [--compact-every N] [--hot-cap N]
               [--cell-timeout-ms N] [--cell-retries N] [--io-timeout-ms N] [--idle-timeout-ms N]
               [--chaos-seed N] [--chaos-panic N] [--chaos-hang N] [--chaos-garble N]
               [--chaos-hang-ms N] [--chaos-every-attempt]

  --addr HOST:PORT   bind address (default 127.0.0.1:0; port 0 picks a free port)
  --workers N        jobs that may run at once; 0 queues but never runs (default: hardware threads)
  --queue N          admitted jobs that may wait to run before submits shed (default 16)
  --max-cells N      largest accepted sweep, in cells (default 4096)
  --cache DIR        persist solved cells to DIR/results.wal and serve repeats from it
  --compact-every N  compact the cache WAL (drop duplicate frames) after every N inserts
  --hot-cap N        decoded reports kept in the in-memory hot tier; 0 disables (default 1024)

  --cell-timeout-ms N   per-attempt deadline before the attempt is presumed hung (default 120000)
  --cell-retries N      retries, each on a fresh thread, before the job aborts (default 2)
  --io-timeout-ms N     socket read/write timeout on connections (default 10000)
  --idle-timeout-ms N   close connections idle this long (default 600000)

  --chaos-seed N           seed for the deterministic fault schedule (default 0)
  --chaos-panic N          per-mille of solve attempts that panic (default 0)
  --chaos-hang N           per-mille of solve attempts that hang first (default 0)
  --chaos-garble N         per-mille of solve attempts returning a garbled report (default 0)
  --chaos-hang-ms N        how long a hang fault sleeps (default 50)
  --chaos-every-attempt    inject on retries too, not just the primary attempt
";

fn parse_args(args: &[String]) -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig::default();
    let mut chaos = ChaosConfig::default();
    let mut chaos_armed = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let parse_u64 = |name: &str, v: String| -> Result<u64, String> {
            v.parse().map_err(|e| format!("{name}: {e}"))
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value("--addr")?,
            "--workers" => {
                cfg.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--queue" => {
                cfg.queue_capacity = value("--queue")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?
            }
            "--max-cells" => {
                cfg.max_cells = value("--max-cells")?
                    .parse()
                    .map_err(|e| format!("--max-cells: {e}"))?
            }
            "--cache" => cfg.cache_dir = Some(PathBuf::from(value("--cache")?)),
            "--compact-every" => {
                let n = parse_u64("--compact-every", value("--compact-every")?)?;
                if n == 0 {
                    return Err("--compact-every: must be at least 1".into());
                }
                cfg.compact_every = Some(n);
            }
            "--hot-cap" => {
                cfg.hot_capacity = value("--hot-cap")?
                    .parse()
                    .map_err(|e| format!("--hot-cap: {e}"))?
            }
            "--cell-timeout-ms" => {
                cfg.cell_timeout = Duration::from_millis(parse_u64(
                    "--cell-timeout-ms",
                    value("--cell-timeout-ms")?,
                )?)
            }
            "--cell-retries" => {
                cfg.max_cell_retries = value("--cell-retries")?
                    .parse()
                    .map_err(|e| format!("--cell-retries: {e}"))?
            }
            "--io-timeout-ms" => {
                cfg.io_timeout =
                    Duration::from_millis(parse_u64("--io-timeout-ms", value("--io-timeout-ms")?)?)
            }
            "--idle-timeout-ms" => {
                cfg.idle_timeout = Duration::from_millis(parse_u64(
                    "--idle-timeout-ms",
                    value("--idle-timeout-ms")?,
                )?)
            }
            "--chaos-seed" => {
                chaos.seed = parse_u64("--chaos-seed", value("--chaos-seed")?)?;
                chaos_armed = true;
            }
            "--chaos-panic" => {
                chaos.panic_per_mille = value("--chaos-panic")?
                    .parse()
                    .map_err(|e| format!("--chaos-panic: {e}"))?;
                chaos_armed = true;
            }
            "--chaos-hang" => {
                chaos.hang_per_mille = value("--chaos-hang")?
                    .parse()
                    .map_err(|e| format!("--chaos-hang: {e}"))?;
                chaos_armed = true;
            }
            "--chaos-garble" => {
                chaos.garble_per_mille = value("--chaos-garble")?
                    .parse()
                    .map_err(|e| format!("--chaos-garble: {e}"))?;
                chaos_armed = true;
            }
            "--chaos-hang-ms" => {
                chaos.hang_ms = parse_u64("--chaos-hang-ms", value("--chaos-hang-ms")?)?;
                chaos_armed = true;
            }
            "--chaos-every-attempt" => {
                chaos.every_attempt = true;
                chaos_armed = true;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if chaos_armed {
        cfg.chaos = Some(chaos);
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("rbserve: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let handle = match rbserve::spawn(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("rbserve: {e}");
            return ExitCode::from(2);
        }
    };
    // The smoke harness parses this line for the bound port; keep the
    // format stable.
    println!("rbserve: listening on {}", handle.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    handle.join();
    ExitCode::SUCCESS
}
