//! Release-only end-to-end smoke harness: the real `rbserve` binary,
//! a real TCP client, real SIGKILLs.
//!
//! What it pins (the PR-8 acceptance criteria):
//!
//! * a re-submitted sweep is served ≥ 90 % from the cache with a
//!   **byte-identical** result line, and the warm pass is ≥ 100×
//!   faster than the cold solve;
//! * a SIGKILLed server restarted on the same cache directory refuses
//!   nothing it wrote — the full resubmit is 100 % hits;
//! * killed *mid-sweep*, the restarted server re-solves only the
//!   missing cells, and the finished report is byte-identical to the
//!   in-process batch engine's own run of the same spec.
//!
//! Debug builds skip these (`--ignored` would run a cold conformance
//! solve at unoptimized speed); CI runs them in the `serve-smoke`
//! release job.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use serde::Value;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rbserve-smoke-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The `rbserve` binary as a child process, bound to a free port.
struct ServerProc {
    child: Child,
}

impl ServerProc {
    fn start(cache: &Path) -> (ServerProc, SocketAddr) {
        Self::start_with(cache, &[])
    }

    fn start_with(cache: &Path, extra: &[&str]) -> (ServerProc, SocketAddr) {
        let mut child = Command::new(env!("CARGO_BIN_EXE_rbserve"))
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--cache",
                cache.to_str().expect("utf-8 temp path"),
            ])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn rbserve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read listen line");
        // "rbserve: listening on 127.0.0.1:PORT"
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("unparseable listen line: {line:?}"));
        (ServerProc { child }, addr)
    }

    /// SIGKILL — no drain, no flush beyond what already hit the WAL.
    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn wait(mut self) {
        let status = self.child.wait().expect("wait rbserve");
        assert!(status.success(), "rbserve exited with {status}");
    }
}

/// A test that fails mid-way must not leave its server running.
impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        self.writer.flush().expect("flush");
    }

    /// One raw response line (for byte-level comparisons).
    fn recv_raw(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection unexpectedly");
        line.trim_end_matches('\n').to_string()
    }

    fn recv(&mut self) -> Value {
        serde_json::from_str(&self.recv_raw()).expect("response is JSON")
    }

    fn request(&mut self, line: &str) -> Value {
        self.send(line);
        self.recv()
    }

    fn request_raw(&mut self, line: &str) -> String {
        self.send(line);
        self.recv_raw()
    }
}

fn num(v: &Value, key: &str) -> f64 {
    match v.get(key) {
        Some(Value::Num(x)) => *x,
        other => panic!("`{key}` is not a number ({other:?}) in {v:?}"),
    }
}

fn text(v: &Value, key: &str) -> String {
    match v.get(key) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("`{key}` is not a string ({other:?}) in {v:?}"),
    }
}

const SUBMIT: &str =
    r#"{"op":"submit","name":"conf","seed":1983,"kind":"conformance","effort":"quick"}"#;

/// Submits the conformance matrix and drains the stream; returns the
/// done event.
fn submit_and_drain(client: &mut Client) -> Value {
    let accepted = client.request(SUBMIT);
    assert_eq!(accepted.get("ok"), Some(&Value::Bool(true)), "{accepted:?}");
    loop {
        let event = client.recv();
        match text(&event, "event").as_str() {
            "cell" => continue,
            "done" => {
                assert_eq!(event.get("ok"), Some(&Value::Bool(true)), "{event:?}");
                return event;
            }
            other => panic!("unexpected event `{other}`: {event:?}"),
        }
    }
}

/// The reference result line: what the server must answer to
/// `{"op":"result","sweep":"conf"}`, computed by the in-process batch
/// engine. Pins server == batch byte equality.
fn reference_result_line() -> String {
    use serde::Serialize as _;
    let spec = rbbench::sweep::SweepSpec::conformance_matrix(
        "conf",
        1983,
        rbtestutil::SchemeConformance::quick(),
    );
    let report = spec.run(rbsim::par::available_threads());
    rbserve::protocol::render(&rbserve::protocol::obj(vec![
        ("ok", Value::Bool(true)),
        ("report", report.to_value()),
    ]))
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: cold conformance solves at debug speed take too long"
)]
fn warm_resubmit_is_cached_byte_identical_and_100x_faster() {
    let dir = scratch("warm");
    let (server, addr) = ServerProc::start(&dir);
    let mut client = Client::connect(addr);

    // Cold pass: everything misses, everything lands in the cache.
    let cold = submit_and_drain(&mut client);
    let cells = num(&cold, "cells");
    assert!(cells >= 20.0, "conformance matrix is ≥ 20 cells: {cold:?}");
    assert_eq!(num(&cold, "cache_hits"), 0.0);
    assert_eq!(num(&cold, "cache_misses"), cells);
    let cold_result = client.request_raw(r#"{"op":"result","sweep":"conf"}"#);

    // Interactive quantile queries against a finished distribution
    // metric (async scenarios carry `async/X_hist`).
    let report: Value = serde_json::from_str(&cold_result).expect("result is JSON");
    let Some(Value::Seq(cell_reports)) = report.get("report").and_then(|r| r.get("cells")) else {
        panic!("no cells in {cold_result}")
    };
    let dist_cell = cell_reports
        .iter()
        .find_map(|c| {
            let Some(Value::Seq(metrics)) = c.get("metrics") else {
                return None;
            };
            metrics
                .iter()
                .any(|m| m.get("name") == Some(&Value::Str("async/X_hist".into())))
                .then(|| text(c, "id"))
        })
        .expect("some async cell with a distribution metric");
    let q = client.request(&format!(
        r#"{{"op":"quantile","sweep":"conf","cell":"{dist_cell}","metric":"async/X_hist","p":0.99}}"#
    ));
    assert_eq!(q.get("ok"), Some(&Value::Bool(true)), "{q:?}");
    assert!(num(&q, "x") > 0.0, "{q:?}");

    // Warm pass: ≥ 90 % hits (expected: all), byte-identical result,
    // ≥ 100× faster than the cold solve.
    let warm = submit_and_drain(&mut client);
    assert!(
        num(&warm, "cache_hits") >= 0.9 * cells,
        "warm run must be ≥ 90% cache hits: {warm:?}"
    );
    assert_eq!(num(&warm, "cache_misses"), 0.0, "{warm:?}");
    let warm_result = client.request_raw(r#"{"op":"result","sweep":"conf"}"#);
    assert_eq!(warm_result, cold_result, "cache hit must be byte-identical");
    let (cold_ns, warm_ns) = (num(&cold, "solve_ns"), num(&warm, "solve_ns"));
    assert!(
        cold_ns >= 100.0 * warm_ns.max(1.0),
        "warm pass not ≥ 100× faster: cold {cold_ns} ns vs warm {warm_ns} ns"
    );

    // SIGKILL (no drain), restart on the same cache directory: the
    // server refuses nothing it wrote — the resubmit is 100 % hits.
    drop(client);
    server.kill();
    let (server, addr) = ServerProc::start(&dir);
    let mut client = Client::connect(addr);
    let revived = submit_and_drain(&mut client);
    assert_eq!(num(&revived, "cache_hits"), cells, "{revived:?}");
    assert_eq!(num(&revived, "cache_misses"), 0.0, "{revived:?}");
    let revived_result = client.request_raw(r#"{"op":"result","sweep":"conf"}"#);
    assert_eq!(
        revived_result, cold_result,
        "warm restart must be byte-identical"
    );

    client.send(r#"{"op":"shutdown"}"#);
    drop(client);
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One named metric's value from the `metrics` endpoint.
fn metric(client: &mut Client, name: &str) -> f64 {
    let metrics = client.request(r#"{"op":"metrics"}"#);
    let Some(Value::Seq(list)) = metrics.get("metrics") else {
        panic!("metrics is not a list: {metrics:?}")
    };
    let m = list
        .iter()
        .find(|m| m.get("name") == Some(&Value::Str(name.into())))
        .unwrap_or_else(|| panic!("no metric `{name}`"));
    num(m, "value")
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: cold conformance solves at debug speed take too long"
)]
fn kill_amid_constant_compaction_recovers_old_or_new_never_hybrid() {
    // `--compact-every 1` rewrites the WAL after *every* insert, so a
    // SIGKILL a few cells in lands with high probability inside or
    // around a compaction's write/publish window. Whatever it hit, the
    // restart must refuse nothing and serve byte-identical results.
    let dir = scratch("killcompact");
    let (server, addr) = ServerProc::start_with(&dir, &["--compact-every", "1"]);
    let mut client = Client::connect(addr);
    let accepted = client.request(SUBMIT);
    assert_eq!(accepted.get("ok"), Some(&Value::Bool(true)), "{accepted:?}");
    for _ in 0..5 {
        let event = client.recv();
        assert_eq!(text(&event, "event"), "cell", "{event:?}");
    }
    server.kill();
    drop(client);
    let at_kill = rbbench::cache::entry_count(&dir).expect("killed mid-compaction yet readable");
    assert!(at_kill >= 5, "≥ 5 streamed cells durable, got {at_kill}");
    // A leftover temp file (kill inside the write window) is inert; a
    // compacted WAL has no duplicate frames. Either way the scan holds.
    let stats = rbbench::cache::wal_stats(&dir).expect("scan");
    assert_eq!(stats.entries, at_kill);

    // Restart still compacting every insert: pre-kill entries hit, the
    // remainder solves through yet more compactions, and the result is
    // byte-identical to the in-process batch engine.
    let (server, addr) = ServerProc::start_with(&dir, &["--compact-every", "1"]);
    let mut client = Client::connect(addr);
    let done = submit_and_drain(&mut client);
    let hits = num(&done, "cache_hits");
    assert!(
        hits >= at_kill as f64,
        "every pre-kill entry must hit: {hits} < {at_kill}"
    );
    assert!(metric(&mut client, "cache/compactions") >= 1.0);
    let result = client.request_raw(r#"{"op":"result","sweep":"conf"}"#);
    assert_eq!(
        result,
        reference_result_line(),
        "post-kill result must match the batch engine byte-for-byte"
    );
    // The final WAL is minimal: one frame per distinct entry.
    client.send(r#"{"op":"shutdown"}"#);
    drop(client);
    server.wait();
    let stats = rbbench::cache::wal_stats(&dir).expect("scan final");
    assert_eq!(stats.frames, stats.entries, "compaction left duplicates");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: kept with the smoke suite so one job runs all end-to-end gates"
)]
fn concurrent_identical_submits_dedup_across_real_connections() {
    // Two real TCP clients submit the same 4-cell grid while every
    // solve hangs 400 ms: the second client's cells must subscribe to
    // the first's in-flight solves, never re-solve them.
    let dir = scratch("dedup");
    let (server, addr) =
        ServerProc::start_with(&dir, &["--chaos-hang", "1000", "--chaos-hang-ms", "400"]);
    let grid = r#"{"op":"submit","name":"g","seed":7,"kind":"async_grid","n":[2,3],"mu":[1],"lambda":[0.5,1],"lines":40,"dist":{"lo":0,"hi":12,"bins":24}}"#;

    let mut a = Client::connect(addr);
    let mut b = Client::connect(addr);
    a.send(grid);
    b.send(grid);
    let drain = |c: &mut Client| loop {
        let event = c.recv();
        if text(&event, "event") == "done" {
            assert_eq!(event.get("ok"), Some(&Value::Bool(true)), "{event:?}");
            return;
        }
    };
    drain(&mut a);
    drain(&mut b);

    // 4 distinct cells, served to two clients: exactly 4 solves, at
    // least one dedup wait, and hit+miss bookkeeping that adds up.
    let mut m = Client::connect(addr);
    assert_eq!(metric(&mut m, "cells/solved"), 4.0);
    assert!(
        metric(&mut m, "solves/deduped") >= 1.0,
        "overlapping identical submits must dedup at least one cell"
    );
    assert_eq!(metric(&mut m, "cache/misses"), 4.0);
    assert_eq!(metric(&mut m, "cache/hits"), 4.0);
    assert_eq!(metric(&mut m, "queue/depth"), 0.0);

    // Both clients read the same stored result, byte for byte.
    let ra = a.request_raw(r#"{"op":"result","sweep":"g"}"#);
    let rb = b.request_raw(r#"{"op":"result","sweep":"g"}"#);
    assert_eq!(ra, rb, "the two clients saw different result bytes");

    m.send(r#"{"op":"shutdown"}"#);
    drop((a, b, m));
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: cold conformance solves at debug speed take too long"
)]
fn kill_mid_sweep_recovers_cache_and_resolves_only_missing_cells() {
    let dir = scratch("midkill");
    let (server, addr) = ServerProc::start(&dir);
    let mut client = Client::connect(addr);

    // Submit, then SIGKILL after a handful of cells have streamed —
    // each streamed cell was flushed to the WAL before its event was
    // sent, so those entries must survive the kill.
    let accepted = client.request(SUBMIT);
    assert_eq!(accepted.get("ok"), Some(&Value::Bool(true)), "{accepted:?}");
    for _ in 0..5 {
        let event = client.recv();
        assert_eq!(text(&event, "event"), "cell", "{event:?}");
    }
    server.kill();
    drop(client);
    let at_kill = rbbench::cache::entry_count(&dir).expect("scan cache") as f64;
    assert!(at_kill >= 5.0, "≥ 5 streamed cells durable, got {at_kill}");

    // Restart: replay the WAL (torn tail, if any, discarded), resubmit
    // the same sweep — only the missing cells may solve.
    let (server, addr) = ServerProc::start(&dir);
    let mut client = Client::connect(addr);
    let done = submit_and_drain(&mut client);
    let cells = num(&done, "cells");
    let (hits, misses) = (num(&done, "cache_hits"), num(&done, "cache_misses"));
    assert!(
        hits >= at_kill,
        "every pre-kill entry must hit: {hits} < {at_kill}"
    );
    assert_eq!(
        misses,
        cells - hits,
        "only missing cells re-solve: {done:?}"
    );
    assert!(misses < cells, "the kill must not have emptied the cache");

    // The stitched-together report (pre-kill cache + post-restart
    // solves) is byte-identical to the batch engine running the same
    // spec in-process.
    let result = client.request_raw(r#"{"op":"result","sweep":"conf"}"#);
    assert_eq!(
        result,
        reference_result_line(),
        "server result must match the batch engine byte-for-byte"
    );

    client.send(r#"{"op":"shutdown"}"#);
    drop(client);
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[cfg(target_os = "linux")]
fn abandoned_attempts_exit_and_the_thread_count_returns_to_idle() {
    // Every primary attempt hangs 300 ms past a 50 ms deadline: the
    // handler abandons it and retries on a fresh thread. Once the hung
    // attempts wake and finish, the server must be back to its idle
    // threads — nothing is pooled, nothing grows per timeout.
    let dir = scratch("threads");
    let (server, addr) = ServerProc::start_with(
        &dir,
        &[
            "--cell-timeout-ms",
            "50",
            "--chaos-hang",
            "1000",
            "--chaos-hang-ms",
            "300",
        ],
    );
    let threads = || {
        std::fs::read_dir(format!("/proc/{}/task", server.child.id()))
            .expect("read /proc task list")
            .count()
    };
    let mut client = Client::connect(addr);
    // The answer proves this connection's handler thread exists.
    assert_eq!(
        client.request(r#"{"op":"status"}"#).get("ok"),
        Some(&Value::Bool(true))
    );
    let idle = threads();

    for seed in 0..3 {
        client.send(&format!(
            r#"{{"op":"submit","name":"g{seed}","seed":{seed},"kind":"async_grid","n":[2],"mu":[1],"lambda":[0.5,1],"lines":40}}"#
        ));
        loop {
            let event = client.recv();
            if text(&event, "event") == "done" {
                assert_eq!(event.get("ok"), Some(&Value::Bool(true)), "{event:?}");
                break;
            }
        }
    }
    assert_eq!(metric(&mut client, "cells/timed_out"), 6.0);
    assert_eq!(metric(&mut client, "workers/restarted"), 6.0);

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while threads() > idle {
        assert!(
            std::time::Instant::now() < deadline,
            "{} threads, {idle} when idle: abandoned attempts never exited",
            threads()
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert_eq!(metric(&mut client, "solves/in_flight"), 0.0);

    client.send(r#"{"op":"shutdown"}"#);
    drop(client);
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
