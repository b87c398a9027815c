#!/usr/bin/env python3
"""The benchmark for rbserve and the figure binaries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds the programs from source
(`cargo build --release`, into $CARGO_TARGET_DIR or .bench_build), starts
the real `rbserve` binary and the real figure binaries as child
processes, drives one workload for S seconds, checks every answer, and
prints one line per metric followed by a final JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones (see README.md). Every run also writes
.bench_out/BENCH_<workload>_s<seed>[_trace].json with provenance, sample
counts and quartiles; a traced run writes its spans beside it.
"""

import argparse
import filecmp
import hashlib
import json
import math
import os
import re
import shutil
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("serve_warm_mix", "serve_cold_solve", "figures_regen")
FIGURE_BINS = ("table1", "fig2_markov", "fig6_density")
THREADS = 2  # rbserve --workers and figure --threads, sized for 2 cores
SETUP_REPEATS = 3  # set-ups per run; the run reports their median
PASS_SECONDS = 8  # rough length of one figure pass on a 2-core host
# The set-up's warm-up sweep: enough solving (≈ 0.1 s) that set-up time
# is not at the mercy of the server's 10 ms accept poll.
WARMUP_SUBMIT = json.dumps({
    "op": "submit", "name": "warmup", "seed": 1, "kind": "async_grid",
    "n": [4, 6], "mu": [1], "lambda": [0.25, 0.5], "lines": 3000,
})
COMPANION_SECONDS = 4.0

# The declared workloads and metrics, with their units. `figures_regen`
# runs the same way but is not declared: its wall times follow the shared
# host's speed, which drifts by more than any allowed bound (README,
# "Steadiness").
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    DECLARED = json.load(_fh)
# What every declared workload reports in its final line. It leaves out
# the p99 (it needs >= 1000 submits), the warm-only quantile figures, and
# error_rate (0 on a healthy run; `failed` carries it).
END_TO_END = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}

# Units of every end-to-end metric a workload prints: the declared ones
# and the extras that are printed and recorded but not declared.
UNITS = dict(END_TO_END, **{
    "submit_p99_ms": "ms",
    "quantile_p50_us": "us",
    "quantile_p99_us": "us",
    "error_rate": "ratio",
    "figure_cold_s": "s",
    "figure_warm_s": "s",
})
# Every end-to-end metric a workload prints (and records in its BENCH file).
_SERVE = ("setup_s", "submit_p50_ms", "submit_p99_ms", "first_cell_p50_ms", "submits_per_s",
          "cells_per_s", "error_rate", "wal_bytes_per_cell", "peak_rss_mb")
NAMED = {
    "serve_warm_mix": _SERVE + ("quantile_p50_us", "quantile_p99_us"),
    "serve_cold_solve": _SERVE,
    "figures_regen": ("setup_s", "figure_cold_s", "figure_warm_s", "error_rate", "peak_rss_mb"),
}
FIGURE_END_TO_END = {k: UNITS[k] for k in (
    "setup_s", "figure_cold_s", "figure_warm_s", "peak_rss_mb")}

class BenchError(Exception):
    """The benchmark could not run (build, start-up or I/O failure)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------

TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(sorted_xs, level):
    """The nearest-rank percentile at `level`, or None when fewer than
    ten samples lie beyond it."""
    n = len(sorted_xs)
    rank = math.ceil(round(level * n / 100.0, 9))  # no float overshoot
    return sorted_xs[rank - 1] if rank >= 1 and n - rank >= 10 else None


def tail(samples):
    """The highest percentile in TAIL_LEVELS with at least ten samples
    beyond it, as (level, value); None if even p75 has fewer."""
    xs = sorted(samples)
    for level in TAIL_LEVELS:
        value = percentile(xs, level)
        if value is not None:
            return level, value
    return None


def summary(samples, scale=1.0):
    """Median, tail, p99 (when resolvable) and sample count of a
    latency list, scaled."""
    out = {"n": len(samples)}
    if samples:
        out["p50"] = statistics.median(samples) * scale
        t = tail(samples)
        if t:
            out["tail_level"] = t[0]
            out["tail"] = t[1] * scale
        p99 = percentile(sorted(samples), 99.0)
        if p99 is not None:
            out["p99"] = p99 * scale
    return out


def spread(values):
    """Median and quartiles of repeated measurements (at least two)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "reps": len(values)}


def figure_seed(seed):
    """The master seed every figure binary gets, derived from the
    workload seed."""
    return (seed * 2654435761 + 1983) % (1 << 32)


# ---------------------------------------------------------------------
# Build and provenance
# ---------------------------------------------------------------------


def target_dir():
    """Cargo's target directory; a relative $CARGO_TARGET_DIR is taken
    from the repository root, where the builds run."""
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def binary(name):
    return os.path.join(target_dir(), "release", name)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for args in (
        ["-p", "rbserve", "-p", "rbbench", "--bins"],
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def source_digest():
    """The git commit if the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if sha.returncode == 0:
            return sha.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, names in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.join(dirpath, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def provenance(args):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "rustc": rustc,
        "source": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------


def wait_rusage(proc, timeout):
    """Waits for `proc` (killing it after `timeout` s) and returns its
    exit status and peak resident memory in MB."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            proc.kill()
            deadline = float("inf")
        time.sleep(0.005)


def perfbench(*args):
    """Runs one perfbench subcommand and returns its JSON answer."""
    run = subprocess.run([binary("perfbench")] + list(args), capture_output=True, text=True)
    if run.returncode != 0:
        raise BenchError("perfbench %s failed: %s" % (args[0], run.stderr.strip()))
    return json.loads(run.stdout.strip().splitlines()[-1])


class Server:
    """A running `rbserve` child."""

    def __init__(self, cache_dir):
        self.proc = subprocess.Popen(
            [
                binary("rbserve"),
                "--addr", "127.0.0.1:0",
                "--workers", str(THREADS),
                "--cache", cache_dir,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        line = self.proc.stdout.readline()
        m = re.match(r"rbserve: listening on (\S+)", line)
        if not m:
            self.kill()
            raise BenchError("rbserve did not start: %r" % line)
        self.addr = m.group(1)

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            wait_rusage(self.proc, 10)

    def join(self):
        """Waits for the server to exit after `shutdown`; returns its
        peak RSS in MB."""
        code, rss = wait_rusage(self.proc, 20)
        if code != 0:
            raise BenchError("rbserve exited with %s after shutdown" % code)
        return rss


def fresh(*parts):
    """An empty directory at the joined path."""
    path = absent(*parts)
    os.makedirs(path)
    return path


def absent(*parts):
    """The joined path, removed if it exists (the programs create it)."""
    path = os.path.join(*parts)
    shutil.rmtree(path, ignore_errors=True)
    return path


# ---------------------------------------------------------------------
# Serve workloads
# ---------------------------------------------------------------------


def warm_up(addr):
    """One submit before the window opens, so the server's lazy start-up
    (first connection, first solves, first WAL appends) counts as set-up."""
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port))) as conn:
        conn.sendall(WARMUP_SUBMIT.encode() + b"\n")
        for line in conn.makefile():
            event = json.loads(line)
            if event.get("event") == "done" and event.get("ok"):
                return
            if not event.get("ok"):
                break
    raise BenchError("warm-up submit failed")


def serve_setup(workload, seed, cache_dir):
    """Fills the cache (warm workload only), starts the server and warms
    it up."""
    if workload == "serve_warm_mix":
        perfbench("fill", "--seed", str(seed), "--dir", cache_dir)
    server = Server(cache_dir)
    try:
        warm_up(server.addr)
    except (BenchError, OSError, ValueError):
        server.kill()
        raise
    return server


def serve_session(workload, seed, seconds, run_dir, repeats, spans=None):
    """Set-up (`repeats` times, keeping the last server), one driven
    session, then shutdown. Returns the raw results."""
    setups = []
    server = None
    for i in range(repeats):
        cache_dir = absent(run_dir, "cache%d" % i)
        t0 = time.perf_counter()
        server = serve_setup(workload, seed, cache_dir)
        setups.append(time.perf_counter() - t0)
        if i + 1 < repeats:
            server.kill()
    try:
        args = ["drive", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--addr", server.addr, "--shutdown"]
        if spans:
            args += ["--spans", spans]
        drive = perfbench(*args)
        rss = server.join()
    finally:
        server.kill()
    wal = os.path.getsize(os.path.join(cache_dir, "results.wal"))
    return {"setups": setups, "drive": drive, "rss_mb": rss, "wal_bytes": wal,
            "cache_dir": cache_dir}


def serve_metrics(workload, s):
    d = s["drive"]
    sub = d["submits"]
    window = d["window_s"]
    latency = summary(sub["latency_ns"], 1e-6)
    named = {
        "setup_s": statistics.median(s["setups"]),
        "submit_p50_ms": latency["p50"],
        "submit_p99_ms": latency.get("p99"),
        "first_cell_p50_ms": statistics.median(sub["first_cell_ns"]) / 1e6,
        "submits_per_s": len(sub["latency_ns"]) / window,
        "cells_per_s": sum(sub["cells"]) / window,
        "error_rate": d["failed"] / max(1, d["attempted"]),
        "wal_bytes_per_cell": s["wal_bytes"] / d["counters_after"]["cache/entries"],
        "peak_rss_mb": s["rss_mb"],
    }
    samples = {
        "submit_latency": latency,
        "first_cell": summary(sub["first_cell_ns"], 1e-6),
        "setups_s": s["setups"],
        "server_hit_submit_us": summary(
            [ns for ns, warm in zip(sub["solve_ns"], sub["warm"]) if warm], 1e-3),
    }
    if workload == "serve_warm_mix":
        q = summary(d["quantile_ns"], 1e-3)
        named["quantile_p50_us"] = q.get("p50")
        named["quantile_p99_us"] = q.get("p99")
        samples["quantile_latency"] = q
    return named, samples


def serve_layer_session(d):
    """Per-layer figures read off a driven session: the server's own
    time per submit against the client's, and counter deltas."""
    sub = d["submits"]
    client = statistics.fmean(sub["latency_ns"]) / 1e6
    server = statistics.fmean(sub["solve_ns"]) / 1e6
    before, after = d["counters_before"], d["counters_after"]
    delta = {k: after[k] - before.get(k, 0.0) for k in after}
    hits = delta["cache/hot_hits"] + delta["cache/warm_hits"]
    return {
        "serve.client_ms": client,
        "serve.server_ms": server,
        "serve.outside_ms": client - server,
        "cache.hot_hit_ratio": delta["cache/hot_hits"] / hits if hits else 0.0,
        "cache.evictions": delta["cache/evictions"],
        "counters.cells_solved": delta["cells/solved"],
        "counters.retries": delta["cells/retries"],
        "counters.shed": delta["submits/shed"],
    }


# ---------------------------------------------------------------------
# Figure workload
# ---------------------------------------------------------------------

CACHE_LINE = re.compile(r"\[cache\] \S+: (\d+) hits, (\d+) misses, (\d+) uncacheable")


def figures_setup(seed, run_dir):
    """A warm-up: one cold `table1` run on a throwaway cache, so the
    binaries and the page cache are loaded before the timed passes."""
    t0 = time.perf_counter()
    code = subprocess.run(
        [binary("table1"), "--seed", str(figure_seed(seed)), "--threads", str(THREADS),
         "--cache", absent(run_dir, "warmup", "cache"), "--out", fresh(run_dir, "warmup", "out")],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode
    if code != 0:
        raise BenchError("warm-up table1 exited with %d" % code)
    return time.perf_counter() - t0


def figure_pass(seed, run_dir, k):
    """One regeneration: each binary cold on a fresh cache, then each
    warm on the same cache. Returns per-run records and failures."""
    cache = absent(run_dir, "pass%d" % k, "cache")
    runs, failures = [], []
    for phase in ("cold", "warm"):
        out = fresh(run_dir, "pass%d" % k, phase)
        for name in FIGURE_BINS:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [binary(name), "--seed", str(figure_seed(seed)), "--threads", str(THREADS),
                 "--cache", cache, "--out", out],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
            )
            err = proc.stderr.read()
            code, rss = wait_rusage(proc, 170)
            wall = time.perf_counter() - t0
            m = CACHE_LINE.search(err)
            counts = tuple(int(x) for x in m.groups()) if m else None
            ok = code == 0 and counts is not None
            if not ok:
                failures.append("%s %s exited %d: %s" % (name, phase, code, err.strip()[-200:]))
            runs.append({"bin": name, "phase": phase, "wall_s": wall, "rss_mb": rss,
                         "counts": counts, "cells": sum(counts) if counts else 0, "ok": ok})
    cold, warm = (os.path.join(run_dir, "pass%d" % k, p) for p in ("cold", "warm"))
    for name in FIGURE_BINS:
        a, b = os.path.join(cold, name + ".json"), os.path.join(warm, name + ".json")
        if not (os.path.exists(a) and os.path.exists(b) and filecmp.cmp(a, b, shallow=False)):
            failures.append("%s: warm artifact differs from cold" % name)
            for r in runs:
                if r["bin"] == name and r["phase"] == "warm":
                    r["ok"] = False
    wal = os.path.join(run_dir, "pass%d" % k, "cache", "results.wal")
    return runs, failures, os.path.getsize(wal)


def figure_passes(seconds):
    """Passes in a run of `seconds`: a fixed count, so every run does the
    same work however fast the host is that minute."""
    return max(2, round(seconds / PASS_SECONDS))


def figures_session(seed, passes, run_dir, repeats):
    setups = [figures_setup(seed, run_dir) for _ in range(repeats)]
    runs, failures, wal_sizes = [], [], []
    for k in range(passes):
        r, f, wal = figure_pass(seed, run_dir, k)
        runs += r
        failures += f
        wal_sizes.append(wal)
    return {"setups": setups, "runs": runs, "failures": failures, "passes": passes,
            "wal_bytes": wal_sizes}


def figures_metrics(s):
    """Cold and warm wall time of the three binaries, medians over the
    run's passes."""
    runs = s["runs"]
    passes = [runs[i:i + 6] for i in range(0, len(runs), 6)]
    named = {
        "setup_s": statistics.median(s["setups"]),
        "figure_cold_s": statistics.median(sum(r["wall_s"] for r in p[:3]) for p in passes),
        "figure_warm_s": statistics.median(sum(r["wall_s"] for r in p[3:]) for p in passes),
        "error_rate": sum(not r["ok"] for r in runs) / len(runs),
        "peak_rss_mb": max(r["rss_mb"] for r in runs),
    }
    samples = {
        "passes": len(passes),
        "setups_s": s["setups"],
        "bin_wall_s": {
            "%s.%s" % (r["bin"], r["phase"]): statistics.median(
                x["wall_s"] for x in runs if (x["bin"], x["phase"]) == (r["bin"], r["phase"]))
            for r in runs[:6]
        },
    }
    return named, samples


def figures_layer_counts(s):
    """`figures.*`: cache outcomes the binaries reported on their first
    warm pass (hits) and first cold pass (uncacheable cells)."""
    warm = [r for r in s["runs"][3:6] if r["counts"]]
    cold = [r for r in s["runs"][:3] if r["counts"]]
    return {
        "figures.hits": float(sum(r["counts"][0] for r in warm)),
        "figures.uncacheable": float(sum(r["counts"][2] for r in cold)),
    }


# ---------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------


def untraced(args, run_dir):
    if args.workload == "figures_regen":
        s = figures_session(args.seed, figure_passes(args.seconds), run_dir, SETUP_REPEATS)
        named, samples = figures_metrics(s)
        attempted, failed, errors = len(s["runs"]), sum(not r["ok"] for r in s["runs"]), s["failures"]
    else:
        s = serve_session(args.workload, args.seed, args.seconds, run_dir, SETUP_REPEATS)
        named, samples = serve_metrics(args.workload, s)
        d = s["drive"]
        attempted, failed, errors = d["attempted"], d["failed"], d["errors"]
        samples["cells_checked"] = d["cells_checked"]
    return named, samples, attempted, failed, errors


def traced(args, run_dir):
    """The workload once more with spans, a short companion session of
    the other kind for the layers this workload does not drive, and the
    layer replays."""
    spans = os.path.join(run_dir, "spans_session.json")
    layer_spans = os.path.join(run_dir, "spans_layers.json")
    fseed = figure_seed(args.seed)
    if args.workload == "figures_regen":
        own = figures_session(args.seed, figure_passes(args.seconds), run_dir, 1)
        named, samples = figures_metrics(own)
        fig = figures_layer_counts(own)
        attempted, failed, errors = len(own["runs"]), sum(not r["ok"] for r in own["runs"]), own["failures"]
        kind = "serve_warm_mix"
        comp = serve_session(kind, args.seed, COMPANION_SECONDS,
                             os.path.join(run_dir, "companion"), 1, spans)
        d = comp["drive"]
        cache_dir, sim = comp["cache_dir"], "table1"
        comp_errors = d["errors"] if d["failed"] else []
    else:
        kind = args.workload
        own = serve_session(kind, args.seed, args.seconds, run_dir, 1, spans)
        named, samples = serve_metrics(kind, own)
        d = own["drive"]
        attempted, failed, errors = d["attempted"], d["failed"], d["errors"]
        comp = figures_session(args.seed, 1, os.path.join(run_dir, "companion"), 1)
        fig = figures_layer_counts(comp)
        cache_dir, sim = own["cache_dir"], "serve"
        comp_errors = comp["failures"]
    if comp_errors:
        errors = list(errors) + ["companion session: %s" % e for e in comp_errors]
        failed += 1
    layers = perfbench(
        "layers", "--serve", kind, "--seed", str(args.seed),
        "--ops", ",".join(str(n) for n in d["ops_per_conn"]),
        "--cache", cache_dir, "--work-dir", os.path.join(run_dir, "layers"),
        "--table1-seed", str(fseed), "--sim", sim, "--spans", layer_spans,
    )
    per_layer, detail = {}, {}
    per_layer.update(serve_layer_session(d))
    per_layer.update(fig)
    for name, v in layers.items():
        if "reps" in v:
            detail[name] = spread(v["reps"])
            per_layer[name] = detail[name]["median"]
        else:
            per_layer[name] = v["value"]
    samples["layer_source"] = {
        "serve": "own session" if kind == args.workload else "companion serve_warm_mix session",
        "figures": "own passes" if args.workload == "figures_regen" else "companion figure pass",
    }
    return per_layer, detail, named, samples, attempted, failed, errors


def result_line(correct, attempted, failed, metrics, declared):
    """The final JSON object; every declared metric must be present."""
    missing = [name for name in declared if name not in metrics]
    if missing:
        raise BenchError("metrics not measured: " + ", ".join(missing))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    try:
        build()
        prov = provenance(args)
        tag = "%s_s%d%s" % (args.workload, args.seed, "_trace" if args.trace else "")
        run_dir = fresh(OUT, tag)
        if args.trace:
            metrics, detail, named, samples, attempted, failed, errors = traced(args, run_dir)
            declared = PER_LAYER
        else:
            named, samples, attempted, failed, errors = untraced(args, run_dir)
            metrics, detail = named, {}
            declared = FIGURE_END_TO_END if args.workload == "figures_regen" else END_TO_END
    except BenchError as e:
        log("perfbench: %s" % e)
        return 2

    for name, value in named.items():
        shown = "n/a" if value is None else "%.6g" % value
        print("%-18s %-20s %14s %s" % (args.workload, name, shown, UNITS[name]))
    for e in errors:
        log("error: %s" % e)
    correct = failed == 0
    try:
        line = result_line(correct, attempted, failed, metrics, declared)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 2
    record = dict(line, provenance=prov, errors=errors, samples=samples,
                  named={k: {"value": v, "unit": UNITS[k]} for k, v in named.items()},
                  layer_quartiles=detail)
    with open(os.path.join(OUT, "BENCH_%s.json" % tag), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    # The run's caches and artifacts are not kept; spans and the record are.
    for entry in os.listdir(run_dir):
        path = os.path.join(run_dir, entry)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
    for name, m in line["metrics"].items():
        print("%-18s %-28s %14.6g %s" % (args.workload, name, m["value"], m["unit"]))
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
