//! The resume contract, end to end: an interrupted sweep resumes as a
//! warm re-run against the content-addressed result cache.
//!
//! Four layers of guarantee, mirroring `rbbench::cache`'s recovery
//! rules:
//!
//! 1. **Replay equivalence** — a sweep re-run against its cache (cold,
//!    complete, truncated, torn, or partially corrupt) reassembles a
//!    `SweepReport` whose JSON is byte-identical to an uninterrupted
//!    serial run, and the re-run *skips* stored cells (verified by a
//!    run-count probe workload and the hit/miss counts, not by timing).
//! 2. **Corruption and spec changes** — a truncated tail entry and a
//!    flipped checksum bit cleanly re-run the affected cells; a changed
//!    sweep name, master seed, cell count, cell id or seed index costs
//!    exactly the cache misses its changed cells imply, with bytes
//!    equal to that spec's own serial run; a corrupt header is refused
//!    with a clear error. All damage goes through
//!    [`rbruntime::faultio::apply_mangle`] — the same corruption
//!    vocabulary the seeded chaos matrix (`chaos_matrix.rs`) sweeps.
//! 3. **Kill realism** — a release-only test SIGKILLs the
//!    `sweep_resume_probe` binary mid-sweep (a real child process, not
//!    a simulated panic), re-runs it against the same `--cache`, and
//!    byte-diffs the artifact against an uninterrupted run — the CI
//!    `sweep-resume` job's gate.
//! 4. **Refinement resume** — an adaptive refinement killed mid-round
//!    (the interrupted round's entries partly written, later rounds'
//!    never) resumes byte-for-byte: finished cells hit, and
//!    re-discovered midpoints land on their path-determined seed
//!    indices, so only the missing cells re-run.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rbbench::cache::{wal_stats, CacheError, ResultCache, CACHE_FILE};
use rbbench::sweep::{AsyncGrid, CachedSweep, Metric, SweepCell, SweepSpec, Workload};
use rbbench::workloads::{AsyncIntervals, DistSpec};
use rbmarkov::paper::AsyncParams;
use rbruntime::faultio::{apply_mangle, Mangle};
use rbruntime::wal::FrameScan;

/// A fresh scratch directory per test (removed up front, so reruns are
/// clean even after a crash).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rbbench-sweep-resume-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `spec` through the cache at `dir` (opened fresh, as a new
/// process would).
fn run_cached(spec: &SweepSpec, threads: usize, dir: &Path) -> CachedSweep {
    let cache = ResultCache::open(dir).expect("open cache");
    spec.run_cached(threads, &Mutex::new(cache))
}

/// Byte offset where each entry frame of the cache WAL at `dir`
/// starts, plus the end of the intact prefix.
fn entry_offsets(dir: &Path) -> (Vec<usize>, usize) {
    let bytes = std::fs::read(dir.join(CACHE_FILE)).expect("read cache");
    let mut scan = FrameScan::new(&bytes);
    scan.next().expect("cache header");
    let mut offsets = Vec::new();
    loop {
        let at = scan.offset();
        if scan.next().is_none() {
            return (offsets, at);
        }
        offsets.push(at);
    }
}

/// Truncates the cache WAL at `dir` to its header plus the first `k`
/// entries — the disk state a kill after the `k`-th append leaves.
fn keep_entries(dir: &Path, k: usize) {
    let (offsets, end) = entry_offsets(dir);
    let len = offsets.get(k).copied().unwrap_or(end);
    apply_mangle(&dir.join(CACHE_FILE), &Mangle::Truncate { len: len as u64 }).unwrap();
}

/// Deterministic echo workload that counts how many times it actually
/// ran — the probe that distinguishes "served from the cache" from
/// "recomputed". Cells differ only by their derived seed.
#[derive(Clone)]
struct CountingEcho {
    runs: Arc<AtomicUsize>,
}

impl Workload for CountingEcho {
    fn label(&self) -> String {
        "counting-echo".into()
    }
    fn run(&self, seed: u64) -> Vec<Metric> {
        self.runs.fetch_add(1, Ordering::Relaxed);
        vec![
            Metric::exact("seed_lo32", (seed & 0xFFFF_FFFF) as f64),
            Metric::exact("seed_hi32", (seed >> 32) as f64),
        ]
    }
    fn cache_params(&self) -> Option<String> {
        Some(String::new())
    }
}

fn counting_spec(name: &str, cells: usize, runs: &Arc<AtomicUsize>) -> SweepSpec {
    SweepSpec::new(
        name,
        4242,
        (0..cells)
            .map(|k| {
                SweepCell::named(
                    format!("c{k}"),
                    CountingEcho {
                        runs: Arc::clone(runs),
                    },
                )
            })
            .collect(),
    )
}

/// A small but *real* sweep — simulation cells with a distribution
/// metric — so replay fidelity is proven on the payloads the figure
/// bins actually store.
fn sim_spec() -> SweepSpec {
    let grid = AsyncGrid {
        n: vec![2, 3],
        mu: vec![1.0],
        lambda: vec![0.5, 1.0],
        lines: 120,
    };
    let mut spec = SweepSpec::async_grid("resume-sim", 7, &grid);
    let params = AsyncParams::symmetric(3, 1.0, 0.5);
    spec.cells.push(SweepCell::named(
        "with-dist",
        AsyncIntervals::new(params, 150).with_distribution(DistSpec::new(0.0, 8.0, 16)),
    ));
    spec
}

#[test]
fn fresh_then_warm_cache_matches_serial_bytes() {
    let dir = scratch("fresh");
    let spec = sim_spec();
    let reference = spec.run(1).to_json();

    // Cold cache, parallel run: identical bytes.
    let first = run_cached(&spec, 4, &dir);
    assert_eq!((first.hits, first.misses), (0, spec.cells.len()));
    assert_eq!(first.report.to_json(), reference);

    // Complete cache: pure replay, still identical (including the
    // distribution payload's bit-exact f64s).
    let warm = run_cached(&spec, 4, &dir);
    assert_eq!((warm.hits, warm.misses), (spec.cells.len(), 0));
    assert_eq!(warm.report.to_json(), reference);
}

#[test]
fn resume_skips_completed_cells() {
    let dir = scratch("skip");
    let cells = 8;

    let runs = Arc::new(AtomicUsize::new(0));
    let full = run_cached(&counting_spec("count", cells, &runs), 1, &dir);
    assert_eq!(runs.load(Ordering::Relaxed), cells, "all cells ran once");
    assert_eq!(wal_stats(&dir).unwrap().entries, cells);

    // Keep only the first 3 entries — as if the run died after cell 2.
    let keep = 3;
    keep_entries(&dir, keep);

    let runs2 = Arc::new(AtomicUsize::new(0));
    let resumed = run_cached(&counting_spec("count", cells, &runs2), 2, &dir);
    assert_eq!(
        runs2.load(Ordering::Relaxed),
        cells - keep,
        "resume must re-run exactly the missing cells"
    );
    assert_eq!((resumed.hits, resumed.misses), (keep, cells - keep));
    assert_eq!(resumed.report.to_json(), full.report.to_json());
    assert_eq!(wal_stats(&dir).unwrap().entries, cells, "cache refilled");
}

#[test]
fn truncated_tail_entry_is_discarded_and_rerun() {
    let dir = scratch("torn");
    let cells = 6;

    let runs = Arc::new(AtomicUsize::new(0));
    let full = run_cached(&counting_spec("count", cells, &runs), 1, &dir);

    // Tear the last entry mid-frame (as SIGKILL mid-write would).
    let (offsets, end) = entry_offsets(&dir);
    let torn_len = offsets[cells - 1] + 5;
    apply_mangle(
        &dir.join(CACHE_FILE),
        &Mangle::Truncate {
            len: torn_len as u64,
        },
    )
    .unwrap();
    assert_eq!(wal_stats(&dir).unwrap().entries, cells - 1);
    assert!(torn_len < end, "torn bytes present");

    let runs2 = Arc::new(AtomicUsize::new(0));
    let resumed = run_cached(&counting_spec("count", cells, &runs2), 1, &dir);
    assert_eq!(
        runs2.load(Ordering::Relaxed),
        1,
        "only the torn cell re-ran"
    );
    assert_eq!(resumed.misses, 1);
    assert_eq!(resumed.report.to_json(), full.report.to_json());
    let (offsets, _) = entry_offsets(&dir);
    assert_eq!(
        offsets.len(),
        cells,
        "torn tail truncated, fresh entry appended"
    );
}

#[test]
fn flipped_checksum_byte_reruns_the_affected_cells() {
    let dir = scratch("flip");
    let cells = 6;

    let runs = Arc::new(AtomicUsize::new(0));
    let full = run_cached(&counting_spec("count", cells, &runs), 1, &dir);

    // Flip one checksum byte of entry 2: entries 2.. are dropped (the
    // scan cannot trust anything past an unverifiable frame), their
    // cells re-run, and the report still matches.
    let (offsets, _) = entry_offsets(&dir);
    apply_mangle(
        &dir.join(CACHE_FILE),
        &Mangle::FlipBit {
            offset: offsets[2] as u64 + 5,
            bit: 0,
        },
    )
    .unwrap();

    let runs2 = Arc::new(AtomicUsize::new(0));
    let resumed = run_cached(&counting_spec("count", cells, &runs2), 3, &dir);
    assert_eq!(
        runs2.load(Ordering::Relaxed),
        cells - 2,
        "cells 2.. re-ran; cells 0 and 1 were hits"
    );
    assert_eq!((resumed.hits, resumed.misses), (2, cells - 2));
    assert_eq!(resumed.report.to_json(), full.report.to_json());
}

#[test]
fn changed_specs_cost_only_the_misses_their_changes_imply() {
    let cells = 4;
    let runs = Arc::new(AtomicUsize::new(0));

    // Each case starts from a cache filled by the original spec, then
    // runs the changed spec: the hit/miss split follows from which
    // `(label, params, derived seed)` keys changed, and the bytes are
    // the changed spec's own serial run.
    let expect = |case: &str, spec: SweepSpec, hits: usize, misses: usize| {
        let dir = scratch(&format!("changed-{case}"));
        run_cached(&counting_spec("count", cells, &runs), 1, &dir);
        let out = run_cached(&spec, 2, &dir);
        assert_eq!((out.hits, out.misses), (hits, misses), "{case}");
        assert_eq!(out.report.to_json(), spec.run(1).to_json(), "{case}");
    };

    // Keys bind content, not the sweep's name: every cell hits, and
    // hits carry the new report's name.
    expect("name", counting_spec("other", cells, &runs), cells, 0);

    // A new master seed changes every derived seed: every cell misses.
    let mut reseeded = counting_spec("count", cells, &runs);
    reseeded.master_seed = 4243;
    expect("master-seed", reseeded, 0, cells);

    // One more cell: the old ones hit, the new one is solved.
    expect(
        "cell-count",
        counting_spec("count", cells + 1, &runs),
        cells,
        1,
    );

    // A renamed cell computes the same thing: it hits, re-labelled.
    let mut renamed = counting_spec("count", cells, &runs);
    renamed.cells[1].id = "renamed".into();
    expect("cell-id", renamed, cells, 0);

    // One cell moved to another seed-derivation index: only it misses.
    let mut shifted = counting_spec("count", cells, &runs);
    shifted.cells[1].seed_index = Some(1 << 40);
    expect("seed-index", shifted, cells - 1, 1);
}

#[test]
fn corrupt_header_is_refused() {
    let dir = scratch("header");
    let runs = Arc::new(AtomicUsize::new(0));
    run_cached(&counting_spec("count", 3, &runs), 1, &dir);

    // Flip a bit inside the header frame: the file can no longer be
    // tied to this cache format, so opening must refuse, not guess.
    let path = dir.join(CACHE_FILE);
    apply_mangle(&path, &Mangle::FlipBit { offset: 13, bit: 7 }).unwrap();
    let before = std::fs::read(&path).unwrap();

    match ResultCache::open(&dir) {
        Err(e @ CacheError::Refused { .. }) => {
            let msg = e.to_string();
            assert!(msg.contains("header"), "{msg}");
            assert!(msg.contains("delete the cache"), "{msg}");
        }
        other => panic!("expected Refused, got {other:?}"),
    }
    assert_eq!(std::fs::read(&path).unwrap(), before, "file left untouched");
}

#[test]
fn kill_mid_refinement_resumes_byte_identically() {
    use rbbench::adaptive::AdaptiveSpec;

    // Two discontinuities, one per initial interval: every refinement
    // round bisects exactly the two gaps bracketing them, so each round
    // past the coarse sweep has two cells — enough to stop one round
    // after its first entry.
    fn profile(x: f64) -> f64 {
        f64::from(u8::from(x >= 0.3) + u8::from(x >= 1.7))
    }

    #[derive(Clone)]
    struct CountingProfile {
        x: f64,
        runs: Arc<AtomicUsize>,
    }
    impl Workload for CountingProfile {
        fn label(&self) -> String {
            "counting-profile".into()
        }
        fn run(&self, seed: u64) -> Vec<Metric> {
            self.runs.fetch_add(1, Ordering::Relaxed);
            vec![
                Metric::exact("f", profile(self.x)),
                Metric::exact("seed_lo32", (seed & 0xFFFF_FFFF) as f64),
            ]
        }
        fn cache_params(&self) -> Option<String> {
            Some(rbcore::workload::canon_f64(self.x))
        }
    }

    let mk = |runs: &Arc<AtomicUsize>| {
        let runs = Arc::clone(runs);
        AdaptiveSpec::new(
            "adaptive-kill",
            0xADA5,
            vec![0.0, 1.0, 2.0],
            "f",
            0.5,
            16,
            Box::new(move |x| {
                Box::new(CountingProfile {
                    x,
                    runs: Arc::clone(&runs),
                })
            }),
        )
        .with_max_depth(4)
    };
    let drive_cached = |runs: &Arc<AtomicUsize>, threads: usize, dir: &Path| {
        mk(runs).drive(|round| run_cached(round, threads, dir).report)
    };

    // Uninterrupted, uncached reference.
    let reference = mk(&Arc::new(AtomicUsize::new(0))).run(1).to_json();

    // Full cached run: rounds r0 (3 cells) then r1..r4 (2 cells each,
    // one per discontinuity) until the depth cap converges.
    let dir = scratch("adaptive-kill");
    let runs = Arc::new(AtomicUsize::new(0));
    let full = drive_cached(&runs, 2, &dir);
    assert_eq!(full.to_json(), reference);
    assert!(full.converged);
    assert_eq!(full.rounds.len(), 5);
    assert_eq!(runs.load(Ordering::Relaxed), 11, "3 + 4 rounds x 2 cells");

    // Reproduce the disk state a SIGKILL during round 2 leaves behind
    // (the process-level realism of exactly this state is proven by
    // `kill_mid_sweep_then_resume_is_byte_identical` below): r0 and r1
    // complete (5 entries), r2 stopped after its first entry, r3 and
    // r4 never begun.
    keep_entries(&dir, 6);

    // Resume at a different thread count: finished cells hit, the
    // rest re-run, and the report reproduces the reference bytes.
    let runs2 = Arc::new(AtomicUsize::new(0));
    let resumed = drive_cached(&runs2, 4, &dir);
    assert_eq!(
        resumed.to_json(),
        reference,
        "resumed refinement diverged from the uninterrupted run"
    );
    assert_eq!(
        runs2.load(Ordering::Relaxed),
        5,
        "resume must re-run exactly r2's missing cell plus r3 and r4"
    );
    assert_eq!(wal_stats(&dir).unwrap().entries, 11, "cache refilled");
}

/// The `[cache] <sweep>: H hits, M misses, U uncacheable` counts a
/// figure binary printed on stderr.
fn cache_line_counts(stderr: &[u8], sweep: &str) -> (usize, usize, usize) {
    let text = String::from_utf8_lossy(stderr);
    let prefix = format!("[cache] {sweep}: ");
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` line in stderr:\n{text}"));
    let counts: Vec<usize> = line
        .split(", ")
        .map(|part| part.split(' ').next().unwrap().parse().unwrap())
        .collect();
    assert!(line.ends_with(" uncacheable"), "{line}");
    (counts[0], counts[1], counts[2])
}

/// The CI gate: SIGKILL a real sweep process partway, re-run it
/// against the same cache, and byte-diff the artifact against an
/// uninterrupted run. Release-only — debug builds simulate enough
/// cells/second to make the kill window unreliable, and CI's
/// `sweep-resume` job runs the release suite.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "kill/resume gate runs in release (CI sweep-resume job)"
)]
fn kill_mid_sweep_then_resume_is_byte_identical() {
    use std::process::{Command, Stdio};

    let bin = env!("CARGO_BIN_EXE_sweep_resume_probe");
    let base = scratch("kill");
    let ref_out = base.join("reference");
    let res_out = base.join("resumed");
    let cache_dir = base.join("cache");
    let lines = "60000";
    let cells = 24;

    // Reference: uninterrupted, serial, no cache.
    let status = Command::new(bin)
        .args(["--out", ref_out.to_str().unwrap(), "--threads", "1"])
        .env("RB_PROBE_LINES", lines)
        .stdout(Stdio::null())
        .status()
        .expect("spawn reference run");
    assert!(status.success(), "reference run failed");

    // Cached run, killed once the cache shows progress but (we hope)
    // before completion. SIGKILL, not SIGTERM: no destructors, exactly
    // the preemption resume exists for.
    let cached = |threads: &str| {
        let mut cmd = Command::new(bin);
        cmd.args([
            "--out",
            res_out.to_str().unwrap(),
            "--cache",
            cache_dir.to_str().unwrap(),
            "--threads",
            threads,
        ])
        .env("RB_PROBE_LINES", lines)
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
        cmd
    };
    let mut child = cached("2").spawn().expect("spawn cached run");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let mut finished_early = false;
    loop {
        if wal_stats(&cache_dir).is_ok_and(|s| s.entries >= 3) {
            break;
        }
        if child.try_wait().expect("try_wait").is_some() {
            finished_early = true;
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "cached run made no progress within 120 s"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let at_kill = if finished_early {
        eprintln!("note: probe finished before the kill window; resume degrades to pure replay");
        cells
    } else {
        child.kill().expect("SIGKILL the sweep");
        child.wait().expect("reap the killed sweep");
        let at_kill = wal_stats(&cache_dir).expect("cache after kill").entries;
        assert!(
            at_kill < cells,
            "kill landed after completion; probe too fast for the gate"
        );
        at_kill
    };

    // Resume (different thread count on purpose) and byte-diff. Every
    // entry intact at the kill is a hit; exactly the rest are solved.
    let resumed = cached("4").output().expect("spawn resumed run");
    assert!(resumed.status.success(), "resumed run failed");
    assert_eq!(
        cache_line_counts(&resumed.stderr, "sweep_resume_probe"),
        (at_kill, cells - at_kill, 0),
        "resume must serve every stored cell and solve only the rest"
    );
    let reference = std::fs::read(ref_out.join("sweep_resume_probe.json")).unwrap();
    let resumed = std::fs::read(res_out.join("sweep_resume_probe.json")).unwrap();
    assert!(
        reference == resumed,
        "resumed artifact diverged from the uninterrupted run ({} vs {} bytes)",
        reference.len(),
        resumed.len()
    );
    assert_eq!(
        wal_stats(&cache_dir).unwrap().entries,
        cells,
        "cache holds every cell after resume"
    );
}
