//! Criterion: serial vs parallel scenario-sweep throughput.
//!
//! The sweep engine's acceptance bar: on a multi-core host the parallel
//! path must beat the serial one ≥ 2× on the ≥ 20-cell grid while
//! producing bit-identical reports (the identity is asserted here on
//! every measurement, and pinned by `tests/sweep_determinism.rs`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rbbench::sweep::{AsyncGrid, SweepSpec};
use rbsim::par::available_threads;
use std::hint::black_box;

fn grid_spec() -> SweepSpec {
    // 24 cells spanning process counts and interaction densities — the
    // shape of a figure-bin sweep, sized for benchmarking.
    SweepSpec::async_grid(
        "bench-grid",
        1983,
        &AsyncGrid {
            n: vec![2, 3, 4],
            mu: vec![0.7, 1.0],
            lambda: vec![0.25, 0.5, 1.0, 2.0],
            lines: 400,
        },
    )
}

fn bench_sweep(c: &mut Criterion) {
    let spec = grid_spec();
    let threads = available_threads();
    let mut g = c.benchmark_group("scenario_sweep/24_cells");
    g.throughput(Throughput::Elements(spec.cells.len() as u64));
    g.bench_function("serial", |b| b.iter(|| black_box(spec.run(1))));
    g.bench_function(format!("parallel/{threads}_threads"), |b| {
        b.iter(|| black_box(spec.run(threads)))
    });
    g.finish();

    // The speedup must never come at the cost of determinism.
    assert_eq!(spec.run(1).to_json(), spec.run(threads).to_json());
}

fn bench_tiny_cells(c: &mut Criterion) {
    // 4096 cells of a few hundred nanoseconds each: the regime where
    // per-cell dispatch overhead (cursor claims, bookkeeping) is
    // comparable to the work itself.
    use rbbench::sweep::{Metric, SweepCell, Workload};
    struct TinyCell {
        k: u64,
    }
    impl Workload for TinyCell {
        fn label(&self) -> String {
            format!("tiny/{}", self.k)
        }
        fn run(&self, seed: u64) -> Vec<Metric> {
            let mut acc = seed ^ self.k;
            for _ in 0..32 {
                acc = acc
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            vec![Metric::exact("v", acc as f64)]
        }
        fn cache_params(&self) -> Option<String> {
            Some(format!("k={}", self.k))
        }
    }
    let spec = rbbench::sweep::SweepSpec::new(
        "bench-tiny",
        7,
        (0..4096).map(|k| SweepCell::new(TinyCell { k })).collect(),
    );
    let threads = available_threads();
    let mut g = c.benchmark_group("scenario_sweep/4096_tiny_cells");
    g.throughput(Throughput::Elements(4096));
    g.bench_function(format!("parallel/{threads}_threads"), |b| {
        b.iter(|| black_box(spec.run(threads)))
    });
    g.finish();
    assert_eq!(spec.run(1).to_json(), spec.run(threads).to_json());
}

criterion_group!(benches, bench_sweep, bench_tiny_cells);
criterion_main!(benches);
