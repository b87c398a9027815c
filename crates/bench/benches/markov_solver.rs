//! Criterion: Markov-solver scaling.
//!
//! How expensive are the analytic solves as the process count grows?
//! The full chain is 2ⁿ+1 states — dense LU through n = 10, matrix-free
//! Krylov beyond — the lumped chain n+2 states, and the density solve
//! is uniformization over the full chain. The `mean_interval/strategy`
//! group races dense LU against the matrix-free path on identical
//! models at n = 8 and 10, where the auto dispatch hands over, then
//! follows matrix-free alone to n = 16 (the CI perf-smoke job runs
//! this group on every PR).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rbmarkov::paper::{mean_interval_symmetric, AsyncParams, SplitChain};
use rbmarkov::solver::SolverStrategy;
use std::hint::black_box;

fn bench_mean_interval_full(c: &mut Criterion) {
    let mut g = c.benchmark_group("mean_interval/full_chain");
    for n in [3usize, 5, 7, 9] {
        let params = AsyncParams::symmetric(n, 1.0, 1.0);
        g.bench_with_input(BenchmarkId::from_parameter(n), &params, |b, p| {
            b.iter(|| black_box(p.mean_interval()))
        });
    }
    g.finish();
}

fn bench_mean_interval_lumped(c: &mut Criterion) {
    let mut g = c.benchmark_group("mean_interval/lumped_chain");
    // Hold ρ = 2 as n grows (the Figure 5 setup). Even at fixed ρ,
    // E[X] grows exponentially in n, so n ≳ 40 leaves f64 range — the
    // sweep stops at 27 (vs the full chain's practical cap of ~12).
    for n in [3usize, 9, 18, 27] {
        let lambda = 2.0 / (n - 1) as f64;
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, move |b, &n| {
            b.iter(|| black_box(mean_interval_symmetric(n, 1.0, lambda)))
        });
    }
    g.finish();
}

fn bench_solver_strategies(c: &mut Criterion) {
    // Identical models (ρ = 1), two backends. Dense LU stops at its
    // n = 10 cap — beyond it the O(S³) factorisation is the problem —
    // while the matrix-free operator continues to n = 16 here (n = 20
    // lives in the fig2/fig3 sweeps and the matfree_scale gates).
    let mut g = c.benchmark_group("mean_interval/strategy");
    let rho_one = |n: usize| AsyncParams::symmetric(n, 1.0, 1.0 / (n as f64 - 1.0));
    for n in [8usize, 10] {
        g.bench_with_input(BenchmarkId::new("dense", n), &rho_one(n), |b, p| {
            b.iter(|| black_box(p.mean_interval_with(SolverStrategy::Dense)))
        });
    }
    for n in [8usize, 10, 12, 13, 14, 16] {
        g.bench_with_input(BenchmarkId::new("matrix_free", n), &rho_one(n), |b, p| {
            b.iter(|| black_box(p.mean_interval_with(SolverStrategy::MatrixFree)))
        });
    }
    g.finish();
}

fn bench_density(c: &mut Criterion) {
    let params = AsyncParams::three((1.0, 1.0, 1.0), (1.0, 1.0, 1.0));
    let ts: Vec<f64> = (0..50).map(|k| k as f64 * 0.1).collect();
    c.bench_function("interval_density/n3_50pts", |b| {
        b.iter(|| black_box(params.interval_density(&ts)))
    });
}

fn bench_split_chain(c: &mut Criterion) {
    let params = AsyncParams::symmetric(4, 1.0, 1.0);
    c.bench_function("split_chain/build_and_count_n4", |b| {
        b.iter(|| {
            let sc = SplitChain::build(&params, 0);
            black_box(sc.expected_rp_count(true))
        })
    });
}

criterion_group!(
    benches,
    bench_mean_interval_full,
    bench_mean_interval_lumped,
    bench_solver_strategies,
    bench_density,
    bench_split_chain
);
criterion_main!(benches);
