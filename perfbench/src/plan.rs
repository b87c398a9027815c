//! The request generator: every input a run sends is a pure function of
//! the workload seed.
//!
//! A serve workload is a warm-cache fill (possibly empty) plus one
//! endless op stream per client connection. Streams are iterators, so
//! a run takes as many ops as fit in its window, and a replay that
//! knows how many ops each connection sent regenerates exactly the
//! lines that were on the wire.

use rbbench::sweep::SweepSpec;
use rbserve::protocol::{obj, render};
use rbserve::Request;
use rbsim::{derive_seed, SimRng, StreamId};
use serde::Value;

/// Closed-loop connections per serve workload (sized for a 2-core host).
pub const CONNECTIONS: usize = 2;

/// Sweeps in the warm fill: 4 cells each, 4096 cells in all — four
/// times the server's default hot-tier capacity of 1024 reports.
pub const FILL_SWEEPS: usize = 1024;

/// Zipf exponent of the resubmit popularity law. `rbserve` has no
/// request trace to fit it to; 0.9 lies inside the range published
/// web-cache popularity studies report (README, "Workloads").
const ZIPF_S: f64 = 0.9;

/// Share of warm-mix ops that are fresh-seed submits (cache misses).
const FRESH_SHARE: f64 = 0.04;

/// Share of warm-mix ops that resubmit a filled sweep (the rest are
/// quantile queries).
const RESUBMIT_SHARE: f64 = 0.48;

/// Quantile levels a warm-mix query picks from.
const QUANTILE_P: [f64; 3] = [0.5, 0.9, 0.99];

/// Seeds stay below 2⁵³ so they travel as exact JSON numbers.
const SEED_MASK: u64 = (1 << 53) - 1;

/// The serve workloads a stream can be generated for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Serve {
    /// Zipf resubmits over a warm cache, quantile queries, a few misses.
    WarmMix,
    /// Every submit carries a fresh seed: every cell misses and solves.
    ColdSolve,
}

impl Serve {
    /// Parses a workload name; `None` for a non-serve workload.
    pub fn from_name(name: &str) -> Option<Serve> {
        match name {
            "serve_warm_mix" => Some(Serve::WarmMix),
            "serve_cold_solve" => Some(Serve::ColdSolve),
            _ => None,
        }
    }
}

/// One `async_grid` submit: the cross product of `n` × μ = 1 × `lambda`.
#[derive(Clone, Debug, PartialEq)]
pub struct Sweep {
    /// Sweep name (keys the server's finished-result store).
    pub name: String,
    /// Master seed.
    pub seed: u64,
    /// Process counts.
    pub n: Vec<usize>,
    /// Interaction rates.
    pub lambda: Vec<f64>,
    /// Recovery lines simulated per cell.
    pub lines: usize,
}

impl Sweep {
    /// The submit request line.
    pub fn submit_line(&self) -> String {
        let nums = |xs: Vec<f64>| Value::Seq(xs.into_iter().map(Value::Num).collect());
        render(&obj(vec![
            ("op", Value::Str("submit".into())),
            ("name", Value::Str(self.name.clone())),
            ("seed", Value::Num(self.seed as f64)),
            ("kind", Value::Str("async_grid".into())),
            ("n", nums(self.n.iter().map(|&n| n as f64).collect())),
            ("mu", nums(vec![1.0])),
            ("lambda", nums(self.lambda.clone())),
            ("lines", Value::Num(self.lines as f64)),
            (
                "dist",
                obj(vec![
                    ("lo", Value::Num(0.0)),
                    ("hi", Value::Num(20.0)),
                    ("bins", Value::Num(32.0)),
                ]),
            ),
        ]))
    }

    /// The spec the server builds from this sweep's submit line
    /// (`Request::parse` → `SubmitRequest::build_spec`).
    pub fn spec(&self) -> Result<SweepSpec, String> {
        match Request::parse(&self.submit_line())? {
            Request::Submit(sub) => sub.build_spec(),
            _ => Err(format!("sweep `{}` is not a submit", self.name)),
        }
    }

    /// Cells in the sweep.
    pub fn cells(&self) -> usize {
        self.n.len() * self.lambda.len()
    }

    /// Cell ids in grid order (the server's `n{n}/mu{mu}/lam{λ}` scheme).
    pub fn cell_ids(&self) -> Vec<String> {
        let mut ids = Vec::with_capacity(self.cells());
        for n in &self.n {
            for lambda in &self.lambda {
                ids.push(format!("n{n}/mu1/lam{lambda}"));
            }
        }
        ids
    }
}

/// One client operation and what a correct server answers.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Submit a sweep; `warm` means every cell must be a cache hit,
    /// otherwise every cell must miss.
    Submit {
        /// The sweep.
        sweep: Sweep,
        /// Whether the generator expects the cells to be cached.
        warm: bool,
    },
    /// Quantile query on a sweep this connection already resubmitted.
    Quantile {
        /// The queried sweep.
        sweep: Sweep,
        /// Cell id within it.
        cell: String,
        /// Probability level.
        p: f64,
    },
}

impl Op {
    /// The request line sent for this op.
    pub fn line(&self) -> String {
        match self {
            Op::Submit { sweep, .. } => sweep.submit_line(),
            Op::Quantile { sweep, cell, p } => render(&obj(vec![
                ("op", Value::Str("quantile".into())),
                ("sweep", Value::Str(sweep.name.clone())),
                ("cell", Value::Str(cell.clone())),
                ("metric", Value::Str("X_dist".into())),
                ("p", Value::Num(*p)),
            ])),
        }
    }
}

fn rng(seed: u64, stream: u64) -> SimRng {
    SimRng::new(seed, StreamId(stream))
}

/// `k` distinct picks from `items`, in `items` order.
fn subset<T: Copy>(r: &mut SimRng, items: &[T], k: usize) -> Vec<T> {
    let mut chosen = vec![false; items.len()];
    let mut left = k;
    while left > 0 {
        let i = r.index(items.len());
        if !chosen[i] {
            chosen[i] = true;
            left -= 1;
        }
    }
    items
        .iter()
        .zip(chosen)
        .filter_map(|(&x, c)| c.then_some(x))
        .collect()
}

/// The warm workload's fill: [`FILL_SWEEPS`] small 4-cell sweeps.
pub fn fill_sweeps(seed: u64) -> Vec<Sweep> {
    let mut r = rng(seed, 1);
    (0..FILL_SWEEPS)
        .map(|k| Sweep {
            name: format!("w{k}"),
            seed: derive_seed(seed, k as u64) & SEED_MASK,
            n: vec![3, 4],
            lambda: subset(&mut r, &[0.25, 0.5, 0.75], 2),
            lines: [30, 40, 50][r.index(3)],
        })
        .collect()
}

/// A fresh-seed sweep for the cold-solve workload: n ⊂ {3, 4, 6},
/// λ ⊂ {0.25, 0.5}, μ = 1, a few hundred lines (1 to 4 cells).
fn cold_sweep(r: &mut SimRng, name: String) -> Sweep {
    let n_count = 1 + r.index(2);
    let l_count = 1 + r.index(2);
    Sweep {
        name,
        seed: r.next_u64() & SEED_MASK,
        n: subset(r, &[3, 4, 6], n_count),
        lambda: subset(r, &[0.25, 0.5], l_count),
        lines: [150, 200, 300][r.index(3)],
    }
}

/// One connection's endless op stream.
pub struct Stream {
    kind: Serve,
    conn: usize,
    rng: SimRng,
    /// Fill sweeps by popularity rank (a seeded permutation).
    ranked: Vec<Sweep>,
    /// Cumulative Zipf weights over ranks.
    zipf_cdf: Vec<f64>,
    /// Sweeps this connection has resubmitted so far.
    resubmitted: Vec<Sweep>,
    fresh: usize,
}

impl Stream {
    /// The stream of connection `conn` for `kind` under `seed`.
    pub fn new(kind: Serve, seed: u64, conn: usize) -> Stream {
        let mut ranked = Vec::new();
        let mut zipf_cdf = Vec::new();
        if kind == Serve::WarmMix {
            ranked = fill_sweeps(seed);
            // Which sweeps are popular is itself seeded (Fisher–Yates).
            let mut r = rng(seed, 2);
            for i in (1..ranked.len()).rev() {
                ranked.swap(i, r.index(i + 1));
            }
            let mut acc = 0.0;
            for k in 1..=ranked.len() {
                acc += (k as f64).powf(-ZIPF_S);
                zipf_cdf.push(acc);
            }
        }
        Stream {
            kind,
            conn,
            rng: rng(seed, 100 + conn as u64),
            ranked,
            zipf_cdf,
            resubmitted: Vec::new(),
            fresh: 0,
        }
    }

    fn fresh_sweep(&mut self, prefix: &str) -> Sweep {
        let name = format!("{prefix}{}-{}", self.conn, self.fresh);
        self.fresh += 1;
        cold_sweep(&mut self.rng, name)
    }

    fn zipf_pick(&mut self) -> Sweep {
        let total = *self.zipf_cdf.last().expect("warm streams rank the fill");
        let u = self.rng.uniform() * total;
        let rank = self.zipf_cdf.partition_point(|&c| c <= u);
        self.ranked[rank.min(self.ranked.len() - 1)].clone()
    }
}

impl Iterator for Stream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.kind == Serve::ColdSolve {
            let sweep = self.fresh_sweep("c");
            return Some(Op::Submit { sweep, warm: false });
        }
        let u = self.rng.uniform();
        if u < FRESH_SHARE {
            let sweep = self.fresh_sweep("f");
            return Some(Op::Submit { sweep, warm: false });
        }
        if u < FRESH_SHARE + RESUBMIT_SHARE || self.resubmitted.is_empty() {
            let sweep = self.zipf_pick();
            self.resubmitted.push(sweep.clone());
            return Some(Op::Submit { sweep, warm: true });
        }
        let sweep = self.resubmitted[self.rng.index(self.resubmitted.len())].clone();
        let ids = sweep.cell_ids();
        let cell = ids[self.rng.index(ids.len())].clone();
        let p = QUANTILE_P[self.rng.index(QUANTILE_P.len())];
        Some(Op::Quantile { sweep, cell, p })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(kind: Serve, seed: u64) -> String {
        let mut out = String::new();
        for conn in 0..CONNECTIONS {
            for op in Stream::new(kind, seed, conn).take(500) {
                out.push_str(&op.line());
                out.push('\n');
            }
        }
        if kind == Serve::WarmMix {
            for s in fill_sweeps(seed) {
                out.push_str(&s.submit_line());
                out.push('\n');
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_a_byte_identical_request_stream() {
        for kind in [Serve::WarmMix, Serve::ColdSolve] {
            assert_eq!(wire(kind, 7), wire(kind, 7));
        }
    }

    #[test]
    fn different_seeds_give_different_request_streams() {
        for kind in [Serve::WarmMix, Serve::ColdSolve] {
            assert_ne!(wire(kind, 7), wire(kind, 8));
        }
    }

    #[test]
    fn every_generated_request_parses_and_builds() {
        for kind in [Serve::WarmMix, Serve::ColdSolve] {
            for op in Stream::new(kind, 3, 0).take(300) {
                let req = Request::parse(&op.line()).expect("parses");
                if let Op::Submit { sweep, .. } = &op {
                    let spec = sweep.spec().expect("valid grid");
                    let ids: Vec<_> = spec.cells.iter().map(|c| c.id.clone()).collect();
                    assert_eq!(ids, sweep.cell_ids());
                } else {
                    assert!(matches!(req, Request::Quantile { .. }));
                }
            }
        }
    }

    #[test]
    fn warm_mix_has_the_documented_shape() {
        let ops: Vec<Op> = Stream::new(Serve::WarmMix, 11, 0).take(4000).collect();
        let count = |f: &dyn Fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count() as f64;
        let fresh = count(&|o| matches!(o, Op::Submit { warm: false, .. })) / 4000.0;
        let quant = count(&|o| matches!(o, Op::Quantile { .. })) / 4000.0;
        assert!((0.02..0.07).contains(&fresh), "fresh share {fresh}");
        assert!((0.4..0.56).contains(&quant), "quantile share {quant}");
        let cells: usize = fill_sweeps(11).iter().map(Sweep::cells).sum();
        assert_eq!(cells, 4096);
    }
}
