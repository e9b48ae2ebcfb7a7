//! Criterion micro-benchmarks of the substrate crates: simplex solves,
//! Hopcroft–Karp, Hungarian, König edge coloring.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fss_lp::{Cmp, LpBuilder};
use fss_matching::{edge_coloring, max_cardinality_matching, max_weight_matching, BipartiteGraph};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::hint::black_box;

fn random_graph(nl: usize, nr: usize, edges: usize, seed: u64) -> BipartiteGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = BipartiteGraph::new(nl, nr);
    for _ in 0..edges {
        g.add_edge(rng.gen_range(0..nl as u32), rng.gen_range(0..nr as u32));
    }
    g
}

fn bench_simplex(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplex");
    for &size in &[10usize, 30, 60] {
        // A transportation-style LP: size x size variables, 2*size rows.
        group.bench_with_input(BenchmarkId::new("transportation", size), &size, |b, &n| {
            let mut rng = SmallRng::seed_from_u64(7);
            let costs: Vec<f64> = (0..n * n).map(|_| rng.gen_range(1.0..10.0)).collect();
            b.iter(|| {
                let mut lp = LpBuilder::minimize();
                let vars: Vec<_> = costs.iter().map(|&c| lp.var(c)).collect();
                for i in 0..n {
                    let row: Vec<_> = (0..n).map(|j| (vars[i * n + j], 1.0)).collect();
                    lp.constraint(&row, Cmp::Eq, 1.0);
                }
                for j in 0..n {
                    let col: Vec<_> = (0..n).map(|i| (vars[i * n + j], 1.0)).collect();
                    lp.constraint(&col, Cmp::Le, 1.0);
                }
                black_box(lp.solve().unwrap())
            });
        });
    }
    group.finish();
}

fn bench_matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching");
    for &m in &[50usize, 150] {
        let g = random_graph(m, m, m * 4, 11);
        group.bench_with_input(BenchmarkId::new("hopcroft_karp", m), &g, |b, g| {
            b.iter(|| black_box(max_cardinality_matching(g)));
        });
        let weights: Vec<f64> = {
            let mut rng = SmallRng::seed_from_u64(13);
            (0..g.num_edges())
                .map(|_| rng.gen_range(0.0..20.0))
                .collect()
        };
        group.bench_with_input(BenchmarkId::new("hungarian", m), &g, |b, g| {
            b.iter(|| black_box(max_weight_matching(g, &weights)));
        });
    }
    group.finish();
}

fn bench_coloring(c: &mut Criterion) {
    let mut group = c.benchmark_group("koenig");
    for &m in &[50usize, 150] {
        let g = random_graph(m, m, m * 6, 17);
        group.bench_with_input(BenchmarkId::new("edge_coloring", m), &g, |b, g| {
            b.iter(|| black_box(edge_coloring(g)));
        });
    }
    group.finish();
}

fn bench_rounding(c: &mut Criterion) {
    use fss_rounding::{iterative_relaxation, IterativeOptions, RoundingProblem};
    let mut group = c.benchmark_group("rounding");
    group.sample_size(10);
    for &groups_n in &[20usize, 60] {
        // Each group picks one of 3 slots; capacity rows couple them.
        let opts_n = 3usize;
        let num_vars = groups_n * opts_n;
        let groups: Vec<Vec<usize>> = (0..groups_n)
            .map(|g| (g * opts_n..(g + 1) * opts_n).collect())
            .collect();
        let mut rng = SmallRng::seed_from_u64(31);
        let mut capacities = Vec::new();
        for _ in 0..groups_n {
            let mut terms = Vec::new();
            for v in 0..num_vars {
                if rng.gen_bool(0.2) {
                    terms.push((v, 1.0));
                }
            }
            if terms.is_empty() {
                continue;
            }
            let rhs = terms.len() as f64 / opts_n as f64;
            capacities.push((terms, rhs.ceil()));
        }
        let p = RoundingProblem {
            num_vars,
            groups,
            capacities,
        };
        group.bench_with_input(
            BenchmarkId::new("iterative_relaxation", groups_n),
            &p,
            |b, p| {
                b.iter(|| {
                    black_box(iterative_relaxation(p, &IterativeOptions::for_dmax(1)).unwrap())
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_simplex, bench_matching, bench_coloring, bench_rounding
}
criterion_main!(benches);
