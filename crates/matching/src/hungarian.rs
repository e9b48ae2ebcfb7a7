#![allow(clippy::needless_range_loop)] // parallel-array index loops are clearer here
//! Maximum-weight bipartite matching via the Hungarian algorithm
//! (Jonker–Volgenant shortest-augmenting-path formulation, `O(k^3)` for
//! `k = max(nl, nr)`).
//!
//! The differential-test oracle for the **MinRTime** and **MaxWeight**
//! heuristics of §5.2. Those policies run on [`crate::HungarianScratch`]
//! through `fss_online::weighted`; their tests check each round's matched
//! weight against this from-scratch optimum.

use crate::graph::BipartiteGraph;

/// Maximum-weight matching for nonnegative edge weights.
///
/// `weights[e]` is the weight of edge `e`. The matching maximizes total
/// weight; leaving a vertex unmatched is always allowed (weight 0), so
/// zero-weight edges may or may not appear in the result — callers that
/// want cardinality as a tie-breaker should add a small uniform bonus to
/// every weight (the online heuristics do exactly that).
///
/// Among parallel edges the heaviest one represents the pair. Returns the
/// chosen edge ids.
pub fn max_weight_matching(g: &BipartiteGraph, weights: &[f64]) -> Vec<usize> {
    assert_eq!(weights.len(), g.num_edges(), "one weight per edge");
    assert!(
        weights.iter().all(|&w| w >= 0.0),
        "weights must be nonnegative"
    );
    let (nl, nr) = (g.nl(), g.nr());
    let k = nl.max(nr);
    if k == 0 || g.num_edges() == 0 {
        return Vec::new();
    }

    // Dense weight matrix: best parallel edge per pair; 0 elsewhere
    // (matching a pair with no edge is harmless: weight 0 = unmatched).
    // `w` and `best_edge` are updated together from the same comparison,
    // so the matrix value and its representative edge can never disagree;
    // among equal-weight parallel edges the first occurrence wins.
    let mut w = vec![vec![0.0f64; k]; k];
    let mut best_edge = vec![vec![usize::MAX; k]; k];
    for (e, &(u, v)) in g.edges().iter().enumerate() {
        let (u, v) = (u as usize, v as usize);
        if best_edge[u][v] == usize::MAX || weights[e] > weights[best_edge[u][v]] {
            best_edge[u][v] = e;
            w[u][v] = weights[e];
        }
    }

    // Hungarian algorithm on cost = -weight (1-indexed arrays).
    let inf = f64::INFINITY;
    let n = k;
    let m = k;
    let mut u_pot = vec![0.0; n + 1];
    let mut v_pot = vec![0.0; m + 1];
    let mut p = vec![0usize; m + 1]; // row assigned to column j
    let mut way = vec![0usize; m + 1];
    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![inf; m + 1];
        let mut used = vec![false; m + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = inf;
            let mut j1 = 0usize;
            for j in 1..=m {
                if !used[j] {
                    let cost = -w[i0 - 1][j - 1];
                    let cur = cost - u_pot[i0] - v_pot[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
            }
            for j in 0..=m {
                if used[j] {
                    u_pot[p[j]] += delta;
                    v_pot[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut result = Vec::new();
    for j in 1..=m {
        let i = p[j];
        if i == 0 {
            continue;
        }
        let (row, col) = (i - 1, j - 1);
        if row < nl && col < nr && best_edge[row][col] != usize::MAX && w[row][col] > 0.0 {
            result.push(best_edge[row][col]);
        }
    }
    debug_assert!(g.is_matching(&result));
    result
}

/// Total weight of a set of edges.
pub fn total_weight(edge_ids: &[usize], weights: &[f64]) -> f64 {
    edge_ids.iter().map(|&e| weights[e]).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weight_of(g: &BipartiteGraph, weights: &[f64]) -> f64 {
        total_weight(&max_weight_matching(g, weights), weights)
    }

    #[test]
    fn picks_heavier_of_two_conflicting_edges() {
        let g = BipartiteGraph::from_edges(1, 2, vec![(0, 0), (0, 1)]);
        let m = max_weight_matching(&g, &[1.0, 5.0]);
        assert_eq!(m, vec![1]);
    }

    #[test]
    fn takes_two_light_over_one_heavy() {
        // (0,0)=3 conflicts with both (0,1)=2 and (1,0)=2; 2+2 > 3.
        let g = BipartiteGraph::from_edges(2, 2, vec![(0, 0), (0, 1), (1, 0)]);
        let m = max_weight_matching(&g, &[3.0, 2.0, 2.0]);
        let w = total_weight(&m, &[3.0, 2.0, 2.0]);
        assert!((w - 4.0).abs() < 1e-9);
        assert!(g.is_matching(&m));
    }

    #[test]
    fn parallel_edges_choose_heaviest() {
        let g = BipartiteGraph::from_edges(1, 1, vec![(0, 0), (0, 0), (0, 0)]);
        let m = max_weight_matching(&g, &[1.0, 7.0, 3.0]);
        assert_eq!(m, vec![1]);
    }

    #[test]
    fn parallel_edges_of_unequal_weight_collapse_consistently() {
        // Regression: the dense collapse must pick the argmax edge no
        // matter the insertion order — the old two-step update could let
        // an edge raise `w` without claiming `best_edge` (or vice versa).
        for order in [
            vec![5.0, 3.0, 4.0],
            vec![3.0, 5.0, 4.0],
            vec![4.0, 3.0, 5.0],
            vec![0.0, 5.0, 3.0],
            vec![5.0, 0.0, 0.0],
        ] {
            let g = BipartiteGraph::from_edges(2, 2, vec![(0, 0), (0, 0), (0, 0), (1, 1)]);
            let mut weights = order.clone();
            weights.push(2.0); // the (1,1) edge
            let m = max_weight_matching(&g, &weights);
            let heaviest = (0..3)
                .max_by(|&a, &b| weights[a].partial_cmp(&weights[b]).unwrap())
                .unwrap();
            assert!(
                m.contains(&heaviest),
                "order {order:?}: expected edge {heaviest} in {m:?}"
            );
            assert!(m.contains(&3), "order {order:?}: (1,1) must be matched");
            assert!((total_weight(&m, &weights) - (weights[heaviest] + 2.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn parallel_edge_ties_prefer_the_first_occurrence() {
        let g = BipartiteGraph::from_edges(1, 2, vec![(0, 0), (0, 0), (0, 1)]);
        let m = max_weight_matching(&g, &[6.0, 6.0, 1.0]);
        assert_eq!(m, vec![0], "equal parallel weights: first edge represents");
    }

    #[test]
    fn zero_weight_graph_gives_empty_or_zero_weight() {
        let g = BipartiteGraph::from_edges(2, 2, vec![(0, 0), (1, 1)]);
        let w = weight_of(&g, &[0.0, 0.0]);
        assert_eq!(w, 0.0);
    }

    #[test]
    fn rectangular_graphs() {
        let g = BipartiteGraph::from_edges(1, 3, vec![(0, 0), (0, 1), (0, 2)]);
        let m = max_weight_matching(&g, &[2.0, 9.0, 4.0]);
        assert_eq!(m, vec![1]);
        let g2 = BipartiteGraph::from_edges(3, 1, vec![(0, 0), (1, 0), (2, 0)]);
        let m2 = max_weight_matching(&g2, &[2.0, 9.0, 4.0]);
        assert_eq!(m2, vec![1]);
    }

    #[test]
    fn empty_graph_empty_matching() {
        let g = BipartiteGraph::new(3, 3);
        assert!(max_weight_matching(&g, &[]).is_empty());
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..40 {
            let nl = rng.gen_range(1..5);
            let nr = rng.gen_range(1..5);
            let mut g = BipartiteGraph::new(nl, nr);
            let mut weights = Vec::new();
            for u in 0..nl as u32 {
                for v in 0..nr as u32 {
                    if rng.gen_bool(0.5) {
                        g.add_edge(u, v);
                        weights.push(f64::from(rng.gen_range(0..10)));
                    }
                }
            }
            let got = weight_of(&g, &weights);
            let want = brute_force_max_weight(&g, &weights);
            assert!(
                (got - want).abs() < 1e-9,
                "hungarian {got} != brute force {want} on {g:?} / {weights:?}"
            );
        }
    }

    fn brute_force_max_weight(g: &BipartiteGraph, weights: &[f64]) -> f64 {
        fn rec(g: &BipartiteGraph, w: &[f64], e: usize, ul: u64, ur: u64) -> f64 {
            if e == g.num_edges() {
                return 0.0;
            }
            let (u, v) = g.endpoints(e);
            let skip = rec(g, w, e + 1, ul, ur);
            if ul & (1 << u) == 0 && ur & (1 << v) == 0 {
                let take = w[e] + rec(g, w, e + 1, ul | (1 << u), ur | (1 << v));
                skip.max(take)
            } else {
                skip
            }
        }
        rec(g, weights, 0, 0, 0)
    }
}
