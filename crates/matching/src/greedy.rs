//! Ordered greedy maximal matching.
//!
//! Scanning edges in a caller-chosen priority order and taking any edge
//! whose endpoints are still free yields a maximal matching. With
//! oldest-release-first order this is the FIFO baseline heuristic; it is
//! also the cheap scheduler used to derive feasible horizons for the LPs.

use crate::graph::BipartiteGraph;

/// Greedy maximal matching scanning edges in the order given by `order`
/// (a permutation or subsequence of edge ids). Returns the picked edge ids.
pub fn greedy_matching(g: &BipartiteGraph, order: &[usize]) -> Vec<usize> {
    let mut picked = Vec::new();
    greedy_matching_into(g, order, &mut picked);
    picked
}

/// [`greedy_matching`] writing the picked edge ids into a caller-owned
/// buffer (cleared first) — the allocation-free form for per-round use.
pub fn greedy_matching_into(g: &BipartiteGraph, order: &[usize], out: &mut Vec<usize>) {
    let mut used_l = vec![false; g.nl()];
    let mut used_r = vec![false; g.nr()];
    out.clear();
    for &e in order {
        let (u, v) = g.endpoints(e);
        if !used_l[u as usize] && !used_r[v as usize] {
            used_l[u as usize] = true;
            used_r[v as usize] = true;
            out.push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hopcroft_karp::max_cardinality_matching;

    /// Greedy maximal matching in edge-insertion order.
    fn greedy_matching_in_order(g: &BipartiteGraph) -> Vec<usize> {
        let order: Vec<usize> = (0..g.num_edges()).collect();
        greedy_matching(g, &order)
    }

    #[test]
    fn greedy_is_a_matching_and_maximal() {
        let g = BipartiteGraph::from_edges(3, 3, vec![(0, 0), (0, 1), (1, 0), (2, 2), (1, 1)]);
        let m = greedy_matching_in_order(&g);
        assert!(g.is_matching(&m));
        // Maximality: no remaining edge has both endpoints free.
        let mut used_l = vec![false; g.nl()];
        let mut used_r = vec![false; g.nr()];
        for &e in &m {
            let (u, v) = g.endpoints(e);
            used_l[u as usize] = true;
            used_r[v as usize] = true;
        }
        for e in 0..g.num_edges() {
            let (u, v) = g.endpoints(e);
            assert!(
                used_l[u as usize] || used_r[v as usize],
                "edge {e} could have been added"
            );
        }
    }

    #[test]
    fn order_matters() {
        // Taking (0,0) first blocks the perfect matching.
        let g = BipartiteGraph::from_edges(2, 2, vec![(0, 0), (0, 1), (1, 0)]);
        let bad = greedy_matching(&g, &[0, 1, 2]);
        assert_eq!(bad.len(), 1);
        let good = greedy_matching(&g, &[1, 2, 0]);
        assert_eq!(good.len(), 2);
    }

    #[test]
    fn greedy_at_least_half_of_maximum() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(23);
        for _ in 0..25 {
            let nl = rng.gen_range(1..8);
            let nr = rng.gen_range(1..8);
            let mut g = BipartiteGraph::new(nl, nr);
            for u in 0..nl as u32 {
                for v in 0..nr as u32 {
                    if rng.gen_bool(0.4) {
                        g.add_edge(u, v);
                    }
                }
            }
            let greedy = greedy_matching_in_order(&g).len();
            let maximum = max_cardinality_matching(&g).len();
            assert!(2 * greedy >= maximum, "greedy {greedy} < half of {maximum}");
        }
    }

    #[test]
    fn subsequence_order_restricts_choices() {
        let g = BipartiteGraph::from_edges(2, 2, vec![(0, 0), (1, 1)]);
        let m = greedy_matching(&g, &[1]); // only edge 1 offered
        assert_eq!(m, vec![1]);
    }
}
