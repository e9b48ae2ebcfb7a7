//! König edge coloring: every bipartite multigraph with maximum degree Δ
//! can be edge-colored with exactly Δ colors, each color class a matching.
//!
//! This is the constructive heart of the Birkhoff–von Neumann step in
//! Theorem 1: the combined window graph (degree ≤ d) decomposes into ≤ d
//! matchings which are then executed in the augmented-capacity rounds.
//!
//! The algorithm inserts edges one at a time. For edge `(u, v)` pick a
//! color `a` free at `u` and `b` free at `v`; if `a == b`, assign it.
//! Otherwise walk the maximal alternating path from `u` whose edges are
//! colored `b` (out of left vertices) and `a` (out of right vertices). In a
//! bipartite graph this path cannot reach `v`: every right vertex on it is
//! entered by a `b`-colored edge, and `b` is free at `v`. Swapping `a <-> b`
//! along the path frees `b` at `u`, and the new edge takes color `b`.
//! Each insertion costs `O(V)` path work, `O(E·V)` total.

use crate::graph::BipartiteGraph;

const NONE: usize = usize::MAX;

/// Edge-color `g` with `max_degree(g)` colors. Returns `colors[e] in
/// 0..delta` such that no two same-colored edges share a vertex. An
/// edgeless graph yields an empty coloring.
pub fn edge_coloring(g: &BipartiteGraph) -> Vec<usize> {
    let delta = g.max_degree();
    let nl = g.nl();
    let nr = g.nr();
    let mut colors = vec![NONE; g.num_edges()];
    // at_l[u * delta + c] = edge id colored c at left vertex u (or NONE).
    let mut at_l = vec![NONE; nl * delta];
    let mut at_r = vec![NONE; nr * delta];

    let free = |table: &[usize], vtx: usize| -> usize {
        (0..delta)
            .find(|&c| table[vtx * delta + c] == NONE)
            .expect("degree bound guarantees a free color")
    };

    for e in 0..g.num_edges() {
        let (u, v) = g.endpoints(e);
        let (u, v) = (u as usize, v as usize);
        let a = free(&at_l, u);
        let b = free(&at_r, v);
        if a != b {
            // Collect the maximal alternating path from u: from left
            // vertices follow color b, from right vertices follow color a.
            let mut path: Vec<usize> = Vec::new();
            let mut x = u;
            loop {
                let e1 = at_l[x * delta + b];
                if e1 == NONE {
                    break;
                }
                path.push(e1);
                let y = g.endpoints(e1).1 as usize;
                debug_assert_ne!(y, v, "alternating path reached v: b was not free");
                let e2 = at_r[y * delta + a];
                if e2 == NONE {
                    break;
                }
                path.push(e2);
                x = g.endpoints(e2).0 as usize;
            }
            // Swap colors along the path: deregister, flip, re-register.
            for &pe in &path {
                let (pu, pv) = g.endpoints(pe);
                let c = colors[pe];
                debug_assert!(c == a || c == b);
                at_l[pu as usize * delta + c] = NONE;
                at_r[pv as usize * delta + c] = NONE;
            }
            for &pe in &path {
                let (pu, pv) = g.endpoints(pe);
                let c = a + b - colors[pe];
                colors[pe] = c;
                debug_assert_eq!(at_l[pu as usize * delta + c], NONE);
                debug_assert_eq!(at_r[pv as usize * delta + c], NONE);
                at_l[pu as usize * delta + c] = pe;
                at_r[pv as usize * delta + c] = pe;
            }
        }
        let color = b;
        debug_assert_eq!(at_l[u * delta + color], NONE);
        debug_assert_eq!(at_r[v * delta + color], NONE);
        colors[e] = color;
        at_l[u * delta + color] = e;
        at_r[v * delta + color] = e;
    }
    colors
}

/// Group edge ids by color: `classes[c]` is the matching with color `c`.
pub(crate) fn color_classes(g: &BipartiteGraph, colors: &[usize]) -> Vec<Vec<usize>> {
    let delta = g.max_degree();
    let mut classes = vec![Vec::new(); delta];
    for (e, &c) in colors.iter().enumerate() {
        classes[c].push(e);
    }
    classes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_proper(g: &BipartiteGraph, colors: &[usize]) {
        let delta = g.max_degree();
        assert_eq!(colors.len(), g.num_edges());
        for &c in colors {
            assert!(c < delta, "color {c} out of range (delta = {delta})");
        }
        for class in color_classes(g, colors) {
            assert!(g.is_matching(&class), "color class is not a matching");
        }
    }

    #[test]
    fn single_edge() {
        let g = BipartiteGraph::from_edges(1, 1, vec![(0, 0)]);
        let c = edge_coloring(&g);
        assert_eq!(c, vec![0]);
    }

    #[test]
    fn complete_bipartite_k33_needs_three_colors() {
        let mut g = BipartiteGraph::new(3, 3);
        for u in 0..3 {
            for v in 0..3 {
                g.add_edge(u, v);
            }
        }
        let colors = edge_coloring(&g);
        check_proper(&g, &colors);
        let used: std::collections::HashSet<_> = colors.iter().copied().collect();
        assert_eq!(used.len(), 3);
    }

    #[test]
    fn parallel_edges_get_distinct_colors() {
        let g = BipartiteGraph::from_edges(1, 1, vec![(0, 0), (0, 0), (0, 0)]);
        let colors = edge_coloring(&g);
        check_proper(&g, &colors);
        let used: std::collections::HashSet<_> = colors.iter().copied().collect();
        assert_eq!(used.len(), 3);
    }

    #[test]
    fn path_forcing_kempe_swap() {
        // Edges inserted so that a later edge finds conflicting free colors
        // and must flip an alternating path.
        let g = BipartiteGraph::from_edges(3, 3, vec![(0, 0), (1, 0), (1, 1), (2, 1), (2, 0)]);
        let colors = edge_coloring(&g);
        check_proper(&g, &colors);
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::new(2, 2);
        assert!(edge_coloring(&g).is_empty());
    }

    #[test]
    fn random_multigraphs_are_properly_colored() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(77);
        for _ in 0..120 {
            let nl = rng.gen_range(1..8);
            let nr = rng.gen_range(1..8);
            let mut g = BipartiteGraph::new(nl, nr);
            let edges = rng.gen_range(0..25);
            for _ in 0..edges {
                g.add_edge(rng.gen_range(0..nl as u32), rng.gen_range(0..nr as u32));
            }
            let colors = edge_coloring(&g);
            check_proper(&g, &colors);
        }
    }

    #[test]
    fn uses_exactly_delta_colors_on_regular_graphs() {
        // d-regular bipartite circulant graphs.
        for d in 1..=4u32 {
            let n = 6u32;
            let mut g = BipartiteGraph::new(n as usize, n as usize);
            for u in 0..n {
                for k in 0..d {
                    g.add_edge(u, (u + k) % n);
                }
            }
            let colors = edge_coloring(&g);
            check_proper(&g, &colors);
            let used: std::collections::HashSet<_> = colors.iter().copied().collect();
            assert_eq!(used.len(), d as usize, "d-regular needs exactly d colors");
        }
    }

    #[test]
    fn large_dense_graph_smoke() {
        let n = 40u32;
        let mut g = BipartiteGraph::new(n as usize, n as usize);
        for u in 0..n {
            for v in 0..n {
                g.add_edge(u, v);
            }
        }
        let colors = edge_coloring(&g);
        check_proper(&g, &colors);
    }
}
