//! Bipartite multigraph with stable edge identities.

/// A bipartite multigraph. Vertices are `0..nl` on the left and `0..nr` on
/// the right; parallel edges are allowed and every edge keeps its insertion
/// index, which downstream code uses to map matchings back to flows.
#[derive(Debug, Clone)]
pub struct BipartiteGraph {
    nl: usize,
    nr: usize,
    edges: Vec<(u32, u32)>,
}

impl Default for BipartiteGraph {
    /// An empty `0 x 0` graph (resize with [`BipartiteGraph::reset`]).
    fn default() -> Self {
        BipartiteGraph::new(0, 0)
    }
}

impl BipartiteGraph {
    /// An empty graph with `nl` left and `nr` right vertices.
    pub fn new(nl: usize, nr: usize) -> Self {
        BipartiteGraph {
            nl,
            nr,
            edges: Vec::new(),
        }
    }

    /// Drop all edges and change dimensions, keeping the edge storage —
    /// the reuse path for per-round graph rebuilds.
    pub fn reset(&mut self, nl: usize, nr: usize) {
        self.nl = nl;
        self.nr = nr;
        self.edges.clear();
    }

    /// Build directly from an edge list.
    pub fn from_edges(nl: usize, nr: usize, edges: Vec<(u32, u32)>) -> Self {
        for &(u, v) in &edges {
            assert!((u as usize) < nl && (v as usize) < nr, "edge out of range");
        }
        BipartiteGraph { nl, nr, edges }
    }

    /// Add an edge, returning its index.
    pub fn add_edge(&mut self, u: u32, v: u32) -> usize {
        assert!(
            (u as usize) < self.nl && (v as usize) < self.nr,
            "edge out of range"
        );
        self.edges.push((u, v));
        self.edges.len() - 1
    }

    /// Left vertex count.
    #[inline]
    pub fn nl(&self) -> usize {
        self.nl
    }

    /// Right vertex count.
    #[inline]
    pub fn nr(&self) -> usize {
        self.nr
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edge list, indexed by edge id.
    #[inline]
    pub(crate) fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Endpoints of edge `e`.
    #[inline]
    pub fn endpoints(&self, e: usize) -> (u32, u32) {
        self.edges[e]
    }

    /// Left adjacency: for each left vertex, the `(right, edge_id)` pairs.
    pub(crate) fn left_adjacency(&self) -> Vec<Vec<(u32, usize)>> {
        let mut adj = vec![Vec::new(); self.nl];
        for (e, &(u, v)) in self.edges.iter().enumerate() {
            adj[u as usize].push((v, e));
        }
        adj
    }

    /// Degree of each left vertex.
    pub(crate) fn left_degrees(&self) -> Vec<usize> {
        let mut d = vec![0; self.nl];
        for &(u, _) in &self.edges {
            d[u as usize] += 1;
        }
        d
    }

    /// Degree of each right vertex.
    pub(crate) fn right_degrees(&self) -> Vec<usize> {
        let mut d = vec![0; self.nr];
        for &(_, v) in &self.edges {
            d[v as usize] += 1;
        }
        d
    }

    /// Maximum degree over all vertices (0 for an edgeless graph).
    pub fn max_degree(&self) -> usize {
        let l = self.left_degrees().into_iter().max().unwrap_or(0);
        let r = self.right_degrees().into_iter().max().unwrap_or(0);
        l.max(r)
    }

    /// Verify that a set of edge ids forms a matching (no shared vertices).
    pub fn is_matching(&self, edge_ids: &[usize]) -> bool {
        let mut seen_l = vec![false; self.nl];
        let mut seen_r = vec![false; self.nr];
        for &e in edge_ids {
            let (u, v) = self.edges[e];
            if seen_l[u as usize] || seen_r[v as usize] {
                return false;
            }
            seen_l[u as usize] = true;
            seen_r[v as usize] = true;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut g = BipartiteGraph::new(2, 3);
        let e0 = g.add_edge(0, 0);
        let e1 = g.add_edge(0, 2);
        let e2 = g.add_edge(1, 2);
        assert_eq!((e0, e1, e2), (0, 1, 2));
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.endpoints(1), (0, 2));
        assert_eq!(g.left_degrees(), vec![2, 1]);
        assert_eq!(g.right_degrees(), vec![1, 0, 2]);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g = BipartiteGraph::new(1, 1);
        g.add_edge(0, 0);
        g.add_edge(0, 0);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn matching_checker() {
        let g = BipartiteGraph::from_edges(2, 2, vec![(0, 0), (1, 1), (0, 1)]);
        assert!(g.is_matching(&[0, 1]));
        assert!(!g.is_matching(&[0, 2])); // share left 0
        assert!(g.is_matching(&[]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut g = BipartiteGraph::new(1, 1);
        g.add_edge(1, 0);
    }

    #[test]
    fn left_adjacency_carries_edge_ids() {
        let g = BipartiteGraph::from_edges(2, 2, vec![(0, 1), (0, 0), (1, 0)]);
        let adj = g.left_adjacency();
        assert_eq!(adj[0], vec![(1, 0), (0, 1)]);
        assert_eq!(adj[1], vec![(0, 2)]);
    }
}
