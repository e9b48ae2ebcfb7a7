//! Row bitsets: the one word layout under the matching kernels
//! ([`crate::HungarianScratch`]'s tight and nonzero cells; in `fss-engine`
//! the incremental matcher's support and exact MaxCard's adjacency). A
//! set over `0..n` is [`words`]`(n)` `u64`s, `j` at bit `j % 64` of word
//! `j / 64`, none set past `n`. [`BitRows`] keeps rows back to back; a
//! lone row (free, visited, frontier columns) is a plain `[u64]`.

/// Words of a row of `n` bits.
#[inline]
pub fn words(n: usize) -> usize {
    n.div_ceil(64)
}

#[inline]
pub fn contains(row: &[u64], j: usize) -> bool {
    row[j / 64] >> (j % 64) & 1 == 1
}

#[inline]
pub fn insert(row: &mut [u64], j: usize) {
    row[j / 64] |= 1 << (j % 64);
}

#[inline]
pub fn remove(row: &mut [u64], j: usize) {
    row[j / 64] &= !(1 << (j % 64));
}

/// Make `row`, a row of `n` bits, the set `0..n`.
#[inline]
pub fn fill(row: &mut [u64], n: usize) {
    let spare = row.len() * 64 - n;
    row.fill(!0);
    if let Some(last) = row.last_mut() {
        *last >>= spare;
    }
}

/// The indices set in a row given word by word (so a caller can walk
/// `a & b`, or a row it updates as it goes), lowest first.
#[inline]
pub fn ones<I: IntoIterator<Item = u64>>(words: I) -> impl Iterator<Item = usize> {
    let (mut words, mut word, mut base) = (words.into_iter(), 0u64, 0usize.wrapping_sub(64));
    std::iter::from_fn(move || {
        while word == 0 {
            word = words.next()?;
            base = base.wrapping_add(64);
        }
        let bit = word.trailing_zeros() as usize;
        word &= word - 1;
        Some(base + bit)
    })
}

/// The lowest index set in a row given word by word.
#[inline]
pub(crate) fn lowest<I: IntoIterator<Item = u64>>(words: I) -> Option<usize> {
    ones(words).next()
}

/// `rows` sets over `0..cols`, row-major.
#[derive(Debug, Clone)]
pub struct BitRows {
    rows: usize,
    cols: usize,
    /// Words per row.
    width: usize,
    bits: Vec<u64>,
}

impl BitRows {
    pub fn new(rows: usize, cols: usize) -> BitRows {
        let width = words(cols);
        let bits = vec![0; rows * width];
        BitRows {
            rows,
            cols,
            width,
            bits,
        }
    }

    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.width..][..self.width]
    }

    /// Row `i`, to clear bits of or copy a row over the same columns in.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.bits[i * self.width..][..self.width]
    }

    #[inline]
    pub fn contains(&self, i: usize, j: usize) -> bool {
        contains(self.row(i), j)
    }

    #[inline]
    pub fn insert(&mut self, i: usize, j: usize) {
        debug_assert!(j < self.cols, "column {j} of {}", self.cols);
        insert(self.row_mut(i), j);
    }

    #[inline]
    pub fn remove(&mut self, i: usize, j: usize) {
        remove(self.row_mut(i), j);
    }

    /// Insert or remove `j`, without a branch.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, j: usize, on: bool) {
        let word = &mut self.row_mut(i)[j / 64];
        *word = *word & !(1 << (j % 64)) | u64::from(on) << (j % 64);
    }

    pub fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// No row has a bit at or past `cols`.
    pub fn tails_clear(&self) -> bool {
        (0..self.rows).all(|i| ones(self.row(i).iter().copied()).all(|j| j < self.cols))
    }
}

/// König's certificate that `match_l` / `match_r` (`u32::MAX` for
/// unmatched) is a maximum matching of the graph with an edge `(p, q)`
/// for each bit `q` of `adj`'s row `p`: the arrays agree, each matched
/// pair is an edge, an alternating BFS from the free rows reaches no
/// free column, and the rows it misses plus the columns it reaches (a
/// vertex cover) are as many as the matched pairs. Returns that number.
#[cfg(any(test, debug_assertions))]
pub fn check_cover(adj: &BitRows, match_l: &[u32], match_r: &[u32]) -> usize {
    const NIL: u32 = u32::MAX;
    let matched = match_l.iter().enumerate().filter(|&(_, &q)| q != NIL);
    for (p, &q) in matched.clone() {
        assert_eq!(match_r[q as usize], p as u32, "column {q}");
        assert!(adj.contains(p, q as usize), "row {p}: no such edge");
    }
    let size = matched.count();
    let cols_matched = match_r.iter().filter(|&&p| p != NIL).count();
    assert_eq!(cols_matched, size, "a column is matched to no row");
    let mut row_seen: Vec<bool> = match_l.iter().map(|&q| q == NIL).collect();
    let mut reached: Vec<usize> = (0..adj.rows).filter(|&p| row_seen[p]).collect();
    let (mut col_seen, mut next) = (vec![0; adj.width], 0);
    while let Some(&p) = reached.get(next) {
        next += 1;
        let fresh = adj.row(p).iter().zip(&mut col_seen).map(|(&a, seen)| {
            let new = a & !*seen;
            *seen |= a;
            new
        });
        for q in ones(fresh) {
            let r = match_r[q];
            assert_ne!(r, NIL, "reached column {q} is free: not maximum");
            if !std::mem::replace(&mut row_seen[r as usize], true) {
                reached.push(r as usize);
            }
        }
    }
    let cover = adj.rows - reached.len() + ones(col_seen).count();
    assert_eq!(cover, size, "the cover is larger than the matching");
    size
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{max_cardinality_matching, BipartiteGraph};
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// Column counts on both sides of each word boundary.
    const WIDTHS: [usize; 8] = [1, 63, 64, 65, 127, 128, 129, 150];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `BitRows` and the walks against a set of `(row, column)`
        /// pairs, after every step of a random history.
        #[test]
        fn bit_rows_track_a_set_of_cells(
            rows in 1usize..=5,
            width in 0usize..WIDTHS.len(),
            steps in proptest::collection::vec((0u32..8, 0usize..64, 0usize..1 << 16), 1..120),
        ) {
            let cols = WIDTHS[width];
            let mut bits = BitRows::new(rows, cols);
            let mut model = BTreeSet::new();
            for (step, (kind, i, j)) in steps.into_iter().enumerate() {
                let (i, j) = (i % rows, j % cols);
                match kind {
                    0..=2 => {
                        bits.insert(i, j);
                        model.insert((i, j));
                    }
                    3..=4 => {
                        bits.remove(i, j);
                        model.remove(&(i, j));
                    }
                    5 => {
                        let on = j % 2 == 0;
                        bits.set(i, j, on);
                        if on { model.insert((i, j)) } else { model.remove(&(i, j)) };
                    }
                    6 => {
                        fill(bits.row_mut(i), cols);
                        model.extend((0..cols).map(|j| (i, j)));
                    }
                    _ => {
                        bits.clear();
                        model.clear();
                    }
                }
                prop_assert!(bits.tails_clear(), "step {}: a bit past column {}", step, cols);
                for i in 0..rows {
                    let want: Vec<usize> = model.range((i, 0)..(i + 1, 0)).map(|&(_, j)| j).collect();
                    prop_assert_eq!(ones(bits.row(i).iter().copied()).collect::<Vec<_>>(), want.clone());
                    prop_assert!((0..cols).all(|j| bits.contains(i, j) == model.contains(&(i, j))));
                    let other = (i + 1) % rows;
                    let both = bits.row(i).iter().zip(bits.row(other)).map(|(a, b)| a & b);
                    let first = want.iter().copied().find(|&j| model.contains(&(other, j)));
                    prop_assert_eq!(lowest(both), first, "step {}: rows {} & {}", step, i, other);
                }
            }
        }

        /// The checker accepts what Hopcroft–Karp returns.
        #[test]
        fn the_cover_certifies_hopcroft_karp(
            rows in 1usize..=70,
            width in 0usize..WIDTHS.len(),
            edges in 0usize..=600,
            seed in 0u64..1 << 32,
        ) {
            let (adj, match_l, match_r) = hk_matching(rows, WIDTHS[width], edges, seed);
            let size = match_l.iter().filter(|&&q| q != u32::MAX).count();
            prop_assert_eq!(check_cover(&adj, &match_l, &match_r), size);
        }
    }

    /// A random graph as `BitRows`, and Hopcroft–Karp's matching of it
    /// as `(match_l, match_r)`.
    fn hk_matching(
        rows: usize,
        cols: usize,
        edges: usize,
        seed: u64,
    ) -> (BitRows, Vec<u32>, Vec<u32>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = BipartiteGraph::new(rows, cols);
        let mut adj = BitRows::new(rows, cols);
        for _ in 0..edges {
            let (p, q) = (rng.gen_range(0..rows), rng.gen_range(0..cols));
            g.add_edge(p as u32, q as u32);
            adj.insert(p, q);
        }
        let (mut match_l, mut match_r) = (vec![u32::MAX; rows], vec![u32::MAX; cols]);
        for e in max_cardinality_matching(&g) {
            let (p, q) = g.endpoints(e);
            (match_l[p as usize], match_r[q as usize]) = (q, p);
        }
        (adj, match_l, match_r)
    }

    #[test]
    #[should_panic(expected = "not maximum")]
    fn the_cover_rejects_a_matching_one_pair_short() {
        let (adj, mut match_l, mut match_r) = hk_matching(40, 150, 300, 9);
        let p = match_l.iter().position(|&q| q != u32::MAX).unwrap();
        match_r[match_l[p] as usize] = u32::MAX;
        match_l[p] = u32::MAX;
        check_cover(&adj, &match_l, &match_r);
    }
}
