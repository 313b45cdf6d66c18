//! Word-parallel bitsets for the solver hot paths.
//!
//! The exact solvers (branch-and-bound GED, the product-graph max clique
//! behind the MCS measures, VF2 verification) spend most of their time
//! intersecting and iterating small dense vertex sets. Representing those
//! sets as `u64` words turns per-vertex membership loops into a handful of
//! word operations and — just as important at this domain's graph sizes —
//! removes the per-search-node heap allocations the `Vec<bool>` / filtered
//! `Vec<usize>` representations forced.
//!
//! Two types are provided:
//!
//! * [`Bitset`] — a fixed-universe set of `usize` indices backed by a flat
//!   `Vec<u64>`; supports in-place intersection/union/difference against
//!   another set or a [`BitMatrix`] row, and allocation-free iteration of
//!   set bits in ascending order ([`Bitset::iter`]).
//! * [`BitMatrix`] — a dense square/rectangular 0/1 matrix stored row-major
//!   as whole words (one row = `words_per_row` consecutive `u64`s), used as
//!   a graph adjacency matrix with `O(1)` edge tests and rows that act as
//!   neighbour bitsets.
//!
//! Both are plain data holders: they never allocate after construction
//! (`resize` reuses capacity), so solvers can keep them in reusable
//! workspaces across thousands of pair evaluations. `tests/kernel_alloc.rs`
//! holds the set operations and iteration to zero allocations.

/// Number of bits in one storage word.
const WORD_BITS: usize = 64;

#[inline]
fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}

/// A set of indices from a fixed universe `0..len`, stored one bit per
/// element in `u64` words.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bitset {
    words: Vec<u64>,
    len: usize,
}

impl Bitset {
    /// Creates an empty set over the universe `0..len`.
    pub fn new(len: usize) -> Self {
        Bitset {
            words: vec![0; words_for(len)],
            len,
        }
    }

    /// Creates the full set `{0, …, len-1}`.
    pub fn full(len: usize) -> Self {
        let mut s = Bitset::new(len);
        s.fill();
        s
    }

    /// Resets the universe to `0..len` and clears every bit, reusing the
    /// existing allocation when possible.
    pub fn reset(&mut self, len: usize) {
        self.len = len;
        self.words.clear();
        self.words.resize(words_for(len), 0);
    }

    /// The universe size (maximum element + 1 capacity, not the count).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the universe is empty (`len == 0`).
    pub fn is_universe_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets every bit of the universe.
    pub fn fill(&mut self) {
        for w in &mut self.words {
            *w = u64::MAX;
        }
        self.trim();
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Zeroes the padding bits past `len` in the last word.
    #[inline]
    fn trim(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        } else if self.len == 0 {
            self.words.clear();
        }
    }

    /// Inserts `i`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.len, "index {i} out of universe {}", self.len);
        self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Removes `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.len, "index {i} out of universe {}", self.len);
        self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// True when `i` is in the set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "index {i} out of universe {}", self.len);
        self.words[i / WORD_BITS] & (1u64 << (i % WORD_BITS)) != 0
    }

    /// Number of elements in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The smallest element, if any.
    pub fn first(&self) -> Option<usize> {
        for (k, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(k * WORD_BITS + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Copies `other` into `self` (universes must match).
    pub fn copy_from(&mut self, other: &Bitset) {
        debug_assert_eq!(self.len, other.len, "universe mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// In-place intersection with another set.
    pub fn intersect_with(&mut self, other: &Bitset) {
        debug_assert_eq!(self.len, other.len, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place union with another set.
    pub fn union_with(&mut self, other: &Bitset) {
        debug_assert_eq!(self.len, other.len, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place difference: removes every element of `other`.
    pub fn difference_with(&mut self, other: &Bitset) {
        debug_assert_eq!(self.len, other.len, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Overwrites `self` with a [`BitMatrix`] row (the row length must
    /// equal this set's universe).
    pub fn assign_row(&mut self, m: &BitMatrix, row: usize) {
        debug_assert_eq!(self.len, m.cols(), "universe mismatch");
        self.words.copy_from_slice(m.row_words(row));
    }

    /// In-place intersection with a [`BitMatrix`] row (the row length must
    /// equal this set's universe).
    pub fn intersect_with_row(&mut self, m: &BitMatrix, row: usize) {
        for (a, b) in self.words.iter_mut().zip(m.row_words(row)) {
            *a &= b;
        }
    }

    /// In-place difference with a [`BitMatrix`] row.
    pub fn difference_with_row(&mut self, m: &BitMatrix, row: usize) {
        for (a, b) in self.words.iter_mut().zip(m.row_words(row)) {
            *a &= !b;
        }
    }

    /// Sets `self` to `a ∩ b` (all three universes must match).
    pub fn assign_intersection(&mut self, a: &Bitset, b: &Bitset) {
        debug_assert_eq!(self.len, a.len, "universe mismatch");
        debug_assert_eq!(self.len, b.len, "universe mismatch");
        for (w, (x, y)) in self.words.iter_mut().zip(a.words.iter().zip(&b.words)) {
            *w = x & y;
        }
    }

    /// Iterates the elements in ascending order. Allocation-free.
    pub fn iter(&self) -> BitIter<'_> {
        BitIter {
            words: &self.words,
            word_index: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The raw words (low bit of word 0 is element 0).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Ascending iterator over the set bits of a [`Bitset`] or matrix row.
#[derive(Clone, Debug)]
pub struct BitIter<'a> {
    words: &'a [u64],
    word_index: usize,
    current: u64,
}

impl Iterator for BitIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_index += 1;
            if self.word_index >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_index];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.word_index * WORD_BITS + bit)
    }
}

/// A dense 0/1 matrix with word-packed rows; rows double as bitsets.
///
/// Used as an adjacency matrix by the clique and VF2 kernels: `set`/`test`
/// are `O(1)` and a whole row intersects into a candidate [`Bitset`] in
/// `O(cols / 64)` word operations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitMatrix {
    words: Vec<u64>,
    rows: usize,
    cols: usize,
    words_per_row: usize,
}

impl BitMatrix {
    /// Creates an all-zero `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        let words_per_row = words_for(cols);
        BitMatrix {
            words: vec![0; rows * words_per_row],
            rows,
            cols,
            words_per_row,
        }
    }

    /// Resets to an all-zero `rows × cols` matrix, reusing the allocation
    /// when possible.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.words_per_row = words_for(cols);
        self.rows = rows;
        self.cols = cols;
        self.words.clear();
        self.words.resize(rows * self.words_per_row, 0);
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Sets entry `(r, c)` to 1.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize) {
        debug_assert!(r < self.rows && c < self.cols, "({r},{c}) out of range");
        self.words[r * self.words_per_row + c / WORD_BITS] |= 1u64 << (c % WORD_BITS);
    }

    /// Sets both `(r, c)` and `(c, r)` to 1 (symmetric adjacency).
    #[inline]
    pub fn set_sym(&mut self, r: usize, c: usize) {
        self.set(r, c);
        self.set(c, r);
    }

    /// True when entry `(r, c)` is 1.
    #[inline]
    pub fn test(&self, r: usize, c: usize) -> bool {
        debug_assert!(r < self.rows && c < self.cols, "({r},{c}) out of range");
        self.words[r * self.words_per_row + c / WORD_BITS] & (1u64 << (c % WORD_BITS)) != 0
    }

    /// The words of row `r`.
    #[inline]
    pub fn row_words(&self, r: usize) -> &[u64] {
        let start = r * self.words_per_row;
        &self.words[start..start + self.words_per_row]
    }

    /// Iterates the set columns of row `r` in ascending order.
    pub fn row_iter(&self, r: usize) -> BitIter<'_> {
        let words = self.row_words(r);
        BitIter {
            words,
            word_index: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }

    /// Number of set bits in row `r`.
    pub fn row_count(&self, r: usize) -> usize {
        self.row_words(r)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Builds the adjacency matrix of a graph (`order × order`, symmetric,
    /// zero diagonal).
    pub fn adjacency(g: &crate::graph::Graph) -> Self {
        let n = g.order();
        let mut m = BitMatrix::new(n, n);
        for e in g.edges() {
            let edge = g.edge(e);
            m.set_sym(edge.u.index(), edge.v.index());
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = Bitset::new(130);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1) && !s.contains(128));
        assert_eq!(s.count(), 4);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 129]);
        assert_eq!(s.first(), Some(0));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.first(), None);
    }

    #[test]
    fn full_respects_universe_boundary() {
        for len in [0usize, 1, 63, 64, 65, 128, 130] {
            let s = Bitset::full(len);
            assert_eq!(s.count(), len, "len={len}");
            assert_eq!(s.iter().collect::<Vec<_>>(), (0..len).collect::<Vec<_>>());
        }
        assert!(Bitset::full(0).is_universe_empty());
        assert_eq!(Bitset::full(5).len(), 5);
    }

    #[test]
    fn set_algebra() {
        let mut a = Bitset::new(100);
        let mut b = Bitset::new(100);
        for i in (0..100).step_by(2) {
            a.insert(i);
        }
        for i in (0..100).step_by(3) {
            b.insert(i);
        }
        let mut inter = a.clone();
        inter.intersect_with(&b);
        assert_eq!(
            inter.iter().collect::<Vec<_>>(),
            (0..100).step_by(6).collect::<Vec<_>>()
        );
        let mut uni = a.clone();
        uni.union_with(&b);
        assert_eq!(uni.count(), 50 + 34 - 17);
        let mut diff = a.clone();
        diff.difference_with(&b);
        assert!(diff.iter().all(|i| i % 2 == 0 && i % 3 != 0));
        let mut assigned = Bitset::new(100);
        assigned.assign_intersection(&a, &b);
        assert_eq!(assigned, inter);
    }

    #[test]
    fn reset_reuses_and_clears() {
        let mut s = Bitset::new(70);
        s.insert(69);
        s.reset(32);
        assert_eq!(s.len(), 32);
        assert!(s.is_empty());
        s.insert(31);
        assert_eq!(s.count(), 1);
        s.reset(200);
        assert!(s.is_empty());
        s.insert(199);
        assert!(s.contains(199));
    }

    #[test]
    fn matrix_set_test_rows() {
        let mut m = BitMatrix::new(5, 70);
        m.set(0, 69);
        m.set(4, 0);
        m.set_sym(1, 3);
        assert!(m.test(0, 69) && m.test(4, 0));
        assert!(m.test(1, 3) && m.test(3, 1));
        assert!(!m.test(0, 0));
        assert_eq!(m.row_iter(0).collect::<Vec<_>>(), vec![69]);
        assert_eq!(m.row_count(1), 1);
        assert_eq!(m.rows(), 5);
        assert_eq!(m.cols(), 70);

        let mut s = Bitset::full(70);
        s.intersect_with_row(&m, 0);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![69]);
        let mut d = Bitset::full(70);
        d.difference_with_row(&m, 0);
        assert_eq!(d.count(), 69);
    }

    #[test]
    fn matrix_reset() {
        let mut m = BitMatrix::new(3, 3);
        m.set(2, 2);
        m.reset(2, 130);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 130);
        assert!(!m.test(1, 129));
        m.set(1, 129);
        assert!(m.test(1, 129));
    }

    #[test]
    fn adjacency_from_graph() {
        use crate::builder::GraphBuilder;
        use crate::label::Vocabulary;
        let mut v = Vocabulary::new();
        let g = GraphBuilder::new("g", &mut v)
            .vertices(&["a", "b", "c"], "C")
            .path(&["a", "b", "c"], "-")
            .build()
            .unwrap();
        let m = BitMatrix::adjacency(&g);
        assert!(m.test(0, 1) && m.test(1, 0) && m.test(1, 2));
        assert!(!m.test(0, 2) && !m.test(0, 0));
        assert_eq!(m.row_count(1), 2);
    }

    #[test]
    fn iterator_handles_sparse_high_words() {
        let mut s = Bitset::new(64 * 5);
        s.insert(64 * 4 + 17);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![64 * 4 + 17]);
        assert_eq!(s.first(), Some(64 * 4 + 17));
    }
}
