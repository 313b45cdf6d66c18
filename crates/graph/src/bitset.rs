//! Word-parallel bitsets for the solver hot paths.
//!
//! The exact connected-MCS search (its duplicate-pair mask) and VF2
//! verification (adjacency tests and candidate sets) work on small dense
//! vertex sets. Representing those sets as `u64` words turns per-vertex
//! membership loops into a handful of word operations and — just as
//! important at this domain's graph sizes — removes the per-search-node
//! heap allocations the `Vec<bool>` / filtered `Vec<usize>`
//! representations forced.
//!
//! Two types are provided:
//!
//! * [`Bitset`] — a fixed-universe set of `usize` indices backed by a flat
//!   `Vec<u64>`; supports loading a [`BitMatrix`] row, in-place difference
//!   against another set, and allocation-free iteration of set bits in
//!   ascending order ([`Bitset::iter`]).
//! * [`BitMatrix`] — a dense square/rectangular 0/1 matrix stored row-major
//!   as whole words (one row = `words_per_row` consecutive `u64`s), used as
//!   a graph adjacency matrix with `O(1)` edge tests and rows that act as
//!   neighbour bitsets.
//!
//! Both are plain data holders: they never allocate after construction, so
//! solvers can keep them in reusable workspaces across thousands of pair
//! evaluations. `tests/kernel_alloc.rs` holds the set operations and
//! iteration to zero allocations.

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

    /// Iterates the elements in ascending order. Allocation-free.
    pub fn iter(&self) -> BitIter<'_> {
        BitIter {
            words: &self.words,
            word_index: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
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
/// Used as an adjacency matrix by the VF2 kernel: `set`/`test` are `O(1)`
/// and a whole row loads into a candidate [`Bitset`] in `O(cols / 64)`
/// word operations.
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

    fn elements(s: &Bitset) -> Vec<usize> {
        s.iter().collect()
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = Bitset::new(130);
        assert!(elements(&s).is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1) && !s.contains(128));
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(elements(&s), vec![0, 63, 129]);
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
        a.difference_with(&b);
        assert_eq!(
            elements(&a),
            (0..100)
                .filter(|i| i % 2 == 0 && i % 3 != 0)
                .collect::<Vec<_>>()
        );
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
        assert_eq!(m.cols(), 70);

        let mut s = Bitset::new(70);
        s.assign_row(&m, 0);
        assert_eq!(elements(&s), vec![69]);
        s.assign_row(&m, 1);
        assert_eq!(elements(&s), vec![3]);
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
        let mut row = Bitset::new(3);
        row.assign_row(&m, 1);
        assert_eq!(elements(&row), vec![0, 2]);
    }

    #[test]
    fn iterator_handles_sparse_high_words() {
        let mut s = Bitset::new(64 * 5);
        s.insert(64 * 4 + 17);
        assert_eq!(elements(&s), vec![64 * 4 + 17]);
    }
}
