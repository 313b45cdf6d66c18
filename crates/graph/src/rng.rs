//! A small, fully deterministic PRNG.
//!
//! Synthetic workloads and benchmarks must be bit-reproducible across runs
//! and machines, so the workspace carries its own generator instead of
//! depending on `rand` (whose output can change across major versions).
//! The implementation is the well-known **Xoshiro256++** generator seeded via
//! **SplitMix64** — the same construction recommended by the xoshiro authors
//! (Blackman & Vigna). It is *not* cryptographically secure and must never be
//! used for security purposes.

use crate::{Graph, Label, VertexId};

/// Deterministic Xoshiro256++ PRNG.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Equal seeds always produce identical sequences.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `usize` in `[0, bound)` using Lemire's multiply-shift with a
    /// rejection step to remove modulo bias.
    ///
    /// # Panics
    /// Panics when `bound == 0`.
    pub fn gen_index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "gen_index bound must be positive");
        let bound = bound as u64;
        // Rejection sampling on the top bits: threshold = 2^64 mod bound.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as usize;
            }
        }
    }

    /// Uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics when `lo >= hi`.
    pub fn gen_range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "gen_range requires lo < hi, got {lo}..{hi}");
        lo + self.gen_index(hi - lo)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0,1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p.clamp(0.0, 1.0)
    }

    /// Uniformly chooses an element of `slice`, or `None` when empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.gen_index(slice.len())])
        }
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Draws `k` distinct indices from `[0, n)` (order unspecified but
    /// deterministic). `k` is clamped to `n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        // Partial Fisher–Yates over an index vector; O(n) memory is fine at
        // workload scale.
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = self.gen_range(i, n.max(i + 1));
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Derives an independent child generator (for per-item streams).
    pub fn fork(&mut self) -> Rng {
        Rng::seed_from_u64(self.next_u64())
    }
}

/// A seeded G(n, m) random graph: `n` vertices labelled from
/// `Label(0..vlabels)`, then `min(m, n(n−1)/2)` distinct vertex pairs drawn
/// uniformly, each joined by an edge labelled from
/// `Label(vlabels..vlabels + elabels)`. It never adds a loop or a
/// multi-edge, and equal generator states give equal graphs. This is the
/// one random-graph generator of the workspace's tests.
///
/// # Panics
/// Panics when a label is drawn from an empty range (`vlabels == 0` with
/// `n > 0`, or `elabels == 0` with an edge to draw).
pub fn random_graph(rng: &mut Rng, n: usize, m: usize, vlabels: u32, elabels: u32) -> Graph {
    let mut g = Graph::new("random");
    for _ in 0..n {
        g.add_vertex(Label(rng.gen_index(vlabels as usize) as u32));
    }
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .collect();
    for p in rng.sample_indices(pairs.len(), m) {
        let (u, v) = pairs[p];
        let label = Label(vlabels + rng.gen_index(elabels as usize) as u32);
        g.add_edge(VertexId::new(u), VertexId::new(v), label)
            .expect("distinct pairs of distinct vertices");
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same <= 1, "streams should be practically disjoint");
    }

    #[test]
    fn gen_index_is_in_range_and_roughly_uniform() {
        let mut r = Rng::seed_from_u64(7);
        let mut counts = [0usize; 5];
        for _ in 0..5000 {
            counts[r.gen_index(5)] += 1;
        }
        for &c in &counts {
            // Expected 1000 each; allow generous slack.
            assert!((700..1300).contains(&c), "counts {counts:?} look biased");
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn gen_index_rejects_zero() {
        Rng::seed_from_u64(0).gen_index(0);
    }

    #[test]
    fn gen_range_bounds() {
        let mut r = Rng::seed_from_u64(11);
        for _ in 0..1000 {
            let x = r.gen_range(10, 20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    fn gen_f64_unit_interval() {
        let mut r = Rng::seed_from_u64(13);
        for _ in 0..1000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = Rng::seed_from_u64(17);
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_permutes() {
        let mut r = Rng::seed_from_u64(19);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "a 50-element shuffle staying sorted is astronomically unlikely"
        );
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut r = Rng::seed_from_u64(23);
        let s = r.sample_indices(10, 4);
        assert_eq!(s.len(), 4);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 4);
        assert!(s.iter().all(|&i| i < 10));
        // k > n clamps
        assert_eq!(r.sample_indices(3, 10).len(), 3);
        assert!(r.sample_indices(0, 5).is_empty());
    }

    #[test]
    fn choose_empty_and_nonempty() {
        let mut r = Rng::seed_from_u64(29);
        let empty: [u8; 0] = [];
        assert!(r.choose(&empty).is_none());
        let xs = [1, 2, 3];
        assert!(xs.contains(r.choose(&xs).unwrap()));
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut a = Rng::seed_from_u64(31);
        let mut child = a.fork();
        // Child stream differs from continuing parent stream.
        let p: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let c: Vec<u64> = (0..8).map(|_| child.next_u64()).collect();
        assert_ne!(p, c);
    }
}
