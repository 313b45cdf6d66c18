//! Skyline computation algorithms.
//!
//! All functions return the **indices** of skyline members in ascending
//! order and agree exactly (verified by tests and by the property suite in
//! `tests/properties.rs`): they differ only in work performed.
//!
//! * [`naive_skyline`] — textbook `O(n²·d)` double loop; the reference.
//! * [`bnl_skyline`] — block-nested-loops (Börzsönyi et al., ICDE 2001, the
//!   paper's reference \[17\]): maintains a window of incomparable points.
//! * [`sfs_skyline`] — sort-filter-skyline: presorts by the coordinate sum
//!   (a monotone score), after which a point can only be dominated by
//!   already-accepted points, so one window pass suffices.

use crate::dominance::{compare, Dominance};

/// Reference `O(n²)` skyline.
pub fn naive_skyline(points: &[Vec<f64>]) -> Vec<usize> {
    let mut out = Vec::new();
    'outer: for (i, p) in points.iter().enumerate() {
        for (j, q) in points.iter().enumerate() {
            if i != j && compare(q, p) == Dominance::Dominates {
                continue 'outer;
            }
        }
        out.push(i);
    }
    out
}

/// Block-nested-loops skyline.
pub fn bnl_skyline(points: &[Vec<f64>]) -> Vec<usize> {
    let mut window: Vec<usize> = Vec::new();
    'outer: for (i, p) in points.iter().enumerate() {
        let mut k = 0;
        while k < window.len() {
            match compare(&points[window[k]], p) {
                Dominance::Dominates => continue 'outer,
                Dominance::DominatedBy => {
                    window.swap_remove(k);
                }
                Dominance::Incomparable | Dominance::Equal => k += 1,
            }
        }
        window.push(i);
    }
    window.sort_unstable();
    window
}

/// Sort-filter-skyline.
pub fn sfs_skyline(points: &[Vec<f64>]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len()).collect();
    // Monotone presort: if p dominates q then sum(p) < sum(q), so no point
    // is dominated by a later one; window entries are final skyline members.
    order.sort_by(|&a, &b| {
        let sa: f64 = points[a].iter().sum();
        let sb: f64 = points[b].iter().sum();
        sa.total_cmp(&sb).then(a.cmp(&b))
    });
    let mut window: Vec<usize> = Vec::new();
    'outer: for &i in &order {
        for &w in &window {
            if compare(&points[w], &points[i]) == Dominance::Dominates {
                continue 'outer;
            }
        }
        window.push(i);
    }
    window.sort_unstable();
    window
}

/// Algorithm selector for [`skyline`].
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Algorithm {
    /// Reference double loop.
    Naive,
    /// Block-nested-loops (default).
    #[default]
    Bnl,
    /// Sort-filter-skyline.
    Sfs,
}

/// Computes the skyline of `points` (minimizing every dimension) with the
/// chosen algorithm. Returns ascending indices.
pub fn skyline(points: &[Vec<f64>], algorithm: Algorithm) -> Vec<usize> {
    match algorithm {
        Algorithm::Naive => naive_skyline(points),
        Algorithm::Bnl => bnl_skyline(points),
        Algorithm::Sfs => sfs_skyline(points),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_graph::Rng;

    /// The paper's Table I (hotels): skyline must be {H2, H4, H6}.
    fn hotels() -> Vec<Vec<f64>> {
        vec![
            vec![4.0, 150.0], // H1
            vec![3.0, 110.0], // H2 ✓
            vec![2.5, 240.0], // H3
            vec![2.0, 180.0], // H4 ✓
            vec![1.7, 270.0], // H5
            vec![1.0, 195.0], // H6 ✓
            vec![1.2, 210.0], // H7
        ]
    }

    #[test]
    fn hotels_example_matches_paper() {
        let expected = vec![1, 3, 5];
        assert_eq!(naive_skyline(&hotels()), expected);
        assert_eq!(bnl_skyline(&hotels()), expected);
        assert_eq!(sfs_skyline(&hotels()), expected);
    }

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<Vec<f64>> = vec![];
        for algo in [Algorithm::Naive, Algorithm::Bnl, Algorithm::Sfs] {
            assert!(skyline(&empty, algo).is_empty());
        }
        let one = vec![vec![3.0, 4.0]];
        for algo in [Algorithm::Naive, Algorithm::Bnl, Algorithm::Sfs] {
            assert_eq!(skyline(&one, algo), vec![0]);
        }
    }

    #[test]
    fn duplicates_all_survive() {
        let pts = vec![vec![1.0, 1.0], vec![1.0, 1.0], vec![2.0, 2.0]];
        for algo in [Algorithm::Naive, Algorithm::Bnl, Algorithm::Sfs] {
            assert_eq!(skyline(&pts, algo), vec![0, 1], "{algo:?}");
        }
    }

    #[test]
    fn single_total_order_chain() {
        let pts = vec![vec![3.0], vec![1.0], vec![2.0]];
        for algo in [Algorithm::Naive, Algorithm::Bnl, Algorithm::Sfs] {
            assert_eq!(skyline(&pts, algo), vec![1], "{algo:?}");
        }
    }

    #[test]
    fn all_incomparable() {
        let pts = vec![vec![1.0, 3.0], vec![2.0, 2.0], vec![3.0, 1.0]];
        for algo in [Algorithm::Naive, Algorithm::Bnl, Algorithm::Sfs] {
            assert_eq!(skyline(&pts, algo), vec![0, 1, 2], "{algo:?}");
        }
    }

    #[test]
    fn algorithms_agree_on_random_data() {
        let mut rng = Rng::seed_from_u64(0x51c1);
        for case in 0..40 {
            let n = 1 + rng.gen_index(120);
            let d = 1 + rng.gen_index(4);
            let pts: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..d).map(|_| (rng.gen_index(8)) as f64).collect())
                .collect();
            let reference = naive_skyline(&pts);
            assert_eq!(bnl_skyline(&pts), reference, "case {case} bnl");
            assert_eq!(sfs_skyline(&pts), reference, "case {case} sfs");
        }
    }

    #[test]
    fn skyline_members_are_not_dominated_and_cover_rest() {
        use crate::dominance::dominates;
        let mut rng = Rng::seed_from_u64(0xcab);
        let pts: Vec<Vec<f64>> = (0..80)
            .map(|_| {
                vec![
                    (rng.gen_index(6)) as f64,
                    (rng.gen_index(6)) as f64,
                    (rng.gen_index(6)) as f64,
                ]
            })
            .collect();
        let sky = bnl_skyline(&pts);
        // (1) no member is dominated by any point
        for &s in &sky {
            for p in &pts {
                assert!(!dominates(p, &pts[s]));
            }
        }
        // (2) every non-member is dominated by some member
        for i in 0..pts.len() {
            if !sky.contains(&i) {
                assert!(
                    sky.iter().any(|&s| dominates(&pts[s], &pts[i])),
                    "non-member {i} must have a dominating witness"
                );
            }
        }
    }
}
