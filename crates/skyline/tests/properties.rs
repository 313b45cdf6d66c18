//! Property-based tests for the skyline operators.

use gss_skyline::{bnl_skyline, compare, dominates, naive_skyline, sfs_skyline, Dominance};
use proptest::prelude::*;

/// Strategy: a set of points with small integer coordinates (plenty of ties
/// and duplicates, the hard cases for skyline code).
fn points(max_n: usize, d: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(
        prop::collection::vec((0u8..8).prop_map(f64::from), d..=d),
        0..max_n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn all_algorithms_agree(pts in points(60, 3)) {
        let reference = naive_skyline(&pts);
        prop_assert_eq!(bnl_skyline(&pts), reference.clone());
        prop_assert_eq!(sfs_skyline(&pts), reference);
    }


    #[test]
    fn skyline_is_sound_and_complete(pts in points(40, 3)) {
        let sky = bnl_skyline(&pts);
        for &s in &sky {
            for p in &pts {
                prop_assert!(!dominates(p, &pts[s]), "skyline member dominated");
            }
        }
        for i in 0..pts.len() {
            if !sky.contains(&i) {
                prop_assert!(
                    sky.iter().any(|&s| dominates(&pts[s], &pts[i])),
                    "excluded point must have a skyline dominator"
                );
            }
        }
    }

    #[test]
    fn dominance_is_a_strict_partial_order(
        a in prop::collection::vec((0u8..6).prop_map(f64::from), 3),
        b in prop::collection::vec((0u8..6).prop_map(f64::from), 3),
        c in prop::collection::vec((0u8..6).prop_map(f64::from), 3),
    ) {
        // Irreflexive.
        prop_assert!(!dominates(&a, &a));
        // Asymmetric.
        if dominates(&a, &b) {
            prop_assert!(!dominates(&b, &a));
            prop_assert_eq!(compare(&b, &a), Dominance::DominatedBy);
        }
        // Transitive.
        if dominates(&a, &b) && dominates(&b, &c) {
            prop_assert!(dominates(&a, &c));
        }
    }
}
