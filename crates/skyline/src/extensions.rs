//! The k-skyband, a skyline-adjacent operator from the related-work space
//! (reference \[20\] of the paper).

use crate::dominance::{compare, Dominance};

/// The k-skyband: points dominated by **fewer than** `k` other points.
/// `k = 1` is exactly the skyline.
pub fn k_skyband(points: &[Vec<f64>], k: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let mut dominators = 0usize;
        for (j, q) in points.iter().enumerate() {
            if i != j && compare(q, p) == Dominance::Dominates {
                dominators += 1;
                if dominators >= k {
                    break;
                }
            }
        }
        if dominators < k {
            out.push(i);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::naive_skyline;

    fn hotels() -> Vec<Vec<f64>> {
        vec![
            vec![4.0, 150.0],
            vec![3.0, 110.0],
            vec![2.5, 240.0],
            vec![2.0, 180.0],
            vec![1.7, 270.0],
            vec![1.0, 195.0],
            vec![1.2, 210.0],
        ]
    }

    #[test]
    fn skyband_1_is_skyline() {
        let pts = hotels();
        assert_eq!(k_skyband(&pts, 1), naive_skyline(&pts));
    }

    #[test]
    fn skyband_grows_with_k() {
        let pts = hotels();
        let s1 = k_skyband(&pts, 1);
        let s2 = k_skyband(&pts, 2);
        let s3 = k_skyband(&pts, 100);
        assert!(s1.len() <= s2.len());
        assert!(s2.len() <= s3.len());
        assert_eq!(s3.len(), pts.len(), "huge k keeps everything");
        for i in &s1 {
            assert!(s2.contains(i), "skyband must be monotone in k");
        }
    }

    #[test]
    fn skyband_zero_is_empty() {
        assert!(k_skyband(&hotels(), 0).is_empty());
    }
}
