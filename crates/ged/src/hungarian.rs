//! The Hungarian algorithm (Kuhn–Munkres) for the square assignment problem.
//!
//! `O(n³)` shortest-augmenting-path formulation with dual potentials. This is
//! the substrate the bipartite GED approximation (Riesen & Bunke) needs.
//!
//! Forbidden assignments should be encoded as [`FORBIDDEN`] (a large finite
//! value) rather than `f64::INFINITY`, which would poison the potentials
//! with `inf − inf = NaN`.
//!
//! The hot entry point is [`solve_into`]: it takes the cost matrix as one
//! flat row-major slice and a caller-provided [`Workspace`] holding the dual
//! potential, slack and augmenting-path buffers, so a scan that solves
//! thousands of assignment problems (one per candidate pair) performs no
//! per-call heap allocation.

/// Large finite cost standing in for "forbidden assignment".
pub const FORBIDDEN: f64 = 1.0e12;

/// Reusable buffers for [`solve_into`]: dual potentials `u`/`v`, the
/// per-column slack (`minv`), the visited set and the augmenting-path
/// predecessor array, plus the output assignment.
///
/// One workspace serves any sequence of problem sizes; buffers grow to the
/// largest size seen and are reused from then on.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    u: Vec<f64>,
    v: Vec<f64>,
    p: Vec<usize>,
    way: Vec<usize>,
    minv: Vec<f64>,
    used: Vec<bool>,
    /// `assignment[row] = col` after [`solve_into`] returns.
    pub assignment: Vec<usize>,
}

impl Workspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Sizes every buffer for an `n × n` problem and resets the duals.
    fn reset(&mut self, n: usize) {
        self.u.clear();
        self.u.resize(n + 1, 0.0);
        self.v.clear();
        self.v.resize(n + 1, 0.0);
        self.p.clear();
        self.p.resize(n + 1, 0);
        self.way.clear();
        self.way.resize(n + 1, 0);
        self.minv.resize(n + 1, f64::INFINITY);
        self.used.resize(n + 1, false);
        self.assignment.clear();
        self.assignment.resize(n, usize::MAX);
    }
}

/// Solves the square assignment problem for an `n × n` cost matrix given as
/// a flat row-major slice (`cost[r * n + c]`), reusing the caller's
/// [`Workspace`]. Returns the minimal total cost; the argmin permutation is
/// left in [`Workspace::assignment`].
///
/// # Panics
/// Panics when `cost.len() != n * n`.
pub fn solve_into(cost: &[f64], n: usize, ws: &mut Workspace) -> f64 {
    assert_eq!(cost.len(), n * n, "cost matrix must be n × n");
    if n == 0 {
        ws.assignment.clear();
        return 0.0;
    }
    ws.reset(n);

    // 1-based arrays; column 0 is virtual.
    for i in 1..=n {
        ws.p[0] = i;
        let mut j0 = 0usize;
        for j in 0..=n {
            ws.minv[j] = f64::INFINITY;
            ws.used[j] = false;
        }
        loop {
            ws.used[j0] = true;
            let i0 = ws.p[j0];
            let mut delta = f64::INFINITY;
            let mut j1 = 0usize;
            let row = &cost[(i0 - 1) * n..i0 * n];
            for j in 1..=n {
                if !ws.used[j] {
                    let cur = row[j - 1] - ws.u[i0] - ws.v[j];
                    if cur < ws.minv[j] {
                        ws.minv[j] = cur;
                        ws.way[j] = j0;
                    }
                    if ws.minv[j] < delta {
                        delta = ws.minv[j];
                        j1 = j;
                    }
                }
            }
            for j in 0..=n {
                if ws.used[j] {
                    ws.u[ws.p[j]] += delta;
                    ws.v[j] -= delta;
                } else {
                    ws.minv[j] -= delta;
                }
            }
            j0 = j1;
            if ws.p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = ws.way[j0];
            ws.p[j0] = ws.p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    for j in 1..=n {
        if ws.p[j] >= 1 {
            ws.assignment[ws.p[j] - 1] = j - 1;
        }
    }
    ws.assignment
        .iter()
        .enumerate()
        .map(|(i, &j)| cost[i * n + j])
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`solve_into`] over a nested `n × n` matrix: `(assignment[row] =
    /// col, total cost)`.
    fn solve(cost: &[Vec<f64>]) -> (Vec<usize>, f64) {
        let n = cost.len();
        if n == 0 {
            return (Vec::new(), 0.0);
        }
        for row in cost {
            assert_eq!(row.len(), n, "cost matrix must be square");
        }
        let flat: Vec<f64> = cost.iter().flat_map(|row| row.iter().copied()).collect();
        let mut ws = Workspace::new();
        let total = solve_into(&flat, n, &mut ws);
        (std::mem::take(&mut ws.assignment), total)
    }

    #[test]
    fn trivial_sizes() {
        let (a, c) = solve(&[]);
        assert!(a.is_empty());
        assert_eq!(c, 0.0);
        let (a, c) = solve(&[vec![7.0]]);
        assert_eq!(a, vec![0]);
        assert_eq!(c, 7.0);
    }

    #[test]
    fn classic_3x3() {
        // Optimal: (0,1), (1,0), (2,2) = 1 + 2 + 3 = 6? Check by brute force below.
        let m = vec![
            vec![4.0, 1.0, 3.0],
            vec![2.0, 0.0, 5.0],
            vec![3.0, 2.0, 2.0],
        ];
        let (_, total) = solve(&m);
        assert_eq!(total, brute_force(&m));
    }

    #[test]
    fn assignment_is_a_permutation() {
        let m = vec![
            vec![1.0, 2.0, 3.0, 4.0],
            vec![2.0, 4.0, 6.0, 8.0],
            vec![3.0, 6.0, 9.0, 12.0],
            vec![4.0, 8.0, 12.0, 16.0],
        ];
        let (a, _) = solve(&m);
        let mut seen = a.clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn respects_forbidden_entries() {
        let m = vec![vec![FORBIDDEN, 1.0], vec![1.0, FORBIDDEN]];
        let (a, total) = solve(&m);
        assert_eq!(a, vec![1, 0]);
        assert_eq!(total, 2.0);
    }

    fn brute_force(m: &[Vec<f64>]) -> f64 {
        fn perms(n: usize) -> Vec<Vec<usize>> {
            if n == 0 {
                return vec![vec![]];
            }
            let mut out = Vec::new();
            for p in perms(n - 1) {
                for i in 0..=p.len() {
                    let mut q = p.clone();
                    q.insert(i, n - 1);
                    out.push(q);
                }
            }
            out
        }
        perms(m.len())
            .into_iter()
            .map(|p| p.iter().enumerate().map(|(i, &j)| m[i][j]).sum())
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn matches_brute_force_on_random_matrices() {
        use gss_graph::Rng;
        let mut rng = Rng::seed_from_u64(99);
        for _ in 0..50 {
            let n = 1 + rng.gen_index(5);
            let m: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..n).map(|_| (rng.gen_index(20)) as f64).collect())
                .collect();
            let (_, total) = solve(&m);
            let best = brute_force(&m);
            assert!(
                (total - best).abs() < 1e-9,
                "hungarian {total} vs brute {best} on {m:?}"
            );
        }
    }

    /// One workspace across many problems of varying size must behave
    /// exactly like fresh allocations.
    #[test]
    fn workspace_reuse_matches_fresh_solves() {
        use gss_graph::Rng;
        let mut rng = Rng::seed_from_u64(0x5eed);
        let mut ws = Workspace::new();
        for _ in 0..40 {
            let n = 1 + rng.gen_index(6);
            let flat: Vec<f64> = (0..n * n).map(|_| rng.gen_index(30) as f64).collect();
            let reused = solve_into(&flat, n, &mut ws);
            let assignment_reused = ws.assignment.clone();
            let mut fresh_ws = Workspace::new();
            let fresh = solve_into(&flat, n, &mut fresh_ws);
            assert_eq!(reused, fresh);
            assert_eq!(assignment_reused, fresh_ws.assignment);
        }
    }
}
