//! `s5-diversity` — exact vs greedy diversity refinement as the skyline
//! grows: the one timing table the repository benchmark has no metric
//! for, so it stays here, ungated.

use gss_diversity::{refine_exact, refine_greedy};
use gss_graph::Rng;

use super::time_us;
use crate::report::{Scenario, ScenarioReport};

pub(super) struct Diversity;

impl Scenario for Diversity {
    fn id(&self) -> &'static str {
        "s5-diversity"
    }

    #[allow(clippy::needless_range_loop)] // symmetric matrix fill reads clearest indexed
    fn run(&self) -> ScenarioReport {
        let mut report = ScenarioReport::default();
        for n in [8usize, 12, 16, 20] {
            let mut rng = Rng::seed_from_u64(n as u64);
            let ms: Vec<Vec<Vec<f64>>> = (0..3)
                .map(|_| {
                    let mut m = vec![vec![0.0f64; n]; n];
                    for i in 0..n {
                        for j in i + 1..n {
                            let v = rng.gen_f64();
                            m[i][j] = v;
                            m[j][i] = v;
                        }
                    }
                    m
                })
                .collect();
            let exact = time_us(3, || {
                refine_exact(&ms, 3, u128::MAX).expect("unbounded budget");
            });
            let greedy = time_us(3, || {
                refine_greedy(&ms, 3);
            });
            report.metric(format!("n{n}.exact_k3"), "us", exact);
            report.metric(format!("n{n}.greedy_k3"), "us", greedy);
        }
        report
    }
}
