//! `s9-solvers` — the exact solver kernels against their retained
//! reference implementations, swept over every query/candidate pair of
//! the smoke workload. The kernels are deterministic, so expanded-node
//! totals repeat exactly.

use gss_ged::bipartite::bipartite_ged_with;
use gss_ged::reference::reference_exact_ged;
use gss_ged::{exact_ged, CostModel, GedOptions, Workspace};
use gss_mcs::reference::maximum_common_subgraph_reference;
use gss_mcs::{maximum_common_subgraph_expanded, Objective};

use super::smoke;
use crate::report::{Scenario, ScenarioReport};

/// Recorded baselines: total search nodes the exact solvers expand over
/// all 120 query/candidate pairs. Any increase is a real search-order or
/// bound regression; re-record deliberately when the workload or the
/// candidate ordering changes.
const S9_GED_EXPANDED_BASELINE: u64 = 35_766;
const S9_MCS_EXPANDED_BASELINE: u64 = 1_536;

pub(super) struct Solvers;

impl Scenario for Solvers {
    fn id(&self) -> &'static str {
        "s9-solvers"
    }

    fn run(&self) -> ScenarioReport {
        let (db, query) = smoke();
        let cost = CostModel::uniform();
        let mut ws = Workspace::new();

        let (mut ged, mut ged_ref, mut mcs, mut mcs_ref) = (0u64, 0u64, 0u64, 0u64);
        for (_, g) in db.iter() {
            // Warm-started from the bipartite mapping, as the scans do.
            let opts = GedOptions {
                cost,
                warm_start: Some(bipartite_ged_with(g, &query, &cost, &mut ws).mapping),
                node_limit: None,
            };
            ged += exact_ged(g, &query, &opts).expanded;
            ged_ref += reference_exact_ged(g, &query, &opts).expanded;
            mcs += maximum_common_subgraph_expanded(g, &query, Objective::Edges).1;
            mcs_ref += maximum_common_subgraph_reference(g, &query, Objective::Edges).1;
        }

        let mut report = ScenarioReport::default();
        report.count("pairs", db.len());
        report.count("ged.expanded", ged as usize);
        report.count("ged.reference_expanded", ged_ref as usize);
        report.count("mcs.expanded", mcs as usize);
        report.count("mcs.reference_expanded", mcs_ref as usize);
        report.gate(
            "s9.present",
            !db.is_empty(),
            format!("solver sweep covered {} pairs", db.len()),
        );
        report.gate(
            "s9.expanded_le_baseline",
            ged <= S9_GED_EXPANDED_BASELINE && mcs <= S9_MCS_EXPANDED_BASELINE,
            format!(
                "expanded nodes vs recorded baseline: GED {ged} vs ≤ {S9_GED_EXPANDED_BASELINE}, \
                 MCS {mcs} vs ≤ {S9_MCS_EXPANDED_BASELINE}"
            ),
        );
        // GED may expand fewer nodes than the reference (its cross-edge
        // bound is strictly stronger) but never more; the MCS kernel
        // preserves the reference search order exactly.
        report.gate(
            "s9.expanded_parity",
            ged <= ged_ref && mcs == mcs_ref,
            format!(
                "kernel vs reference expanded nodes: GED {ged} vs {ged_ref} (must be ≤), \
                 MCS {mcs} vs {mcs_ref} (must be equal)"
            ),
        );
        report
    }
}
