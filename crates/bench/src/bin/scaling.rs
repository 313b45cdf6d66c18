//! The structural gate: runs every scenario in the `gss-bench` registry
//! ([`gss_bench::scenarios::registry`]) on the committed smoke workload
//! and prints each report.
//!
//! Usage: `cargo run --release -p gss-bench --bin scaling [-- FLAGS]`
//!
//! * `--json PATH` — write every scenario's metrics and gate verdicts as
//!   one JSON document ([`gss_bench::report::document`]).
//! * `--gate` — exit nonzero if any gate failed. This is the CI
//!   regression gate; the JSON document is written first, so a failing
//!   run is diagnosable from its artifact.
//!
//! Wall-clock performance is not measured here: that is the repository
//! benchmark under `benchmark/` (see `BENCHMARK.json`).

use gss_bench::report::{document, ScenarioReport};
use gss_bench::scenarios::registry;

fn usage(problem: &str) -> ! {
    eprintln!("{problem} (expected: [--json PATH] [--gate])");
    std::process::exit(2);
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut gate = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--gate" => gate = true,
            "--json" => match args.next() {
                Some(path) => json_path = Some(path),
                None => usage("--json needs a file path"),
            },
            other => usage(&format!("unknown flag {other:?}")),
        }
    }

    let reports: Vec<(&'static str, ScenarioReport)> = registry()
        .iter()
        .map(|scenario| {
            println!("== {} ==", scenario.id());
            let report = scenario.run();
            println!("{}", report.render());
            (scenario.id(), report)
        })
        .collect();

    if let Some(path) = &json_path {
        let mut text = document(&reports).to_compact();
        text.push('\n');
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("wrote {path}");
    }

    if gate {
        let gates: Vec<_> = reports.iter().flat_map(|(_, r)| &r.gates).collect();
        let mut failed = false;
        for g in gates.iter().filter(|g| !g.pass) {
            eprintln!("GATE FAILED: {} — {}", g.name, g.detail);
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("gate passed: all {} gates held", gates.len());
    }
}
