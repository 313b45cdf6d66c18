//! The repo benchmark: four workloads, end-to-end metrics with tracing
//! off, per-layer metrics from a separate traced run. See `README.md`.
//!
//! ```text
//! benchmark                         all workloads, one process each, tracing off
//! benchmark --trace                 the same plus a traced run per workload
//! benchmark --runs 10 --sets 2      two run sets for `compare`
//! benchmark compare A.json B.json   medians, difference, bound, verdict
//! benchmark --workload W --seed N --seconds S --trace 0|1
//!                                   one run; last line is the result JSON
//! ```

mod gen;
mod probes;
mod report;
mod stats;
mod sut;
mod trace;
mod workload;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use report::{Outcome, RunSet, PER_LAYER};
use trace::Tracer;
use workload::{Fixture, Spec, SETUP_REPS};

const DEFAULT_SEED: u64 = 0x5EED;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    runs: usize,
    sets: usize,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick]\n\
         \x20                [--runs R] [--sets K]\n\
         \x20      benchmark compare A.json B.json"
    );
    ExitCode::from(2)
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        runs: 1,
        sets: 1,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(it.next()?.clone()),
            "--seed" => args.seed = parse_seed(it.next()?)?,
            "--seconds" => args.seconds = Some(it.next()?.parse().ok().filter(|s| *s > 0.0)?),
            "--runs" => args.runs = it.next()?.parse().ok().filter(|r| *r > 0)?,
            "--sets" => args.sets = it.next()?.parse().ok().filter(|k| *k > 0)?,
            "--quick" => args.quick = true,
            // `--trace 1` / `--trace 0` from the driver, bare `--trace` by hand.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            _ => return None,
        }
    }
    Some(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match &argv[1..] {
            [a, b] => compare_files(a, b),
            _ => usage(),
        };
    }
    let Some(args) = parse_args(&argv) else {
        return usage();
    };
    match &args.workload {
        Some(name) => {
            let specs = workload::specs(args.quick);
            let Some(spec) = specs.iter().find(|s| s.name == name) else {
                eprintln!("unknown workload {name}");
                return usage();
            };
            run_one(spec, &args)
        }
        None => run_all(&args),
    }
}

/// Seconds of measurement when `--seconds` is absent: `run_seconds` of
/// `BENCHMARK.json`, or one second per workload under `--quick`.
fn seconds_of(args: &Args) -> f64 {
    args.seconds.unwrap_or(if args.quick { 1.0 } else { 15.0 })
}

/// One run of one workload in this process. Everything printed before
/// the last line is for people; the last line is the result JSON.
fn run_one(spec: &Spec, args: &Args) -> ExitCode {
    let seconds = seconds_of(args);
    println!(
        "workload {} seed {:#x} seconds {seconds} trace {}{}\nwhy: {}",
        spec.name,
        args.seed,
        u8::from(args.trace),
        if args.quick {
            " QUICK (not comparable)"
        } else {
            ""
        },
        spec.why
    );
    // The paper's Figure 3 skyline gates every run.
    if !sut::paper_skyline_matches() {
        eprintln!("Figure 3 database does not return the paper's skyline");
        return ExitCode::FAILURE;
    }
    let outcome = if args.trace {
        run_traced(spec, args.seed, seconds)
    } else {
        run_end_to_end(spec, args.seed, seconds)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{}: {e}", spec.name);
            return ExitCode::FAILURE;
        }
    };
    for (name, value) in &outcome.metrics {
        // Per-layer rows carry the end-to-end metric they should move.
        let moves = PER_LAYER
            .iter()
            .find(|m| m.name == *name)
            .map_or(String::new(), |m| {
                format!("  [{} is better → {}]", m.better.name(), m.moves)
            });
        println!(
            "{name:<34} {value:>16.4} {:<5}{moves}",
            report::unit_of(name)
        );
    }
    println!(
        "failed_share                       {:>16.4} ratio ({} of {})",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}

/// The end-to-end run: tracing off, `SETUP_REPS` set-ups (their median is
/// `setup_s`, their input hashes the determinism self-check), one
/// measured window on the last, then the answer checks.
fn run_end_to_end(spec: &Spec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut off = Tracer::off();
    let mut setups = Vec::new();
    let mut hashes = Vec::new();
    let mut fixture: Option<Fixture> = None;
    for rep in 0..SETUP_REPS {
        drop(fixture.take());
        let t = Instant::now();
        let f = Fixture::build(spec, seed, rep, &mut off);
        setups.push(t.elapsed().as_secs_f64());
        hashes.push(f.inputs.hash);
        fixture = Some(f);
    }
    let mut fixture = fixture.expect("SETUP_REPS is at least one");
    println!("inputs fnv {:016x} ({SETUP_REPS} generations)", hashes[0]);
    if hashes.iter().any(|h| *h != hashes[0]) {
        return Err(format!("one seed generated different inputs: {hashes:x?}"));
    }

    let (queries, mutations) = fixture.measure(seconds, &mut off);
    let peak_rss_mb = workload::peak_rss_mb();
    let (extra, wrong) = fixture.verify(&queries);

    let (q50, q95) = stats::p50_p95(&queries.latencies_ms).map_err(|e| format!("queries: {e}"))?;
    let (m50, m95) =
        stats::p50_p95(&mutations.latencies_ms).map_err(|e| format!("mutations: {e}"))?;
    let answered = queries.latencies_ms.len() as u64;
    let applied = mutations.latencies_ms.len() as u64 - mutations.errors;
    let failed = queries.errors + mutations.errors + wrong;
    Ok(Outcome {
        attempted: answered + queries.errors + mutations.latencies_ms.len() as u64 + extra,
        failed,
        metrics: vec![
            ("setup_s", stats::median(&setups)),
            ("query_p50_ms", q50),
            ("query_p95_ms", q95),
            (
                "query_qps",
                answered.saturating_sub(wrong) as f64 / queries.wall_s,
            ),
            ("mutation_p50_ms", m50),
            ("mutation_p95_ms", m95),
            ("mutation_ops_s", applied as f64 / mutations.wall_s),
            ("peak_rss_mb", peak_rss_mb),
        ],
    })
}

/// The traced run: one set-up with spans, the query window half untraced
/// and half traced (their medians give the tracing overhead), the layer
/// probes, the span file, and the same answer checks as the other run.
fn run_traced(spec: &Spec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(true, Instant::now());
    let mut fixture = Fixture::build(spec, seed, 0, &mut tracer);
    let (plain, mut traced, mutations) = fixture.measure_traced(seconds, &mut tracer);
    let (p50_off, _) = stats::p50_p95(&plain.latencies_ms).map_err(|e| format!("untraced: {e}"))?;
    let (p50_on, _) = stats::p50_p95(&traced.latencies_ms).map_err(|e| format!("traced: {e}"))?;

    let mut metrics = probes::run(&fixture, &mut tracer);
    metrics.push(("trace.spans", tracer.spans().len() as f64));
    metrics.push(("trace.overhead_share", (p50_on - p50_off) / p50_off));

    let dir = workload::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", spec.name));
    std::fs::write(&path, tracer.to_json())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "{} spans written to {}",
        tracer.spans().len(),
        path.display()
    );
    println!(
        "{:<28} {:>8} {:>14} {:>14}",
        "span", "count", "total ms", "self ms"
    );
    for (name, count, total_us, self_us) in tracer.profile() {
        println!(
            "{name:<28} {count:>8} {:>14.3} {:>14.3}",
            total_us / 1e3,
            self_us / 1e3
        );
    }

    // Every registered per-layer metric, in registry order.
    let ordered: Vec<(&'static str, f64)> = PER_LAYER
        .iter()
        .map(|m| {
            metrics
                .iter()
                .find(|(name, _)| *name == m.name)
                .map(|&(_, v)| (m.name, v))
                .ok_or_else(|| format!("probe for {} is missing", m.name))
        })
        .collect::<Result<_, _>>()?;
    let requests = (plain.latencies_ms.len() + traced.latencies_ms.len()) as u64;
    let errors = plain.errors + traced.errors + mutations.errors;
    traced.answers.extend(plain.answers);
    let (extra, wrong) = fixture.verify(&traced);
    Ok(Outcome {
        attempted: requests + errors + mutations.latencies_ms.len() as u64 + extra,
        failed: errors + wrong,
        metrics: ordered,
    })
}

/// All workloads, one child process each (so `peak_rss_mb` and lazy
/// state never leak between them), `runs` seeds per set, `sets` sets.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let seconds = seconds_of(args);
    let specs = workload::specs(args.quick);
    let out = workload::out_dir();
    let mut any_failed = false;
    for set_no in 0..args.sets {
        let mut set = RunSet::new();
        for spec in &specs {
            let traces: &[bool] = if args.trace { &[false, true] } else { &[false] };
            for &trace in traces {
                for run in 0..args.runs {
                    let seed = args.seed + run as u64;
                    let mut cmd = Command::new(&exe);
                    cmd.args(["--workload", spec.name])
                        .args(["--seed", &seed.to_string()])
                        .args(["--seconds", &seconds.to_string()])
                        .args(["--trace", if trace { "1" } else { "0" }])
                        .stderr(Stdio::inherit());
                    if args.quick {
                        cmd.arg("--quick");
                    }
                    let output = cmd.output().expect("spawn workload process");
                    let stdout = String::from_utf8_lossy(&output.stdout);
                    let last = stdout.lines().last().unwrap_or_default();
                    let parsed = report::parse_result_line(last)
                        .ok()
                        .filter(|_| output.status.success());
                    let Some((attempted, failed, metrics)) = parsed else {
                        eprintln!("{} seed {seed} trace {trace}: run failed", spec.name);
                        any_failed = true;
                        continue;
                    };
                    any_failed |= failed > 0;
                    println!(
                        "== {} seed {seed:#x} trace {} — failed_share {:.4} ({failed} of {attempted})",
                        spec.name,
                        u8::from(trace),
                        failed as f64 / attempted.max(1) as f64
                    );
                    let entry = set.entry(spec.name.to_owned()).or_default();
                    for (name, value) in metrics {
                        println!("   {name:<34} {value:>16.4} {}", report::unit_of(&name));
                        entry.entry(name).or_default().push(value);
                    }
                }
            }
        }
        if args.runs > 1 {
            print!("{}", report::spread_table(&set));
        }
        if !args.quick {
            std::fs::create_dir_all(&out).expect("create out directory");
            let path = out.join(format!("set-{}.json", set_no + 1));
            std::fs::write(&path, report::run_set_to_json(&set)).expect("write run set");
            println!("run set written to {}", path.display());
        }
    }
    if args.quick {
        println!("QUICK mode: sizes shrunk, numbers not comparable, no run set written");
    }
    if any_failed {
        eprintln!("failed_share is not 0 on every workload");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn compare_files(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| -> Result<RunSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        report::run_set_from_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let (table, breaches) = report::compare(&a, &b);
            print!("{table}");
            if breaches > 0 {
                eprintln!("{breaches} end-to-end metric(s) beyond their bound");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_and_hand_flags_parse() {
        let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(str::to_owned).collect() };
        let a = parse_args(&argv(
            "--workload scan-wide --seed 7 --seconds 10 --trace 0",
        ))
        .expect("driver flags");
        assert_eq!(a.workload.as_deref(), Some("scan-wide"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), false));
        let b = parse_args(&argv("--trace --seed 0x5EED --quick")).expect("hand flags");
        assert!(b.trace && b.quick && b.workload.is_none());
        assert_eq!(b.seed, 0x5EED);
        assert!(parse_args(&argv("--trace 1")).expect("trace 1").trace);
        assert!(parse_args(&argv("--seconds 0")).is_none());
        assert!(parse_args(&argv("--bogus")).is_none());
    }

    #[test]
    fn end_to_end_metrics_are_what_a_run_reports() {
        // The names `run_end_to_end` emits are the registry, in order.
        let names: Vec<&str> = report::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "query_p50_ms",
                "query_p95_ms",
                "query_qps",
                "mutation_p50_ms",
                "mutation_p95_ms",
                "mutation_ops_s",
                "peak_rss_mb"
            ]
        );
    }
}
