//! # gss-cli — the `gss` command-line tool
//!
//! Similarity-skyline graph queries from the shell, over databases in the
//! `t/v/e` text format (see `gss_graph::format`):
//!
//! ```text
//! gss query    --db db.gdb --query-name q [--refine K] [--threads N]
//!              [--plan PLAN] [--index db.gsi]
//! gss measure  --db db.gdb --a g1 --b g2
//! gss topk     --db db.gdb --query-name q --measure ed|mcs|gu [--k K]
//! gss index    build --db db.gdb --out db.gsi [--pivots K] [--rings R]
//! gss index    stats --index db.gsi [--db db.gdb]
//! gss serve    --db db.gdb [--index db.gsi] [--addr HOST:PORT]
//!              [--data-dir DIR [--fsync always|off|every-N] [--checkpoint-every N]]
//! gss client   --addr HOST:PORT [--query-file q.gdb|-] [--bench --db db.gdb]
//!              [--retry N]
//! gss wal      inspect DIR
//! gss pack     --db db.gdb --out db.gsb               # compact binary format
//! gss generate --kind molecule|uniform --count N [--vertices V] [--seed S]
//! gss convert  --db db.gdb [--graph NAME]           # Graphviz DOT
//! gss paper                                          # reproduce Tables I–V
//! ```
//!
//! All command implementations live in this library (returning their output
//! as `String`) so they are unit-testable; the `gss` binary is a thin shell.

#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod net;

pub use args::{ArgError, Args};

/// Runs the CLI against raw arguments (excluding the program name), writing
/// nothing: returns the output text or an error message.
pub fn run<I: IntoIterator<Item = String>>(raw: I) -> Result<String, String> {
    let args = Args::parse(raw);
    let command = args
        .positional()
        .first()
        .map(String::as_str)
        .unwrap_or("help");
    match command {
        "query" => commands::query(&args).map_err(|e| e.to_string()),
        "measure" => commands::measure(&args).map_err(|e| e.to_string()),
        "topk" => commands::topk(&args).map_err(|e| e.to_string()),
        "index" => commands::index(&args).map_err(|e| e.to_string()),
        "serve" => net::serve(&args).map_err(|e| e.to_string()),
        "client" => net::client(&args).map_err(|e| e.to_string()),
        "wal" => net::wal(&args).map_err(|e| e.to_string()),
        "pack" => commands::pack(&args).map_err(|e| e.to_string()),
        "generate" => commands::generate(&args).map_err(|e| e.to_string()),
        "convert" => commands::convert(&args).map_err(|e| e.to_string()),
        "paper" => Ok(commands::paper()),
        "help" | "--help" | "-h" => Ok(commands::help()),
        other => Err(format!("unknown command {other:?}\n\n{}", commands::help())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_lists_commands() {
        let out = run(["help".to_string()]).unwrap();
        for cmd in [
            "query", "measure", "topk", "index", "generate", "convert", "paper",
        ] {
            assert!(out.contains(cmd), "help must mention {cmd}");
        }
        // No-args behaves like help.
        assert_eq!(run(Vec::<String>::new()).unwrap(), out);
    }

    #[test]
    fn unknown_command_errors_with_help() {
        let err = run(["frobnicate".to_string()]).unwrap_err();
        assert!(err.contains("unknown command"));
        assert!(err.contains("query"));
    }
}
