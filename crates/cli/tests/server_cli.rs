//! End-to-end CLI tests for the serving subcommands and stdin queries,
//! driving the real `gss` binary (`CARGO_BIN_EXE_gss`) as a user would.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

const DB_TEXT: &str = "\
t needle
v 0 A
v 1 B
v 2 C
e 0 1 -
e 1 2 -

t close
v 0 A
v 1 B
v 2 C
e 0 1 -
e 1 2 =

t far
v 0 X
v 1 Y
e 0 1 -
";

const QUERY_TEXT: &str = "t q\nv 0 A\nv 1 B\nv 2 C\ne 0 1 -\ne 1 2 -\n";

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("gss-srv-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, content).expect("write temp file");
    path
}

fn gss() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gss"))
}

/// Starts `gss serve` (plus `extra` flags) on an OS-assigned port and
/// returns the child plus the bound address parsed from its stderr
/// announcement.
fn start_server(db_path: &std::path::Path, extra: &[&str]) -> (Child, String) {
    let mut child = gss()
        .args([
            "serve",
            "--db",
            db_path.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
        ])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gss serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut line = String::new();
    BufReader::new(stderr)
        .read_line(&mut line)
        .expect("read the listening announcement");
    let addr = line
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in announcement {line:?}"))
        .to_owned();
    (child, addr)
}

fn run_client(args: &[&str]) -> String {
    let out = gss()
        .arg("client")
        .args(args)
        .output()
        .expect("run gss client");
    assert!(
        out.status.success(),
        "client {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 client output")
}

#[test]
fn serve_query_stats_shutdown_round_trip() {
    let db_path = write_temp("db.gdb", DB_TEXT);
    let query_path = write_temp("q.gdb", QUERY_TEXT);
    // An explicit plan is served as asked, whatever the shard count.
    let (mut child, addr) = start_server(&db_path, &["--plan", "prefilter", "--shards", "4"]);

    // Plain ping.
    let pong = run_client(&["--addr", &addr]);
    assert!(pong.contains("pong"), "{pong}");

    // One-shot query from a file; ask twice so the second hits the cache.
    let first = run_client(&[
        "--addr",
        &addr,
        "--query-file",
        query_path.to_str().unwrap(),
    ]);
    assert!(first.contains("\"ok\":true"), "{first}");
    assert!(first.contains("\"cached\":false"), "{first}");
    assert!(first.contains("\"skyline\":[\"needle\"]"), "{first}");
    assert!(first.contains("\"plan\":\"prefilter\""), "{first}");
    let second = run_client(&[
        "--addr",
        &addr,
        "--query-file",
        query_path.to_str().unwrap(),
    ]);
    assert!(second.contains("\"cached\":true"), "{second}");
    // The result payload is byte-identical between miss and hit.
    let result_of = |s: &str| {
        let idx = s.find("\"result\":").expect("result field");
        s[idx..].trim_end().to_owned()
    };
    assert_eq!(result_of(&first), result_of(&second));

    // The same query piped through stdin (`--query-file -`).
    let mut piped = gss()
        .args(["client", "--addr", &addr, "--query-file", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn piped client");
    piped
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(QUERY_TEXT.as_bytes())
        .expect("pipe query");
    let piped_out = piped.wait_with_output().expect("piped client");
    assert!(piped_out.status.success());
    let piped_text = String::from_utf8(piped_out.stdout).unwrap();
    assert_eq!(
        result_of(&piped_text),
        result_of(&first),
        "stdin query answers identically (and hits the cache)"
    );

    // Stats show the traffic.
    let stats = run_client(&["--addr", &addr, "--stats"]);
    assert!(stats.contains("\"cache_hits\":2"), "{stats}");
    assert!(stats.contains("\"queries\":3"), "{stats}");

    // Graceful shutdown: the serve process drains and exits 0.
    let ack = run_client(&["--addr", &addr, "--shutdown"]);
    assert!(ack.contains("\"draining\":true"), "{ack}");
    let status = child.wait().expect("serve exits after drain");
    assert!(status.success(), "serve exited {status:?}");

    for p in [db_path, query_path] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn query_reads_query_file_from_stdin() {
    let db_path = write_temp("stdin-db.gdb", DB_TEXT);
    let mut child = gss()
        .args([
            "query",
            "--db",
            db_path.to_str().unwrap(),
            "--query-file",
            "-",
            "--format",
            "json",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gss query");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(QUERY_TEXT.as_bytes())
        .expect("pipe query");
    let out = child.wait_with_output().expect("gss query");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    // The database is used whole (3 graphs) and `needle` (isomorphic to
    // the piped query) must be in the skyline.
    assert!(text.contains("\"skyline\": [\"needle\"]"), "{text}");
    let _ = std::fs::remove_file(db_path);
}

#[test]
fn client_bench_reports_throughput_and_cache_hits() {
    let db_path = write_temp("bench-db.gdb", DB_TEXT);
    let (mut child, addr) = start_server(&db_path, &[]);

    let report = run_client(&[
        "--addr",
        &addr,
        "--bench",
        "--db",
        db_path.to_str().unwrap(),
        "--connections",
        "2",
        "--repeat",
        "3",
    ]);
    assert!(report.contains("bench: 9 queries"), "{report}");
    assert!(report.contains("throughput:"), "{report}");
    assert!(report.contains("failures: 0"), "{report}");
    // Passes 2 and 3 hit the cache: the server-side hit rate is positive.
    assert!(!report.contains("cache hit rate: 0.0%"), "{report}");

    run_client(&["--addr", &addr, "--shutdown"]);
    child.wait().expect("serve exits");
    let _ = std::fs::remove_file(db_path);
}
