//! `trace-query` on damaged traces: a final line torn mid-write is skipped
//! with one warning, while any malformed newline-terminated line stays a
//! hard error naming its line.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A small recorded trace (the core crate's golden trace).
const TRACE: &str = include_str!("../../core/tests/golden/tiny_trace.jsonl");

/// Writes `text` to a file of this test's own and runs
/// `trace-query <file> summary` on it.
fn summary_of(name: &str, text: &str) -> Output {
    let path: PathBuf =
        std::env::temp_dir().join(format!("trace-query-{}-{name}.jsonl", std::process::id()));
    std::fs::write(&path, text).expect("write the test trace");
    let out = Command::new(env!("CARGO_BIN_EXE_trace-query"))
        .arg(&path)
        .arg("summary")
        .output()
        .expect("run trace-query");
    let _ = std::fs::remove_file(&path);
    out
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn torn_final_line_is_skipped_with_one_warning() {
    let intact = summary_of("intact", TRACE);
    assert!(intact.status.success(), "{}", stderr(&intact));
    assert_eq!(stderr(&intact), "");

    let last = TRACE.lines().last().expect("trace has lines");
    let torn = format!("{TRACE}{}", &last[..last.len() / 2]);
    let out = summary_of("torn", &torn);
    assert!(out.status.success(), "{}", stderr(&out));
    let warnings: Vec<String> = stderr(&out).lines().map(str::to_owned).collect();
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert!(warnings[0].starts_with("warning: "), "{warnings:?}");
    assert!(warnings[0].contains("torn final line"), "{warnings:?}");
    // The skipped line changes nothing in the report.
    assert_eq!(out.stdout, intact.stdout);
}

#[test]
fn malformed_newline_terminated_final_line_fails() {
    let lines = TRACE.lines().count();
    let out = summary_of("bad-last", &format!("{TRACE}{{\"t\":1,\"ev\"\n"));
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains(&format!("trace line {}:", lines + 1)),
        "{}",
        stderr(&out)
    );
}

#[test]
fn malformed_middle_line_fails() {
    let (head, tail) = TRACE.split_at(TRACE.find('\n').expect("several lines") + 1);
    let out = summary_of("bad-middle", &format!("{head}not json\n{tail}"));
    assert!(!out.status.success());
    assert!(stderr(&out).contains("trace line 2:"), "{}", stderr(&out));
}
