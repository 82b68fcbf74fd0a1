//! Integration tests for the `fwdiff` and `fwclass` command-line tools,
//! driven through the real binaries.

use std::process::Command;

fn fwdiff() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fwdiff"))
}

fn fwclass() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fwclass"))
}

fn repo_path(rel: &str) -> String {
    format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn diff_mode_reports_discrepancies_and_exits_nonzero() {
    let out = fwdiff()
        .args([
            repo_path("policies/dmz_v1.fw"),
            repo_path("policies/dmz_v2.fw"),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "differing policies exit 1");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("discrepancy region(s)"), "got: {stdout}");
    assert!(
        stdout.contains("dport=5554"),
        "worm rule impact missing: {stdout}"
    );
    assert!(stdout.contains("10.0.0.53"), "DNS change missing: {stdout}");
}

#[test]
fn identical_policies_exit_zero() {
    let p = repo_path("policies/dmz_v1.fw");
    let out = fwdiff().args([&p, &p]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("semantically equivalent"));
}

#[test]
fn lint_mode_flags_anomalies() {
    let out = fwdiff()
        .args(["--lint".to_owned(), repo_path("policies/messy.fw")])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("shadowing"), "got: {stdout}");
    assert!(stdout.contains("correlation"), "got: {stdout}");
    assert!(stdout.contains("redundant"), "got: {stdout}");
}

#[test]
fn bad_usage_exits_2() {
    let out = fwdiff().output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = fwdiff()
        .args(["--frobnicate"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = fwdiff()
        .args(["--schema", "nope", "x", "y"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn missing_file_reports_error() {
    let out = fwdiff()
        .args(["/nonexistent/a.fw", "/nonexistent/b.fw"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("fwdiff:"));
}

#[test]
fn paper_schema_flag_works() {
    // Write two tiny paper-schema policies to a temp dir and diff them.
    let dir = std::env::temp_dir().join("fwdiff-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.fw");
    let b = dir.join("b.fw");
    std::fs::write(&a, "iface=0, dport=25 -> accept\n* -> discard\n").unwrap();
    std::fs::write(&b, "* -> discard\n").unwrap();
    let out = fwdiff()
        .args([
            "--schema".to_owned(),
            "paper".to_owned(),
            a.display().to_string(),
            b.display().to_string(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("dport=25"), "got: {stdout}");
}

#[test]
fn iptables_format_diff() {
    let out = fwdiff()
        .args([
            "--format".to_owned(),
            "iptables".to_owned(),
            repo_path("policies/router_v1.rules"),
            repo_path("policies/router_v2.rules"),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("dport=53"),
        "DNS narrowing missing: {stdout}"
    );
    assert!(
        stdout.contains("dport=25"),
        "mail narrowing missing: {stdout}"
    );
}

#[test]
fn fwclass_calibrates_and_serves_through_the_cache() {
    let out = fwclass()
        .args([
            "--zipf".to_owned(),
            "2000".to_owned(),
            "--cache".to_owned(),
            "4096".to_owned(),
            "--check".to_owned(),
            repo_path("policies/dmz_v2.fw"),
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("calibrated on"), "got: {stdout}");
    assert!(stdout.contains("(auto -> cache+"), "got: {stdout}");
    assert!(
        stdout.contains("check: linear scan == FDD walk"),
        "got: {stdout}"
    );
}

#[test]
fn fwclass_has_no_engine_flag() {
    for args in [["--engine", "scalar"], ["--lane-width", "16"]] {
        let out = fwclass()
            .args(args)
            .arg(repo_path("policies/dmz_v2.fw"))
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
    }
}

#[test]
fn fwclass_replays_an_edits_file() {
    let dir = std::env::temp_dir().join(format!("fwclass-edits-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        fwclass()
            .args(["--zipf", "2000", "--check", "--edits"])
            .arg(&path)
            .arg(repo_path("policies/dmz_v2.fw"))
            .output()
            .expect("binary runs")
    };

    // Each line applies to the policy the previous one left.
    let out = run(
        "good.edits",
        "# open telnet, demote ssh to logged discard, drop the dns rule\n\
         insert 0 dport=23, proto=6 -> accept\n\
         replace 3 src=10.0.1.0/24, dport=22, proto=6 -> discard-log\n\
         remove 4\n",
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("edit replay: 3 edit(s)"), "got: {stdout}");
    assert!(stdout.contains("maintained"), "got: {stdout}");

    let out = run("bad.edits", "remove 0\nreplace 1\n");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_ne!(out.status.code(), Some(0), "a malformed line must fail");
    assert!(stderr.contains("line 2"), "got: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
