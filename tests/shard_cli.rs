//! End-to-end fleet execution through the real `fedopt` binary: the coordinator spawns
//! worker subprocesses of the same executable, and the sharded `--json` document must be
//! byte-for-byte the single-process one. Exercises the actual pipes (spec in on stdin,
//! shard result out on stdout) that the in-process fleet tests bypass.

use experiments::json::Json;
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn fedopt() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fedopt"));
    // Pin the worker count so the byte-compare is against a fixed schedule (results are
    // thread-count independent, but the stderr chatter is not part of the contract).
    cmd.env("FEDOPT_SWEEP_THREADS", "2");
    cmd
}

/// Runs `fedopt` with `args`, asserting success; returns stdout.
fn run_ok(args: &[&str]) -> String {
    let out = fedopt().args(args).output().expect("fedopt must spawn");
    assert!(
        out.status.success(),
        "fedopt {args:?} failed with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout must be UTF-8")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fedopt-shard-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn sharded_json_output_is_byte_identical_to_single_process() {
    let single = run_ok(&["run", "--fig", "2", "--seeds", "6", "--json"]);
    let sharded = run_ok(&["run", "--fig", "2", "--seeds", "6", "--json", "--shards", "3"]);
    assert_eq!(sharded, single, "a sharded run must not change a single byte of output");
}

#[test]
fn a_cached_rerun_answers_from_the_cache_and_reports_it() {
    let dir = temp_dir("cache");
    let dir_str = dir.to_str().unwrap();
    let args =
        ["run", "--fig", "2", "--seeds", "6", "--json", "--shards", "3", "--cache-dir", dir_str];
    let cold = run_ok(&args);
    let warm = run_ok(&args);

    let cold_doc = Json::parse(&cold).unwrap();
    let warm_doc = Json::parse(&warm).unwrap();
    let counter = |doc: &Json, name: &str| {
        doc.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64).unwrap()
    };
    assert_eq!(counter(&cold_doc, "shard_cache_hits"), 0);
    assert_eq!(counter(&cold_doc, "shard_cache_misses"), 3);
    assert_eq!(counter(&warm_doc, "shard_cache_hits"), 3);
    assert_eq!(counter(&warm_doc, "shard_cache_misses"), 0);

    // Cache traffic is the *only* thing that may differ: reports, spec identity and
    // sweep counters are identical between the cold and the cached run.
    assert_eq!(cold_doc.get("reports").unwrap(), warm_doc.get("reports").unwrap());
    assert_eq!(cold_doc.get("spec_id").unwrap(), warm_doc.get("spec_id").unwrap());
    for name in ["scenarios_built", "cells_evaluated"] {
        assert_eq!(counter(&cold_doc, name), counter(&warm_doc, name), "{name}");
    }

    // And the uncached sharded document is these reports without the cache counters.
    let plain = run_ok(&["run", "--fig", "2", "--seeds", "6", "--json", "--shards", "3"]);
    let plain_doc = Json::parse(&plain).unwrap();
    assert_eq!(plain_doc.get("reports").unwrap(), cold_doc.get("reports").unwrap());
    assert!(plain_doc.get("counters").unwrap().get("shard_cache_hits").is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_split_then_worker_mode_round_trips_through_the_real_pipes() {
    let split = run_ok(&["shard", "split", "--fig", "2", "--seeds", "4", "--shards", "2"]);
    let doc = Json::parse(&split).unwrap();
    let shards = doc.as_array().unwrap();
    assert_eq!(shards.len(), 2);

    // Feed the first shard spec to a worker over stdin, exactly as the coordinator does.
    let spec_text = shards[0].to_pretty_string();
    let mut child = fedopt()
        .args(["run", "--spec", "-", "--shard-json"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    use std::io::Write as _;
    child.stdin.take().unwrap().write_all(spec_text.as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let result =
        experiments::shard::ShardResult::from_json_str(&String::from_utf8(out.stdout).unwrap())
            .expect("worker stdout must be a shard result document");
    assert_eq!(result.cells.n_seeds, 2, "the first of two shards of 4 seeds carries 2");
}

#[test]
fn fleet_usage_errors_name_the_offending_flag() {
    let out = fedopt().args(["run", "--fig", "2", "--cache-dir", "/tmp/x"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--cache-dir requires --shards"), "{stderr}");
}

#[test]
fn cache_stats_and_gc_refuse_a_missing_directory_without_creating_it() {
    let dir = temp_dir("missing");
    let dir_str = dir.to_str().unwrap();
    for verb in ["stats", "gc"] {
        let out = fedopt().args(["shard", "cache", verb, "--cache-dir", dir_str]).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "cache {verb} on a missing directory");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("cannot list"), "cache {verb}: {stderr}");
        assert!(!dir.exists(), "cache {verb} must not create {}", dir.display());
    }
}
