//! The serve chaos suite: the serving contract, end to end through the real `fedopt`
//! binary and its real stdin/stdout (and unix-socket) transports. The contract under
//! test — `fedopt serve` answers every request with a typed response (`ok` |
//! `degraded` | `shed` | `invalid`), never hangs, never panics the supervisor, drains
//! cleanly on EOF/SIGTERM, and identical request streams produce byte-identical
//! response streams.
//!
//! Serve-side faults are planted with `FEDOPT_FAULT_PLAN=<kind>@<request-index>` (see
//! `experiments::fault`): `slowreq` oversleeps one request's deadline, `poisonreq`
//! panics the worker mid-solve, `floodreq` holds a worker while the reader keeps
//! admitting. The warm-start switch is pinned on for every child so the suite behaves
//! identically under the CI matrix's `FEDOPT_WARM_START=0` leg.

use experiments::json::Json;
use std::io::Write as _;
use std::process::{Child, Command, ExitStatus, Output, Stdio};
use std::time::{Duration, Instant};

fn fedopt() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fedopt"));
    cmd.env("FEDOPT_SWEEP_THREADS", "2").env("FEDOPT_WARM_START", "1");
    cmd
}

/// Runs `fedopt serve <args>` with the given stdin payload and optional fault plan.
fn serve(args: &[&str], input: &str, fault: Option<&str>) -> Output {
    let mut cmd = fedopt();
    cmd.arg("serve").args(args).stdin(Stdio::piped()).stdout(Stdio::piped()).stderr(Stdio::piped());
    if let Some(plan) = fault {
        cmd.env("FEDOPT_FAULT_PLAN", plan);
    }
    let mut child = cmd.spawn().expect("fedopt must spawn");
    child.stdin.take().unwrap().write_all(input.as_bytes()).expect("stdin must accept requests");
    child.wait_with_output().expect("fedopt serve must exit")
}

/// Waits for `child` to exit within `limit`; past it, kills the child and fails with
/// `why`, so a server that keeps running fails its test instead of hanging it.
fn wait_within(child: &mut Child, limit: Duration, why: &str) -> ExitStatus {
    let deadline = Instant::now() + limit;
    loop {
        match child.try_wait().expect("wait must not fail") {
            Some(status) => return status,
            None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(25)),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                panic!("{why}");
            }
        }
    }
}

fn small_request(id: &str, seed: u64) -> String {
    format!(
        "{{\"schema_version\":1,\"id\":\"{id}\",\"scenario\":{{\"devices\":5}},\
         \"seed\":{seed},\"solver\":{{\"preset\":\"fast\"}}}}\n"
    )
}

fn response_lines(out: &Output) -> Vec<Json> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|line| Json::parse(line).expect("every response line must be valid JSON"))
        .collect()
}

fn status_of(v: &Json) -> String {
    v.get("status").and_then(Json::as_str).unwrap().to_string()
}

#[test]
fn a_replayed_request_stream_is_byte_identical_and_fully_typed() {
    let stream = format!(
        "{}{}not even json\n{}",
        small_request("a", 3),
        small_request("a-again", 3), // same problem as "a": a warm-cache hit
        small_request("b", 4),
    );
    let first = serve(&["--workers", "1"], &stream, None);
    assert!(first.status.success(), "{}", String::from_utf8_lossy(&first.stderr));
    let lines = response_lines(&first);
    let statuses: Vec<String> = lines.iter().map(status_of).collect();
    assert_eq!(statuses, ["ok", "ok", "invalid", "ok"]);
    // The warm-cache hit resolves with zero Jong iterations — counter-asserted through
    // the real binary, not just the in-process unit suite.
    let warm = &lines[1];
    assert_eq!(warm.get("warm").and_then(Json::as_str), Some("hit"));
    let jong =
        warm.get("counters").and_then(|c| c.get("jong_iterations")).and_then(Json::as_u64).unwrap();
    assert_eq!(jong, 0, "a warm-cache hit must skip the Newton-like loop entirely");
    // The stats line is the run's stderr summary.
    let stderr = String::from_utf8_lossy(&first.stderr);
    assert!(stderr.contains("fedopt-serve-stats requests=4"), "{stderr}");
    // Byte-identity across a full process restart: same stream, same bytes.
    let second = serve(&["--workers", "1"], &stream, None);
    assert!(second.status.success());
    assert_eq!(first.stdout, second.stdout, "a replayed stream must answer byte-identically");
}

#[test]
fn a_slow_request_misses_its_deadline_as_a_typed_degradation() {
    let stream = format!("{}{}", small_request("slow", 1), small_request("next", 2));
    let out = serve(&["--workers", "1", "--deadline-ms", "50"], &stream, Some("slowreq@0"));
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let lines = response_lines(&out);
    assert_eq!(status_of(&lines[0]), "degraded");
    let reason = lines[0].get("reason").and_then(Json::as_str).unwrap();
    assert!(reason.contains("deadline expired"), "{reason}");
    // The service answers on: a deadline miss degrades one response, not the session.
    assert_eq!(status_of(&lines[1]), "ok");
}

#[test]
fn fewer_samples_than_devices_degrades_instead_of_solving_one_sample_each() {
    let request = "{\"schema_version\":1,\"id\":\"thin\",\"scenario\":{\"devices\":15,\
                   \"total_samples\":3},\"solver\":{\"preset\":\"fast\"}}\n";
    let stream = format!("{request}{}", small_request("next", 2));
    let out = serve(&["--workers", "1"], &stream, None);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let lines = response_lines(&out);
    assert_eq!(status_of(&lines[0]), "degraded");
    let reason = lines[0].get("reason").and_then(Json::as_str).unwrap();
    assert!(reason.contains("`samples`"), "{reason}");
    assert_eq!(status_of(&lines[1]), "ok");
}

#[test]
fn overload_sheds_deterministically_instead_of_queueing_unboundedly() {
    let stream: String = (0..4).map(|i| small_request(&format!("r{i}"), i)).collect();
    let out = serve(&["--workers", "1", "--queue-depth", "1"], &stream, Some("floodreq@0"));
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let statuses: Vec<String> = response_lines(&out).iter().map(status_of).collect();
    // Request 0 holds the only worker, request 1 fills the depth-1 queue, 2 and 3 shed.
    assert_eq!(statuses, ["ok", "ok", "shed", "shed"]);
    let lines = response_lines(&out);
    let error = lines[2].get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("queue full"), "{error}");
}

#[test]
fn a_poisoned_request_quarantines_its_worker_and_the_service_answers_on() {
    let stream = format!("{}{}", small_request("poison", 1), small_request("after", 2));
    let out = serve(&["--workers", "1"], &stream, Some("poisonreq@0"));
    assert!(out.status.success(), "a worker panic must never kill the supervisor");
    let lines = response_lines(&out);
    assert_eq!(status_of(&lines[0]), "degraded");
    let reason = lines[0].get("reason").and_then(Json::as_str).unwrap();
    assert!(reason.contains("worker panicked"), "{reason}");
    assert!(reason.contains("quarantined"), "{reason}");
    assert_eq!(status_of(&lines[1]), "ok", "the respawned workspace serves the next request");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("worker_restarts=1"), "{stderr}");
}

#[test]
fn eof_drains_cleanly_even_with_no_requests() {
    let out = serve(&[], "", None);
    assert!(out.status.success());
    assert!(out.stdout.is_empty(), "no requests, no responses");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fedopt-serve-stats requests=0"), "{stderr}");
}

#[cfg(unix)]
#[test]
fn sigterm_drains_the_socket_transport_gracefully() {
    use std::os::unix::net::UnixStream;

    let dir = std::env::temp_dir().join(format!("fedopt-serve-term-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("fedopt.sock");
    let mut child = fedopt()
        .args(["serve", "--socket"])
        .arg(&socket)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("fedopt must spawn");

    // Wait for the bind, answer one request over the socket, then SIGTERM.
    let deadline = Instant::now() + Duration::from_secs(10);
    let stream = loop {
        match UnixStream::connect(&socket) {
            Ok(stream) => break stream,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(25)),
            Err(e) => panic!("socket never came up: {e}"),
        }
    };
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(small_request("s", 5).as_bytes()).unwrap();
    writer.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reader = stream;
    let mut response = String::new();
    std::io::Read::read_to_string(&mut reader, &mut response).unwrap();
    let doc = Json::parse(response.trim()).expect("one JSON response per request");
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));

    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill must run");
    assert!(term.success());
    let status = wait_within(
        &mut child,
        Duration::from_secs(10),
        "SIGTERM must drain the service, not leave it accepting",
    );
    assert!(status.success(), "a drained service exits cleanly");
    let mut stderr = String::new();
    std::io::Read::read_to_string(child.stderr.as_mut().unwrap(), &mut stderr).unwrap();
    assert!(stderr.contains("fedopt-serve-stats requests=1"), "{stderr}");
    assert!(!socket.exists(), "the socket file is removed on clean exit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--socket` on a path that holds a regular file is an error naming the path (exit 1),
/// and the file is left as it was: only a stale socket is ever replaced.
#[cfg(unix)]
#[test]
fn a_regular_file_at_the_socket_path_is_an_error_and_left_intact() {
    let dir = std::env::temp_dir().join(format!("fedopt-serve-file-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("not-a-socket");
    std::fs::write(&path, "data\n").unwrap();
    let mut child = fedopt()
        .args(["serve", "--socket"])
        .arg(&path)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("fedopt must spawn");
    let status = wait_within(
        &mut child,
        Duration::from_secs(10),
        "serve must refuse a regular file at the socket path, not serve on it",
    );
    let mut stderr = String::new();
    std::io::Read::read_to_string(child.stderr.as_mut().unwrap(), &mut stderr).unwrap();
    assert_eq!(status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&path.display().to_string()), "the error names the path: {stderr}");
    assert!(!stderr.contains("listening on"), "nothing listens on a refused path: {stderr}");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), "data\n", "the file must be untouched");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 64 MiB request line between two valid requests: the server answers it `invalid` at
/// its `seq` without storing it, serves its neighbours, and its peak resident set stays
/// far below the line's size.
#[cfg(target_os = "linux")]
#[test]
fn an_oversized_request_line_is_rejected_without_buffering_it() {
    use std::io::{BufRead as _, BufReader};

    const LINE_BYTES: usize = 64 << 20;
    let mut child = fedopt()
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("fedopt must spawn");
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(small_request("before", 3).as_bytes()).unwrap();
    let filler = vec![b'x'; 1 << 20];
    for _ in 0..LINE_BYTES / filler.len() {
        stdin.write_all(&filler).unwrap();
    }
    stdin.write_all(b"\n").unwrap();
    stdin.write_all(small_request("after", 4).as_bytes()).unwrap();
    stdin.flush().unwrap();

    // Read all three answers while stdin is still open, so the server is alive to be
    // measured.
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let responses: Vec<Json> = (0..3)
        .map(|_| {
            let mut line = String::new();
            stdout.read_line(&mut line).unwrap();
            Json::parse(&line).expect("every response line must be valid JSON")
        })
        .collect();
    let status = std::fs::read_to_string(format!("/proc/{}/status", child.id())).unwrap();
    let peak_kib: usize = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|value| value.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/<pid>/status must report VmHWM");
    drop(stdin);
    assert!(child.wait().unwrap().success());

    let seq_of = |v: &Json| v.get("seq").and_then(Json::as_u64);
    assert_eq!((seq_of(&responses[0]), status_of(&responses[0]).as_str()), (Some(0), "ok"));
    assert_eq!((seq_of(&responses[1]), status_of(&responses[1]).as_str()), (Some(1), "invalid"));
    let error = responses[1].get("error").and_then(Json::as_str).unwrap();
    assert_eq!(error, format!("request line exceeds 1048576 bytes ({} bytes)", LINE_BYTES + 1));
    assert_eq!((seq_of(&responses[2]), status_of(&responses[2]).as_str()), (Some(2), "ok"));
    assert!(peak_kib < 32 << 10, "serve peaked at {peak_kib} KiB reading a 64 MiB line");
}
