//! Building the release `fedopt` binary and running it as a child process, with wall time
//! and peak resident set measured per process.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads peak RSS through wait4(2) on 64-bit Linux");

/// Builds `fedopt` in release mode from the checkout at `root` and returns the binary's
/// path. There is no fallback: a failed build or a missing binary is an error.
pub fn build_fedopt(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "-p", "fedopt", "--bin", "fedopt"])
        .current_dir(root)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("`cargo build --release -p fedopt` failed ({status})"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) if Path::new(&dir).is_absolute() => PathBuf::from(dir),
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let bin = target.join("release").join("fedopt");
    if !bin.is_file() {
        return Err(format!("the release build left no binary at {}", bin.display()));
    }
    Ok(bin)
}

/// What one finished child process left behind.
#[derive(Debug)]
pub struct Finished {
    /// Exit code (`-signal` when killed by a signal).
    pub code: i32,
    /// Peak resident set of the child, KiB.
    pub peak_rss_kib: u64,
}

mod sys {
    use std::os::raw::{c_int, c_long};

    /// Room for `struct rusage` (18 `long`s on 64-bit Linux) with slack to spare.
    #[repr(C)]
    pub struct RUsage {
        pub words: [c_long; 32],
    }

    /// Index of `ru_maxrss`: after `ru_utime` and `ru_stime`, two `long`s each.
    pub const MAXRSS_WORD: usize = 4;

    extern "C" {
        pub fn wait4(pid: c_int, status: *mut c_int, options: c_int, usage: *mut RUsage) -> c_int;
    }
}

/// Waits for `child` with `wait4(2)`, which reports the peak resident set of that one
/// child. The child is reaped here, so `Child::wait` must not be called afterwards.
pub fn reap(child: &Child) -> io::Result<Finished> {
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status: i32 = 0;
    let mut usage = sys::RUsage { words: [0; 32] };
    loop {
        // SAFETY: `status` and `usage` are live, writable locals; `usage` is larger than
        // the kernel's `struct rusage`, and `pid` names a child of this process that has
        // not been reaped yet (the only other reaper, `Child::wait`, is never called).
        let rc = unsafe { sys::wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = if status & 0x7f == 0 { (status >> 8) & 0xff } else { -(status & 0x7f) };
    let peak_rss_kib = u64::try_from(usage.words[sys::MAXRSS_WORD]).unwrap_or(0);
    Ok(Finished { code, peak_rss_kib })
}

/// One batch process: its stdout, wall time from spawn to reap, and exit facts.
#[derive(Debug)]
pub struct RunOutput {
    /// Everything the process wrote to stdout.
    pub stdout: Vec<u8>,
    /// Wall seconds from spawn to reap.
    pub wall_s: f64,
    /// Exit code and peak RSS.
    pub finished: Finished,
}

/// Runs `bin args` with `input` on stdin, stderr into `stderr_path`, and waits for it.
pub fn run(bin: &Path, args: &[&str], input: &[u8], stderr_path: &Path) -> io::Result<RunOutput> {
    let stderr = File::create(stderr_path)?;
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()?;
    let mut stdin = child.stdin.take().expect("stdin is piped");
    let mut stdout = child.stdout.take().expect("stdout is piped");
    // Inputs are small specs the program reads in full before it writes anything, so
    // writing before reading cannot deadlock. A write error (the child died early) is
    // reported through the exit code below.
    let _ = stdin.write_all(input);
    drop(stdin);
    let mut out = Vec::new();
    let read = stdout.read_to_end(&mut out);
    let finished = reap(&child)?;
    let wall_s = start.elapsed().as_secs_f64();
    read?;
    Ok(RunOutput { stdout: out, wall_s, finished })
}

/// The last few lines of a child's stderr file, for failure messages.
pub fn stderr_tail(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(4)..].join(" | ")
}
