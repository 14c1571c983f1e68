//! The `fedopt` CLI: the eight historical per-figure binaries as one spec-driven tool.
//! All logic lives in [`fedopt::experiments::cli`] so it is unit-testable; this wrapper only
//! forwards `argv`, prints the payload to stdout, and maps errors to exit codes
//! (2 = usage, 1 = runtime).
//!
//! The same executable plays both fleet roles: `run --shards N` makes it a coordinator
//! that spawns copies of itself (`std::env::current_exe`) as workers, and
//! `run --spec - --shard-json` makes it a worker that reads a shard spec from stdin,
//! beats a liveness line on stderr, and streams the checksummed shard result back on
//! stdout (see [`fedopt::experiments::shard`]). Workers also honor the
//! `FEDOPT_FAULT_PLAN` chaos variable ([`fedopt::experiments::fault`]), which is how
//! the crash/stall/corruption hardening of the coordinator is tested end to end.
//!
//! `serve` turns the same binary into a long-lived allocation service
//! ([`fedopt::experiments::serve`]): JSON-lines requests in, one typed JSON response
//! per request out, and SIGTERM drains gracefully instead of killing mid-response —
//! the only verb that traps a signal.

use std::process::ExitCode;

/// Routes SIGTERM into the serve module's drain flag so `fedopt serve` finishes
/// in-flight requests and exits with its stats line instead of dying mid-response.
/// The handler body is a single atomic store ([`request_drain`] is async-signal-safe
/// by construction); installation failure is ignored — the worst case is the
/// pre-handler behavior, a hard kill.
#[cfg(unix)]
fn install_sigterm_drain() {
    use fedopt::experiments::serve::request_drain;
    extern "C" fn on_sigterm(_signum: i32) {
        request_drain();
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is the C standard library's handler registration; the handler
    // only performs an atomic store, which is async-signal-safe.
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Graceful drain is a service concern: only the serve verb traps SIGTERM; every
    // other verb keeps the default die-now semantics (a killed sweep must not linger).
    #[cfg(unix)]
    if args.first().is_some_and(|arg| arg == "serve") {
        install_sigterm_drain();
    }
    match fedopt::experiments::cli::main_with(&args) {
        Ok(payload) => {
            print!("{payload}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fedopt: {e}");
            if e.usage {
                eprintln!("\n{}", fedopt::experiments::cli::USAGE);
                ExitCode::from(2)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
