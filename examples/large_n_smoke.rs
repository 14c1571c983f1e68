//! CI smoke of the fleet-scale hot path: one 10⁴-device solve through the `large_n`
//! preset (CI also runs one at 10⁵), asserting **completion and counters, never timing**
//! (CI hosts are too noisy for wall-clock gates; timing is `perfbench`'s `fleet-1e5`).
//!
//! ```text
//! cargo run --release --example large_n_smoke                      # 10⁴ devices
//! cargo run --release --example large_n_smoke -- --devices 100000  # 10⁵ (CI runs both)
//! ```
//!
//! The solves run warm whatever `FEDOPT_WARM_START` says (CI also runs the 10⁴ smoke under
//! `FEDOPT_WARM_START=0`).
//!
//! What must hold for the run to pass:
//!
//! * the sweep completes and every report row is finite (the solver converged through the
//!   struct-of-arrays path at fleet scale);
//! * the scalar searches stayed flat in `n`: the `g'(μ)`-evaluation and SP1-probe counts
//!   are bounded by constants that a per-device (`O(n · evals)`) regression would blow
//!   through by orders of magnitude;
//! * the warm path's Subproblem-2 solves stayed inexact: at most 3 Jong iterations per
//!   outer iteration;
//! * the Theorem-2 step-4b `(ρ, idx)` sort ran at most once per parametric KKT solve.

use fedopt::experiments::presets;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut devices: usize = 10_000;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--devices" => {
                devices = args.next().ok_or("--devices needs a value")?.parse()?;
            }
            other => return Err(format!("unknown argument: {other}").into()),
        }
    }

    let spec = presets::large_n(devices);
    spec.validate()?;
    // The pass-count bound below is the warm search's, so warm start is pinned on: the
    // engine's default would follow `FEDOPT_WARM_START`, and a cold search takes about 8
    // passes per solve (448 over 56 KKT solves at 10⁴ devices).
    let engine = spec.engine.to_engine().with_warm_start(true);
    let start = Instant::now();
    let run = spec.run_with_engine(&engine)?;
    let wall = start.elapsed();

    for report in &run.reports {
        for (x, ys) in &report.rows {
            for y in ys {
                assert!(y.is_finite(), "report {} has a non-finite value at x = {x}", report.id);
            }
        }
        println!("{}: {:?}", report.id, report.rows);
    }

    let k = run.result.counters.solver;
    println!(
        "devices = {devices}: wall = {wall:.2?} (informational only), \
         outer = {}, jong = {}, kkt = {}, mu_evals = {}, sp1_probes = {}, lp_sorts = {}",
        k.outer_iterations,
        k.jong_iterations,
        k.kkt_solves,
        k.mu_bisect_evals,
        k.sp1_probe_evals,
        k.lp_sorts
    );

    assert!(k.outer_iterations > 0, "the solve never iterated");
    assert!(k.mu_bisect_evals > 0, "the μ-root search never ran");
    // Flat-in-n ceilings: one solve measures 45-53 g'(μ) passes over 13-16 KKT solves and
    // 194-285 SP1 probes at 10³, 10⁴, 3·10⁴ and 10⁵ devices (and the fleet benchmark's two
    // 10⁵-device solves of its seed 1, 102 passes over 28). A regression that made either
    // search iterate per device would overshoot these bounds a thousandfold.
    assert!(
        k.mu_bisect_evals < 5_000,
        "μ-evals exploded: {} (expected a flat, n-independent count)",
        k.mu_bisect_evals
    );
    // The Newton μ search: the first (cold) KKT solve takes a handful of passes and each
    // warm one after it two or three, so at most 4 per solve on average.
    assert!(
        k.mu_bisect_evals <= 4 * k.kkt_solves,
        "{} g'(μ) passes over {} KKT solves: more than 4 per solve",
        k.mu_bisect_evals,
        k.kkt_solves
    );
    // Inexact alternation: each warm outer iteration solves Subproblem 2 only as tightly as
    // the previous one moved, so 1-2 Jong iterations per outer iteration (13-16 over 8-10
    // at 10³-10⁵ devices); solving each one to `jong.phi_tol` took 4-5.
    assert!(
        k.jong_iterations <= 3 * k.outer_iterations,
        "{} Jong iterations over {} outer iterations: more than 3 per outer iteration",
        k.jong_iterations,
        k.outer_iterations
    );
    assert!(
        k.sp1_probe_evals < 5_000,
        "SP1 probes exploded: {} (expected a flat, n-independent count)",
        k.sp1_probe_evals
    );
    assert!(
        k.lp_sorts <= k.kkt_solves,
        "the step-4b LP sorted more than once per KKT solve ({} sorts, {} solves)",
        k.lp_sorts,
        k.kkt_solves
    );

    println!("large_n smoke OK");
    Ok(())
}
