//! Deadline-constrained training (the smart-transportation scenario of the paper's
//! introduction): the whole FL job must finish within a hard completion-time budget, and the
//! question is how much energy each allocation scheme needs to make that deadline.
//!
//! Compares the proposed algorithm against Scheme 1 (Yang et al., TWC 2021), the
//! communication-only and the computation-only optimizers — the Figure 7/8 setting.
//!
//! ```text
//! cargo run --release --example deadline_constrained
//! ```

use fedopt::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario =
        ScenarioBuilder::paper_default().with_devices(20).with_p_max_dbm(10.0).build(99)?;
    let config = SolverConfig::default();
    let optimizer = JointOptimizer::new(config);
    let scheme1 = FixedSplitAllocator::scheme1(config);
    let comm_only = FixedSplitAllocator::comm_only(config);
    let comp_only = FixedSplitAllocator::comp_only();

    println!(
        "{:>12} {:>14} {:>14} {:>14} {:>14}",
        "deadline (s)", "proposed (J)", "scheme 1 (J)", "comm-only (J)", "comp-only (J)"
    );
    for deadline in [60.0, 90.0, 120.0, 150.0] {
        let proposed = optimizer.solve_with_deadline(&scenario, deadline)?;
        let s1 = scheme1.allocate(&scenario, deadline)?;
        let comm = comm_only.allocate(&scenario, deadline)?;
        let comp = comp_only.allocate(&scenario, deadline)?;
        println!(
            "{:>12.0} {:>14.2} {:>14.2} {:>14.2} {:>14.2}",
            deadline,
            proposed.total_energy_j,
            s1.total_energy_j(),
            comm.total_energy_j(),
            comp.total_energy_j()
        );
        assert!(
            proposed.total_time_s <= deadline * 1.01,
            "proposed allocation must meet the deadline"
        );
    }

    println!("\nthe tighter the deadline, the larger the advantage of joint optimization (Figs. 7 and 8).");
    Ok(())
}
