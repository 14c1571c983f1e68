//! The round-structured FL simulator behind `fedopt sim`.
//!
//! Sweeps (the rest of this crate) evaluate the paper's *closed-form* metrics: one solve
//! per `(point, arm, seed)` cell, with the channel frozen at its scenario realisation.
//! This module simulates the deployment those formulas describe, **round by round**: over
//! `T` global rounds the channel refades (per-round log-normal redraws from a pinned seed
//! stream), devices straggle or drop out, a per-round *policy* chooses the allocation and
//! the participant subset, and a real [`fedsim`] synthetic training task is stepped over
//! exactly those participants. The output is a trajectory — cumulative energy, wall-clock
//! time, participation, loss and accuracy per round — for every policy column.
//!
//! # Policies
//!
//! The closed [`RoundPolicy`] set mirrors the sweep arms plus two scheme arms from
//! related work:
//!
//! * [`RoundPolicy::ReSolve`] — re-runs Algorithm 2 on each round's redrawn channel,
//!   warm-started from the previous round's solution when the engine enables warm starts.
//!   This is what the paper's optimizer would deliver if deployed with per-round CSI.
//! * [`RoundPolicy::Static`] — solves once on the base channel and replays that
//!   allocation forever: the cost of ignoring fading.
//! * [`RoundPolicy::FedAecs`] — FedAECS-style accuracy-constrained greedy selection: the
//!   cheapest energy-per-accuracy devices are admitted until the round accuracy target is
//!   met (accuracy proxy `ε_n = ln(1 + μ·D_n)`, round accuracy `Γ = ln(1 + Σ ε_n)`).
//! * [`RoundPolicy::Elastic`] — ELASTIC-style selection with a **sequential-upload**
//!   wall-clock model (each selected device uploads alone over the full band, waiting its
//!   `t_wait` recurrence turn).
//!
//! # Determinism
//!
//! Seeds are simulated in parallel on the engine's workers, which hand the per-seed runs
//! back in seed order; every per-seed simulation is a pure function of `(spec, seed)` —
//! round `t`'s channel redraw comes from
//! [`baselines::StreamDerivation::derive_round`]`(seed, t)` and straggler draws from an
//! independent stream, so no draw depends on simulation history — and the cross-seed
//! reduction folds in seed order. Output is therefore bit-identical across thread counts.

use crate::engine::{fold_in_order, SweepEngine};
use crate::json::Json;
use crate::spec::{ExperimentSpec, RoundPolicy, RoundsSpec, SpecError};
use baselines::derive_stream_seed;
use fedopt_core::{CoreError, JointOptimizer, SolverWorkspace};
use fedsim::{FederatedDataset, RoundTrainer, SyntheticConfig};
use flsys::{Allocation, CostBreakdown, Scenario, ScenarioBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wireless::{ChannelGain, LogNormalShadowing};

/// One row of a policy's mean trajectory (averaged over seeds, per round).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundRecord {
    /// Global round index (1-based).
    pub round: u32,
    /// Mean number of participating devices this round.
    pub participants: f64,
    /// Mean energy spent this round across participants (J).
    pub round_energy_j: f64,
    /// Mean wall-clock length of this round (s).
    pub round_time_s: f64,
    /// Mean cumulative energy since round 1 (J).
    pub cumulative_energy_j: f64,
    /// Mean cumulative wall-clock time since round 1 (s).
    pub cumulative_time_s: f64,
    /// Mean training loss of the global model after this round.
    pub global_loss: f64,
    /// Mean held-out accuracy of the global model after this round.
    pub test_accuracy: f64,
}

/// End-of-run summary of one policy column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyTotals {
    /// Mean total energy of the run (J).
    pub total_energy_j: f64,
    /// Mean total wall-clock time of the run (s).
    pub total_time_s: f64,
    /// Mean final training loss.
    pub final_loss: f64,
    /// Mean final test accuracy.
    pub final_accuracy: f64,
    /// Mean fraction of the fleet participating per round.
    pub participation_rate: f64,
}

/// One policy column of the simulation: label, kind, mean trajectory and totals.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyResult {
    /// Display label (the spec's override or the policy kind).
    pub label: String,
    /// The policy's wire name (`"re_solve"`, `"static"`, `"fedaecs"`, `"elastic"`).
    pub kind: String,
    /// Mean trajectory over seeds, one record per round in order.
    pub trajectory: Vec<RoundRecord>,
    /// End-of-run summary.
    pub totals: PolicyTotals,
}

/// The rendered outcome of a round simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSimRun {
    /// The spec's `id`.
    pub spec_id: String,
    /// The rounds section's report id.
    pub report_id: String,
    /// The rounds section's report title.
    pub title: String,
    /// Number of devices in the simulated scenario.
    pub devices: usize,
    /// Number of simulated global rounds.
    pub rounds: u32,
    /// Number of scenario seeds averaged over.
    pub seeds: usize,
    /// One column per policy, in spec order.
    pub policies: Vec<PolicyResult>,
}

/// Raw per-seed, per-round sample before cross-seed averaging.
#[derive(Debug, Clone, Copy)]
struct RoundSample {
    participants: usize,
    round_energy_j: f64,
    round_time_s: f64,
    global_loss: f64,
    test_accuracy: f64,
}

/// Per-device round cost after the straggler slowdown is applied.
#[derive(Debug, Clone, Copy)]
struct DeviceRound {
    upload_time_s: f64,
    computation_time_s: f64,
    energy_j: f64,
}

impl DeviceRound {
    fn time_s(self) -> f64 {
        self.upload_time_s + self.computation_time_s
    }
}

/// Runs the spec's round simulation on the engine described by its [`crate::spec::EngineSpec`].
///
/// # Errors
///
/// [`SpecError::Invalid`] when the spec fails validation or has no `rounds` section, and
/// any solver error surfaced by the `re_solve`/`static` policies.
pub fn simulate(spec: &ExperimentSpec) -> Result<RoundSimRun, SpecError> {
    simulate_with_engine(spec, &spec.engine.to_engine())
}

/// Runs the spec's round simulation on an explicit engine (thread-count and warm-start
/// control for tests; the spec's own engine section is ignored).
///
/// # Errors
///
/// See [`simulate`].
pub fn simulate_with_engine(
    spec: &ExperimentSpec,
    engine: &SweepEngine,
) -> Result<RoundSimRun, SpecError> {
    spec.validate()?;
    let rounds = spec.rounds.as_ref().ok_or_else(|| {
        SpecError::invalid("spec.rounds", "this spec has no round-simulation section")
    })?;
    let solver = spec
        .solver
        .resolve()
        .with_warm_start(engine.warm_starts())
        .with_superlinear_mu(engine.superlinear_mu())
        .with_adaptive_mu_bracket(engine.adaptive_mu_bracket())
        .with_outer_continuation(false);
    let seeds = spec.seeds.values();
    let template = spec
        .axis
        .kind
        .apply(spec.scenario.apply(ScenarioBuilder::paper_default()), spec.axis.values[0]);

    // One simulation per seed, engine-parallel. Each is a pure function of (spec, seed):
    // workspaces are per-worker scratch, warm state never crosses a (policy, seed) pair.
    let mut devices = 0;
    let mut trajectories = Vec::with_capacity(seeds.len());
    fold_in_order(
        seeds.len(),
        engine.threads(),
        seeds.len(),
        SolverWorkspace::new,
        |ws, idx| simulate_seed(rounds, &template, solver, seeds[idx], ws),
        |_, (n, trajectory)| {
            devices = n;
            trajectories.push(trajectory);
        },
    )?;
    Ok(reduce(spec, rounds, devices, seeds.len(), &trajectories))
}

/// Simulates every policy over all rounds for one scenario seed. Returns the scenario's
/// device count and `[policy][round] -> RoundSample`.
fn simulate_seed(
    rounds: &RoundsSpec,
    template: &ScenarioBuilder,
    solver: fedopt_core::SolverConfig,
    seed: u64,
    ws: &mut SolverWorkspace,
) -> Result<(usize, Vec<Vec<RoundSample>>), SpecError> {
    let scenario0 =
        template.clone().build(seed).map_err(|e| SpecError::from(CoreError::Model(e)))?;
    let n = scenario0.devices.len();
    let dataset = FederatedDataset::synthetic(
        &SyntheticConfig::default()
            .with_devices(n)
            .with_samples_per_device(rounds.training.samples_per_device as usize),
        derive_stream_seed(seed),
    );
    let optimizer = JointOptimizer::new(solver);

    let mut out = Vec::with_capacity(rounds.policies.len());
    for policy_spec in &rounds.policies {
        ws.reset_warm_start();
        let mut trainer = RoundTrainer::new(
            &dataset,
            rounds.training.learning_rate,
            scenario0.params.local_iterations,
        );
        // `static` pins the allocation solved on the base (round-0) channel.
        let static_alloc = match &policy_spec.policy {
            RoundPolicy::Static { weights } => {
                let alloc = optimizer.solve_with(&scenario0, *weights, ws)?.allocation;
                ws.reset_warm_start();
                Some(alloc)
            }
            _ => None,
        };

        let mut samples = Vec::with_capacity(rounds.rounds as usize);
        for round in 1..=rounds.rounds {
            let scenario_t = refade(&scenario0, rounds, seed, u64::from(round));
            let (dropped, slow) = straggler_draws(rounds, seed, u64::from(round), n);

            // Cost the round under this policy's allocation rule.
            let cost = match &policy_spec.policy {
                RoundPolicy::ReSolve { weights } => {
                    optimizer.solve_with(&scenario_t, *weights, ws)?.cost
                }
                RoundPolicy::Static { .. } => scenario_t
                    .cost(static_alloc.as_ref().expect("static allocation solved above"))
                    .map_err(|e| SpecError::from(CoreError::Model(e)))?,
                RoundPolicy::FedAecs { .. } => scenario_t
                    .cost(&Allocation::equal_split_max(&scenario_t))
                    .map_err(|e| SpecError::from(CoreError::Model(e)))?,
                RoundPolicy::Elastic { .. } => scenario_t
                    .cost(&sequential_allocation(&scenario_t))
                    .map_err(|e| SpecError::from(CoreError::Model(e)))?,
            };
            let per_device = device_rounds(&cost, &slow, rounds.straggler.slow_factor);

            let candidates: Vec<usize> = (0..n).filter(|&i| !dropped[i]).collect();
            let participants = match &policy_spec.policy {
                RoundPolicy::ReSolve { .. } | RoundPolicy::Static { .. } => candidates,
                RoundPolicy::FedAecs { epsilon, mu, t_max_s } => {
                    let energy: Vec<f64> = per_device.iter().map(|d| d.energy_j).collect();
                    let time: Vec<f64> = per_device.iter().map(|d| d.time_s()).collect();
                    let data: Vec<f64> =
                        scenario_t.devices.iter().map(|d| d.samples as f64).collect();
                    fedaecs_select(&candidates, &energy, &time, &data, *epsilon, *mu, *t_max_s)
                }
                RoundPolicy::Elastic { alpha } => elastic_select(&candidates, &per_device, *alpha),
            };

            let round_energy_j: f64 = participants.iter().map(|&i| per_device[i].energy_j).sum();
            let round_time_s = match &policy_spec.policy {
                RoundPolicy::Elastic { .. } => sequential_round_time(&participants, &per_device),
                _ => participants.iter().map(|&i| per_device[i].time_s()).fold(0.0_f64, f64::max),
            };

            let step = trainer.step(&participants);
            samples.push(RoundSample {
                participants: participants.len(),
                round_energy_j,
                round_time_s,
                global_loss: step.global_loss,
                test_accuracy: step.test_accuracy,
            });
        }
        out.push(samples);
    }
    Ok((n, out))
}

/// Round `t`'s scenario: the base realisation with every gain refaded by an independent
/// log-normal draw from the round's pinned stream. A zero `refade_db` freezes the channel
/// (and consumes no draws).
fn refade(scenario0: &Scenario, rounds: &RoundsSpec, seed: u64, round: u64) -> Scenario {
    let mut scenario = scenario0.clone();
    if rounds.refade_db > 0.0 {
        let mut rng = StdRng::seed_from_u64(rounds.channel_stream.derive_round(seed, round));
        let shadow = LogNormalShadowing::new(rounds.refade_db);
        for device in &mut scenario.devices {
            device.gain = ChannelGain::new(device.gain.value() * shadow.sample_linear(&mut rng));
        }
    }
    scenario
}

/// Per-device `(dropped, slow)` flags for one round, from a straggler stream independent
/// of the channel stream (re-deriving from `derive_stream_seed(seed)` decouples the two),
/// two draws per device in index order. Draws are consumed even when the probabilities
/// are zero so trajectories with and without stragglers share their channel realisations.
fn straggler_draws(rounds: &RoundsSpec, seed: u64, round: u64, n: usize) -> (Vec<bool>, Vec<bool>) {
    let straggler_seed = rounds.channel_stream.derive_round(derive_stream_seed(seed), round);
    let mut rng = StdRng::seed_from_u64(straggler_seed);
    let mut dropped = Vec::with_capacity(n);
    let mut slow = Vec::with_capacity(n);
    for _ in 0..n {
        dropped.push(rng.gen::<f64>() < rounds.straggler.dropout);
        slow.push(rng.gen::<f64>() < rounds.straggler.slow);
    }
    (dropped, slow)
}

/// Per-device round cost with the straggler slowdown folded in: a slow device's
/// computation time and energy scale by `slow_factor` (its upload is unaffected).
fn device_rounds(cost: &CostBreakdown, slow: &[bool], slow_factor: f64) -> Vec<DeviceRound> {
    cost.per_device
        .iter()
        .zip(slow)
        .map(|(d, &is_slow)| {
            let factor = if is_slow { slow_factor } else { 1.0 };
            DeviceRound {
                upload_time_s: d.upload_time_s,
                computation_time_s: d.computation_time_s * factor,
                energy_j: d.transmission_energy_j + d.computation_energy_j * factor,
            }
        })
        .collect()
}

/// The ELASTIC sequential-upload allocation: every device transmits at `p_max` over the
/// **full** band (uploads are serialized, not frequency-multiplexed) and computes at
/// `f_max`.
fn sequential_allocation(scenario: &Scenario) -> Allocation {
    let total_b = scenario.params.total_bandwidth.value();
    let powers = scenario.devices.iter().map(|d| d.p_max.value()).collect();
    let freqs = scenario.devices.iter().map(|d| d.f_max.value()).collect();
    let bandwidths = scenario.devices.iter().map(|_| total_b).collect();
    Allocation::new(powers, freqs, bandwidths)
}

/// FedAECS-style greedy feasible-subset selection.
///
/// Among `candidates` whose round time fits `t_max_s`, devices are admitted in ascending
/// energy-per-accuracy order (accuracy proxy `ε_i = ln(1 + μ·D_i)`) until the round
/// accuracy `Γ = ln(1 + Σ ε_i)` reaches `epsilon`; if the target is unreachable every
/// time-feasible device is selected (best effort). Returns indices in ascending order.
pub fn fedaecs_select(
    candidates: &[usize],
    energy_j: &[f64],
    time_s: &[f64],
    data_samples: &[f64],
    epsilon: f64,
    mu: f64,
    t_max_s: Option<f64>,
) -> Vec<usize> {
    let mut feasible: Vec<usize> =
        candidates.iter().copied().filter(|&i| !t_max_s.is_some_and(|t| time_s[i] > t)).collect();
    let eps = |i: usize| (1.0 + mu * data_samples[i]).ln();
    // Cheapest accuracy first: ascending energy per unit of ε, ties by device index.
    feasible.sort_by(|&a, &b| {
        let ka = energy_j[a] / eps(a);
        let kb = energy_j[b] / eps(b);
        ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });
    let mut selected = Vec::new();
    let mut eps_sum = 0.0_f64;
    for &i in &feasible {
        if (1.0 + eps_sum).ln() >= epsilon {
            break;
        }
        selected.push(i);
        eps_sum += eps(i);
    }
    selected.sort_unstable();
    selected
}

/// ELASTIC-style selection: a device participates when its energy score
/// `α·(E_i + 1) − 1 ≤ 0`; if nobody qualifies the cheapest candidate uploads alone (the
/// round must still aggregate something when any device is alive).
fn elastic_select(candidates: &[usize], per_device: &[DeviceRound], alpha: f64) -> Vec<usize> {
    let selected: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&i| alpha * (per_device[i].energy_j + 1.0) - 1.0 <= 0.0)
        .collect();
    if !selected.is_empty() {
        return selected;
    }
    candidates
        .iter()
        .copied()
        .min_by(|&a, &b| {
            per_device[a]
                .energy_j
                .partial_cmp(&per_device[b].energy_j)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        })
        .into_iter()
        .collect()
}

/// The sequential-upload round length: participants upload one at a time (longest
/// computation first, so uploads overlap the stragglers' compute), each waiting
/// `t_wait_{j+1} = max(0, t_comp_j + t_wait_j + t_up_j − t_comp_{j+1})` for the channel.
fn sequential_round_time(participants: &[usize], per_device: &[DeviceRound]) -> f64 {
    if participants.is_empty() {
        return 0.0;
    }
    let mut order = participants.to_vec();
    order.sort_by(|&a, &b| {
        per_device[b]
            .computation_time_s
            .partial_cmp(&per_device[a].computation_time_s)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut wait = 0.0_f64;
    let mut finish = 0.0_f64;
    for (j, &i) in order.iter().enumerate() {
        let d = per_device[i];
        if j > 0 {
            let prev = per_device[order[j - 1]];
            wait = (prev.computation_time_s + wait + prev.upload_time_s - d.computation_time_s)
                .max(0.0);
        }
        finish = finish.max(d.computation_time_s + wait + d.upload_time_s);
    }
    finish
}

/// Folds the per-seed trajectories into the mean-per-round report, in seed order.
fn reduce(
    spec: &ExperimentSpec,
    rounds: &RoundsSpec,
    devices: usize,
    seeds: usize,
    trajectories: &[Vec<Vec<RoundSample>>],
) -> RoundSimRun {
    let t = rounds.rounds as usize;
    let inv = 1.0 / seeds as f64;
    let policies = rounds
        .policies
        .iter()
        .enumerate()
        .map(|(p, policy_spec)| {
            let mut trajectory = Vec::with_capacity(t);
            let mut cumulative_energy = 0.0;
            let mut cumulative_time = 0.0;
            let mut participant_rounds = 0.0;
            for round in 0..t {
                let mut participants = 0.0;
                let mut energy = 0.0;
                let mut time = 0.0;
                let mut loss = 0.0;
                let mut accuracy = 0.0;
                for seed_run in trajectories {
                    let s = &seed_run[p][round];
                    participants += s.participants as f64;
                    energy += s.round_energy_j;
                    time += s.round_time_s;
                    loss += s.global_loss;
                    accuracy += s.test_accuracy;
                }
                let round_energy_j = energy * inv;
                let round_time_s = time * inv;
                cumulative_energy += round_energy_j;
                cumulative_time += round_time_s;
                participant_rounds += participants * inv;
                trajectory.push(RoundRecord {
                    round: (round + 1) as u32,
                    participants: participants * inv,
                    round_energy_j,
                    round_time_s,
                    cumulative_energy_j: cumulative_energy,
                    cumulative_time_s: cumulative_time,
                    global_loss: loss * inv,
                    test_accuracy: accuracy * inv,
                });
            }
            let last = trajectory.last().copied();
            PolicyResult {
                label: policy_spec.display_label().to_string(),
                kind: policy_spec.policy.name().to_string(),
                trajectory,
                totals: PolicyTotals {
                    total_energy_j: last.map_or(0.0, |r| r.cumulative_energy_j),
                    total_time_s: last.map_or(0.0, |r| r.cumulative_time_s),
                    final_loss: last.map_or(0.0, |r| r.global_loss),
                    final_accuracy: last.map_or(0.0, |r| r.test_accuracy),
                    participation_rate: participant_rounds / (t as f64 * devices as f64),
                },
            }
        })
        .collect();
    RoundSimRun {
        spec_id: spec.id.clone(),
        report_id: rounds.report.id.clone(),
        title: rounds.report.title.clone(),
        devices,
        rounds: rounds.rounds,
        seeds,
        policies,
    }
}

impl RoundSimRun {
    /// The report as a JSON value (deterministic member order).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::uint(crate::spec::SCHEMA_VERSION)),
            ("kind", Json::Str("round_sim".to_string())),
            ("spec_id", Json::Str(self.spec_id.clone())),
            (
                "report",
                Json::obj([
                    ("id", Json::Str(self.report_id.clone())),
                    ("title", Json::Str(self.title.clone())),
                ]),
            ),
            ("devices", Json::uint(self.devices as u64)),
            ("rounds", Json::uint(u64::from(self.rounds))),
            ("seeds", Json::uint(self.seeds as u64)),
            (
                "policies",
                Json::Arr(
                    self.policies
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("label", Json::Str(p.label.clone())),
                                ("kind", Json::Str(p.kind.clone())),
                                (
                                    "trajectory",
                                    Json::Arr(
                                        p.trajectory
                                            .iter()
                                            .map(|r| {
                                                Json::obj([
                                                    ("round", Json::uint(u64::from(r.round))),
                                                    ("participants", Json::Num(r.participants)),
                                                    ("round_energy_j", Json::Num(r.round_energy_j)),
                                                    ("round_time_s", Json::Num(r.round_time_s)),
                                                    (
                                                        "cumulative_energy_j",
                                                        Json::Num(r.cumulative_energy_j),
                                                    ),
                                                    (
                                                        "cumulative_time_s",
                                                        Json::Num(r.cumulative_time_s),
                                                    ),
                                                    ("global_loss", Json::Num(r.global_loss)),
                                                    ("test_accuracy", Json::Num(r.test_accuracy)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                                (
                                    "totals",
                                    Json::obj([
                                        ("total_energy_j", Json::Num(p.totals.total_energy_j)),
                                        ("total_time_s", Json::Num(p.totals.total_time_s)),
                                        ("final_loss", Json::Num(p.totals.final_loss)),
                                        ("final_accuracy", Json::Num(p.totals.final_accuracy)),
                                        (
                                            "participation_rate",
                                            Json::Num(p.totals.participation_rate),
                                        ),
                                    ]),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The canonical serialized report (pretty-printed, trailing newline, byte-stable).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// A fixed-width text rendering: one summary table plus one trajectory block per
    /// policy.
    pub fn to_table_string(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} — {} (N={}, T={}, seeds={})",
            self.report_id, self.title, self.devices, self.rounds, self.seeds
        );
        let _ = writeln!(
            out,
            "{:<16} {:>14} {:>12} {:>10} {:>10} {:>8}",
            "policy", "energy (J)", "time (s)", "loss", "accuracy", "part."
        );
        for p in &self.policies {
            let _ = writeln!(
                out,
                "{:<16} {:>14.3} {:>12.3} {:>10.4} {:>10.4} {:>8.3}",
                p.label,
                p.totals.total_energy_j,
                p.totals.total_time_s,
                p.totals.final_loss,
                p.totals.final_accuracy,
                p.totals.participation_rate
            );
        }
        for p in &self.policies {
            let _ = writeln!(out, "\n[{}] per-round trajectory", p.label);
            let _ = writeln!(
                out,
                "{:>6} {:>8} {:>14} {:>12} {:>14} {:>12} {:>10} {:>10}",
                "round",
                "part.",
                "energy (J)",
                "time (s)",
                "cum. E (J)",
                "cum. t (s)",
                "loss",
                "acc."
            );
            for r in &p.trajectory {
                let _ = writeln!(
                    out,
                    "{:>6} {:>8.2} {:>14.4} {:>12.4} {:>14.3} {:>12.3} {:>10.4} {:>10.4}",
                    r.round,
                    r.participants,
                    r.round_energy_j,
                    r.round_time_s,
                    r.cumulative_energy_j,
                    r.cumulative_time_s,
                    r.global_loss,
                    r.test_accuracy
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fedaecs_greedy_stops_at_the_accuracy_target() {
        // Four devices, equal data (ε_i identical), energies 1 < 2 < 3 < 4. With a target
        // met by two devices the two cheapest are selected.
        let candidates = [0, 1, 2, 3];
        let energy = [2.0, 1.0, 4.0, 3.0];
        let time = [1.0; 4];
        let data = [50.0; 4];
        let eps_one = (1.0 + 0.05 * 50.0_f64).ln();
        let target = (1.0 + 2.0 * eps_one).ln() * 0.999; // just under two devices' worth
        let picked = fedaecs_select(&candidates, &energy, &time, &data, target, 0.05, None);
        assert_eq!(picked, vec![0, 1]);
    }

    #[test]
    fn fedaecs_respects_the_time_cap() {
        let candidates = [0, 1, 2];
        let energy = [1.0, 2.0, 3.0];
        let time = [10.0, 1.0, 1.0];
        let data = [50.0; 3];
        // Device 0 is cheapest but too slow; an unreachable target selects every
        // time-feasible device.
        let picked = fedaecs_select(&candidates, &energy, &time, &data, 100.0, 0.05, Some(2.0));
        assert_eq!(picked, vec![1, 2]);
    }

    #[test]
    fn sequential_round_time_matches_the_recurrence_by_hand() {
        // Two devices: comp 4/1, upload 2/3. Order: device 0 (comp 4) first.
        // wait_1 = max(0, 4 + 0 + 2 − 1) = 5; finishes: 0 → 4+0+2 = 6, 1 → 1+5+3 = 9.
        let per_device = [
            DeviceRound { upload_time_s: 2.0, computation_time_s: 4.0, energy_j: 0.0 },
            DeviceRound { upload_time_s: 3.0, computation_time_s: 1.0, energy_j: 0.0 },
        ];
        let t = sequential_round_time(&[0, 1], &per_device);
        assert!((t - 9.0).abs() < 1e-12, "got {t}");
        // One device uploads with no waiting at all.
        let solo = sequential_round_time(&[1], &per_device);
        assert!((solo - 4.0).abs() < 1e-12, "got {solo}");
    }

    #[test]
    fn elastic_falls_back_to_the_cheapest_device() {
        let per_device = [
            DeviceRound { upload_time_s: 1.0, computation_time_s: 1.0, energy_j: 9.0 },
            DeviceRound { upload_time_s: 1.0, computation_time_s: 1.0, energy_j: 5.0 },
        ];
        // alpha = 1 admits only zero-energy devices → fallback to the min-energy one.
        assert_eq!(elastic_select(&[0, 1], &per_device, 1.0), vec![1]);
        // A permissive alpha admits both.
        assert_eq!(elastic_select(&[0, 1], &per_device, 0.05), vec![0, 1]);
        // All dropped → empty.
        assert_eq!(elastic_select(&[], &per_device, 0.05), Vec::<usize>::new());
    }
}
