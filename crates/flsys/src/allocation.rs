//! Resource allocations and their cost evaluation.
//!
//! An [`Allocation`] is the decision vector of the optimization problem (8): one transmit
//! power, one CPU frequency and one bandwidth share per device. [`CostBreakdown`] is the
//! result of plugging an allocation into the per-device model ([`crate::model`]) — every
//! algorithm in the workspace (the paper's and all baselines) is scored through the same
//! [`crate::Scenario::cost`] path so comparisons are apples-to-apples.

use crate::error::FlError;
use crate::model::DeviceCost;
use crate::scenario::Scenario;
use crate::weights::Weights;
use serde::{Deserialize, Serialize};

/// One candidate solution of problem (8): per-device transmit power, CPU frequency and
/// bandwidth share.
#[derive(Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct Allocation {
    /// Transmit power of each device in watts (`p_n`).
    pub powers_w: Vec<f64>,
    /// CPU frequency of each device in hertz (`f_n`).
    pub frequencies_hz: Vec<f64>,
    /// Bandwidth allocated to each device in hertz (`B_n`).
    pub bandwidths_hz: Vec<f64>,
}

// Hand-written (not derived) so that `clone_from` delegates to `Vec::clone_from` and
// reuses the destination's capacity — the solver outer loops clone allocations every
// iteration, and the derived fallback (`*self = source.clone()`) would reallocate all
// three vectors each time, breaking the zero-allocation steady state.
impl Clone for Allocation {
    fn clone(&self) -> Self {
        Self {
            powers_w: self.powers_w.clone(),
            frequencies_hz: self.frequencies_hz.clone(),
            bandwidths_hz: self.bandwidths_hz.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.powers_w.clone_from(&source.powers_w);
        self.frequencies_hz.clone_from(&source.frequencies_hz);
        self.bandwidths_hz.clone_from(&source.bandwidths_hz);
    }
}

impl Allocation {
    /// Creates an allocation from raw vectors.
    pub fn new(powers_w: Vec<f64>, frequencies_hz: Vec<f64>, bandwidths_hz: Vec<f64>) -> Self {
        Self { powers_w, frequencies_hz, bandwidths_hz }
    }

    /// A simple feasible starting point: every device at maximum power, maximum frequency,
    /// and an equal share of the total bandwidth.
    pub fn equal_split_max(scenario: &Scenario) -> Self {
        let mut out = Self::default();
        out.set_equal_split_max(scenario);
        out
    }

    /// Overwrites `self` with [`Self::equal_split_max`]'s starting point, reusing the
    /// existing vector capacity — the hot-path form used once per solver run.
    pub fn set_equal_split_max(&mut self, scenario: &Scenario) {
        let n = scenario.devices.len();
        let share = scenario.params.total_bandwidth.value() / n.max(1) as f64;
        self.powers_w.clear();
        self.powers_w.extend(scenario.devices.iter().map(|d| d.p_max.value()));
        self.frequencies_hz.clear();
        self.frequencies_hz.extend(scenario.devices.iter().map(|d| d.f_max.value()));
        self.bandwidths_hz.clear();
        self.bandwidths_hz.resize(n, share);
    }

    /// The paper's initialization for the state-of-the-art comparison (Section VII-D):
    /// maximum power, maximum frequency, and `B/(2N)` bandwidth per device.
    pub fn half_split_max(scenario: &Scenario) -> Self {
        let mut out = Self::default();
        out.set_half_split_max(scenario);
        out
    }

    /// Overwrites `self` with [`Self::half_split_max`]'s starting point, reusing the
    /// existing vector capacity (see [`Self::set_equal_split_max`]).
    pub fn set_half_split_max(&mut self, scenario: &Scenario) {
        let n = scenario.devices.len();
        let share = scenario.params.total_bandwidth.value() / (2.0 * n.max(1) as f64);
        self.powers_w.clear();
        self.powers_w.extend(scenario.devices.iter().map(|d| d.p_max.value()));
        self.frequencies_hz.clear();
        self.frequencies_hz.extend(scenario.devices.iter().map(|d| d.f_max.value()));
        self.bandwidths_hz.clear();
        self.bandwidths_hz.resize(n, share);
    }

    /// Number of devices this allocation covers.
    pub fn len(&self) -> usize {
        self.powers_w.len()
    }

    /// Returns `true` if the allocation covers no devices.
    pub fn is_empty(&self) -> bool {
        self.powers_w.is_empty()
    }

    /// Checks that the three vectors have the same length and match the scenario size.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::AllocationSizeMismatch`] on any mismatch.
    pub fn check_shape(&self, scenario: &Scenario) -> Result<(), FlError> {
        let n = scenario.devices.len();
        for len in [self.powers_w.len(), self.frequencies_hz.len(), self.bandwidths_hz.len()] {
            if len != n {
                return Err(FlError::AllocationSizeMismatch { devices: n, got: len });
            }
        }
        Ok(())
    }

    /// Returns `true` if the allocation satisfies every constraint of problem (8) within the
    /// given absolute/relative tolerance: power boxes (8a), frequency boxes (8b), the total
    /// bandwidth budget (8c), and non-negative bandwidths.
    pub fn is_feasible(&self, scenario: &Scenario, tol: f64) -> bool {
        if self.check_shape(scenario).is_err() {
            return false;
        }
        let b_total = scenario.params.total_bandwidth.value();
        let mut b_sum = 0.0;
        for (i, dev) in scenario.devices.iter().enumerate() {
            let p = self.powers_w[i];
            let f = self.frequencies_hz[i];
            let b = self.bandwidths_hz[i];
            if !(p.is_finite() && f.is_finite() && b.is_finite()) {
                return false;
            }
            if p < dev.p_min.value() - tol * dev.p_max.value().max(1.0)
                || p > dev.p_max.value() + tol * dev.p_max.value().max(1.0)
            {
                return false;
            }
            if f < dev.f_min.value() - tol * dev.f_max.value()
                || f > dev.f_max.value() + tol * dev.f_max.value()
            {
                return false;
            }
            if b < -tol * b_total {
                return false;
            }
            b_sum += b;
        }
        b_sum <= b_total * (1.0 + tol)
    }

    /// Projects the allocation onto the feasible set of problem (8): clamps powers and
    /// frequencies into their boxes, floors bandwidths at zero, and rescales bandwidths
    /// proportionally if their sum exceeds the budget.
    pub fn project_feasible(&mut self, scenario: &Scenario) {
        let b_total = scenario.params.total_bandwidth.value();
        for (i, dev) in scenario.devices.iter().enumerate() {
            self.powers_w[i] = dev.clamp_power(self.powers_w[i]);
            self.frequencies_hz[i] = dev.clamp_frequency(self.frequencies_hz[i]);
            if !self.bandwidths_hz[i].is_finite() || self.bandwidths_hz[i] < 0.0 {
                self.bandwidths_hz[i] = 0.0;
            }
        }
        let sum: f64 = self.bandwidths_hz.iter().sum();
        if sum > b_total && sum > 0.0 {
            let scale = b_total / sum;
            for b in &mut self.bandwidths_hz {
                *b *= scale;
            }
        }
    }

    /// Largest absolute component-wise difference to another allocation (the convergence
    /// metric `|sol_k − sol_{k−1}|` of Algorithm 2), with each component normalized by its
    /// own typical magnitude so watts, hertz and gigahertz are comparable.
    pub fn normalized_distance(&self, other: &Allocation) -> f64 {
        fn rel_diff(a: &[f64], b: &[f64]) -> f64 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs() / x.abs().max(y.abs()).max(1e-12))
                .fold(0.0, f64::max)
        }
        rel_diff(&self.powers_w, &other.powers_w)
            .max(rel_diff(&self.frequencies_hz, &other.frequencies_hz))
            .max(rel_diff(&self.bandwidths_hz, &other.bandwidths_hz))
    }
}

/// Full cost of an allocation over the whole training process.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Total energy `E` of equation (6), in joules.
    pub total_energy_j: f64,
    /// Total transmission energy (all devices, all rounds), in joules.
    pub transmission_energy_j: f64,
    /// Total computation energy (all devices, all rounds), in joules.
    pub computation_energy_j: f64,
    /// Per-round completion time `max_n (T_n^cmp + T_n^up)`, in seconds.
    pub round_time_s: f64,
    /// Total completion time `R_g · round_time`, in seconds.
    pub total_time_s: f64,
    /// Per-device cost detail.
    pub per_device: Vec<DeviceCost>,
}

impl CostBreakdown {
    /// The weighted objective of problem (9): `w1·E + w2·R_g·T`.
    pub fn objective(&self, weights: Weights) -> f64 {
        weights.energy() * self.total_energy_j + weights.time() * self.total_time_s
    }

    /// Index and per-round time of the straggler (slowest device), if any.
    pub fn straggler(&self) -> Option<(usize, f64)> {
        self.per_device
            .iter()
            .enumerate()
            .map(|(i, c)| (i, c.round_time_s()))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times"))
    }
}

/// The scalar totals of a [`CostBreakdown`] — everything the optimizers and sweep
/// aggregates consume, with no per-device detail and therefore no owned buffers.
///
/// Produced by [`Scenario::cost_summary`](crate::Scenario::cost_summary), whose fused
/// single-pass evaluation is bit-identical to the corresponding [`CostBreakdown`] fields
/// (same per-device terms, same summation order) while performing zero heap allocations.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CostSummary {
    /// Total energy `E` of equation (6), in joules.
    pub total_energy_j: f64,
    /// Total transmission energy (all devices, all rounds), in joules.
    pub transmission_energy_j: f64,
    /// Total computation energy (all devices, all rounds), in joules.
    pub computation_energy_j: f64,
    /// Per-round completion time `max_n (T_n^cmp + T_n^up)`, in seconds.
    pub round_time_s: f64,
    /// Total completion time `R_g · round_time`, in seconds.
    pub total_time_s: f64,
}

impl CostSummary {
    /// The weighted objective of problem (9): `w1·E + w2·R_g·T`.
    pub fn objective(&self, weights: Weights) -> f64 {
        weights.energy() * self.total_energy_j + weights.time() * self.total_time_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;

    fn scenario() -> Scenario {
        ScenarioBuilder::paper_default().with_devices(5).build(1).unwrap()
    }

    #[test]
    fn equal_split_is_feasible() {
        let s = scenario();
        let a = Allocation::equal_split_max(&s);
        assert!(a.is_feasible(&s, 1e-9));
        assert_eq!(a.len(), 5);
        assert!(!a.is_empty());
    }

    #[test]
    fn half_split_uses_half_the_band() {
        let s = scenario();
        let a = Allocation::half_split_max(&s);
        let sum: f64 = a.bandwidths_hz.iter().sum();
        assert!((sum - 0.5 * s.params.total_bandwidth.value()).abs() < 1.0);
        assert!(a.is_feasible(&s, 1e-9));
    }

    #[test]
    fn shape_mismatch_detected() {
        let s = scenario();
        let mut a = Allocation::equal_split_max(&s);
        a.powers_w.pop();
        assert!(matches!(a.check_shape(&s), Err(FlError::AllocationSizeMismatch { .. })));
        assert!(!a.is_feasible(&s, 1e-9));
    }

    #[test]
    fn infeasible_when_power_exceeds_box() {
        let s = scenario();
        let mut a = Allocation::equal_split_max(&s);
        a.powers_w[0] = s.devices[0].p_max.value() * 2.0;
        assert!(!a.is_feasible(&s, 1e-9));
        a.project_feasible(&s);
        assert!(a.is_feasible(&s, 1e-9));
    }

    #[test]
    fn infeasible_when_bandwidth_over_budget() {
        let s = scenario();
        let mut a = Allocation::equal_split_max(&s);
        for b in &mut a.bandwidths_hz {
            *b *= 3.0;
        }
        assert!(!a.is_feasible(&s, 1e-9));
        a.project_feasible(&s);
        assert!(a.is_feasible(&s, 1e-6));
        let sum: f64 = a.bandwidths_hz.iter().sum();
        assert!(sum <= s.params.total_bandwidth.value() * (1.0 + 1e-9));
    }

    #[test]
    fn evaluation_matches_formula_components() {
        let s = scenario();
        let a = Allocation::equal_split_max(&s);
        let cost = s.cost(&a).unwrap();
        assert_eq!(cost.per_device.len(), 5);
        assert!(
            (cost.total_energy_j - (cost.transmission_energy_j + cost.computation_energy_j)).abs()
                < 1e-9
        );
        assert!((cost.total_time_s - s.params.rg() * cost.round_time_s).abs() < 1e-9);
        // Straggler time equals the round time.
        let (idx, t) = cost.straggler().unwrap();
        assert!(idx < 5);
        assert!((t - cost.round_time_s).abs() < 1e-12);
        // Objective is a convex combination of the two totals.
        let w = Weights::new(0.3, 0.7).unwrap();
        let obj = cost.objective(w);
        assert!((obj - (0.3 * cost.total_energy_j + 0.7 * cost.total_time_s)).abs() < 1e-9);
    }

    #[test]
    fn cost_summary_is_bit_identical_to_full_breakdown() {
        for seed in [1u64, 7, 42] {
            let s = ScenarioBuilder::paper_default().with_devices(8).build(seed).unwrap();
            let a = Allocation::equal_split_max(&s);
            let full = s.cost(&a).unwrap();
            let summary = s.cost_summary(&a).unwrap();
            assert_eq!(summary.total_energy_j, full.total_energy_j);
            assert_eq!(summary.transmission_energy_j, full.transmission_energy_j);
            assert_eq!(summary.computation_energy_j, full.computation_energy_j);
            assert_eq!(summary.round_time_s, full.round_time_s);
            assert_eq!(summary.total_time_s, full.total_time_s);
            let w = Weights::new(0.3, 0.7).unwrap();
            assert_eq!(summary.objective(w), full.objective(w));
        }
        // Shape mismatches are rejected the same way.
        let s = ScenarioBuilder::paper_default().with_devices(4).build(0).unwrap();
        let bad = Allocation::new(vec![0.01], vec![1e9], vec![1e6]);
        assert!(s.cost_summary(&bad).is_err());
    }

    #[test]
    fn set_equal_split_max_overwrites_any_previous_contents() {
        let s5 = ScenarioBuilder::paper_default().with_devices(5).build(1).unwrap();
        let s3 = ScenarioBuilder::paper_default().with_devices(3).build(2).unwrap();
        let mut a = Allocation::new(vec![f64::NAN; 9], vec![0.0; 2], vec![-1.0; 7]);
        a.set_equal_split_max(&s5);
        assert_eq!(a, Allocation::equal_split_max(&s5));
        a.set_equal_split_max(&s3);
        assert_eq!(a, Allocation::equal_split_max(&s3));
    }

    #[test]
    fn normalized_distance_zero_for_identical() {
        let s = scenario();
        let a = Allocation::equal_split_max(&s);
        assert_eq!(a.normalized_distance(&a), 0.0);
        let mut b = a.clone();
        b.powers_w[0] *= 1.1;
        assert!(a.normalized_distance(&b) > 0.05);
    }

    #[test]
    fn rates_positive_for_reasonable_allocation() {
        let s = scenario();
        let a = Allocation::equal_split_max(&s);
        for c in s.cost(&a).unwrap().per_device {
            assert!(c.rate_bps > 1.0e4, "rate {} suspiciously low", c.rate_bps);
        }
    }
}
