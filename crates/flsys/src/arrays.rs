//! Struct-of-arrays view of a scenario — the solver hot-path layout.
//!
//! [`Scenario`] stores one [`DeviceProfile`](crate::DeviceProfile) struct per device, which
//! is the right construction-time API but the wrong memory layout for the solver inner
//! loops: every per-device pass (the Theorem-2 KKT solve, Subproblem 1's golden-section
//! probes, the cost kernels) reads one or two `f64` fields out of each ~100-byte profile,
//! so an array-of-structs walk wastes most of every cache line and defeats
//! auto-vectorization. [`ScenarioArrays`] flattens the quantities those loops actually
//! read into contiguous `f64` lanes, built once per scenario (`O(n)`) and reused across
//! every inner iteration.
//!
//! The lanes store the *same* primitive values the profile getters return — no
//! re-association, no precombined products beyond [`cycles_per_iter`]
//! (`c_n · D_n`, which [`DeviceProfile::cycles_per_local_iteration`] already computes as a
//! single multiply) — so any consumer that evaluates the same arithmetic expression over a
//! lane produces bit-identical results to the struct walk. Regression tests pin this for
//! every lane and for the lane-based cost kernel.
//!
//! [`DeviceProfile`]: crate::DeviceProfile
//! [`DeviceProfile::cycles_per_local_iteration`]: crate::DeviceProfile::cycles_per_local_iteration
//! [`cycles_per_iter`]: ScenarioArrays::cycles_per_iter

use crate::scenario::Scenario;

/// Contiguous per-device `f64` lanes of everything the solver inner loops read.
///
/// Built from a [`Scenario`] with [`ScenarioArrays::rebuild`] (capacity-reusing — the
/// sweep hot path rebuilds into the same allocation for every scenario of a cell-group) or
/// [`ScenarioArrays::from_scenario`]. The struct is plain data: all lanes are public, have
/// equal length [`ScenarioArrays::len`], and are indexed consistently with
/// `Scenario::devices`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioArrays {
    /// Linear channel power gain `g_n`.
    pub gain: Vec<f64>,
    /// Upload payload `d_n` in bits.
    pub upload_bits: Vec<f64>,
    /// CPU cycles per local iteration `c_n · D_n`
    /// (exactly [`DeviceProfile::cycles_per_local_iteration`]).
    ///
    /// [`DeviceProfile::cycles_per_local_iteration`]:
    /// crate::DeviceProfile::cycles_per_local_iteration
    pub cycles_per_iter: Vec<f64>,
    /// Minimum transmit power `p_n^min` in watts.
    pub p_min_w: Vec<f64>,
    /// Maximum transmit power `p_n^max` in watts.
    pub p_max_w: Vec<f64>,
    /// Minimum CPU frequency `f_n^min` in hertz.
    pub f_min_hz: Vec<f64>,
    /// Maximum CPU frequency `f_n^max` in hertz.
    pub f_max_hz: Vec<f64>,
}

impl ScenarioArrays {
    /// An empty view (zero devices). Usable immediately; [`ScenarioArrays::rebuild`] fills
    /// it in.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty view with every lane pre-sized for `n` devices.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            gain: Vec::with_capacity(n),
            upload_bits: Vec::with_capacity(n),
            cycles_per_iter: Vec::with_capacity(n),
            p_min_w: Vec::with_capacity(n),
            p_max_w: Vec::with_capacity(n),
            f_min_hz: Vec::with_capacity(n),
            f_max_hz: Vec::with_capacity(n),
        }
    }

    /// Builds the lanes of `scenario` into a fresh view.
    pub fn from_scenario(scenario: &Scenario) -> Self {
        let mut out = Self::new();
        out.rebuild(scenario);
        out
    }

    /// Rebuilds every lane from `scenario`, reusing the existing vector capacity: after
    /// the first build at a given device count, rebuilding at the same (or a smaller)
    /// count performs **zero heap allocations** — the PR 3 zero-allocation contract for
    /// the solver steady state.
    pub fn rebuild(&mut self, scenario: &Scenario) {
        let devices = &scenario.devices;
        self.gain.clear();
        self.gain.extend(devices.iter().map(|d| d.gain.value()));
        self.upload_bits.clear();
        self.upload_bits.extend(devices.iter().map(|d| d.upload_bits));
        self.cycles_per_iter.clear();
        self.cycles_per_iter.extend(devices.iter().map(|d| d.cycles_per_local_iteration()));
        self.p_min_w.clear();
        self.p_min_w.extend(devices.iter().map(|d| d.p_min.value()));
        self.p_max_w.clear();
        self.p_max_w.extend(devices.iter().map(|d| d.p_max.value()));
        self.f_min_hz.clear();
        self.f_min_hz.extend(devices.iter().map(|d| d.f_min.value()));
        self.f_max_hz.clear();
        self.f_max_hz.extend(devices.iter().map(|d| d.f_max.value()));
    }

    /// Number of devices the lanes cover.
    pub fn len(&self) -> usize {
        self.gain.len()
    }

    /// Returns `true` if the view covers no devices.
    pub fn is_empty(&self) -> bool {
        self.gain.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::Allocation;
    use crate::scenario::ScenarioBuilder;

    #[test]
    fn lanes_match_the_profile_getters_exactly() {
        let s = ScenarioBuilder::paper_default().with_devices(17).build(5).unwrap();
        let a = ScenarioArrays::from_scenario(&s);
        assert_eq!(a.len(), 17);
        assert!(!a.is_empty());
        for (i, d) in s.devices.iter().enumerate() {
            assert_eq!(a.gain[i], d.gain.value());
            assert_eq!(a.upload_bits[i], d.upload_bits);
            assert_eq!(a.cycles_per_iter[i], d.cycles_per_local_iteration());
            assert_eq!(a.p_min_w[i], d.p_min.value());
            assert_eq!(a.p_max_w[i], d.p_max.value());
            assert_eq!(a.f_min_hz[i], d.f_min.value());
            assert_eq!(a.f_max_hz[i], d.f_max.value());
        }
    }

    #[test]
    fn rebuild_is_resize_safe_across_device_counts() {
        let mut a = ScenarioArrays::new();
        assert!(a.is_empty());
        for n in [10usize, 4, 7, 1, 12] {
            let s = ScenarioBuilder::paper_default().with_devices(n).build(n as u64).unwrap();
            a.rebuild(&s);
            assert_eq!(a, ScenarioArrays::from_scenario(&s), "stale lanes at n = {n}");
        }
    }

    #[test]
    fn lane_cost_kernel_is_bit_identical_to_struct_kernel() {
        for seed in [1u64, 7, 42] {
            let s = ScenarioBuilder::paper_default().with_devices(9).build(seed).unwrap();
            let arrays = ScenarioArrays::from_scenario(&s);
            let alloc = Allocation::equal_split_max(&s);
            let lanes = s.cost_summary_arrays(&arrays, &alloc).unwrap();
            let structs = s.cost_summary(&alloc).unwrap();
            assert_eq!(lanes, structs);
        }
    }

    #[test]
    fn lane_cost_kernel_rejects_mismatched_lanes() {
        let s5 = ScenarioBuilder::paper_default().with_devices(5).build(1).unwrap();
        let s3 = ScenarioBuilder::paper_default().with_devices(3).build(1).unwrap();
        let arrays = ScenarioArrays::from_scenario(&s3);
        let alloc = Allocation::equal_split_max(&s5);
        assert!(s5.cost_summary_arrays(&arrays, &alloc).is_err());
    }

    #[test]
    fn lane_cost_kernel_propagates_infeasible_rates() {
        let s = ScenarioBuilder::paper_default().with_devices(3).build(2).unwrap();
        let arrays = ScenarioArrays::from_scenario(&s);
        let mut alloc = Allocation::equal_split_max(&s);
        alloc.bandwidths_hz[1] = 0.0; // zero rate -> infinite upload time and energy
        let summary = s.cost_summary_arrays(&arrays, &alloc).unwrap();
        assert!(summary.total_energy_j.is_infinite());
        assert!(summary.round_time_s.is_infinite());
        assert_eq!(summary, s.cost_summary(&alloc).unwrap());
    }
}
