//! Scenario generation — the simulation setup of Section VII-A.
//!
//! A [`Scenario`] bundles the global [`SystemParams`] with one [`DeviceProfile`] per device.
//! [`ScenarioBuilder`] reproduces the paper's parameter table and exposes every knob the
//! evaluation sweeps (number of devices, disc radius, power/frequency caps, sample counts,
//! round counts), so each figure's experiment is a couple of builder calls.

use crate::allocation::{
    evaluate_allocation, evaluate_allocation_summary, Allocation, CostBreakdown, CostSummary,
};
use crate::device::DeviceProfile;
use crate::error::FlError;
use crate::params::SystemParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use wireless::channel::ChannelGain;
use wireless::pathloss::PathLossModel;
use wireless::placement::DiscPlacement;
use wireless::shadowing::LogNormalShadowing;
use wireless::units::{Dbm, Hertz, Kilometres};

/// A fully instantiated FL deployment: global parameters plus one profile per device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Global system parameters.
    pub params: SystemParams,
    /// Per-device profiles (dataset, CPU, channel, boxes).
    pub devices: Vec<DeviceProfile>,
}

impl Scenario {
    /// Creates a scenario after validating every component.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::NoDevices`] for an empty device list, or the underlying
    /// [`FlError::InvalidParameter`] if any profile or the global parameters are malformed.
    pub fn new(params: SystemParams, devices: Vec<DeviceProfile>) -> Result<Self, FlError> {
        params.validate()?;
        if devices.is_empty() {
            return Err(FlError::NoDevices);
        }
        for d in &devices {
            d.validate()?;
        }
        Ok(Self { params, devices })
    }

    /// Number of devices `N`.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Evaluates an allocation: energy, latency, and per-device breakdown.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::AllocationSizeMismatch`] if the allocation does not match the
    /// scenario's device count.
    pub fn cost(&self, allocation: &Allocation) -> Result<CostBreakdown, FlError> {
        evaluate_allocation(self, allocation)
    }

    /// Evaluates an allocation's scalar totals only — bit-identical to the corresponding
    /// [`CostBreakdown`] fields, computed in one fused pass with **zero heap allocations**
    /// (the solver and sweep hot-path form; see [`CostSummary`]).
    ///
    /// # Errors
    ///
    /// Same as [`Scenario::cost`].
    pub fn cost_summary(&self, allocation: &Allocation) -> Result<CostSummary, FlError> {
        evaluate_allocation_summary(self, allocation)
    }

    /// [`Scenario::cost_summary`] reading the [`crate::ScenarioArrays`] lanes instead of
    /// the device profiles — bit-identical output, contiguous memory traffic. The solver
    /// hot path uses this form with the lanes it already caches in its workspace.
    ///
    /// # Errors
    ///
    /// Same as [`Scenario::cost_summary`], plus a size mismatch if `arrays` was built from
    /// a different device count.
    pub fn cost_summary_arrays(
        &self,
        arrays: &crate::ScenarioArrays,
        allocation: &Allocation,
    ) -> Result<CostSummary, FlError> {
        crate::arrays::evaluate_allocation_summary_arrays(self, arrays, allocation)
    }
}

/// Builder for [`Scenario`] reproducing the parameter table of Section VII-A.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioBuilder {
    params: SystemParams,
    num_devices: usize,
    radius: Kilometres,
    /// Samples per device; ignored when `total_samples` is set.
    samples_per_device: u64,
    /// When set, samples are split equally across devices (Fig. 4's setting).
    total_samples: Option<u64>,
    cycles_per_sample_range: (f64, f64),
    upload_bits: f64,
    p_min: Dbm,
    p_max: Dbm,
    f_min: Hertz,
    f_max: Hertz,
    path_loss: PathLossModel,
    shadowing: LogNormalShadowing,
}

impl ScenarioBuilder {
    /// The defaults of Section VII-A: 50 devices, 250 m radius disc, 500 samples/device,
    /// `c_n ∈ [1,3]·10⁴`, `d_n = 28.1 kbit`, `p ∈ [0, 12] dBm`, `f ∈ [1 MHz, 2 GHz]`,
    /// `B = 20 MHz`, `κ = 10⁻²⁸`, `R_g = 400`, `R_l = 10`, 8 dB shadowing.
    pub fn paper_default() -> Self {
        Self {
            params: SystemParams::paper_default(),
            num_devices: 50,
            radius: Kilometres::new(0.25),
            samples_per_device: 500,
            total_samples: None,
            cycles_per_sample_range: (1.0e4, 3.0e4),
            upload_bits: 28_100.0,
            p_min: Dbm::new(0.0),
            p_max: Dbm::new(12.0),
            f_min: Hertz::new(1.0e6),
            f_max: Hertz::from_ghz(2.0),
            path_loss: PathLossModel::paper_default(),
            shadowing: LogNormalShadowing::paper_default(),
        }
    }

    /// Sets the number of devices `N`.
    pub fn with_devices(mut self, n: usize) -> Self {
        self.num_devices = n;
        self
    }

    /// Sets the radius of the placement disc.
    pub fn with_radius_km(mut self, radius_km: f64) -> Self {
        self.radius = Kilometres::new(radius_km);
        self
    }

    /// Sets the number of samples per device (each device gets exactly this many).
    pub fn with_samples_per_device(mut self, samples: u64) -> Self {
        self.samples_per_device = samples;
        self.total_samples = None;
        self
    }

    /// Distributes a fixed total number of samples equally across devices (Fig. 4's setup).
    /// A total below the device count leaves a device without data, so the build fails.
    pub fn with_total_samples(mut self, total: u64) -> Self {
        self.total_samples = Some(total);
        self
    }

    /// Sets the per-sample CPU-cycle range `[lo, hi]` from which `c_n` is drawn uniformly.
    pub fn with_cycles_per_sample_range(mut self, lo: f64, hi: f64) -> Self {
        self.cycles_per_sample_range = (lo, hi);
        self
    }

    /// Sets the upload payload `d_n` in bits (same for every device, as in the paper).
    pub fn with_upload_bits(mut self, bits: f64) -> Self {
        self.upload_bits = bits;
        self
    }

    /// Sets the maximum transmit power in dBm (keeps the current minimum).
    pub fn with_p_max_dbm(mut self, p_max: f64) -> Self {
        self.p_max = Dbm::new(p_max);
        self
    }

    /// Sets the minimum transmit power in dBm (keeps the current maximum).
    pub fn with_p_min_dbm(mut self, p_min: f64) -> Self {
        self.p_min = Dbm::new(p_min);
        self
    }

    /// Sets the CPU-frequency box in Hz.
    pub fn with_frequency_range(mut self, f_min: Hertz, f_max: Hertz) -> Self {
        self.f_min = f_min;
        self.f_max = f_max;
        self
    }

    /// Sets the maximum CPU frequency in GHz (keeps the current minimum).
    pub fn with_f_max_ghz(mut self, f_max_ghz: f64) -> Self {
        self.f_max = Hertz::from_ghz(f_max_ghz);
        self
    }

    /// Sets the minimum CPU frequency in Hz (keeps the current maximum).
    pub fn with_f_min_hz(mut self, f_min_hz: f64) -> Self {
        self.f_min = Hertz::new(f_min_hz);
        self
    }

    /// Sets the number of global aggregation rounds `R_g`.
    pub fn with_global_rounds(mut self, rounds: u32) -> Self {
        self.params.global_rounds = rounds;
        self
    }

    /// Sets the number of local iterations per global round `R_l`.
    pub fn with_local_iterations(mut self, iterations: u32) -> Self {
        self.params.local_iterations = iterations;
        self
    }

    /// Sets the total uplink bandwidth `B`.
    pub fn with_total_bandwidth(mut self, bandwidth: Hertz) -> Self {
        self.params.total_bandwidth = bandwidth;
        self
    }

    /// Sets the log-normal shadowing standard deviation in dB (`0.0` disables fading).
    pub fn with_shadowing_db(mut self, sigma_db: f64) -> Self {
        self.shadowing = LogNormalShadowing::new(sigma_db);
        self
    }

    /// Builds the scenario, drawing device positions, channel gains and CPU parameters from a
    /// deterministic RNG seeded with `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::NoDevices`] when the device count is zero, or
    /// [`FlError::InvalidParameter`] if any derived profile fails validation (for example an
    /// inverted power box, or a device left without samples by a small total).
    pub fn build(&self, seed: u64) -> Result<Scenario, FlError> {
        if self.num_devices == 0 {
            return Err(FlError::NoDevices);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let placement = DiscPlacement::new(self.radius);
        let positions = placement.sample_n(self.num_devices, &mut rng);

        let samples_each: Vec<u64> = match self.total_samples {
            Some(total) => {
                let base = total / self.num_devices as u64;
                let remainder = (total % self.num_devices as u64) as usize;
                (0..self.num_devices).map(|i| if i < remainder { base + 1 } else { base }).collect()
            }
            None => vec![self.samples_per_device; self.num_devices],
        };

        let (c_lo, c_hi) = self.cycles_per_sample_range;
        let devices: Vec<DeviceProfile> = positions
            .iter()
            .zip(samples_each)
            .map(|(pos, samples)| {
                let distance = pos.distance_to_origin();
                let gain = ChannelGain::from_distance(
                    distance,
                    &self.path_loss,
                    &self.shadowing,
                    &mut rng,
                );
                DeviceProfile {
                    samples,
                    cycles_per_sample: rng.gen_range(c_lo..=c_hi),
                    upload_bits: self.upload_bits,
                    gain,
                    p_min: self.p_min.to_watts(),
                    p_max: self.p_max.to_watts(),
                    f_min: self.f_min,
                    f_max: self.f_max,
                }
            })
            .collect();

        Scenario::new(self.params, devices)
    }
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_builds_fifty_devices() {
        let s = ScenarioBuilder::paper_default().build(0).unwrap();
        assert_eq!(s.num_devices(), 50);
        for d in &s.devices {
            assert_eq!(d.samples, 500);
            assert!((1.0e4..=3.0e4).contains(&d.cycles_per_sample));
            assert_eq!(d.upload_bits, 28_100.0);
            assert!((d.p_max.value() - Dbm::new(12.0).to_watts().value()).abs() < 1e-12);
            assert_eq!(d.f_max.value(), 2.0e9);
            assert!(d.gain.value() > 0.0);
        }
    }

    #[test]
    fn builder_is_reproducible_per_seed() {
        let b = ScenarioBuilder::paper_default().with_devices(10);
        assert_eq!(b.build(42).unwrap(), b.build(42).unwrap());
        assert_ne!(b.build(42).unwrap(), b.build(43).unwrap());
    }

    #[test]
    fn total_samples_split_equally() {
        let s = ScenarioBuilder::paper_default()
            .with_devices(40)
            .with_total_samples(25_000)
            .build(3)
            .unwrap();
        let total: u64 = s.devices.iter().map(|d| d.samples).sum();
        assert_eq!(total, 25_000);
        let min = s.devices.iter().map(|d| d.samples).min().unwrap();
        let max = s.devices.iter().map(|d| d.samples).max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn total_samples_with_remainder() {
        let s = ScenarioBuilder::paper_default()
            .with_devices(7)
            .with_total_samples(100)
            .build(3)
            .unwrap();
        let total: u64 = s.devices.iter().map(|d| d.samples).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn zero_devices_is_an_error() {
        assert!(matches!(
            ScenarioBuilder::paper_default().with_devices(0).build(0),
            Err(FlError::NoDevices)
        ));
    }

    #[test]
    fn radius_controls_average_gain() {
        let near = ScenarioBuilder::paper_default()
            .with_devices(60)
            .with_radius_km(0.1)
            .with_shadowing_db(0.0)
            .build(5)
            .unwrap();
        let far = ScenarioBuilder::paper_default()
            .with_devices(60)
            .with_radius_km(1.5)
            .with_shadowing_db(0.0)
            .build(5)
            .unwrap();
        let avg = |s: &Scenario| {
            s.devices.iter().map(|d| d.gain.value()).sum::<f64>() / s.num_devices() as f64
        };
        assert!(avg(&near) > avg(&far) * 10.0);
    }

    #[test]
    fn builder_knobs_propagate() {
        let s = ScenarioBuilder::paper_default()
            .with_devices(4)
            .with_p_max_dbm(8.0)
            .with_f_max_ghz(1.0)
            .with_global_rounds(100)
            .with_local_iterations(30)
            .with_total_bandwidth(Hertz::from_mhz(10.0))
            .with_upload_bits(50_000.0)
            .with_samples_per_device(200)
            .with_cycles_per_sample_range(2.0e4, 2.0e4)
            .build(9)
            .unwrap();
        assert_eq!(s.params.global_rounds, 100);
        assert_eq!(s.params.local_iterations, 30);
        assert_eq!(s.params.total_bandwidth.value(), 1.0e7);
        for d in &s.devices {
            assert!((d.p_max.value() - Dbm::new(8.0).to_watts().value()).abs() < 1e-12);
            assert_eq!(d.f_max.value(), 1.0e9);
            assert_eq!(d.upload_bits, 50_000.0);
            assert_eq!(d.samples, 200);
            assert_eq!(d.cycles_per_sample, 2.0e4);
        }
    }

    #[test]
    fn lower_bound_and_shadowing_knobs_propagate() {
        let s = ScenarioBuilder::paper_default()
            .with_devices(3)
            .with_p_min_dbm(3.0)
            .with_f_min_hz(2.0e6)
            .build(1)
            .unwrap();
        for d in &s.devices {
            assert!((d.p_min.value() - Dbm::new(3.0).to_watts().value()).abs() < 1e-15);
            assert_eq!(d.f_min.value(), 2.0e6);
        }
        // The shadowing knob reaches the channel draw: same seed, other σ, other gains.
        let gains = |sigma_db: f64| -> Vec<f64> {
            let builder = ScenarioBuilder::paper_default().with_devices(3);
            let s = builder.with_shadowing_db(sigma_db).build(1).unwrap();
            s.devices.iter().map(|d| d.gain.value()).collect()
        };
        assert_ne!(gains(0.0), gains(8.0));
    }

    #[test]
    fn scenario_rejects_invalid_device() {
        let params = SystemParams::paper_default();
        let mut devices =
            ScenarioBuilder::paper_default().with_devices(2).build(0).unwrap().devices;
        devices[1].cycles_per_sample = -5.0;
        assert!(Scenario::new(params, devices).is_err());
    }

    #[test]
    fn a_total_below_the_device_count_is_an_error_not_one_sample_each() {
        let err = ScenarioBuilder::paper_default().with_devices(7).with_total_samples(3).build(0);
        assert_eq!(err.unwrap_err(), FlError::InvalidParameter { name: "samples", value: 0.0 });
        let exact = ScenarioBuilder::paper_default().with_devices(7).with_total_samples(7).build(0);
        assert!(exact.unwrap().devices.iter().all(|d| d.samples == 1));
    }
}
