//! Per-device energy formulas — equations (3)–(5) of the paper. Their total, equation (6),
//! is summed by the cost kernels in [`crate::allocation`].

use crate::device::DeviceProfile;
use crate::params::SystemParams;

/// Transmission energy of device `n` in **one global round**: `E_n^trans = p_n · T_n^up`
/// (equation (3)), with `T_n^up = d_n / r_n` (equation (2)).
///
/// Returns `f64::INFINITY` if the rate is non-positive (the device can never finish its
/// upload), which is how infeasibility propagates into objective comparisons.
pub fn transmission_energy_per_round(device: &DeviceProfile, power_w: f64, rate_bps: f64) -> f64 {
    if rate_bps <= 0.0 {
        return f64::INFINITY;
    }
    power_w * device.upload_bits / rate_bps
}

/// Computation energy of device `n` in **one local iteration**:
/// `E_n^cmp' = κ · c_n · D_n · f_n²` (equation (4)).
pub fn computation_energy_per_local_iteration(
    params: &SystemParams,
    device: &DeviceProfile,
    frequency_hz: f64,
) -> f64 {
    params.kappa * device.cycles_per_local_iteration() * frequency_hz * frequency_hz
}

/// Computation energy of device `n` in **one global round**:
/// `E_n^cmp = κ · R_l · c_n · D_n · f_n²` (equation (5)).
pub fn computation_energy_per_round(
    params: &SystemParams,
    device: &DeviceProfile,
    frequency_hz: f64,
) -> f64 {
    params.rl() * computation_energy_per_local_iteration(params, device, frequency_hz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wireless::channel::ChannelGain;
    use wireless::units::{Hertz, Watts};

    fn device() -> DeviceProfile {
        DeviceProfile {
            samples: 500,
            cycles_per_sample: 2.0e4,
            upload_bits: 28_100.0,
            gain: ChannelGain::from_db(-100.0),
            p_min: Watts::new(1.0e-3),
            p_max: Watts::new(1.585e-2),
            f_min: Hertz::new(1.0e6),
            f_max: Hertz::from_ghz(2.0),
        }
    }

    #[test]
    fn transmission_energy_hand_check() {
        // 10 mW, 28.1 kbit at 2.81 Mbit/s -> 10 ms upload -> 0.1 mJ.
        let e = transmission_energy_per_round(&device(), 0.01, 2.81e6);
        assert!((e - 1.0e-4).abs() < 1e-12);
    }

    #[test]
    fn transmission_energy_infinite_for_zero_rate() {
        assert!(transmission_energy_per_round(&device(), 0.01, 0.0).is_infinite());
    }

    #[test]
    fn computation_energy_hand_check() {
        let params = SystemParams::paper_default();
        // kappa cD f^2 = 1e-28 * 1e7 * (1e9)^2 = 1e-3 J per local iteration.
        let per_iter = computation_energy_per_local_iteration(&params, &device(), 1.0e9);
        assert!((per_iter - 1.0e-3).abs() < 1e-12);
        // One global round = R_l = 10 local iterations.
        let per_round = computation_energy_per_round(&params, &device(), 1.0e9);
        assert!((per_round - 1.0e-2).abs() < 1e-12);
    }

    #[test]
    fn computation_energy_scales_quadratically() {
        let params = SystemParams::paper_default();
        let e1 = computation_energy_per_round(&params, &device(), 0.5e9);
        let e2 = computation_energy_per_round(&params, &device(), 1.0e9);
        assert!((e2 / e1 - 4.0).abs() < 1e-9);
    }
}
