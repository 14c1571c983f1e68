//! Latency formulas — equations (2) and (7) of the paper.

use crate::device::DeviceProfile;
use crate::params::SystemParams;

/// Uplink transmission time of device `n` in one global round: `T_n^up = d_n / r_n`
/// (equation (2)). Returns `f64::INFINITY` for a non-positive rate.
pub fn upload_time(device: &DeviceProfile, rate_bps: f64) -> f64 {
    if rate_bps <= 0.0 {
        return f64::INFINITY;
    }
    device.upload_bits / rate_bps
}

/// Local computation time of device `n` in one global round:
/// `T_n^cmp = R_l · c_n · D_n / f_n` (equation (7)). Returns `f64::INFINITY` for a
/// non-positive frequency.
pub fn computation_time(params: &SystemParams, device: &DeviceProfile, frequency_hz: f64) -> f64 {
    if frequency_hz <= 0.0 {
        return f64::INFINITY;
    }
    params.rl() * device.cycles_per_local_iteration() / frequency_hz
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
    fn upload_time_hand_check() {
        assert!((upload_time(&device(), 2.81e6) - 0.01).abs() < 1e-12);
        assert!(upload_time(&device(), 0.0).is_infinite());
    }

    #[test]
    fn computation_time_hand_check() {
        let params = SystemParams::paper_default();
        // 10 * 1e7 cycles at 1 GHz = 0.1 s.
        assert!((computation_time(&params, &device(), 1.0e9) - 0.1).abs() < 1e-12);
        assert!(computation_time(&params, &device(), 0.0).is_infinite());
    }
}
