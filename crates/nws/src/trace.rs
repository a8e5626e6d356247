//! Synthetic resource traces: CPU availability and free memory on shared,
//! non-dedicated hosts.
//!
//! The paper runs on testbeds that were "in continuous use by various
//! researchers" — hosts have fluctuating background load. These generators
//! produce the measurement series the NWS forecasters consume and the grid
//! simulator replays: an AR(1) baseline with occasional load bursts, which
//! is the canonical shape of the CPU-availability series NWS was built to
//! predict.

use gridsat_cnf::rng::Rng;

/// Parameters of a synthetic host-load trace.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Long-run mean CPU availability in `[0, 1]` (1.0 = fully idle).
    pub mean_availability: f64,
    /// AR(1) persistence in `[0, 1)`; higher = smoother load.
    pub persistence: f64,
    /// Innovation noise amplitude.
    pub noise: f64,
    /// Probability per step of a load burst beginning.
    pub burst_prob: f64,
    /// Availability during a burst (e.g. 0.2 = heavy contention).
    pub burst_availability: f64,
    /// Mean burst length in steps.
    pub burst_len: f64,
    /// Amplitude of a diurnal (day/night) availability swing in `[0, 1)`:
    /// interactive grids are busiest during working hours. Zero disables.
    pub diurnal_amplitude: f64,
    /// Steps per simulated day for the diurnal cycle.
    pub diurnal_period: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            mean_availability: 0.85,
            persistence: 0.9,
            noise: 0.05,
            burst_prob: 0.01,
            burst_availability: 0.25,
            burst_len: 20.0,
            diurnal_amplitude: 0.0,
            diurnal_period: 1440.0,
        }
    }
}

impl TraceConfig {
    /// A dedicated (unshared) host: full availability, no bursts.
    pub fn dedicated() -> TraceConfig {
        TraceConfig {
            mean_availability: 1.0,
            persistence: 0.0,
            noise: 0.0,
            burst_prob: 0.0,
            burst_availability: 1.0,
            burst_len: 1.0,
            diurnal_amplitude: 0.0,
            diurnal_period: 1.0,
        }
    }

    /// A workstation with a day/night load cycle: busiest mid-"day".
    pub fn diurnal(mean: f64, amplitude: f64) -> TraceConfig {
        TraceConfig {
            mean_availability: mean,
            diurnal_amplitude: amplitude,
            ..TraceConfig::default()
        }
    }
}

/// A deterministic, seedable CPU-availability trace.
#[derive(Clone, Debug)]
pub struct LoadTrace {
    config: TraceConfig,
    rng: Rng,
    state: f64,
    burst_left: u32,
    step: u64,
}

impl LoadTrace {
    pub fn new(config: TraceConfig, seed: u64) -> LoadTrace {
        LoadTrace {
            state: config.mean_availability,
            config,
            rng: Rng::seed_from_u64(seed),
            burst_left: 0,
            step: 0,
        }
    }

    /// Next availability sample in `[0.05, 1.0]`.
    pub fn next_sample(&mut self) -> f64 {
        let c = &self.config;
        self.step += 1;
        // diurnal swing around the configured mean
        let mean = if c.diurnal_amplitude > 0.0 {
            let phase = (self.step as f64 / c.diurnal_period) * std::f64::consts::TAU;
            (c.mean_availability - c.diurnal_amplitude * phase.sin().max(0.0)).clamp(0.05, 1.0)
        } else {
            c.mean_availability
        };
        if self.burst_left > 0 {
            self.burst_left -= 1;
            let jitter: f64 = self.rng.range_f64(-0.05..0.05);
            return (c.burst_availability + jitter).clamp(0.05, 1.0);
        }
        if c.burst_prob > 0.0 && self.rng.gen_bool(c.burst_prob) {
            let len = (c.burst_len * self.rng.range_f64(0.5..1.5)).max(1.0);
            self.burst_left = len as u32;
        }
        let eps: f64 = if c.noise > 0.0 {
            self.rng.range_f64(-c.noise..c.noise)
        } else {
            0.0
        };
        self.state = c.persistence * self.state + (1.0 - c.persistence) * mean + eps;
        self.state = self.state.clamp(0.05, 1.0);
        self.state
    }

    /// Produce `n` samples.
    pub fn take(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next_sample()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = LoadTrace::new(TraceConfig::default(), 42);
        let mut b = LoadTrace::new(TraceConfig::default(), 42);
        assert_eq!(a.take(100), b.take(100));
        let mut c = LoadTrace::new(TraceConfig::default(), 43);
        assert_ne!(a.take(100), c.take(100));
    }

    #[test]
    fn samples_stay_in_range() {
        let mut t = LoadTrace::new(TraceConfig::default(), 7);
        for s in t.take(5000) {
            assert!((0.05..=1.0).contains(&s), "{s}");
        }
    }

    #[test]
    fn dedicated_host_is_fully_available() {
        let mut t = LoadTrace::new(TraceConfig::dedicated(), 1);
        for s in t.take(100) {
            assert_eq!(s, 1.0);
        }
    }

    #[test]
    fn mean_tracks_configuration() {
        let mut t = LoadTrace::new(
            TraceConfig {
                burst_prob: 0.0,
                ..TraceConfig::default()
            },
            3,
        );
        let xs = t.take(20_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.85).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn bursts_depress_availability() {
        let mut calm = LoadTrace::new(
            TraceConfig {
                burst_prob: 0.0,
                ..TraceConfig::default()
            },
            9,
        );
        let mut bursty = LoadTrace::new(
            TraceConfig {
                burst_prob: 0.05,
                ..TraceConfig::default()
            },
            9,
        );
        let mc = calm.take(10_000).iter().sum::<f64>() / 10_000.0;
        let mb = bursty.take(10_000).iter().sum::<f64>() / 10_000.0;
        assert!(mb < mc);
    }
}

#[cfg(test)]
mod diurnal_tests {
    use super::*;

    #[test]
    fn diurnal_swing_depresses_daytime_availability() {
        let mut t = LoadTrace::new(TraceConfig::diurnal(0.9, 0.5), 5);
        let xs = t.take(2880); // two "days"

        // daytime (first half of each period, where sin > 0) should be
        // noticeably lower on average than nighttime
        let day: f64 = xs
            .iter()
            .enumerate()
            .filter(|(i, _)| (i % 1440) < 720)
            .map(|(_, &x)| x)
            .sum::<f64>()
            / 1440.0;
        let night: f64 = xs
            .iter()
            .enumerate()
            .filter(|(i, _)| (i % 1440) >= 720)
            .map(|(_, &x)| x)
            .sum::<f64>()
            / 1440.0;
        assert!(day < night - 0.1, "day {day:.3} vs night {night:.3}");
    }

    #[test]
    fn diurnal_stays_in_range_and_deterministic() {
        let mut a = LoadTrace::new(TraceConfig::diurnal(0.8, 0.6), 9);
        let mut b = LoadTrace::new(TraceConfig::diurnal(0.8, 0.6), 9);
        let xs = a.take(3000);
        assert_eq!(xs, b.take(3000));
        assert!(xs.iter().all(|x| (0.05..=1.0).contains(x)));
    }

    #[test]
    fn adaptive_forecaster_handles_diurnal_traces() {
        use crate::forecast::Adaptive;
        use crate::metrics::evaluate;
        let mut t = LoadTrace::new(TraceConfig::diurnal(0.85, 0.4), 3);
        let xs = t.take(4000);
        let mut fc = Adaptive::standard();
        let acc = evaluate(&mut fc, &xs);
        // tracking predictors keep MAE well under the swing amplitude
        assert!(acc.mae < 0.2, "mae {}", acc.mae);
    }
}
