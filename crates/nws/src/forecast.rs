//! Time-series forecasters in the style of the Network Weather Service.
//!
//! NWS (Wolski et al.) runs a battery of cheap predictors over each
//! resource measurement series and, for every forecast, reports the value
//! produced by whichever predictor has the lowest accumulated error so
//! far — *dynamic predictor selection*. GridSAT's master consumes these
//! forecasts to rank resources (paper Section 3.3).

use std::collections::VecDeque;

/// A single-series forecaster: feed measurements, ask for the next value.
pub trait Forecaster {
    /// Incorporate a new measurement.
    fn update(&mut self, value: f64);
    /// Forecast the next measurement. `None` until enough data is seen.
    fn predict(&self) -> Option<f64>;
}

/// Predicts the last observed value.
#[derive(Default, Clone, Debug)]
pub struct LastValue {
    last: Option<f64>,
}

impl Forecaster for LastValue {
    fn update(&mut self, value: f64) {
        self.last = Some(value);
    }
    fn predict(&self) -> Option<f64> {
        self.last
    }
}

/// Predicts the mean of the whole history.
#[derive(Default, Clone, Debug)]
pub struct RunningMean {
    sum: f64,
    n: u64,
}

impl Forecaster for RunningMean {
    fn update(&mut self, value: f64) {
        self.sum += value;
        self.n += 1;
    }
    fn predict(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum / self.n as f64)
    }
}

/// Predicts the mean of the last `window` measurements.
#[derive(Clone, Debug)]
pub struct SlidingMean {
    window: usize,
    buf: VecDeque<f64>,
    sum: f64,
}

impl SlidingMean {
    pub fn new(window: usize) -> SlidingMean {
        assert!(window >= 1);
        SlidingMean {
            window,
            buf: VecDeque::new(),
            sum: 0.0,
        }
    }
}

impl Forecaster for SlidingMean {
    fn update(&mut self, value: f64) {
        self.buf.push_back(value);
        self.sum += value;
        if self.buf.len() > self.window {
            self.sum -= self.buf.pop_front().expect("non-empty");
        }
    }
    fn predict(&self) -> Option<f64> {
        (!self.buf.is_empty()).then(|| self.sum / self.buf.len() as f64)
    }
}

/// Predicts the median of the last `window` measurements.
#[derive(Clone, Debug)]
pub struct SlidingMedian {
    window: usize,
    buf: VecDeque<f64>,
}

impl SlidingMedian {
    pub fn new(window: usize) -> SlidingMedian {
        assert!(window >= 1);
        SlidingMedian {
            window,
            buf: VecDeque::new(),
        }
    }
}

impl Forecaster for SlidingMedian {
    fn update(&mut self, value: f64) {
        self.buf.push_back(value);
        if self.buf.len() > self.window {
            self.buf.pop_front();
        }
    }
    fn predict(&self) -> Option<f64> {
        if self.buf.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = self.buf.iter().copied().collect();
        v.sort_by(f64::total_cmp);
        let mid = v.len() / 2;
        Some(if v.len() % 2 == 1 {
            v[mid]
        } else {
            (v[mid - 1] + v[mid]) / 2.0
        })
    }
}

/// Exponential smoothing with gain `alpha`.
#[derive(Clone, Debug)]
pub struct ExpSmoothing {
    alpha: f64,
    state: Option<f64>,
}

impl ExpSmoothing {
    pub fn new(alpha: f64) -> ExpSmoothing {
        assert!((0.0..=1.0).contains(&alpha));
        ExpSmoothing { alpha, state: None }
    }
}

impl Forecaster for ExpSmoothing {
    fn update(&mut self, value: f64) {
        self.state = Some(match self.state {
            None => value,
            Some(s) => self.alpha * value + (1.0 - self.alpha) * s,
        });
    }
    fn predict(&self) -> Option<f64> {
        self.state
    }
}

/// NWS-style dynamic predictor selection: runs the whole battery, tracks
/// each predictor's cumulative absolute forecast error, and answers with
/// the current best.
pub struct Adaptive {
    members: Vec<Box<dyn Forecaster + Send>>,
    errors: Vec<f64>,
    forecasts: Vec<Option<f64>>,
}

impl Adaptive {
    /// The standard battery (the window sizes NWS ships by default are of
    /// this order).
    pub fn standard() -> Adaptive {
        Adaptive::new(vec![
            Box::new(LastValue::default()),
            Box::new(RunningMean::default()),
            Box::new(SlidingMean::new(5)),
            Box::new(SlidingMean::new(20)),
            Box::new(SlidingMedian::new(5)),
            Box::new(SlidingMedian::new(21)),
            Box::new(ExpSmoothing::new(0.25)),
            Box::new(ExpSmoothing::new(0.05)),
        ])
    }

    pub fn new(members: Vec<Box<dyn Forecaster + Send>>) -> Adaptive {
        assert!(!members.is_empty());
        let n = members.len();
        Adaptive {
            members,
            errors: vec![0.0; n],
            forecasts: vec![None; n],
        }
    }

    fn best_index(&self) -> usize {
        let mut best = 0;
        for i in 1..self.members.len() {
            if self.errors[i] < self.errors[best] {
                best = i;
            }
        }
        best
    }
}

impl Forecaster for Adaptive {
    fn update(&mut self, value: f64) {
        for (i, m) in self.members.iter_mut().enumerate() {
            if let Some(f) = self.forecasts[i] {
                self.errors[i] += (f - value).abs();
            }
            m.update(value);
            self.forecasts[i] = m.predict();
        }
    }
    fn predict(&self) -> Option<f64> {
        self.forecasts[self.best_index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(f: &mut impl Forecaster, xs: &[f64]) {
        for &x in xs {
            f.update(x);
        }
    }

    #[test]
    fn last_value() {
        let mut f = LastValue::default();
        assert_eq!(f.predict(), None);
        feed(&mut f, &[1.0, 3.0, 2.0]);
        assert_eq!(f.predict(), Some(2.0));
    }

    #[test]
    fn running_mean() {
        let mut f = RunningMean::default();
        assert_eq!(f.predict(), None);
        feed(&mut f, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(f.predict(), Some(2.5));
    }

    #[test]
    fn sliding_mean_window() {
        let mut f = SlidingMean::new(2);
        feed(&mut f, &[10.0, 1.0, 3.0]);
        assert_eq!(f.predict(), Some(2.0)); // only the last two
    }

    #[test]
    fn sliding_median_odd_even() {
        let mut f = SlidingMedian::new(3);
        feed(&mut f, &[5.0, 1.0]);
        assert_eq!(f.predict(), Some(3.0)); // even count: midpoint
        f.update(9.0);
        assert_eq!(f.predict(), Some(5.0)); // odd: middle of {1,5,9}
        f.update(2.0);
        assert_eq!(f.predict(), Some(2.0)); // window {1,9,2}
    }

    #[test]
    fn exp_smoothing_converges() {
        let mut f = ExpSmoothing::new(0.5);
        feed(&mut f, &[0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let p = f.predict().unwrap();
        assert!(p > 0.98 && p <= 1.0);
    }

    #[test]
    fn adaptive_tracks_constant_series_exactly() {
        let mut a = Adaptive::standard();
        feed(&mut a, &[7.0; 30]);
        assert_eq!(a.predict(), Some(7.0));
    }

    #[test]
    fn adaptive_prefers_last_value_on_a_trend() {
        // On a steadily rising series, last-value beats the long means:
        // the forecast is the last sample, not a mean lagging behind it.
        let mut a = Adaptive::standard();
        let xs: Vec<f64> = (0..200).map(|i| i as f64).collect();
        feed(&mut a, &xs);
        assert_eq!(a.predict(), Some(199.0));
    }

    #[test]
    fn adaptive_prefers_median_under_spikes() {
        // Stable series with rare large spikes: sliding median wins over
        // last-value (which is wrong right after every spike).
        let mut a = Adaptive::new(vec![
            Box::new(LastValue::default()),
            Box::new(SlidingMedian::new(5)),
        ]);
        let mut xs = Vec::new();
        for i in 0..300 {
            xs.push(if i % 10 == 9 { 100.0 } else { 1.0 });
        }
        feed(&mut a, &xs);
        // the series ends on a spike: last-value would forecast it again,
        // the median of the last five samples forecasts the stable level
        assert_eq!(xs.last(), Some(&100.0));
        assert_eq!(a.predict(), Some(1.0));
    }
}
