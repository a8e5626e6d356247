//! Forecast-accuracy evaluation, compiled for tests only: run the battery
//! over a series and report the error metrics NWS publications use (mean
//! absolute error, RMSE, mean error/bias) of its answer or of one member's.
//! This module's tests and `trace.rs`'s score them on synthetic load traces.

use crate::forecast::Adaptive;

/// Accuracy summary of a forecast over one series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Accuracy {
    /// Mean absolute error.
    pub mae: f64,
    /// Root-mean-square error.
    pub rmse: f64,
    /// Mean signed error (bias; positive = over-prediction).
    pub bias: f64,
    /// Number of scored predictions.
    pub n: usize,
}

/// Feed `series` one sample at a time to a fresh standard battery; before
/// each update, score `forecast` of the battery (its `predict`, or one
/// member's) against the incoming value.
pub fn evaluate(series: &[f64], forecast: impl Fn(&Adaptive) -> Option<f64>) -> Accuracy {
    let mut battery = Adaptive::standard();
    let mut abs = 0.0;
    let mut sq = 0.0;
    let mut signed = 0.0;
    let mut n = 0usize;
    for &x in series {
        if let Some(pred) = forecast(&battery) {
            let e = pred - x;
            abs += e.abs();
            sq += e * e;
            signed += e;
            n += 1;
        }
        battery.update(x);
    }
    if n == 0 {
        return Accuracy {
            mae: f64::NAN,
            rmse: f64::NAN,
            bias: f64::NAN,
            n: 0,
        };
    }
    Accuracy {
        mae: abs / n as f64,
        rmse: (sq / n as f64).sqrt(),
        bias: signed / n as f64,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecast::tests::{Member, MEMBERS};
    use crate::trace::{LoadTrace, TraceConfig};

    #[test]
    fn constant_series_scores_zero_error() {
        let acc = evaluate(&[5.0; 50], |a| a.member(Member::LastValue));
        assert_eq!(acc.n, 49); // first sample has no prediction yet
        assert_eq!(acc.mae, 0.0);
        assert_eq!(acc.rmse, 0.0);
        assert_eq!(acc.bias, 0.0);
    }

    #[test]
    fn empty_series_is_nan() {
        let acc = evaluate(&[], Adaptive::predict);
        assert_eq!(acc.n, 0);
        assert!(acc.mae.is_nan());
    }

    #[test]
    fn bias_detects_systematic_over_prediction() {
        // running mean over a decaying series over-predicts
        let series: Vec<f64> = (0..100).map(|i| 100.0 - i as f64).collect();
        let acc = evaluate(&series, |a| a.member(Member::RunningMean));
        assert!(acc.bias > 0.0, "bias {}", acc.bias);
    }

    #[test]
    fn rmse_at_least_mae() {
        let mut trace = LoadTrace::new(TraceConfig::default(), 11);
        let series = trace.take(500);
        for m in MEMBERS {
            let acc = evaluate(&series, |a| a.member(m));
            assert!(acc.rmse >= acc.mae - 1e-12, "{m:?}");
        }
        let acc = evaluate(&series, Adaptive::predict);
        assert!(acc.rmse >= acc.mae - 1e-12);
    }

    #[test]
    fn adaptive_is_near_the_best_single_predictor() {
        let mut trace = LoadTrace::new(TraceConfig::default(), 23);
        let series = trace.take(2000);
        let best = MEMBERS
            .into_iter()
            .map(|m| evaluate(&series, |a| a.member(m)).mae)
            .fold(f64::INFINITY, f64::min);
        let acc = evaluate(&series, Adaptive::predict);
        assert!(
            acc.mae <= best * 1.25,
            "adaptive {} vs best {}",
            acc.mae,
            best
        );
    }
}
