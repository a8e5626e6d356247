//! Forecast-accuracy evaluation: run a forecaster over a series and
//! report the error metrics NWS publications use (mean absolute error,
//! RMSE, mean error/bias). Only tests call it: this module's and
//! `trace.rs`'s, which score the forecasters on synthetic load traces.

use crate::forecast::Forecaster;

/// Accuracy summary of a forecaster over one series.
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

/// Feed `series` one sample at a time; before each update, score the
/// forecaster's prediction against the incoming value.
pub fn evaluate(forecaster: &mut dyn Forecaster, series: &[f64]) -> Accuracy {
    let mut abs = 0.0;
    let mut sq = 0.0;
    let mut signed = 0.0;
    let mut n = 0usize;
    for &x in series {
        if let Some(pred) = forecaster.predict() {
            let e = pred - x;
            abs += e.abs();
            sq += e * e;
            signed += e;
            n += 1;
        }
        forecaster.update(x);
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

/// Evaluate a battery of forecasters over the same series and return
/// `(name, accuracy)` pairs sorted by MAE (best first).
pub fn compare(
    mut battery: Vec<Box<dyn Forecaster + Send>>,
    series: &[f64],
) -> Vec<(&'static str, Accuracy)> {
    let mut out: Vec<(&'static str, Accuracy)> = battery
        .iter_mut()
        .map(|f| {
            let acc = evaluate(f.as_mut(), series);
            (f.name(), acc)
        })
        .collect();
    out.sort_by(|a, b| a.1.mae.total_cmp(&b.1.mae));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecast::{Adaptive, ExpSmoothing, LastValue, RunningMean, SlidingMedian};
    use crate::trace::{LoadTrace, TraceConfig};

    #[test]
    fn constant_series_scores_zero_error() {
        let mut f = LastValue::default();
        let acc = evaluate(&mut f, &[5.0; 50]);
        assert_eq!(acc.n, 49); // first sample has no prediction yet
        assert_eq!(acc.mae, 0.0);
        assert_eq!(acc.rmse, 0.0);
        assert_eq!(acc.bias, 0.0);
    }

    #[test]
    fn empty_series_is_nan() {
        let mut f = LastValue::default();
        let acc = evaluate(&mut f, &[]);
        assert_eq!(acc.n, 0);
        assert!(acc.mae.is_nan());
    }

    #[test]
    fn bias_detects_systematic_over_prediction() {
        // running mean over a decaying series over-predicts
        let series: Vec<f64> = (0..100).map(|i| 100.0 - i as f64).collect();
        let mut f = RunningMean::default();
        let acc = evaluate(&mut f, &series);
        assert!(acc.bias > 0.0, "bias {}", acc.bias);
    }

    #[test]
    fn rmse_at_least_mae() {
        let mut trace = LoadTrace::new(TraceConfig::default(), 11);
        let series = trace.take(500);
        for f in [
            Box::new(LastValue::default()) as Box<dyn Forecaster + Send>,
            Box::new(ExpSmoothing::new(0.2)),
            Box::new(SlidingMedian::new(7)),
        ] {
            let mut f = f;
            let acc = evaluate(f.as_mut(), &series);
            assert!(acc.rmse >= acc.mae - 1e-12, "{}", f.name());
        }
    }

    #[test]
    fn adaptive_is_near_the_best_single_predictor() {
        let mut trace = LoadTrace::new(TraceConfig::default(), 23);
        let series = trace.take(2000);
        let ranked = compare(
            vec![
                Box::new(LastValue::default()),
                Box::new(RunningMean::default()),
                Box::new(ExpSmoothing::new(0.25)),
                Box::new(SlidingMedian::new(5)),
            ],
            &series,
        );
        let best = ranked[0].1.mae;
        let mut adaptive = Adaptive::standard();
        let acc = evaluate(&mut adaptive, &series);
        assert!(
            acc.mae <= best * 1.25,
            "adaptive {} vs best {}",
            acc.mae,
            best
        );
    }

    #[test]
    fn compare_sorts_by_mae() {
        let series: Vec<f64> = (0..200).map(|i| (i as f64 * 0.3).sin()).collect();
        let ranked = compare(
            vec![
                Box::new(LastValue::default()),
                Box::new(RunningMean::default()),
            ],
            &series,
        );
        assert!(ranked[0].1.mae <= ranked[1].1.mae);
        // last-value tracks a smooth sine better than the global mean
        assert_eq!(ranked[0].0, "last-value");
    }
}
