//! Network Weather Service-style resource monitoring and forecasting.
//!
//! The paper's GridSAT master ranks Grid resources "according to
//! \[their\] processing power and memory capacity as forecast by the
//! Network Weather Service" (Section 3.3). This crate rebuilds the two
//! pieces that ranking needs:
//!
//! * [`forecast`] — a battery of time-series predictors with NWS's
//!   hallmark *dynamic predictor selection* (always answer with the
//!   member that has the lowest accumulated error);
//! * [`trace`] — seeded synthetic CPU-availability traces with the
//!   AR(1)-plus-bursts shape of real shared-host load, standing in for
//!   the live measurements NWS sensors would take on the GrADS testbed.
//!
//! ```
//! use gridsat_nws::forecast::{Adaptive, Forecaster};
//! use gridsat_nws::trace::{LoadTrace, TraceConfig};
//!
//! let mut sensor = LoadTrace::new(TraceConfig::default(), 42);
//! let mut nws = Adaptive::standard();
//! for _ in 0..100 {
//!     nws.update(sensor.next_sample());
//! }
//! let availability = nws.predict().unwrap();
//! assert!((0.0..=1.0).contains(&availability));
//! ```

pub mod forecast;
#[cfg(test)]
mod metrics;
pub mod trace;

pub use forecast::{
    Adaptive, ExpSmoothing, Forecaster, LastValue, RunningMean, SlidingMean, SlidingMedian,
};
pub use trace::{LoadTrace, TraceConfig};
