//! # deeppower-workload
//!
//! Synthetic stand-ins for the paper's workloads (§5.1–§5.2):
//!
//! * **Applications** — the five Tailbench latency-critical applications
//!   (Xapian, Masstree, Moses, Sphinx, Img-dnn) are modeled as per-app
//!   service-time distributions: a log-normal body (producing the
//!   long-tailed CDFs of Fig. 1) over an observable "input size" feature,
//!   plus a fixed per-request overhead. SLAs and tail behaviour are
//!   calibrated to Table 3.
//! * **Diurnal trace** — the paper drives its experiments with the Alibaba
//!   e-commerce-search RPS trace, downsampled to a 360 s period (Fig. 6).
//!   [`DiurnalTrace`] generates a seed-deterministic equivalent with the
//!   same qualitative features: day/half-day harmonics, flash-crowd
//!   bursts, and AR(1) jitter.
//! * **Arrivals** — [`trace_arrivals`] turns a rate function into a
//!   concrete request sequence via non-homogeneous Poisson thinning, and
//!   [`constant_rate_arrivals`] draws a constant rate for the fixed-load
//!   experiments (Table 3, Fig. 2).
//!   [`ArrivalStream`] draws the trace-driven process on demand.
//!
//! Requests expose only *observable* features (input size, request class)
//! to control planes; the intrinsic service time stays hidden, exactly as
//! on the real system.

mod apps;
mod arrivals;
mod distributions;
mod diurnal;
mod trace_io;

pub use apps::{App, AppSpec};
pub use arrivals::{constant_rate_arrivals, trace_arrivals, ArrivalStream};
pub use diurnal::{DiurnalConfig, DiurnalTrace};
pub use trace_io::save_trace_csv;
