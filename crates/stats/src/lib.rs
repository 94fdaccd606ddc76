#![deny(missing_docs)]

//! # vstats — statistics for variability analysis
//!
//! The statistics toolkit behind the reproduction of *"Is Big Data
//! Performance Reproducible in Modern Cloud Networks?"* (Uta et al.,
//! NSDI 2020). The paper's methodological core is statistical:
//!
//! * **Nonparametric confidence intervals** for medians and tail
//!   quantiles via binomial order statistics (Le Boudec) — [`ci`].
//! * **CONFIRM** analysis (Maricq et al., OSDI'18): how many repetitions
//!   until the CI is within a target error bound — [`confirm`].
//! * **Cohen's Kappa** for the two-reviewer literature survey —
//!   [`kappa`].
//! * The **assumption checks** of finding F5.4: normality
//!   (Shapiro–Wilk), independence (Mann–Whitney U on split halves,
//!   Ljung–Box on autocorrelation), stationarity (augmented
//!   Dickey–Fuller) — [`htest`].
//! * **Descriptive statistics** matching the paper's plots: percentile
//!   boxes with 1st/99th whiskers, CDFs, coefficients of variation —
//!   [`describe`].
//! * **Bootstrap** CIs for statistics that are not plain quantiles —
//!   [`bootstrap`].
//! * **Streaming sketches** for million-tenant campaigns: fixed-memory
//!   deterministic quantiles and moments that are bit-pinned to the
//!   exact path at small N, and the gap-aware [`Coverage`] counters
//!   every campaign, fleet and stream pane reports — [`sketch`].
//!
//! All routines are dependency-light (`rand` only, for the bootstrap)
//! and deterministic where randomness is involved (explicit seeds).

pub mod autocorr;
pub mod bootstrap;
pub mod ci;
pub mod confirm;
pub mod describe;
pub mod dist;
pub mod effect;
pub mod htest;
pub mod kappa;
pub mod sketch;

pub use autocorr::{autocorrelation, autocovariance};
pub use bootstrap::bootstrap_ci;
pub use ci::{quantile_ci, QuantileCi};
pub use confirm::{confirm_curve, repetitions_needed, ConfirmPoint};
pub use describe::{coefficient_of_variation, mean, median, quantile, std_dev, BoxSummary, Summary};
pub use kappa::cohens_kappa;
pub use sketch::{Coverage, Sketch, SketchConfig};
