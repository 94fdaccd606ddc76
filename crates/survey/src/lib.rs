#![deny(missing_docs)]

//! # survey — the literature survey of Section 2
//!
//! The paper systematically surveys NSDI, OSDI, SOSP and SC (2008–2018)
//! to ask whether researchers account for cloud performance
//! variability. The pipeline: 1,867 articles → 138 by automatic keyword
//! filtering → 44 with cloud-based experiments by manual review (two
//! reviewers, Cohen's Kappa 0.95/0.81/0.85 per category) → the
//! reporting-quality statistics of Figure 1.
//!
//! The corpus itself is not redistributable (and the paper only uses
//! its aggregates), so [`corpus::generate`] builds a deterministic
//! synthetic corpus whose aggregates match every number the paper
//! reports; [`pipeline::run_survey`] then re-runs the full analysis
//! pipeline over it — filters, reviewer scoring, Kappa, and the
//! Figure 1 / Table 2 summaries.

pub mod article;
pub mod corpus;
pub mod params;
pub mod pipeline;

pub use article::{Article, Reporting, Venue};
pub use corpus::generate;
pub use pipeline::{run_survey, SurveyResults};
