#![deny(missing_docs)]

//! # proplite — deterministic property testing, std-only
//!
//! A small replacement for `proptest`, built for the hermetic-build
//! policy of this workspace (no registry dependencies, fully offline).
//! Cases are generated from [`netsim::rng::SimRng`] streams, so a test
//! run is a pure function of its seed: the same binary produces the
//! same cases on every machine, every time.
//!
//! ## Model
//!
//! A [`Strategy`] produces a *seed representation* (`Seed`, the
//! shrinkable form) and materializes it into the *value* the property
//! receives. Base strategies (ranges, [`bools`], [`vec_of`], tuples)
//! use the value itself as the seed; combinators ([`Strategy::prop_map`],
//! [`Strategy::prop_filter`], [`oneof`]) keep the underlying seed so
//! shrinking works through them.
//!
//! On failure the runner shrinks greedily: it asks the strategy for
//! simpler candidate seeds, re-runs the property on each, and restarts
//! from the first candidate that still fails, until no candidate fails
//! or the iteration budget is exhausted. The panic message reports the
//! minimal counterexample *and* the exact case seed; re-running with
//! `PROPLITE_REPLAY=<seed>` regenerates that single case.
//!
//! ## Porting from proptest
//!
//! | proptest | proplite |
//! |---|---|
//! | `proptest! { #![proptest_config(ProptestConfig::with_cases(n))] ... }` | `prop_cases! { #![config(Config::with_cases(n))] ... }` |
//! | `prop::collection::vec(s, lo..hi)` | `vec_of(s, lo..hi)` |
//! | `any::<bool>()` | `bools()` |
//! | `s.prop_map(f)` / `prop_filter` | same names |
//! | `prop_assert!` / `prop_assert_eq!` / `prop_assume!` | same names |

pub mod combinators;
pub mod deadline;
pub mod runner;
pub mod strategy;

mod macros;

pub use combinators::{oneof, Filter, Map, OneOf};
pub use deadline::{within_deadline, DEADLINE};
pub use runner::{check, run, CaseError, CaseResult, Config, Failure};
pub use strategy::{bools, just, vec_of, Bools, Just, Strategy, VecOf};

/// One-stop imports mirroring `proptest::prelude::*` for ported suites.
pub mod prelude {
    pub use crate::combinators::oneof;
    pub use crate::runner::{CaseError, CaseResult, Config};
    pub use crate::strategy::{bools, just, vec_of, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_cases};
}
