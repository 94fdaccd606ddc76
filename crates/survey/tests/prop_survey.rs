//! Property-based tests over the survey pipeline: the aggregates must
//! stay internally consistent under arbitrary sub-corpora.

use proplite::prelude::*;
use survey::{generate, run_survey};

prop_cases! {
    #![config(Config::with_cases(32))]

    /// Running the pipeline over any prefix of the corpus keeps every
    /// aggregate within its definition: counts bounded by the corpus,
    /// percentages in [0, 100], Kappa in [-1, 1], venue splits summing
    /// to the selection.
    #[test]
    fn pipeline_invariants_on_subcorpora(take in 0usize..1867) {
        let corpus = generate();
        let sub = &corpus[..take];
        let res = run_survey(sub);
        prop_assert_eq!(res.total, sub.len());
        prop_assert!(res.keyword_filtered <= res.total);
        prop_assert!(res.cloud_selected <= res.keyword_filtered);
        let venue_sum: usize = res.per_venue.iter().map(|(_, n)| n).sum();
        prop_assert_eq!(venue_sum, res.cloud_selected);
        for pct in [
            res.fig1a.pct_avg_or_median,
            res.fig1a.pct_variability,
            res.fig1a.pct_poorly_specified,
        ] {
            prop_assert!((0.0..=100.0).contains(&pct));
        }
        for k in [res.kappa_avg_median, res.kappa_variability, res.kappa_poor_spec] {
            prop_assert!((-1.0..=1.0).contains(&k));
        }
        let hist_sum: usize = res.fig1b.iter().map(|&(_, c)| c).sum();
        prop_assert!(hist_sum <= res.cloud_selected);
        prop_assert!((0.0..=1.0).contains(&res.frac_low_repetitions));
    }
}
