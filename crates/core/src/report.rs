//! Statistical reporting, the way the paper says results should be
//! reported: location estimate *and* nonparametric confidence interval
//! *and* variability *and* the iid-assumption battery of F5.4.

use netsim::FabricPerf;
use vstats::ci::{quantile_ci, QuantileCi};
use vstats::describe::Summary;
use vstats::htest::AssumptionReport;

/// A complete report over one treatment's measurements.
#[derive(Debug, Clone)]
pub struct MeasurementReport {
    /// Treatment name.
    pub name: String,
    /// Raw samples, execution order.
    pub samples: Vec<f64>,
    /// Descriptive summary (mean, std dev, CoV, percentile box).
    pub summary: Summary,
    /// 95% nonparametric CI of the median, when n allows.
    pub median_ci: Option<QuantileCi>,
    /// 95% nonparametric CI of the 90th percentile, when n allows.
    pub p90_ci: Option<QuantileCi>,
    /// The F5.4 assumption battery (needs n ≥ 20).
    pub assumptions: Option<AssumptionReport>,
    /// Fraction of the intended samples actually collected (1.0 = the
    /// campaign lost nothing). Fault-tolerant harnesses return partial
    /// data rather than failing; the report must say so, because
    /// statistics over a gap-riddled sample describe the *surviving*
    /// conditions, not the campaign that was designed.
    pub coverage: f64,
    /// Supervision accounting from a budgeted campaign, when one
    /// produced this report. Exhaustion means the sample is not merely
    /// degraded but *capped*: the harness wanted to repair more shards
    /// than its budgets allowed, so the losses are censored at the
    /// budget, not at the fault process.
    pub exhaustion: Option<ExhaustionNote>,
    /// Fabric stepping counters merged over the campaign's
    /// repetitions, when the campaign ran on a simulated fabric. The
    /// link-cache pair reports the per-link capacity signature cache;
    /// a flat (topology-less) fabric has no link-constrained steps
    /// and renders as `n/a`.
    pub fabric_perf: Option<FabricPerf>,
}

/// How much of its repair budget a supervised campaign consumed, and
/// whether it ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExhaustionNote {
    /// Retries the campaign consumed.
    pub retries_used: u32,
    /// The campaign-wide retry cap.
    pub retry_budget: u32,
    /// A shard wanted another attempt and was refused one.
    pub retry_exhausted: bool,
    /// Shards whose step budget could not afford even one attempt.
    pub budget_denied_shards: usize,
}

impl ExhaustionNote {
    /// Whether any budget actually bit.
    pub fn any(&self) -> bool {
        self.retry_exhausted || self.budget_denied_shards > 0
    }
}

/// Coverage below which a result is not publishable no matter how tight
/// its CI: losing more than 10% of the intended samples biases tails
/// and medians in ways the CI cannot see (the gaps are not missing at
/// random — faults cluster).
pub const MIN_PUBLISHABLE_COVERAGE: f64 = 0.9;

impl MeasurementReport {
    /// Build a report from samples in execution order. Panics on an
    /// empty sample.
    pub fn new(name: &str, samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "report of empty sample");
        let distinct = samples.windows(2).any(|w| w[0] != w[1]);
        MeasurementReport {
            name: name.to_string(),
            samples: samples.to_vec(),
            summary: Summary::from_samples(samples),
            median_ci: quantile_ci(samples, 0.5, 0.95),
            p90_ci: quantile_ci(samples, 0.9, 0.95),
            assumptions: (samples.len() >= 20 && distinct)
                .then(|| AssumptionReport::run(samples)),
            coverage: 1.0,
            exhaustion: None,
            fabric_perf: None,
        }
    }

    /// Annotate the report with the fraction of intended samples that
    /// survived (e.g. `Coverage::coverage` of a faulty campaign).
    pub fn with_coverage(mut self, coverage: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&coverage),
            "coverage must be a fraction"
        );
        self.coverage = coverage;
        self
    }

    /// Annotate the report with the supervision accounting of the
    /// campaign that produced it.
    pub fn with_exhaustion(mut self, note: ExhaustionNote) -> Self {
        self.exhaustion = Some(note);
        self
    }

    /// Annotate the report with the merged fabric counters of the
    /// campaign that produced it (see [`FabricPerf::merge`]).
    pub fn with_fabric_perf(mut self, perf: FabricPerf) -> Self {
        self.fabric_perf = Some(perf);
        self
    }

    /// Whether any intended data is missing, or a repair budget ran out
    /// (so the sample is censored at the budget).
    pub fn is_degraded(&self) -> bool {
        self.coverage < 1.0 || self.exhaustion.map(|x| x.any()).unwrap_or(false)
    }

    /// Is this result publishable by the paper's bar: a median CI
    /// exists, its relative error is within `err_frac`, no assumption
    /// violation was detected, and the sample covers at least
    /// [`MIN_PUBLISHABLE_COVERAGE`] of the intended measurements?
    pub fn publishable(&self, err_frac: f64) -> bool {
        let ci_ok = self
            .median_ci
            .map(|ci| ci.relative_error() <= err_frac)
            .unwrap_or(false);
        let assumptions_ok = self
            .assumptions
            .map(|a| a.iid_assumptions_hold())
            .unwrap_or(true);
        ci_ok && assumptions_ok && self.coverage >= MIN_PUBLISHABLE_COVERAGE
    }

    /// Render a human-readable block (used by examples and benches).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let s = &self.summary;
        out.push_str(&format!(
            "{}: n={} mean={:.3} sd={:.3} (CoV {:.1}%)\n",
            self.name,
            s.n,
            s.mean,
            s.std_dev,
            s.cov * 100.0
        ));
        out.push_str(&format!(
            "  percentiles: p1={:.3} p25={:.3} median={:.3} p75={:.3} p99={:.3}\n",
            s.box_summary.p1, s.box_summary.p25, s.box_summary.p50, s.box_summary.p75, s.box_summary.p99
        ));
        match self.median_ci {
            Some(ci) => out.push_str(&format!(
                "  median 95% CI: [{:.3}, {:.3}] (±{:.2}%)\n",
                ci.lower,
                ci.upper,
                ci.relative_error() * 100.0
            )),
            None => out.push_str("  median 95% CI: not computable at this n\n"),
        }
        match self.p90_ci {
            Some(ci) => out.push_str(&format!(
                "  p90    95% CI: [{:.3}, {:.3}]\n",
                ci.lower, ci.upper
            )),
            None => out.push_str("  p90    95% CI: not computable at this n\n"),
        }
        if self.coverage < 1.0 {
            out.push_str(&format!(
                "  DEGRADED: only {:.1}% of intended samples collected \
                 (faults/gaps); treat tails with caution\n",
                self.coverage * 100.0
            ));
        }
        if let Some(x) = self.exhaustion {
            out.push_str(&format!(
                "  supervision: {}/{} retries used{}{}\n",
                x.retries_used,
                x.retry_budget,
                if x.retry_exhausted {
                    " (EXHAUSTED: repairs were refused)"
                } else {
                    ""
                },
                if x.budget_denied_shards > 0 {
                    format!(
                        "; {} shard(s) denied by step budget",
                        x.budget_denied_shards
                    )
                } else {
                    String::new()
                }
            ));
        }
        if let Some(a) = self.assumptions {
            out.push_str(&format!(
                "  assumptions: normality p={:.3}, split-half p={:.3}, \
                 stationary(5%)={}, Ljung-Box p={:.3} -> iid {}\n",
                a.normality_p,
                a.independence_p,
                a.stationary_5pct,
                a.ljung_box_p,
                if a.iid_assumptions_hold() { "OK" } else { "VIOLATED" }
            ));
        }
        if let Some(p) = &self.fabric_perf {
            // Pinned format (see `fabric_footer_format_is_pinned`):
            // verify.sh byte-diffs reports across stepping paths and
            // worker counts, so this line must be a pure function of
            // the merged counters.
            out.push_str(&format!(
                "  fabric: {} steps, rate cache {}/{} ({:.1}% hit), link cache {}\n",
                p.steps,
                p.rate_cache_hits,
                p.rate_recomputes + p.rate_cache_hits,
                p.cache_hit_rate() * 100.0,
                if p.link_recomputes + p.link_cache_hits == 0 {
                    "n/a (flat fabric)".to_string()
                } else {
                    format!(
                        "{}/{} ({:.1}% hit)",
                        p.link_cache_hits,
                        p.link_recomputes + p.link_cache_hits,
                        p.link_cache_hit_rate() * 100.0
                    )
                }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::rng::SimRng;

    fn noisy(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SimRng::new(seed);
        (0..n).map(|_| 100.0 + 4.0 * (rng.uniform() - 0.5)).collect()
    }

    #[test]
    fn healthy_sample_is_publishable() {
        let r = MeasurementReport::new("bench", &noisy(60, 12));
        assert!(r.median_ci.is_some());
        assert!(r.assumptions.is_some());
        assert!(r.publishable(0.05), "{}", r.render());
    }

    #[test]
    fn small_sample_is_not_publishable() {
        let r = MeasurementReport::new("bench", &noisy(4, 2));
        assert!(r.median_ci.is_none());
        assert!(!r.publishable(0.05));
    }

    #[test]
    fn drifting_sample_fails_assumptions() {
        let xs: Vec<f64> = (0..80)
            .map(|i| 100.0 + i as f64 * 1.5 + ((i * 13) % 7) as f64)
            .collect();
        let r = MeasurementReport::new("drift", &xs);
        assert!(!r.assumptions.unwrap().iid_assumptions_hold());
        assert!(!r.publishable(0.5));
    }

    #[test]
    fn render_contains_the_key_numbers() {
        let r = MeasurementReport::new("kmeans", &noisy(50, 3));
        let s = r.render();
        assert!(s.contains("kmeans"));
        assert!(s.contains("median 95% CI"));
        assert!(s.contains("assumptions"));
    }

    #[test]
    fn constant_sample_skips_assumption_battery() {
        let r = MeasurementReport::new("const", &[5.0; 30]);
        assert!(r.assumptions.is_none());
        assert!(r.median_ci.is_some());
    }

    #[test]
    fn low_coverage_blocks_publication_and_shows_in_render() {
        let full = MeasurementReport::new("bench", &noisy(60, 12));
        assert!(!full.is_degraded());
        assert!(full.publishable(0.05));
        assert!(!full.render().contains("DEGRADED"));

        let gappy = MeasurementReport::new("bench", &noisy(60, 12)).with_coverage(0.8);
        assert!(gappy.is_degraded());
        assert!(!gappy.publishable(0.05), "80% coverage must not publish");
        assert!(gappy.render().contains("DEGRADED"));
        assert!(gappy.render().contains("80.0%"));

        // Mild degradation above the floor still publishes, annotated.
        let mild = MeasurementReport::new("bench", &noisy(60, 12)).with_coverage(0.95);
        assert!(mild.is_degraded());
        assert!(mild.publishable(0.05));
        assert!(mild.render().contains("DEGRADED"));
    }

    #[test]
    fn exhaustion_marks_degraded_and_shows_in_render() {
        let healthy = ExhaustionNote {
            retries_used: 2,
            retry_budget: 8,
            retry_exhausted: false,
            budget_denied_shards: 0,
        };
        let r = MeasurementReport::new("bench", &noisy(60, 12)).with_exhaustion(healthy);
        assert!(!r.is_degraded(), "unexhausted budgets are not degradation");
        assert!(r.render().contains("supervision: 2/8 retries used"));
        assert!(!r.render().contains("EXHAUSTED"));

        let drained = ExhaustionNote {
            retries_used: 8,
            retry_budget: 8,
            retry_exhausted: true,
            budget_denied_shards: 3,
        };
        let r = MeasurementReport::new("bench", &noisy(60, 12)).with_exhaustion(drained);
        assert!(r.is_degraded(), "refused repairs cap the sample");
        let text = r.render();
        assert!(text.contains("supervision: 8/8 retries used"));
        assert!(text.contains("EXHAUSTED"));
        assert!(text.contains("3 shard(s) denied by step budget"));
        // Full coverage plus exhaustion must not print the coverage line.
        assert!(!text.contains("DEGRADED:"));
    }

    #[test]
    #[should_panic(expected = "coverage must be a fraction")]
    fn coverage_outside_unit_interval_is_rejected() {
        let _ = MeasurementReport::new("bench", &noisy(30, 1)).with_coverage(1.2);
    }

    #[test]
    fn fabric_footer_format_is_pinned() {
        use netsim::FabricPerf;
        // verify.sh byte-diffs campaign output across stepping paths
        // and worker counts; the footer must render these counters to
        // exactly these bytes.
        let linked = FabricPerf {
            steps: 1000,
            rate_recomputes: 40,
            rate_cache_hits: 760,
            link_recomputes: 40,
            link_cache_hits: 760,
            ..FabricPerf::default()
        };
        let r = MeasurementReport::new("bench", &noisy(30, 1)).with_fabric_perf(linked);
        assert!(r.render().contains(
            "  fabric: 1000 steps, rate cache 760/800 (95.0% hit), \
             link cache 760/800 (95.0% hit)\n"
        ));

        let flat = FabricPerf {
            steps: 500,
            rate_recomputes: 100,
            rate_cache_hits: 300,
            ..FabricPerf::default()
        };
        let r = MeasurementReport::new("bench", &noisy(30, 1)).with_fabric_perf(flat);
        assert!(r.render().contains(
            "  fabric: 500 steps, rate cache 300/400 (75.0% hit), \
             link cache n/a (flat fabric)\n"
        ));

        // Without the annotation the footer is absent entirely.
        let r = MeasurementReport::new("bench", &noisy(30, 1));
        assert!(!r.render().contains("fabric:"));
    }
}
