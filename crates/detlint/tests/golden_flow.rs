//! Golden run over the dataflow/call-graph fixture tree in
//! `tests/fixtures/flow`.
//!
//! The fixture is a two-crate workspace: `crates/measure` supplies
//! fleet-shaped entry points, `crates/sim` seeds one violation per new
//! rule (D9 rng aliasing, D10 unstable float reduction, D11 reachable
//! panic without the fleet sign-off, P1 dead pragmas), each with a
//! suppressed twin and a compliant look-alike that must stay silent.
//! D9 has a second positive/clean pair on the ordered pipeline
//! (`par_for_each_ordered`).
//! The full report is pinned; any drift in the parser, the dataflow
//! analyses, or the call-graph resolution shows up as a diff here.

use detlint::{lint_workspace, tally, RuleId, Severity};
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/flow")
}

/// `(file, line, rule)` for every expected finding, in report order.
const GOLDEN: [(&str, usize, RuleId); 6] = [
    ("crates/sim/src/dead.rs", 5, RuleId::P1),
    ("crates/sim/src/dead.rs", 12, RuleId::P1),
    ("crates/sim/src/lib.rs", 12, RuleId::D11),
    ("crates/sim/src/lib.rs", 32, RuleId::D9),
    ("crates/sim/src/lib.rs", 51, RuleId::D10),
    ("crates/sim/src/lib.rs", 72, RuleId::D9),
];

#[test]
fn flow_fixture_report_matches_golden() {
    let findings = lint_workspace(&fixture_root()).expect("lint flow fixture");
    let got: Vec<(&str, usize, RuleId)> = findings
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.rule))
        .collect();
    assert_eq!(got, GOLDEN.to_vec(), "{findings:#?}");
    // 4 deny (D9 twice, D10, D11) + 2 warn (both P1).
    let t = tally(&findings);
    assert_eq!((t.deny, t.warn), (4, 2));
    for f in &findings {
        let want = if f.rule == RuleId::P1 {
            Severity::Warn
        } else {
            Severity::Deny
        };
        assert_eq!(f.severity, want, "{f}");
    }
}

#[test]
fn flow_fixture_d11_names_the_enclosing_fn() {
    let findings = lint_workspace(&fixture_root()).expect("lint flow fixture");
    let d11: Vec<_> = findings.iter().filter(|f| f.rule == RuleId::D11).collect();
    assert_eq!(d11.len(), 1);
    assert!(
        d11[0].message.contains("`unwrap` via sim::deep_total"),
        "{}",
        d11[0].message
    );
}
