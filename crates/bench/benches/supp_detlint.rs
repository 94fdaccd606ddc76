//! Supplementary: the static-analysis pipeline benchmarked on its own
//! workspace.
//!
//! detlint is a tier-1 verify stage, so its wall-clock cost is paid on
//! every CI run — worth tracking like any other hot path. The bench
//! lints this repository several times end to end (walk, parse, the
//! file-local rules, then the cross-file D11/P1 passes). The
//! determinism contract under test: every run must render a
//! byte-identical JSON report, and the tree itself must be deny-clean.
//! Throughput (files/sec) lands in `BENCH_detlint.json` so future PRs
//! can track the trajectory.

use bench::{banner, check};
use detlint::engine::workspace_files;
use detlint::{lint_workspace, render_json_lines, tally};
use std::path::Path;
use std::time::Instant;

const TIMING_RUNS: usize = 3;

fn main() {
    banner(
        "Supp. detlint",
        "Static-analysis pipeline: token + dataflow + call-graph rules",
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = workspace_files(&root)
        .expect("walk workspace")
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .count();

    let mut best = f64::INFINITY;
    let mut reports = Vec::new();
    let mut findings = Vec::new();
    for _ in 0..TIMING_RUNS {
        let t0 = Instant::now();
        findings = lint_workspace(&root).expect("lint workspace");
        best = best.min(t0.elapsed().as_secs_f64());
        reports.push(render_json_lines(&findings));
    }
    let byte_identical = reports.windows(2).all(|w| w[0] == w[1]);
    let fps = files as f64 / best;
    let t = tally(&findings);
    println!("  workspace: {files} Rust files");
    println!(
        "  lint:     {:.1} ms wall (best of {TIMING_RUNS}), {fps:.0} files/s",
        best * 1e3
    );
    println!("  report:   {} deny, {} warn", t.deny, t.warn);

    let json = format!(
        "{{\n  \"bench\": \"supp_detlint\",\n  \"workload\": \"self_lint_full_workspace\",\n  \"rust_files\": {files},\n  \"wall_s\": {best:.4},\n  \"files_per_sec\": {fps:.1},\n  \"deny_findings\": {},\n  \"warn_findings\": {},\n  \"reports_byte_identical\": {byte_identical}\n}}\n",
        t.deny, t.warn,
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_detlint.json");
    std::fs::write(&out, &json).expect("write BENCH_detlint.json");
    println!("  wrote {}", out.display());

    check(
        "repeated runs render byte-identical reports",
        byte_identical,
    );
    check("workspace is deny-clean under D1-D11 + P0", t.deny == 0);
}
