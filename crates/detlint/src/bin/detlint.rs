//! `detlint` — standalone entry point for the determinism &
//! hermeticity linter.
//!
//! ```text
//! detlint [--root DIR] [--json] [--rule D9,D10]
//! detlint --explain D11
//! ```
//!
//! Exit codes: `0` clean (warn-tier findings allowed), `1` deny-tier
//! findings present, `2` usage or I/O error. The JSON-lines output is
//! sorted and byte-stable across runs, which `scripts/verify.sh`
//! enforces with a byte diff of two runs.

use detlint::rules::ALL_RULES;
use detlint::{lint_workspace, render_human, render_json_lines, tally, RuleId};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: PathBuf,
    json: bool,
    rules: Option<Vec<RuleId>>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        json: false,
        rules: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                let Some(dir) = args.get(i + 1) else {
                    return Err("--root wants a directory".to_string());
                };
                opts.root = PathBuf::from(dir);
                i += 2;
            }
            "--json" => {
                opts.json = true;
                i += 1;
            }
            "--rule" => {
                let Some(list) = args.get(i + 1) else {
                    return Err("--rule wants a comma-separated rule list (e.g. D9,D10)".to_string());
                };
                let mut rules = Vec::new();
                for name in list.split(',') {
                    let name = name.trim();
                    match RuleId::parse(name) {
                        Some(r) => rules.push(r),
                        None => return Err(format!("unknown rule {name:?}\n{}", usage())),
                    }
                }
                opts.rules = Some(rules);
                i += 2;
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(opts)
}

/// `--explain` text: id, tier, one-liner, then the full rationale.
fn explain(rule: RuleId) -> String {
    format!(
        "{} ({}): {}\n\n{}",
        rule.as_str(),
        rule.severity().as_str(),
        rule.summary(),
        rule.rationale()
    )
}

fn usage() -> String {
    let mut rules: String = String::new();
    for (i, r) in ALL_RULES.iter().enumerate() {
        if i > 0 {
            rules.push_str(", ");
        }
        rules.push_str(r.as_str());
    }
    format!(
        "usage: detlint [--root DIR] [--json] [--rule D9,D10]\n\
         \x20      detlint --explain RULE\n\
         lints the workspace at DIR (default .) against the determinism &\n\
         hermeticity contract; exits 1 on deny-tier findings.\n\
         rules: {rules}"
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--explain RULE` is a documentation query, not a lint run.
    if let Some(i) = args.iter().position(|a| a == "--explain") {
        let Some(name) = args.get(i + 1) else {
            eprintln!("--explain wants a rule id (e.g. D11)");
            return ExitCode::from(2);
        };
        let Some(rule) = RuleId::parse(name) else {
            eprintln!("unknown rule {name:?}\n{}", usage());
            return ExitCode::from(2);
        };
        println!("{}", explain(rule));
        return ExitCode::SUCCESS;
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let mut findings = match lint_workspace(&opts.root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(wanted) = &opts.rules {
        findings.retain(|f| wanted.contains(&f.rule));
    }
    if opts.json {
        print!("{}", render_json_lines(&findings));
    } else {
        print!("{}", render_human(&findings));
    }
    if tally(&findings).deny > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
