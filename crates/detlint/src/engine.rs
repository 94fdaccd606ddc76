//! The linting engine: file walking, rule application, suppression,
//! and the workspace-level analysis pipeline.
//!
//! The engine is split so the property suite can lint in-memory
//! snippets without touching a filesystem: [`lint_rust_source`] and
//! [`lint_manifest_source`] take `(relative path, contents)` pairs and
//! apply every *file-local* analysis (token rules, the D9/D10 dataflow
//! rules, pragma suppression, P0). [`lint_workspace`] walks the tree
//! in a deterministic order and adds the *cross-file* passes on top:
//! D11 panic reachability over the whole-workspace call graph, and P1
//! dead-pragma hygiene (which must see D11's results to know whether
//! an allow(D11) pragma is live). All ordering is explicit
//! (sorted paths, sorted findings), so two runs over the same tree
//! produce byte-identical reports — the linter holds itself to the
//! contract it enforces.

use crate::flow;
use crate::graph::{fn_facts, panic_reachability, FnFact, GraphFile};
use crate::lexer::{pragmas, scan};
use crate::manifest;
use crate::parser::parse;
use crate::rules::{RuleId, Severity, TOKEN_RULES};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One lint finding, anchored to `file:line`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated on every platform.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: RuleId,
    /// Severity tier (deny fails the gate; warn is advisory).
    pub severity: Severity,
    /// Human-readable message naming the offending token.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}[{}] {}",
            self.file,
            self.line,
            self.severity.as_str(),
            self.rule.as_str(),
            self.message
        )
    }
}

/// Why a workspace lint could not run (I/O trouble, not rule findings).
#[derive(Debug)]
pub struct LintError {
    /// Path the engine was touching.
    pub path: PathBuf,
    /// What went wrong.
    pub cause: std::io::Error,
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "detlint: {}: {}", self.path.display(), self.cause)
    }
}

impl std::error::Error for LintError {}

/// A suppression pragma with the context the hygiene passes need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PragmaFact {
    /// 1-based line of the pragma comment.
    pub line: usize,
    /// Rule names as written.
    pub rules: Vec<String>,
    /// Whether a `-- reason` clause is present.
    pub has_reason: bool,
    /// Whether the pragma sits inside a `#[cfg(test)]` region (P1
    /// skips those: test-only pragmas guard code the linter ignores).
    pub in_test: bool,
}

/// Everything the engine derives from one Rust file's bytes — a pure
/// function of the source. The cross-file passes consume these.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileFacts {
    /// Raw file-local findings (token rules + D9/D10), *before*
    /// suppression.
    pub raw: Vec<Finding>,
    /// Suppression pragmas in the file.
    pub pragmas: Vec<PragmaFact>,
    /// Call-graph facts for every fn in the file.
    pub fns: Vec<FnFact>,
    /// `use` aliases for call resolution.
    pub imports: Vec<(String, String)>,
}

/// Derive every per-file fact from one Rust source: raw
/// (pre-suppression) findings from the token rules and the D9/D10
/// dataflow rules, the suppression pragmas, and the call-graph facts.
/// A pure function of `(rel_path, source)`.
pub fn compute_facts(rel_path: &str, source: &str) -> FileFacts {
    let scanned = scan(source);
    let mut raw = Vec::new();

    for rule in &TOKEN_RULES {
        if rule
            .exempt_prefixes
            .iter()
            .any(|p| rel_path.starts_with(p))
        {
            continue;
        }
        for (idx, code) in scanned.code.iter().enumerate() {
            if scanned.in_test[idx] {
                continue;
            }
            for pat in rule.patterns {
                if pat.matches(code) {
                    raw.push(Finding {
                        file: rel_path.to_string(),
                        line: idx + 1,
                        rule: rule.id,
                        severity: rule.id.severity(),
                        message: format!("`{}`: {}", pat.token(), rule.id.summary()),
                    });
                    break; // one finding per (line, rule)
                }
            }
        }
    }

    // Dataflow rules over the token-tree parse (which already skips
    // `#[cfg(test)]` regions at the tokenizer).
    let parsed = parse(&scanned, rel_path);
    for f in &parsed.fns {
        for (line, name) in flow::rng_aliasing(&f.body) {
            raw.push(Finding {
                file: rel_path.to_string(),
                line,
                rule: RuleId::D9,
                severity: RuleId::D9.severity(),
                message: format!("`{name}`: {}", RuleId::D9.summary()),
            });
        }
        for (line, token) in flow::float_reductions(&f.body) {
            raw.push(Finding {
                file: rel_path.to_string(),
                line,
                rule: RuleId::D10,
                severity: RuleId::D10.severity(),
                message: format!("`{token}`: {}", RuleId::D10.summary()),
            });
        }
    }
    sort_dedup(&mut raw);

    let pragma_facts = pragmas(&scanned)
        .into_iter()
        .map(|p| PragmaFact {
            in_test: scanned.in_test.get(p.line - 1).copied().unwrap_or(false),
            line: p.line,
            rules: p.rules,
            has_reason: p.has_reason,
        })
        .collect();

    FileFacts {
        raw,
        pragmas: pragma_facts,
        fns: fn_facts(&parsed),
        imports: parsed.imports,
    }
}

/// Apply the pragma passes to one file's findings: emit P0 for
/// malformed pragmas, emit P1 for dead ones (unless `skip_p1` — the
/// file-local entry point cannot judge deadness for cross-file rules),
/// then drop suppressed findings. `findings` holds the file's raw
/// findings (local, plus D11 when called from the workspace pass).
fn apply_pragmas(rel_path: &str, facts: &FileFacts, findings: &mut Vec<Finding>, emit_p1: bool) {
    let raw_keys: BTreeSet<(usize, RuleId)> =
        findings.iter().map(|f| (f.line, f.rule)).collect();
    let mut suppressed: BTreeSet<(usize, RuleId)> = BTreeSet::new();
    for pragma in &facts.pragmas {
        let mut ok = pragma.has_reason && !pragma.rules.is_empty();
        // P1 judges only well-formed pragmas; malformed ones are P0's
        // problem and get fixed (or deleted) before deadness matters.
        let well_formed = ok
            && pragma
                .rules
                .iter()
                .all(|n| RuleId::parse(n).is_some());
        for name in &pragma.rules {
            match RuleId::parse(name) {
                Some(rule) => {
                    suppressed.insert((pragma.line, rule));
                    suppressed.insert((pragma.line + 1, rule));
                    // Dead-pragma hygiene: the rule it names must fire
                    // (pre-suppression) somewhere in its two-line scope.
                    if emit_p1
                        && well_formed
                        && !pragma.in_test
                        && !raw_keys.contains(&(pragma.line, rule))
                        && !raw_keys.contains(&(pragma.line + 1, rule))
                    {
                        findings.push(Finding {
                            file: rel_path.to_string(),
                            line: pragma.line,
                            rule: RuleId::P1,
                            severity: RuleId::P1.severity(),
                            message: format!("`{}`: {}", rule.as_str(), RuleId::P1.summary()),
                        });
                    }
                }
                None => ok = false,
            }
        }
        if !ok {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: pragma.line,
                rule: RuleId::P0,
                severity: RuleId::P0.severity(),
                message: format!(
                    "malformed suppression ({}): {}",
                    if pragma.rules.is_empty() {
                        "no rules named".to_string()
                    } else {
                        pragma.rules.join(", ")
                    },
                    RuleId::P0.summary()
                ),
            });
        }
    }
    findings.retain(|f| f.rule == RuleId::P0 || !suppressed.contains(&(f.line, f.rule)));
}

/// Lint one Rust source file given its workspace-relative path —
/// every file-local analysis.
///
/// Applies the token rules and the D9/D10 dataflow rules, skips
/// `#[cfg(test)]` regions, then applies suppression pragmas: an
/// `allow(D5) -- reason` comment (with the `detlint:` marker prefix)
/// suppresses the named rules on its own line and the line directly
/// below it. Pragmas without a reason,
/// or naming unknown rules, surface as deny-tier `P0` findings. The
/// cross-file rules (D11 reachability, P1 dead-pragma hygiene) need
/// the whole workspace and only run under [`lint_workspace`].
pub fn lint_rust_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let facts = compute_facts(rel_path, source);
    let mut findings = facts.raw.clone();
    apply_pragmas(rel_path, &facts, &mut findings, false);
    sort_dedup(&mut findings);
    findings
}

/// Lint one `Cargo.toml` (rule D7) given its workspace-relative path.
pub fn lint_manifest_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let mut findings = manifest::check(rel_path, source);
    sort_dedup(&mut findings);
    findings
}

/// Deterministic ordering and per-(file,line,rule) dedup.
fn sort_dedup(findings: &mut Vec<Finding>) {
    findings.sort();
    findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);
}

/// The source files the contract covers: the root package (`src/`) and
/// every workspace crate's `src/` tree, plus all manifests. Test
/// directories (`tests/`, `benches/`, `examples/`) are intentionally
/// out of scope — the contract binds shipped library and binary code;
/// `#[cfg(test)]` regions inside covered files are skipped by the
/// lexer.
pub fn workspace_files(root: &Path) -> Result<Vec<PathBuf>, LintError> {
    let mut files = Vec::new();
    let src = root.join("src");
    if src.is_dir() {
        collect_rs(&src, &mut files)?;
    }
    let root_manifest = root.join("Cargo.toml");
    if root_manifest.is_file() {
        files.push(root_manifest);
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in read_dir_sorted(&crates)? {
            let crate_src = entry.join("src");
            if crate_src.is_dir() {
                collect_rs(&crate_src, &mut files)?;
            }
            let manifest = entry.join("Cargo.toml");
            if manifest.is_file() {
                files.push(manifest);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lint the whole workspace rooted at `root` — file-local rules plus
/// the cross-file passes (D11 panic reachability, P1 dead-pragma
/// hygiene). Findings come back fully sorted and deduplicated.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, LintError> {
    let mut files: BTreeMap<String, FileFacts> = BTreeMap::new();
    let mut findings = Vec::new();

    for path in workspace_files(root)? {
        let source = fs::read_to_string(&path).map_err(|cause| LintError {
            path: path.clone(),
            cause,
        })?;
        let rel = rel_path(root, &path);
        if rel.ends_with("Cargo.toml") {
            findings.extend(lint_manifest_source(&rel, &source));
            continue;
        }
        let facts = compute_facts(&rel, &source);
        files.insert(rel, facts);
    }

    // Cross-file pass 1: D11 panic reachability over the workspace
    // call graph.
    let graph_files: Vec<GraphFile<'_>> = files
        .iter()
        .map(|(rel, f)| GraphFile {
            path: rel,
            fns: &f.fns,
            imports: &f.imports,
        })
        .collect();
    let d11 = panic_reachability(&graph_files);

    // Cross-file pass 2: per-file suppression + pragma hygiene, with
    // D11 findings folded into each file's raw set so `allow(D11)`
    // pragmas both suppress and count as live for P1.
    for (rel, facts) in &files {
        let mut file_findings = facts.raw.clone();
        for hit in d11.iter().filter(|h| h.file == *rel) {
            file_findings.push(Finding {
                file: hit.file.clone(),
                line: hit.line,
                rule: RuleId::D11,
                severity: RuleId::D11.severity(),
                message: format!(
                    "`{}` via {}: {}",
                    hit.token,
                    hit.via,
                    RuleId::D11.summary()
                ),
            });
        }
        apply_pragmas(rel, facts, &mut file_findings, true);
        findings.extend(file_findings);
    }
    sort_dedup(&mut findings);
    Ok(findings)
}

/// Workspace-relative `/`-separated path for reports.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Recursively collect `.rs` files under `dir`, sorted.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    for entry in read_dir_sorted(dir)? {
        if entry.is_dir() {
            collect_rs(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// `read_dir` with a deterministic (sorted) entry order.
fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let rd = fs::read_dir(dir).map_err(|cause| LintError {
        path: dir.to_path_buf(),
        cause,
    })?;
    let mut entries = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|cause| LintError {
            path: dir.to_path_buf(),
            cause,
        })?;
        entries.push(entry.path());
    }
    entries.sort();
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn allow(rules: &str, reason: &str) -> String {
        format!("// {}{}({rules}) {reason}", "detlint:", "allow")
    }

    #[test]
    fn fires_and_suppresses_d5() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let hits = lint_rust_source("crates/demo/src/lib.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, RuleId::D5);
        assert_eq!(hits[0].line, 1);
        assert_eq!(hits[0].severity, Severity::Deny);

        let suppressed = format!(
            "{}\npub fn f(x: Option<u32>) -> u32 {{ x.unwrap() }}\n",
            allow("D5", "-- caller guarantees Some")
        );
        assert!(lint_rust_source("crates/demo/src/lib.rs", &suppressed).is_empty());
    }

    #[test]
    fn pragma_without_reason_is_p0() {
        let src = format!("let x = y.unwrap(); {}\n", allow("D5", ""));
        let hits = lint_rust_source("src/lib.rs", &src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, RuleId::P0);
        assert_eq!(hits[0].severity, Severity::Deny);
    }

    #[test]
    fn pragma_with_unknown_rule_is_p0() {
        let src = format!("let x = 1; {}\n", allow("D99", "-- nonsense"));
        let hits = lint_rust_source("src/lib.rs", &src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, RuleId::P0);
    }

    #[test]
    fn exempt_paths_do_not_fire() {
        let src = "use std::sync::Mutex;\n";
        assert!(lint_rust_source("crates/exec/src/ordered.rs", src).is_empty());
        assert_eq!(lint_rust_source("crates/netsim/src/x.rs", src).len(), 1);
    }

    #[test]
    fn test_regions_are_skipped() {
        let src = "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u32>.unwrap(); }\n}\n";
        assert!(lint_rust_source("crates/demo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn needles_in_strings_and_comments_do_not_fire() {
        let src = "// HashMap iteration is the enemy\npub fn f() -> &'static str { \"Instant::now() panic!()\" }\n";
        assert!(lint_rust_source("crates/demo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn findings_are_sorted_and_deduped() {
        let src = "use std::collections::HashMap;\nfn f(m: HashMap<u8, u8>) { m.get(&0).unwrap(); }\n";
        let hits = lint_rust_source("src/x.rs", src);
        let keys: Vec<(usize, RuleId)> = hits.iter().map(|f| (f.line, f.rule)).collect();
        assert_eq!(keys, vec![(1, RuleId::D1), (2, RuleId::D1), (2, RuleId::D5)]);
    }
}
