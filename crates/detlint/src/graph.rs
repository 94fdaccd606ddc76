//! Cross-crate symbol table and call graph, powering rule D11
//! (panic reachability from measurement entry points).
//!
//! Rule D5 already denies panic sites in library code, but a reasoned
//! allow(D5) pragma is a *local* judgment — "this invariant holds
//! here". D11 adds the global view: if a panicking call is reachable
//! from a campaign entry point, a bad input or violated invariant
//! aborts a multi-hour measurement run instead of being journaled as a
//! failed cell. Every such site must therefore carry an explicit
//! second sign-off (an allow pragma naming both D5 and D11)
//! acknowledging the blast radius, or be refactored to return an error.
//!
//! Resolution is a deliberately call-graph-sound over-approximation
//! (documented in DESIGN.md §13): direct calls resolve by qualified-
//! path suffix (after `use`-alias expansion), falling back to *every*
//! free function of that name in the workspace; method calls resolve
//! class-hierarchy-analysis-style to every method of that name. Extra
//! edges can only add findings, never hide one — the deny-side
//! soundness the determinism contract wants.

use crate::parser::{body_facts, CallSite, PanicSite, ParsedFile};

/// Per-function facts needed by the call graph. Pure function of the
/// file's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnFact {
    /// Fully qualified name (`measure::campaign::run_campaign`).
    pub qname: String,
    /// Bare name (last segment).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether the fn is an `impl`/`trait` method.
    pub is_method: bool,
    /// Outgoing call sites.
    pub calls: Vec<CallSite>,
    /// Panic sites in the body (D5's token set).
    pub panics: Vec<PanicSite>,
}

/// Extract [`FnFact`]s from a parsed file (drops the token trees,
/// keeping only what the graph needs).
pub fn fn_facts(parsed: &ParsedFile) -> Vec<FnFact> {
    parsed
        .fns
        .iter()
        .map(|f| {
            let (calls, panics) = body_facts(&f.body);
            FnFact {
                qname: f.qname.clone(),
                name: f.name.clone(),
                line: f.line,
                is_method: f.is_method,
                calls,
                panics,
            }
        })
        .collect()
}

/// One file's contribution to the workspace call graph.
pub struct GraphFile<'a> {
    /// Workspace-relative path (`crates/measure/src/campaign.rs`).
    pub path: &'a str,
    /// Functions defined in the file.
    pub fns: &'a [FnFact],
    /// `use` aliases: `(local name, full path)`.
    pub imports: &'a [(String, String)],
}

/// A D11 finding: a panic site reachable from an entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicFinding {
    /// File containing the panic site.
    pub file: String,
    /// 1-based line of the panicking token.
    pub line: usize,
    /// The panicking token (`unwrap`, `panic`, ...).
    pub token: String,
    /// Qualified name of the enclosing function.
    pub via: String,
}

/// Campaign entry points: the fleet/campaign drivers in the `measure`
/// crate. A panic anywhere beneath these aborts a measurement run.
fn is_entry(qname: &str, name: &str) -> bool {
    if !qname.starts_with("measure::") {
        return false;
    }
    name.starts_with("run_fleet")
        || name.starts_with("run_all_patterns")
        || name == "run_campaign"
        || name == "run_placement_fleet"
}

/// Crates whose panics are part of their contract and exempt from D11
/// (mirrors D5's exemption: proplite's assertion macros *should*
/// panic — they never run inside a campaign).
const EXEMPT_PREFIXES: &[&str] = &["crates/proplite/"];

/// Does `qname`'s segment list end with the written call path? A call
/// written `exec::par_map` matches `exec::par::par_map` only if the
/// re-export path matches segment-for-segment from the right — here it
/// does not, so the name-fallback handles it instead.
fn suffix_matches(qname: &str, path: &[String]) -> bool {
    let qsegs: Vec<&str> = qname.split("::").collect();
    if path.len() > qsegs.len() {
        return false;
    }
    qsegs[qsegs.len() - path.len()..]
        .iter()
        .zip(path.iter())
        .all(|(a, b)| *a == b.as_str())
}

/// Expand a call path through the file's `use` aliases and normalize
/// `crate`/`self`/`super` heads to something suffix-matchable.
fn expand_path(path: &[String], imports: &[(String, String)], own_crate: &str) -> Vec<String> {
    let mut segs: Vec<String> = path.to_vec();
    if let Some(first) = segs.first().cloned() {
        if let Some((_, full)) = imports.iter().find(|(local, _)| *local == first) {
            let mut expanded: Vec<String> = full.split("::").map(str::to_string).collect();
            expanded.extend(segs.drain(1..));
            segs = expanded;
        }
    }
    match segs.first().map(String::as_str) {
        Some("crate") => segs[0] = own_crate.to_string(),
        // `self::`/`super::` paths: drop the head and rely on the
        // suffix/name fallback — module-relative precision is not
        // needed for an over-approximation.
        Some("self") | Some("super") => {
            segs.remove(0);
        }
        _ => {}
    }
    segs
}

/// Build the workspace call graph, run BFS from the campaign entry
/// points, and report every reachable panic site outside the exempt
/// crates. Output is sorted by `(file, line, token)`.
pub fn panic_reachability(files: &[GraphFile<'_>]) -> Vec<PanicFinding> {
    // Flatten into an indexed node list.
    struct Node<'a> {
        file: &'a str,
        fact: &'a FnFact,
        imports: &'a [(String, String)],
        own_crate: String,
    }
    let mut nodes: Vec<Node<'_>> = Vec::new();
    for gf in files {
        let own_crate = crate_of(gf.path);
        for fact in gf.fns {
            nodes.push(Node {
                file: gf.path,
                fact,
                imports: gf.imports,
                own_crate: own_crate.clone(),
            });
        }
    }

    // Name indices. Sorted node order everywhere keeps the edge list —
    // and therefore the report — deterministic.
    let mut free_by_name: Vec<(&str, usize)> = Vec::new();
    let mut methods_by_name: Vec<(&str, usize)> = Vec::new();
    for (i, n) in nodes.iter().enumerate() {
        if n.fact.is_method {
            methods_by_name.push((&n.fact.name, i));
        } else {
            free_by_name.push((&n.fact.name, i));
        }
    }

    let resolve = |call: &CallSite, node: &Node<'_>| -> Vec<usize> {
        let last = match call.path.last() {
            Some(s) => s.as_str(),
            None => return Vec::new(),
        };
        if call.is_method {
            return methods_by_name
                .iter()
                .filter(|(n, _)| *n == last)
                .map(|&(_, i)| i)
                .collect();
        }
        let expanded = expand_path(&call.path, node.imports, &node.own_crate);
        let by_suffix: Vec<usize> = nodes
            .iter()
            .enumerate()
            .filter(|(_, cand)| !cand.fact.is_method && suffix_matches(&cand.fact.qname, &expanded))
            .map(|(i, _)| i)
            .collect();
        if !by_suffix.is_empty() {
            return by_suffix;
        }
        // Unresolved call: every free fn of that name; `Type::method`
        // associated calls additionally match methods by name.
        let mut out: Vec<usize> = free_by_name
            .iter()
            .filter(|(n, _)| *n == last)
            .map(|&(_, i)| i)
            .collect();
        if call.path.len() >= 2 {
            out.extend(
                methods_by_name
                    .iter()
                    .filter(|(n, _)| *n == last)
                    .map(|&(_, i)| i),
            );
        }
        out
    };

    // BFS from entry points.
    let mut reachable = vec![false; nodes.len()];
    let mut queue: Vec<usize> = nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| is_entry(&n.fact.qname, &n.fact.name))
        .map(|(i, _)| i)
        .collect();
    for &i in &queue {
        reachable[i] = true;
    }
    while let Some(i) = queue.pop() {
        for call in &nodes[i].fact.calls {
            for j in resolve(call, &nodes[i]) {
                if !reachable[j] {
                    reachable[j] = true;
                    queue.push(j);
                }
            }
        }
    }

    let mut out: Vec<PanicFinding> = Vec::new();
    for (i, n) in nodes.iter().enumerate() {
        if !reachable[i] || EXEMPT_PREFIXES.iter().any(|p| n.file.starts_with(p)) {
            continue;
        }
        for (line, token) in &n.fact.panics {
            out.push(PanicFinding {
                file: n.file.to_string(),
                line: *line,
                token: token.clone(),
                via: n.fact.qname.clone(),
            });
        }
    }
    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.token.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.token.as_str(),
        ))
    });
    out.dedup();
    out
}

/// First module-path segment for a workspace-relative file path.
fn crate_of(rel_path: &str) -> String {
    crate::parser::module_path(rel_path)
        .into_iter()
        .next()
        .unwrap_or_else(|| "root".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;
    use crate::parser::parse;

    struct Ws {
        files: Vec<(String, Vec<FnFact>, Vec<(String, String)>)>,
    }

    impl Ws {
        fn new() -> Self {
            Ws { files: Vec::new() }
        }
        fn add(&mut self, path: &str, src: &str) -> &mut Self {
            let parsed = parse(&scan(src), path);
            self.files
                .push((path.to_string(), fn_facts(&parsed), parsed.imports));
            self
        }
        fn run(&self) -> Vec<PanicFinding> {
            let gfs: Vec<GraphFile<'_>> = self
                .files
                .iter()
                .map(|(p, f, i)| GraphFile { path: p, fns: f, imports: i })
                .collect();
            panic_reachability(&gfs)
        }
    }

    #[test]
    fn panic_reachable_through_two_crates_is_found() {
        let mut ws = Ws::new();
        ws.add(
            "crates/measure/src/campaign.rs",
            "pub fn run_campaign(s: &Spec) {\n    netsim::step_all(s);\n}\n",
        );
        ws.add(
            "crates/netsim/src/lib.rs",
            "pub fn step_all(s: &Spec) {\n    helper(s);\n}\nfn helper(s: &Spec) {\n    s.links.first().unwrap();\n}\n",
        );
        let hits = ws.run();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].file, "crates/netsim/src/lib.rs");
        assert_eq!(hits[0].line, 5);
        assert_eq!(hits[0].token, "unwrap");
        assert_eq!(hits[0].via, "netsim::helper");
    }

    #[test]
    fn unreachable_panic_is_silent() {
        let mut ws = Ws::new();
        ws.add(
            "crates/measure/src/campaign.rs",
            "pub fn run_campaign(s: &Spec) {\n    netsim::step_all(s);\n}\n",
        );
        ws.add(
            "crates/netsim/src/lib.rs",
            "pub fn step_all(s: &Spec) {}\npub fn debug_dump(s: &Spec) {\n    panic!(\"nope\");\n}\n",
        );
        assert!(ws.run().is_empty());
    }

    #[test]
    fn method_calls_resolve_by_name_across_crates() {
        let mut ws = Ws::new();
        ws.add(
            "crates/measure/src/fleet.rs",
            "pub fn run_fleet(f: &mut Fabric) {\n    f.advance();\n}\n",
        );
        ws.add(
            "crates/netsim/src/fabric.rs",
            "impl Fabric {\n    pub fn advance(&mut self) {\n        self.heap.pop().expect(\"nonempty\");\n    }\n}\n",
        );
        let hits = ws.run();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].token, "expect");
        assert_eq!(hits[0].via, "netsim::fabric::Fabric::advance");
    }

    #[test]
    fn use_alias_expansion_resolves_direct_calls() {
        let mut ws = Ws::new();
        ws.add(
            "crates/measure/src/fleet.rs",
            "use netsim::engine::tick;\npub fn run_fleet_jobs(n: usize) {\n    tick(n);\n}\n",
        );
        ws.add(
            "crates/netsim/src/engine.rs",
            "pub fn tick(n: usize) {\n    assert_step(n);\n}\nfn assert_step(n: usize) {\n    if n == 0 { unreachable!(); }\n}\n",
        );
        let hits = ws.run();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].token, "unreachable");
    }

    #[test]
    fn proplite_is_exempt() {
        let mut ws = Ws::new();
        ws.add(
            "crates/measure/src/campaign.rs",
            "pub fn run_campaign() {\n    proplite::check();\n}\n",
        );
        ws.add(
            "crates/proplite/src/lib.rs",
            "pub fn check() {\n    panic!(\"property failed\");\n}\n",
        );
        assert!(ws.run().is_empty());
    }

    #[test]
    fn non_measure_run_fns_are_not_entries() {
        let mut ws = Ws::new();
        ws.add(
            "crates/bench/src/lib.rs",
            "pub fn run_fleet_bench() {\n    x.unwrap();\n}\n",
        );
        assert!(ws.run().is_empty());
    }

    #[test]
    fn panic_inside_entry_itself_is_found() {
        let mut ws = Ws::new();
        ws.add(
            "crates/measure/src/placement.rs",
            "pub fn run_placement_fleet(s: u64) {\n    let p = plan(s).unwrap();\n}\n",
        );
        let hits = ws.run();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].via, "measure::placement::run_placement_fleet");
    }

    #[test]
    fn output_is_sorted_and_deduped() {
        let mut ws = Ws::new();
        ws.add(
            "crates/measure/src/campaign.rs",
            "pub fn run_campaign() {\n    b::f();\n    a::g();\n}\n",
        );
        ws.add("crates/b/src/lib.rs", "pub fn f() {\n    x.unwrap();\n}\n");
        ws.add("crates/a/src/lib.rs", "pub fn g() {\n    y.unwrap();\n}\n");
        let hits = ws.run();
        assert_eq!(hits.len(), 2);
        assert!(hits[0].file < hits[1].file);
    }
}
