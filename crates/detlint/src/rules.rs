//! The rule set: the workspace's determinism & hermeticity contract,
//! expressed as lexical patterns over blanked source lines.
//!
//! Every rule traces to a clause of the reproducibility contract (see
//! DESIGN.md §8): a simulation must be a pure function of its seed, at
//! any worker count, on any machine, with no registry access. The rules
//! are lexical on purpose — they run before any build, cannot be fooled
//! by `cfg` tricks the lexer already strips, and their false positives
//! are handled by scoped, reasoned suppression pragmas rather than by
//! weakening the rule.

use crate::lexer::is_ident_char;

/// Rule identifiers. `D*` rules encode the determinism/hermeticity
/// contract; `P0` polices the suppression mechanism itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Unordered-map types in non-test library code.
    D1,
    /// Wall-clock / host-topology reads outside the timing crates.
    D2,
    /// Ad-hoc concurrency primitives outside the exec runtime.
    D3,
    /// Entropy-based or ambient RNG construction.
    D4,
    /// Panicking calls in library code (typed errors required).
    D5,
    /// NaN-unsafe float comparison (`total_cmp` is mandated).
    D6,
    /// Non-workspace dependency in a manifest.
    D7,
    /// Crash-unsafe persistence outside the journal crate.
    D8,
    /// An RNG stream aliased across parallel task closures.
    D9,
    /// Float reduction over an iteration source not proven order-stable.
    D10,
    /// Panicking call reachable from a campaign entry point.
    D11,
    /// Suppression pragma without a `-- reason` (or unknown rule id).
    P0,
    /// Dead suppression pragma: the named rule no longer fires in scope.
    P1,
}

/// How severe a finding is: `Deny` fails the tier-1 gate, `Warn` is
/// advisory and printed but never fails a build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: printed, never fatal.
    Warn,
    /// Contract violation: fails `verify.sh` and the self-apply test.
    Deny,
}

impl Severity {
    /// Stable label for reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

impl RuleId {
    /// Stable rule name (`"D1"` ... `"P0"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::D3 => "D3",
            RuleId::D4 => "D4",
            RuleId::D5 => "D5",
            RuleId::D6 => "D6",
            RuleId::D7 => "D7",
            RuleId::D8 => "D8",
            RuleId::D9 => "D9",
            RuleId::D10 => "D10",
            RuleId::D11 => "D11",
            RuleId::P0 => "P0",
            RuleId::P1 => "P1",
        }
    }

    /// Parse a rule name as written in a pragma.
    pub fn parse(s: &str) -> Option<RuleId> {
        match s {
            "D1" => Some(RuleId::D1),
            "D2" => Some(RuleId::D2),
            "D3" => Some(RuleId::D3),
            "D4" => Some(RuleId::D4),
            "D5" => Some(RuleId::D5),
            "D6" => Some(RuleId::D6),
            "D7" => Some(RuleId::D7),
            "D8" => Some(RuleId::D8),
            "D9" => Some(RuleId::D9),
            "D10" => Some(RuleId::D10),
            "D11" => Some(RuleId::D11),
            "P0" => Some(RuleId::P0),
            "P1" => Some(RuleId::P1),
            _ => None,
        }
    }

    /// Default severity tier of the rule.
    pub fn severity(&self) -> Severity {
        match self {
            // D6 is advisory: `partial_cmp` is NaN-unsafe but its
            // callers sometimes handle the `None` deliberately. P1 is
            // hygiene: a dead pragma is clutter, not a hazard. The
            // deny-tier rules have no such legitimate escape hatch.
            RuleId::D6 | RuleId::P1 => Severity::Warn,
            _ => Severity::Deny,
        }
    }

    /// One-line rationale, traced to the contract.
    pub fn summary(&self) -> &'static str {
        match self {
            RuleId::D1 => "unordered map in library code: iteration order varies per process; use BTreeMap/BTreeSet or an explicit sort",
            RuleId::D2 => "wall-clock or host-topology read outside crates/bench, crates/exec, src/cli.rs: results must not depend on when/where they run",
            RuleId::D3 => "concurrency primitive outside crates/exec: all parallelism goes through the deterministic runtime",
            RuleId::D4 => "entropy-based RNG construction: SimRng must be built from an explicit seed or derive_seed",
            RuleId::D5 => "panicking call in library code: return a typed error (MeasureError et al.) per the graceful-degradation policy",
            RuleId::D6 => "NaN-unsafe float comparison: total_cmp is mandated for ordering floats",
            RuleId::D7 => "non-workspace dependency: the build must succeed offline with the registry unreachable",
            RuleId::D8 => "crash-unsafe persistence outside crates/journal: direct writes tear on SIGKILL; persist through the write-ahead journal (append + sync_data, torn tail cut on the next write)",
            RuleId::D9 => "RNG stream aliased across parallel tasks: derive a fresh SimRng per task (derive_seed) instead of capturing a shared one",
            RuleId::D10 => "float reduction over a source not proven order-stable: float addition is non-associative, so iteration order becomes part of the result",
            RuleId::D11 => "panicking call reachable from a campaign entry point: a panic here kills a fleet shard; return a typed error or justify the invariant for the whole call path",
            RuleId::P0 => "suppression pragma must name known rules and carry a `-- reason`",
            RuleId::P1 => "dead suppression pragma: the named rule does not fire in this pragma's scope; delete the pragma or re-anchor it",
        }
    }

    /// Multi-line rationale for `detlint --explain`: what the rule
    /// catches, why the contract needs it, and the sanctioned fix.
    pub fn rationale(&self) -> &'static str {
        match self {
            RuleId::D1 => "HashMap/HashSet iteration order is randomized per process (SipHash keys\nfrom process entropy), so any result that folds over such a map varies\nrun to run. Fix: BTreeMap/BTreeSet, or collect + sort before folding.",
            RuleId::D2 => "Wall-clock reads (Instant, SystemTime) and host-topology probes\n(available_parallelism) make results depend on when and where the run\nhappens — the exact failure mode the source paper documents in real\nclouds. Only the bench harness (which measures wall time by design),\nthe exec runtime (pool sizing), and CLI parsing are exempt.",
            RuleId::D3 => "Ad-hoc threads or shared-state primitives outside crates/exec create\nscheduling-dependent interleavings. All parallelism goes through the\ndeterministic runtime, which hands results back in index order, so the\nworker count never shows in them.",
            RuleId::D4 => "Entropy-seeded RNGs (thread_rng, from_entropy, RandomState) make every\nrun unique. Every SimRng must be constructed from an explicit seed or\nvia derive_seed so campaigns replay bit-for-bit.",
            RuleId::D5 => "A panic in library code crashes the whole process instead of degrading\nthe campaign. Return typed errors (MeasureError et al.); a reasoned\npragma is acceptable where an invariant genuinely guarantees the call\ncannot fail.",
            RuleId::D6 => "partial_cmp returns None on NaN and silently inverts sort contracts.\ntotal_cmp is the mandated float ordering. Warn-tier: some call sites\nhandle the None deliberately.",
            RuleId::D7 => "A registry or git dependency breaks the offline build and imports code\nthat can change under the build. Every dependency must be a workspace\npath dependency. No pragma exists for D7 on purpose.",
            RuleId::D8 => "Direct fs writes tear on SIGKILL, corrupting campaign state. All\npersistence goes through crates/journal, which is the only exemption:\nit appends length-prefixed, checksummed records and calls sync_data, its\nopen keeps the longest valid record prefix, and its next write cuts the\ntorn tail with set_len.",
            RuleId::D9 => "Two parallel tasks drawing from one RNG stream make the draw sequence\ndepend on task interleaving — the exact defect that breaks REPRO_JOBS\ninvariance, and it survives every golden-hash gate that happens to run\non one worker. detlint flags an rng-like value (named `rng`/`*_rng`)\ncaptured by a closure passed to the exec par_map family, unless the\nvalue is bound inside the closure itself. Fix: derive a per-task seed\n(derive_seed(seed, task_index)) and build the SimRng inside the task.",
            RuleId::D10 => "Float addition is not associative: reordering a sum changes low-order\nbits, and bit-identical gates treat that as divergence. A reduction\n(.sum::<f64>(), float-seeded .fold) is accepted only when its source\nchain is provably order-stable: a named place (variable, field, index,\nrange) iterated through order-preserving adapters (iter/map/filter/\nzip/enumerate/...). A chain rooted at a function call — including the\nresult of a par_map merge — is not proven and must be rewritten over a\nnamed, ordered buffer or carry a reasoned pragma.",
            RuleId::D11 => "Rule D5 is lexical; D11 is its call-graph escalation. A panic site in\nany function reachable from the measurement entry points (measure::\nrun_fleet, run_fleet_journaled, run_fleet_stream,\nrun_fleet_stream_journaled — every run_fleet* name is an entry —\nrun_campaign, run_all_patterns*, run_placement_fleet) kills a fleet\nshard at run time, and in a journaled run stops the campaign between\ncheckpoints the way only the deliberate `--kill-after N` crash test\nshould. A local allow(D5) pragma's justification is not enough — the\ninvariant must hold along every path from the entry point.\nReachability is a conservative (class-hierarchy-less)\nover-approximation: method calls resolve to every impl of that name;\na pragma naming D11 documents the whole-path argument.",
            RuleId::P0 => "The suppression mechanism is part of the contract: a pragma with no\nreason or naming an unknown rule silently weakens the gate, so it is\nitself a deny-tier finding.",
            RuleId::P1 => "A pragma whose rule no longer fires in its scope (the pragma line and\nthe line below) is a stale exception: it documents a hazard that no\nlonger exists and would silently re-arm if the hazard returned\nelsewhere. Warn-tier hygiene; verify.sh keeps the tree at zero.",
        }
    }
}

/// Every rule id, in report order.
pub const ALL_RULES: [RuleId; 13] = [
    RuleId::D1,
    RuleId::D2,
    RuleId::D3,
    RuleId::D4,
    RuleId::D5,
    RuleId::D6,
    RuleId::D7,
    RuleId::D8,
    RuleId::D9,
    RuleId::D10,
    RuleId::D11,
    RuleId::P0,
    RuleId::P1,
];

/// A lexical pattern over a blanked code line.
#[derive(Debug, Clone, Copy)]
pub enum Pattern {
    /// A bare identifier with word boundaries (`HashMap`).
    Ident(&'static str),
    /// Any identifier starting with this prefix (`Atomic*`).
    IdentPrefix(&'static str),
    /// A method call: `.name(` with optional whitespace.
    Method(&'static str),
    /// A macro invocation: `name!`.
    Macro(&'static str),
    /// A path fragment matched verbatim with ident boundaries at both
    /// ends (`thread::spawn`).
    Path(&'static str),
}

impl Pattern {
    /// The token the pattern looks for (used in messages).
    pub fn token(&self) -> &'static str {
        match self {
            Pattern::Ident(t)
            | Pattern::IdentPrefix(t)
            | Pattern::Method(t)
            | Pattern::Macro(t)
            | Pattern::Path(t) => t,
        }
    }

    /// Does the pattern match anywhere in `line` (blanked code)?
    pub fn matches(&self, line: &str) -> bool {
        match self {
            Pattern::Ident(t) => find_ident(line, t, true).is_some(),
            Pattern::IdentPrefix(t) => find_ident(line, t, false).is_some(),
            Pattern::Method(t) => {
                let mut from = 0;
                while let Some(at) = find_ident(&line[from..], t, true) {
                    let abs = from + at;
                    let before = line[..abs].trim_end();
                    let after = line[abs + t.len()..].trim_start();
                    if before.ends_with('.') && after.starts_with('(') {
                        return true;
                    }
                    from = abs + t.len();
                }
                false
            }
            Pattern::Macro(t) => {
                let mut from = 0;
                while let Some(at) = find_ident(&line[from..], t, true) {
                    let abs = from + at;
                    if line[abs + t.len()..].trim_start().starts_with('!') {
                        return true;
                    }
                    from = abs + t.len();
                }
                false
            }
            Pattern::Path(t) => {
                let mut from = 0;
                while let Some(at) = line[from..].find(t) {
                    let abs = from + at;
                    let pre_ok = abs == 0
                        || !is_ident_char(line[..abs].chars().next_back().unwrap_or(' '));
                    let post = line[abs + t.len()..].chars().next().unwrap_or(' ');
                    if pre_ok && !is_ident_char(post) {
                        return true;
                    }
                    from = abs + t.len();
                }
                false
            }
        }
    }
}

/// Find `needle` as an identifier in `hay`: the char before must not be
/// an ident char, and (when `bounded_end`) neither the char after.
fn find_ident(hay: &str, needle: &str, bounded_end: bool) -> Option<usize> {
    let mut from = 0;
    while let Some(at) = hay[from..].find(needle) {
        let abs = from + at;
        let pre_ok = abs == 0 || !is_ident_char(hay[..abs].chars().next_back().unwrap_or(' '));
        let post = hay[abs + needle.len()..].chars().next().unwrap_or(' ');
        let post_ok = !bounded_end || !is_ident_char(post);
        if pre_ok && post_ok {
            return Some(abs);
        }
        from = abs + needle.len();
    }
    None
}

/// A token rule: which patterns fire it, and which path prefixes are
/// exempt (the places where the primitive legitimately lives).
pub struct TokenRule {
    /// The rule this pattern set belongs to.
    pub id: RuleId,
    /// Patterns that fire the rule.
    pub patterns: &'static [Pattern],
    /// Path prefixes (workspace-relative, `/`-separated) where the rule
    /// does not apply, with the rationale documented here.
    pub exempt_prefixes: &'static [&'static str],
}

/// The token rules (D1–D6, D8). D7 runs over manifests (see
/// [`crate::manifest`]); P0 is emitted by the engine's pragma pass.
pub const TOKEN_RULES: [TokenRule; 7] = [
    TokenRule {
        id: RuleId::D1,
        patterns: &[Pattern::Ident("HashMap"), Pattern::Ident("HashSet")],
        exempt_prefixes: &[],
    },
    TokenRule {
        id: RuleId::D2,
        patterns: &[
            Pattern::Ident("Instant"),
            Pattern::Ident("SystemTime"),
            Pattern::Ident("available_parallelism"),
        ],
        // The bench harness measures wall-clock by design; the exec
        // runtime sizes its default pool from the host topology (worker
        // count never changes results); the CLI parses --jobs.
        exempt_prefixes: &["crates/bench/", "crates/exec/", "src/cli.rs"],
    },
    TokenRule {
        id: RuleId::D3,
        patterns: &[
            Pattern::Path("thread::spawn"),
            Pattern::Ident("Mutex"),
            Pattern::Ident("RwLock"),
            Pattern::Ident("Condvar"),
            Pattern::Ident("mpsc"),
            Pattern::IdentPrefix("Atomic"),
        ],
        // The deterministic runtime is the one place where threads
        // and synchronization are allowed to live.
        exempt_prefixes: &["crates/exec/"],
    },
    TokenRule {
        id: RuleId::D4,
        patterns: &[
            Pattern::Ident("thread_rng"),
            Pattern::Ident("from_entropy"),
            Pattern::Ident("getrandom"),
            Pattern::Ident("RandomState"),
            Pattern::Path("rand::random"),
        ],
        exempt_prefixes: &[],
    },
    TokenRule {
        id: RuleId::D5,
        patterns: &[
            Pattern::Method("unwrap"),
            Pattern::Method("expect"),
            Pattern::Macro("panic"),
            Pattern::Macro("unreachable"),
            Pattern::Macro("todo"),
            Pattern::Macro("unimplemented"),
        ],
        // proplite is the property-testing framework: panicking on a
        // failed case IS its contract, mirroring verify.sh's historical
        // allowlist entry.
        exempt_prefixes: &["crates/proplite/"],
    },
    TokenRule {
        id: RuleId::D6,
        patterns: &[Pattern::Method("partial_cmp")],
        exempt_prefixes: &[],
    },
    TokenRule {
        id: RuleId::D8,
        patterns: &[
            Pattern::Path("fs::write"),
            Pattern::Path("File::create"),
            Pattern::Ident("OpenOptions"),
        ],
        // The journal crate is the workspace's one persistence layer:
        // it appends checksummed records and calls sync_data, so a
        // SIGKILL can tear at most the last record, which its open
        // discards and its next write cuts with set_len.
        exempt_prefixes: &["crates/journal/"],
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ident_respects_boundaries() {
        let p = Pattern::Ident("HashMap");
        assert!(p.matches("use std::collections::HashMap;"));
        assert!(p.matches("let m: HashMap<u32, u32> = x;"));
        assert!(!p.matches("let m = MyHashMapWrapper::new();"));
        assert!(!p.matches("let hash_map = 1;"));
    }

    #[test]
    fn method_requires_dot_and_call() {
        let p = Pattern::Method("unwrap");
        assert!(p.matches("x.unwrap()"));
        assert!(p.matches("x . unwrap ( )"));
        assert!(!p.matches("x.unwrap_or(0)"));
        assert!(!p.matches("fn unwrap(&self) {"));
        assert!(!p.matches("unwrap(x)"));
    }

    #[test]
    fn macro_requires_bang() {
        let p = Pattern::Macro("panic");
        assert!(p.matches("panic!(\"boom\")"));
        assert!(p.matches("core::panic!(\"boom\")"));
        assert!(!p.matches("fn panic_policy() {"));
        assert!(!p.matches("let panic = 1;"));
    }

    #[test]
    fn path_matches_verbatim() {
        let p = Pattern::Path("thread::spawn");
        assert!(p.matches("std::thread::spawn(move || {})"));
        assert!(!p.matches("my_thread::spawner()"));
    }

    #[test]
    fn prefix_catches_the_atomic_family() {
        let p = Pattern::IdentPrefix("Atomic");
        assert!(p.matches("static N: AtomicUsize = AtomicUsize::new(0);"));
        assert!(p.matches("use std::sync::atomic::AtomicBool;"));
        assert!(!p.matches("let atomically = 3;"));
    }

    #[test]
    fn rule_names_round_trip() {
        for r in ALL_RULES {
            assert_eq!(RuleId::parse(r.as_str()), Some(r));
        }
        assert_eq!(RuleId::parse("D99"), None);
        assert_eq!(RuleId::parse("P2"), None);
    }
}
