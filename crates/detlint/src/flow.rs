//! Dataflow determinism rules over token trees: D9 (RNG-stream
//! aliasing across parallel tasks) and D10 (order-sensitive float
//! reductions).
//!
//! Both rules work on the parsed function bodies from [`crate::parser`]
//! — they see through multi-line chains and nested closures that the
//! line-oriented token rules cannot. The analyses are deliberately
//! conservative in the deny direction: when stability or locality
//! cannot be *proven* from the tokens, the rule fires, and the escape
//! hatch is the same reasoned pragma every other rule uses. The
//! soundness policy per rule is written up in DESIGN.md §13.

use crate::parser::{Tok, Tree};

/// The exec parallel-map family: a closure passed to any of these runs
/// on an arbitrary worker, so anything it captures is shared across
/// tasks. (`par_for_each_ordered`'s sink runs on the caller's thread,
/// but the rule scans the whole argument list, so an rng in the sink
/// is flagged too — the conservative direction.)
pub const PAR_FNS: &[&str] = &[
    "par_map",
    "par_map_indexed",
    "try_par_map",
    "par_map_with",
    "par_for_each_ordered",
];

/// Is this identifier an rng-like value name? The workspace convention
/// (enforced by review, relied on here) is that live RNG streams are
/// bound as `rng` or `*_rng`.
fn is_rng_name(name: &str) -> bool {
    name == "rng" || name.ends_with("_rng")
}

/// D9: find rng-like identifiers captured by (or passed into) a
/// parallel-map call without being bound inside it. Returns
/// `(line, ident)` per finding site.
///
/// Detection: for every call whose last path segment is in [`PAR_FNS`],
/// collect the names bound *within* the call's argument list — closure
/// parameters and `let` bindings inside closure bodies. Any rng-like
/// identifier used anywhere in the argument list that is not in that
/// bound set must come from the enclosing scope: one stream, many
/// tasks. The sanctioned pattern — `SimRng::new(derive_seed(seed, i))`
/// inside the task closure — binds its stream locally and stays silent.
pub fn rng_aliasing(body: &[Tree]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    walk_par_calls(body, &mut out);
    out
}

fn walk_par_calls(trees: &[Tree], out: &mut Vec<(usize, String)>) {
    for (i, t) in trees.iter().enumerate() {
        if let Tree::Group(_, children, ..) = t {
            // A call group whose preceding ident is a par-family name
            // (method or free/path call alike).
            if t.is_group('(') {
                if let Some(name) = (i >= 1).then(|| trees[i - 1].ident()).flatten() {
                    if PAR_FNS.contains(&name) {
                        check_par_args(children, out);
                    }
                }
            }
            walk_par_calls(children, out);
        }
    }
}

/// Collect bound names and flag captured rng-like uses inside one
/// par-call argument list.
fn check_par_args(args: &[Tree], out: &mut Vec<(usize, String)>) {
    let mut bound: Vec<String> = Vec::new();
    collect_bound(args, &mut bound);
    flag_rng_uses(args, &bound, out);
}

/// Names bound within the argument list: closure parameters (idents
/// between `|` pipes, patterns and type names included — harmless
/// over-approximation) and `let` bindings anywhere inside.
fn collect_bound(trees: &[Tree], bound: &mut Vec<String>) {
    let mut i = 0usize;
    while i < trees.len() {
        match &trees[i] {
            Tree::Leaf(Tok::Punct('|'), _) => {
                // Closure header: idents up to the closing pipe.
                let mut j = i + 1;
                while j < trees.len() {
                    match &trees[j] {
                        Tree::Leaf(Tok::Punct('|'), _) => break,
                        Tree::Leaf(Tok::Ident(s), _) => bound.push(s.clone()),
                        Tree::Group(_, children, ..) => {
                            // Tuple/struct patterns and generic args.
                            collect_idents(children, bound);
                        }
                        _ => {}
                    }
                    j += 1;
                }
                i = j + 1;
            }
            Tree::Leaf(Tok::Ident(s), _) if s == "let" => {
                // `let <pattern> =`: idents up to the `=` bind names.
                let mut j = i + 1;
                while j < trees.len() {
                    match &trees[j] {
                        Tree::Leaf(Tok::Punct('='), _) | Tree::Leaf(Tok::Punct(';'), _) => break,
                        Tree::Leaf(Tok::Ident(s), _) => bound.push(s.clone()),
                        Tree::Group(_, children, ..) => collect_idents(children, bound),
                        _ => {}
                    }
                    j += 1;
                }
                i = j;
            }
            Tree::Group(_, children, ..) => {
                collect_bound(children, bound);
                i += 1;
            }
            _ => i += 1,
        }
    }
}

/// Every identifier in a subtree (used for pattern groups).
fn collect_idents(trees: &[Tree], out: &mut Vec<String>) {
    for t in trees {
        match t {
            Tree::Leaf(Tok::Ident(s), _) => out.push(s.clone()),
            Tree::Group(_, children, ..) => collect_idents(children, out),
            _ => {}
        }
    }
}

/// Flag rng-like identifier uses not covered by the bound set.
fn flag_rng_uses(trees: &[Tree], bound: &[String], out: &mut Vec<(usize, String)>) {
    for t in trees {
        match t {
            Tree::Leaf(Tok::Ident(s), ln) => {
                if is_rng_name(s) && !bound.iter().any(|b| b == s) {
                    out.push((*ln, s.clone()));
                }
            }
            Tree::Group(_, children, ..) => flag_rng_uses(children, bound, out),
            _ => {}
        }
    }
}

/// Iterator adapters that provably preserve their source's order.
const STABLE_ADAPTERS: &[&str] = &[
    "iter",
    "into_iter",
    "iter_mut",
    "values",
    "keys",
    "windows",
    "chunks",
    "chunks_exact",
    "range",
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "enumerate",
    "zip",
    "skip",
    "take",
    "skip_while",
    "take_while",
    "step_by",
    "rev",
    "cloned",
    "copied",
    "chain",
    "inspect",
    "scan",
    "fuse",
    "by_ref",
    "as_slice",
];

/// D10: find float reductions whose source chain is not proven
/// order-stable. Returns `(line, reduction token)` per finding.
///
/// A reduction is `.sum::<f64|f32>()`, `.product::<f64|f32>()`, or a
/// `.fold(...)` whose first argument is a float literal or `f64::`/
/// `f32::` constant. The chain walking left from the reduction must
/// consist solely of `STABLE_ADAPTERS` calls and terminate in a
/// *named place* — a variable, field path, index expression, or a
/// parenthesized range. A head that is a function-call result (e.g.
/// `make_series().sum::<f64>()` or a reduction directly over a
/// par-map's return) cannot be proven stable from the tokens and
/// fires.
pub fn float_reductions(body: &[Tree]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    walk_reductions(body, &mut out);
    out
}

fn walk_reductions(trees: &[Tree], out: &mut Vec<(usize, String)>) {
    let mut i = 0usize;
    while i < trees.len() {
        if let Tree::Group(_, children, ..) = &trees[i] {
            walk_reductions(children, out);
        }
        // Method position: `. name ...`
        if trees[i].leaf() == Some(&Tok::Dot) {
            if let Some(name) = trees.get(i + 1).and_then(Tree::ident) {
                let line = trees[i + 1].line();
                let hit = match name {
                    "sum" | "product" => float_turbofish(trees, i + 2),
                    "fold" => float_fold_init(trees, i + 2),
                    _ => false,
                };
                if hit && !chain_is_stable(trees, i) {
                    out.push((line, name.to_string()));
                }
            }
        }
        i += 1;
    }
}

/// Does a `::<f64>`-style turbofish follow at `j`, naming a float type?
fn float_turbofish(trees: &[Tree], j: usize) -> bool {
    if trees.get(j).and_then(Tree::leaf) != Some(&Tok::DColon) {
        return false;
    }
    // Between the `<` and matching `>`, look for f64/f32.
    let mut depth = 0i32;
    let mut k = j + 1;
    while k < trees.len() {
        match trees[k].leaf() {
            Some(Tok::Punct('<')) => depth += 1,
            Some(Tok::Punct('>')) => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            Some(Tok::Ident(s)) if s == "f64" || s == "f32" => return true,
            _ => {}
        }
        k += 1;
    }
    false
}

/// Is the group at `j` a `fold` call whose first argument is float-y?
/// (`0.0`, `-1.5f64`, `f64::INFINITY`, `f32::MIN`, ...)
fn float_fold_init(trees: &[Tree], j: usize) -> bool {
    let Some(Tree::Group('(', args, ..)) = trees.get(j) else {
        return false;
    };
    let mut k = 0usize;
    if args.get(k).and_then(Tree::leaf) == Some(&Tok::Punct('-')) {
        k += 1;
    }
    match args.get(k) {
        Some(Tree::Leaf(Tok::Num(n), _)) => {
            n.contains('.') || n.ends_with("f64") || n.ends_with("f32")
        }
        Some(Tree::Leaf(Tok::Ident(s), _)) if s == "f64" || s == "f32" => {
            args.get(k + 1).and_then(Tree::leaf) == Some(&Tok::DColon)
        }
        _ => false,
    }
}

/// Walk the method chain left of the `.` at `dot` and decide whether
/// every adapter is order-preserving and the head is a named place.
fn chain_is_stable(trees: &[Tree], dot: usize) -> bool {
    let mut j = dot; // index of the current `.`; inspect what precedes
    loop {
        if j == 0 {
            // Chain starts the expression: a closure parameter or a
            // statement head we cannot see. Treat a bare start as a
            // named place — `|buf| buf.iter().sum::<f64>()` reduces
            // buf sequentially, which is stable.
            return true;
        }
        let prev = j - 1;
        match &trees[prev] {
            // `...) . sum`: the component before the dot is a call
            // group — an adapter call `name(...)` or a head call.
            Tree::Group('(', ..) => {
                // Look further back for `.` + adapter name (turbofish
                // tolerated between name and group).
                let mut k = prev;
                // Skip back over a turbofish `::< .. >` if present:
                // pattern Ident DColon < ... > Group.
                if k >= 1 {
                    if let Some(Tok::Punct('>')) = trees[k - 1].leaf() {
                        let mut depth = 0i32;
                        let mut b = k - 1;
                        loop {
                            match trees[b].leaf() {
                                Some(Tok::Punct('>')) => depth += 1,
                                Some(Tok::Punct('<')) => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            if b == 0 {
                                break;
                            }
                            b -= 1;
                        }
                        // b is at `<`; expect DColon before it.
                        if b >= 1 && trees[b - 1].leaf() == Some(&Tok::DColon) {
                            k = b - 1;
                        }
                    }
                }
                if k >= 2
                    && trees[k - 2].leaf() == Some(&Tok::Dot)
                    && trees[k - 1].ident().is_some()
                {
                    let name = trees[k - 1].ident().unwrap_or("");
                    if !STABLE_ADAPTERS.contains(&name) {
                        return false;
                    }
                    j = k - 2; // continue left of that dot
                    continue;
                }
                if k >= 1 && trees[k - 1].ident().is_some() {
                    // `name( .. )` head: a function-call result — not
                    // proven order-stable.
                    return false;
                }
                // Parenthesized head: stable iff it is a range.
                if let Tree::Group('(', children, ..) = &trees[prev] {
                    return children
                        .iter()
                        .any(|t| t.leaf() == Some(&Tok::DotDot));
                }
                return false;
            }
            // `xs . iter`-style: indexing `xs[..]` before the dot.
            Tree::Group('[', ..) => {
                if prev == 0 {
                    return true;
                }
                // The indexed base continues to the left (ident/field).
                match &trees[prev - 1] {
                    Tree::Leaf(Tok::Ident(_), _) => {
                        j = prev - 1;
                        // Fall through to ident handling below by
                        // looping: treat as current component.
                        // Continue scanning left of the ident.
                        if j == 0 {
                            return true;
                        }
                        match trees[j - 1].leaf() {
                            Some(Tok::Dot) | Some(Tok::DColon) => {
                                j -= 1;
                                continue;
                            }
                            _ => return true,
                        }
                    }
                    _ => return true,
                }
            }
            Tree::Leaf(Tok::Ident(_), _) | Tree::Leaf(Tok::Num(_), _) => {
                // Field access / path segment / plain variable.
                if prev == 0 {
                    return true;
                }
                match trees[prev - 1].leaf() {
                    Some(Tok::Dot) | Some(Tok::DColon) => {
                        j = prev - 1;
                        continue;
                    }
                    // `&xs.iter()...`, `*xs...`: reference/deref of a
                    // named place is still a named place.
                    _ => return true,
                }
            }
            // Anything else before the dot — `?`, `}`, a closed brace
            // group, an `await` — is not a proven-stable source.
            _ => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;
    use crate::parser::parse;

    fn body_of(src: &str) -> Vec<Tree> {
        let p = parse(&scan(src), "crates/demo/src/lib.rs");
        p.fns[0].body.clone()
    }

    #[test]
    fn d9_flags_captured_rng_in_par_closure() {
        let body = body_of(
            "fn f(rng: &mut SimRng) {\n    exec::par_map(jobs, &items, |i| rng.uniform() * i);\n}\n",
        );
        let hits = rng_aliasing(&body);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0], (2, "rng".to_string()));
    }

    #[test]
    fn d9_accepts_task_local_rng() {
        let body = body_of(
            "fn f(seed: u64) {\n    exec::par_map_indexed(jobs, n, |i| {\n        let mut rng = SimRng::new(derive_seed(seed, i as u64));\n        rng.uniform()\n    });\n}\n",
        );
        assert!(rng_aliasing(&body).is_empty());
    }

    #[test]
    fn d9_accepts_rng_as_closure_param() {
        let body = body_of(
            "fn f() {\n    exec::par_map_with(jobs, n, |w| SimRng::new(w as u64), |rng, i| rng.uniform());\n}\n",
        );
        assert!(rng_aliasing(&body).is_empty());
    }

    #[test]
    fn d9_flags_rng_passed_outside_closures() {
        let body = body_of(
            "fn f(node_rng: &mut SimRng) {\n    for _ in 0..3 {\n        exec::par_map_with(jobs, n, || node_rng.fork(), |s, i| s.uniform());\n    }\n}\n",
        );
        let hits = rng_aliasing(&body);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].1, "node_rng");
    }

    #[test]
    fn d9_ignores_rng_outside_par_calls() {
        let body = body_of(
            "fn f(rng: &mut SimRng) -> f64 {\n    let x = rng.uniform();\n    other_call(rng);\n    x\n}\n",
        );
        assert!(rng_aliasing(&body).is_empty());
    }

    #[test]
    fn d10_accepts_stable_chains() {
        for src in [
            "fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }",
            "fn f(xs: &[f64]) -> f64 { xs.iter().map(|x| x * x).sum::<f64>() }",
            "fn f(xs: &[f64], m: f64) -> f64 {\n    (0..xs.len())\n        .map(|i| xs[i] - m)\n        .sum::<f64>()\n}",
            "fn f(xs: &[f64], k: usize) -> f64 { xs[..k].iter().sum::<f64>() / k as f64 }",
            "fn f(s: &State) -> f64 { s.series.iter().take(10).map(|&(_, r)| r).sum::<f64>() }",
            "fn f(cs: &[f64], x: f64) -> f64 { cs.iter().rev().fold(0.0, |acc, &c| acc * x + c) }",
            "fn f(ws: &[f64]) -> f64 { ws.iter().cloned().fold(0.0, f64::max) }",
        ] {
            let hits = float_reductions(&body_of(src));
            assert!(hits.is_empty(), "{src}: {hits:?}");
        }
    }

    #[test]
    fn d10_flags_call_result_heads() {
        for src in [
            "fn f() -> f64 { make_series().sum::<f64>() }",
            "fn f() -> f64 { make_series().iter().sum::<f64>() }",
            "fn f() -> f64 { exec::par_map(jobs, &xs, work).into_iter().sum::<f64>() }",
            "fn f() -> f64 { samples(3).fold(0.0, |a, b| a + b) }",
        ] {
            let hits = float_reductions(&body_of(src));
            assert_eq!(hits.len(), 1, "{src}: {hits:?}");
        }
    }

    #[test]
    fn d10_flags_unknown_adapters() {
        let hits =
            float_reductions(&body_of("fn f(b: &Bag) -> f64 { b.entries_unordered().sum::<f64>() }"));
        assert_eq!(hits.len(), 1, "{hits:?}");
    }

    #[test]
    fn d10_ignores_integer_reductions_and_bare_sums() {
        for src in [
            "fn f(xs: &[u64]) -> u64 { mk().iter().sum::<u64>() }",
            "fn f(xs: &[u64]) -> u64 { mk().fold(0, |a, b| a + b) }",
            "fn f(xs: &[f64]) -> usize { mk().count() }",
        ] {
            let hits = float_reductions(&body_of(src));
            assert!(hits.is_empty(), "{src}: {hits:?}");
        }
    }

    #[test]
    fn d10_float_fold_detection_covers_constants() {
        let hits = float_reductions(&body_of(
            "fn f() -> f64 { mk().fold(f64::NEG_INFINITY, f64::max) }",
        ));
        assert_eq!(hits.len(), 1, "{hits:?}");
        let hits = float_reductions(&body_of("fn f() -> f64 { mk().fold(-1.0, f64::min) }"));
        assert_eq!(hits.len(), 1, "{hits:?}");
    }
}
