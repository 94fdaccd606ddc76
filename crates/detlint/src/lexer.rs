//! A small Rust source scanner: comment/string stripping, `#[cfg(test)]`
//! region tracking, and suppression-pragma extraction.
//!
//! The linter's rules are lexical, so false positives would come from
//! two places: rule needles appearing inside comments or string
//! literals, and rule needles appearing inside test code (where the
//! contract does not apply). This module removes both hazards before
//! any rule runs: it walks the source character by character with a
//! five-state machine (code, line comment, nested block comment, string
//! literal, raw string literal), blanks everything that is not code,
//! and separately captures comment text so `detlint:allow` pragmas can
//! be recognized. A second pass marks every line that falls inside a
//! `#[cfg(test)]` item by brace matching on the blanked code.
//!
//! The scanner is deliberately not a full Rust lexer: it does not
//! tokenize, it classifies. That keeps it ~200 lines, std-only, and
//! fast enough to run over the whole workspace on every `verify.sh`.

/// One source file after scanning.
#[derive(Debug, Clone)]
pub struct ScannedFile {
    /// Per line: source code with comments and literal bodies replaced
    /// by spaces (line structure and column positions preserved).
    pub code: Vec<String>,
    /// Per line: the text of any comments on that line (joined).
    pub comments: Vec<String>,
    /// Per line: whether the line is inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    /// Nesting depth of `/* ... */`.
    BlockComment(u32),
    /// Inside `"..."` (escape-aware; also used for byte strings).
    Str,
    /// Inside `r##"..."##` with the given hash count.
    RawStr(u32),
}

/// Scan `source` into blanked code lines, comment lines, and test-region
/// markers.
pub fn scan(source: &str) -> ScannedFile {
    let chars: Vec<char> = source.chars().collect();
    let mut code = Vec::new();
    let mut comments = Vec::new();
    let mut code_line = String::new();
    let mut comment_line = String::new();
    let mut state = State::Code;
    let mut i = 0usize;

    macro_rules! endline {
        () => {{
            code.push(std::mem::take(&mut code_line));
            comments.push(std::mem::take(&mut comment_line));
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            endline!();
            if state == State::LineComment {
                state = State::Code;
            }
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    state = State::LineComment;
                    code_line.push_str("  ");
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(1);
                    code_line.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    state = State::Str;
                    code_line.push(' ');
                    i += 1;
                } else if let Some(hashes) = raw_string_at(&chars, i) {
                    // `r"`, `r#"`, `br##"`, ...: blank the opener.
                    let opener = raw_opener_len(&chars, i);
                    for _ in 0..opener {
                        code_line.push(' ');
                    }
                    state = State::RawStr(hashes);
                    i += opener;
                } else if c == 'b' && chars.get(i + 1) == Some(&'"') {
                    code_line.push_str("  ");
                    state = State::Str;
                    i += 2;
                } else if c == '\'' || (c == 'b' && chars.get(i + 1) == Some(&'\'')) {
                    let q = if c == 'b' { i + 1 } else { i };
                    match char_literal_len(&chars, q) {
                        Some(len) => {
                            // Blank the whole literal (and the `b` prefix).
                            for _ in i..q + len {
                                code_line.push(' ');
                            }
                            i = q + len;
                        }
                        None => {
                            // A lifetime (or a stray `b`): keep as code.
                            code_line.push(c);
                            i += 1;
                        }
                    }
                } else {
                    code_line.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                comment_line.push(c);
                code_line.push(' ');
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    state = if depth > 1 {
                        State::BlockComment(depth - 1)
                    } else {
                        State::Code
                    };
                    code_line.push_str("  ");
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(depth + 1);
                    code_line.push_str("  ");
                    i += 2;
                } else {
                    comment_line.push(c);
                    code_line.push(' ');
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' && chars.get(i + 1) == Some(&'\n') {
                    // String-literal line continuation: keep line counts.
                    code_line.push(' ');
                    endline!();
                    i += 2;
                } else if c == '\\' && i + 1 < chars.len() {
                    code_line.push_str("  ");
                    i += 2;
                } else {
                    if c == '"' {
                        state = State::Code;
                    }
                    code_line.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars, i, hashes) {
                    for _ in 0..=hashes {
                        code_line.push(' ');
                    }
                    state = State::Code;
                    i += 1 + hashes as usize;
                } else {
                    code_line.push(' ');
                    i += 1;
                }
            }
        }
    }
    // A trailing newline already closed the last line; only flush a
    // final unterminated line.
    if !source.is_empty() && !source.ends_with('\n') {
        endline!();
    }

    let in_test = mark_test_regions(&code);
    ScannedFile {
        code,
        comments,
        in_test,
    }
}

/// Does a raw-string opener (`r"`, `r#"`, with optional `b` prefix)
/// start at `i`? Returns the hash count if so.
fn raw_string_at(chars: &[char], i: usize) -> Option<u32> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    // `r` must start an identifier-like token, not end one (`var"` is
    // not valid Rust, but an identifier ending in `r` followed by `#`
    // appears in `r#keyword` escapes — those are not strings).
    if i > 0 && is_ident_char(chars[i - 1]) {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some(hashes)
    } else {
        None
    }
}

/// Length in chars of the raw-string opener at `i` (prefix + r + hashes
/// + quote).
fn raw_opener_len(chars: &[char], i: usize) -> usize {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    j += 1; // r
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    j + 1 - i // closing quote of the opener
}

/// Does the `"` at `i` close a raw string with `hashes` hashes?
fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// If a char literal starts at the `'` at position `q`, return its
/// length in chars (quotes included); `None` means it is a lifetime.
fn char_literal_len(chars: &[char], q: usize) -> Option<usize> {
    match chars.get(q + 1) {
        Some('\\') => {
            // Escaped char: the character at q+2 is the escaped payload
            // and can itself be a quote (`'\''`) or a backslash
            // (`'\\'`), so the closing-quote scan must start *after*
            // it (handles '\n', '\'', '\\', '\u{10FFFF}').
            let mut j = q + 3;
            while j < chars.len() && j < q + 13 {
                if chars[j] == '\'' {
                    return Some(j + 1 - q);
                }
                j += 1;
            }
            None
        }
        Some(_) if chars.get(q + 2) == Some(&'\'') => Some(3),
        _ => None,
    }
}

/// Is `c` part of an identifier?
pub fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Mark every line inside a `#[cfg(test)]` item by brace matching on
/// the blanked code (strings and comments no longer contain braces).
/// An attribute followed by a braceless item (`#[cfg(test)] use x;`)
/// ends at the first `;` at depth zero.
fn mark_test_regions(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut i = 0usize;
    while i < code.len() {
        if !code[i].contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        let mut depth: i64 = 0;
        let mut started = false;
        while i < code.len() {
            in_test[i] = true;
            for c in code[i].chars() {
                match c {
                    '{' => {
                        depth += 1;
                        started = true;
                    }
                    '}' => depth -= 1,
                    ';' if !started && depth == 0 => started = true, // braceless item
                    _ => {}
                }
            }
            if started && depth <= 0 {
                break;
            }
            i += 1;
        }
        i += 1;
    }
    in_test
}

/// A suppression pragma found in a comment: the `detlint:` marker
/// followed by `allow(rules) -- reason`. (This doc spells the two
/// halves separately on purpose — joined, they would parse as a real
/// pragma here, and rule P1 rejects pragmas that suppress nothing.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    /// 1-based line the pragma appears on.
    pub line: usize,
    /// Rule names as written (e.g. `"D5"`), in source order.
    pub rules: Vec<String>,
    /// Whether a `-- reason` clause follows the rule list.
    pub has_reason: bool,
}

/// Extract every suppression pragma from a scanned file's comments.
///
/// Grammar: the `detlint:` marker, then `allow(D1, D5) -- free-form
/// reason`. The reason clause is mandatory for a clean lint (rule P0
/// fires without it).
pub fn pragmas(file: &ScannedFile) -> Vec<Pragma> {
    // Built by concatenation so the linter's own source never contains
    // the literal marker (grep-based CI checks would trip on it).
    let marker = concat!("detlint:", "allow(");
    let mut out = Vec::new();
    for (idx, comment) in file.comments.iter().enumerate() {
        let Some(pos) = comment.find(marker) else {
            continue;
        };
        let after = &comment[pos + marker.len()..];
        let Some(close) = after.find(')') else {
            // Malformed pragma: report as reason-less so P0 surfaces it.
            out.push(Pragma {
                line: idx + 1,
                rules: Vec::new(),
                has_reason: false,
            });
            continue;
        };
        let rules: Vec<String> = after[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let tail = after[close + 1..].trim_start();
        let has_reason = tail
            .strip_prefix("--")
            .is_some_and(|r| !r.trim().is_empty());
        out.push(Pragma {
            line: idx + 1,
            rules,
            has_reason,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_and_block_comments() {
        let f = scan("let a = 1; // trailing\n/* block\nspanning */ let b = 2;\n");
        assert_eq!(f.code[0].trim_end(), "let a = 1;");
        assert!(f.comments[0].contains("trailing"));
        assert!(f.code[1].trim().is_empty());
        assert_eq!(f.code[2].trim(), "let b = 2;");
    }

    #[test]
    fn nested_block_comments() {
        let f = scan("a /* x /* y */ z */ b\n");
        assert_eq!(f.code[0].split_whitespace().collect::<Vec<_>>(), ["a", "b"]);
    }

    #[test]
    fn blanks_string_contents() {
        let f = scan("let s = \"panic! // not a comment\"; let t = 1;\n");
        assert!(!f.code[0].contains("panic"));
        assert!(f.code[0].contains("let t = 1;"));
        assert!(f.comments[0].is_empty());
    }

    #[test]
    fn raw_strings_and_escapes() {
        let f = scan("let s = r#\"has \"quotes\" inside\"#; let u = \"esc \\\" q\"; done()\n");
        assert!(!f.code[0].contains("quotes"));
        assert!(f.code[0].contains("done()"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let f = scan("fn f<'a>(x: &'a str) { let q = '\"'; let n = '\\n'; g(x) }\n");
        // The '"' char literal must not open a string.
        assert!(f.code[0].contains("g(x)"));
        assert!(f.code[0].contains("<'a>"));
    }

    #[test]
    fn escaped_quote_and_backslash_char_literals() {
        // `'\''` and `'\\'` end on the quote *after* the escaped
        // payload; the leftover quote must not leak into code state
        // and swallow the rest of the line.
        let f = scan("let a = '\\''; let b = '\\\\'; after(\"s\")\n");
        assert!(f.code[0].contains("after("), "code: {:?}", f.code[0]);
        assert!(!f.code[0].contains('s'), "string leaked: {:?}", f.code[0]);
        assert!(f.code[0].contains("let b ="));
    }

    #[test]
    fn byte_char_literals_are_blanked() {
        let f = scan("let x = b'a'; let y = b'\\n'; let z = b'\\''; tail()\n");
        assert!(f.code[0].contains("tail()"), "code: {:?}", f.code[0]);
        // The literal payloads are gone from code.
        assert!(!f.code[0].contains("b'a'"));
        // A byte-char containing a quote must not open a string.
        assert!(f.comments[0].is_empty());
    }

    #[test]
    fn lifetimes_survive_next_to_char_literals() {
        let f = scan("fn f<'a>(x: &'a str) -> &'a str { let c = 'a'; g(x) }\n");
        assert!(f.code[0].contains("<'a>"));
        assert!(f.code[0].contains("&'a str"));
        assert!(f.code[0].contains("g(x)"));
        // The actual char literal is blanked.
        assert!(!f.code[0].contains("= 'a'"));
    }

    #[test]
    fn loop_labels_stay_code() {
        let f = scan("'outer: loop { break 'outer; }\n");
        assert!(f.code[0].contains("'outer: loop"));
        assert!(f.code[0].contains("break 'outer;"));
    }

    #[test]
    fn adjacent_raw_strings_each_close() {
        let f = scan("join(r\"aa\", r#\"bb\"#, r\"cc\"); done()\n");
        assert!(f.code[0].contains("done()"), "code: {:?}", f.code[0]);
        for leak in ["aa", "bb", "cc"] {
            assert!(!f.code[0].contains(leak), "leaked {leak}: {:?}", f.code[0]);
        }
    }

    #[test]
    fn nested_looking_raw_strings_close_on_their_own_hash_count() {
        let f = scan("let s = r##\"outer r#\"inner\"# still\"##; after()\n");
        assert!(f.code[0].contains("after()"), "code: {:?}", f.code[0]);
        assert!(!f.code[0].contains("inner"));
        assert!(!f.code[0].contains("still"));
    }

    #[test]
    fn marks_cfg_test_regions() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn more() {}\n";
        let f = scan(src);
        assert_eq!(f.in_test, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn braceless_cfg_test_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn lib() {}\n";
        let f = scan(src);
        assert_eq!(f.in_test, vec![true, true, false]);
    }

    #[test]
    fn finds_pragmas_with_and_without_reason() {
        let marker = concat!("detlint:", "allow");
        let src = format!(
            "x(); // {marker}(D5) -- guarded by the loop condition\ny(); // {marker}(D1,D6)\n"
        );
        let f = scan(&src);
        let ps = pragmas(&f);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].rules, vec!["D5"]);
        assert!(ps[0].has_reason);
        assert_eq!(ps[1].rules, vec!["D1", "D6"]);
        assert!(!ps[1].has_reason);
    }
}
