//! A minimal Rust lexer for scope-aware static analysis.
//!
//! The container this repo builds in has no crates.io access, so the
//! checker cannot use `syn`. For the invariants `hopp-check` enforces
//! (cast hygiene, crate-root lint lines and the dataflow analyses) a
//! full AST is unnecessary. The lexer provides two
//! views of a file:
//!
//! * a **line view**: for every source line, the *code* with comments
//!   and literal contents blanked out (so `"HashMap"` in a string never
//!   trips the ordering rule), the *comment text* (where waivers
//!   live), whether the line sits inside a `#[cfg(test)]` region or
//!   `#[test]` function, and the brace-scope depth at the line start;
//! * a **token view** ([`tokenize`]): the blanked code stream split
//!   into identifier / literal / operator / bracket tokens, each tagged
//!   with its 1-based source line. The dataflow analyses
//!   (`determinism-taint`, `ordering-sensitivity`) walk this stream
//!   with an explicit scope stack instead of re-parsing lines.
//!
//! The lexer is a single character-level state machine over the file,
//! followed by a brace-depth pass that marks test regions and records
//! per-line scope depths.

/// One analysed source line.
#[derive(Clone, Debug)]
pub struct Line {
    /// Source code with comments removed and string/char literal
    /// contents blanked (quotes preserved, so structure survives).
    pub code: String,
    /// Comment text on this line (`//`, `///`, `//!` and block
    /// comment fragments), concatenated.
    pub comment: String,
    /// True when the line is inside `#[cfg(test)]` / `#[test]` code.
    pub in_test: bool,
    /// Brace-scope depth at the start of the line (0 = module level).
    /// Braces inside strings, chars and comments do not count.
    pub depth_start: i32,
}

/// A lexed file: per-line code/comment split plus test-region marks.
#[derive(Clone, Debug)]
pub struct LexedFile {
    /// Lines, index 0 = source line 1.
    pub lines: Vec<Line>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Normal,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

/// Lexes one file's source text.
pub fn lex(src: &str) -> LexedFile {
    let (code, comment) = split_code_comments(src);
    let code_lines: Vec<&str> = code.split('\n').collect();
    let comment_lines: Vec<&str> = comment.split('\n').collect();
    let tests = mark_test_regions(&code_lines);
    let depths = line_start_depths(&code_lines);
    let lines = code_lines
        .iter()
        .enumerate()
        .map(|(i, c)| Line {
            code: (*c).to_string(),
            comment: comment_lines.get(i).copied().unwrap_or("").to_string(),
            in_test: tests[i],
            depth_start: depths[i],
        })
        .collect();
    LexedFile { lines }
}

/// Brace-scope depth at the start of each (comment/literal-blanked)
/// code line. Literal and comment braces were already removed from the
/// code stream, so plain counting is exact here.
fn line_start_depths(code_lines: &[&str]) -> Vec<i32> {
    let mut depths = Vec::with_capacity(code_lines.len());
    let mut depth: i32 = 0;
    for line in code_lines {
        depths.push(depth);
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
    }
    depths
}

/// What a [`Tok`] is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokKind {
    /// Identifier or keyword (`let`, `HashMap`, `t0`, …).
    Ident,
    /// Numeric literal (`42`, `0x1f`, `1_024`).
    Num,
    /// String literal (contents blanked by the lexer).
    Str,
    /// Char literal (contents blanked by the lexer).
    Char,
    /// Lifetime (`'a`).
    Lifetime,
    /// Operator or punctuation, maximal-munch (`::`, `=>`, `+=`, `=`).
    Op,
    /// Opening bracket: `{`, `(` or `[`.
    Open,
    /// Closing bracket: `}`, `)` or `]`.
    Close,
}

/// One token of the blanked code stream.
#[derive(Clone, Debug)]
pub struct Tok {
    /// Token text (literal contents already blanked to `_`).
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: usize,
    /// Token class.
    pub kind: TokKind,
}

impl Tok {
    /// True when the token is this exact identifier.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True when the token is this exact operator/punctuation.
    pub fn is_op(&self, s: &str) -> bool {
        self.kind == TokKind::Op && self.text == s
    }
}

/// Multi-char operators, longest first so maximal munch wins.
const MULTI_OPS: [&str; 24] = [
    "<<=", ">>=", "..=", "...", "==", "!=", "<=", ">=", "&&", "||", "->", "=>", "::", "+=", "-=",
    "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>", "..",
];

/// Tokenizes the blanked code stream of a lexed file. Comments and
/// literal contents are already gone, so this is a plain scanner; the
/// scope structure (every `{`/`}` token) is exact.
pub fn tokenize(lexed: &LexedFile) -> Vec<Tok> {
    let mut toks = Vec::new();
    for (idx, line) in lexed.lines.iter().enumerate() {
        let lineno = idx + 1;
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if c.is_alphabetic() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                toks.push(Tok {
                    text: chars[start..i].iter().collect(),
                    line: lineno,
                    kind: TokKind::Ident,
                });
                continue;
            }
            if c.is_ascii_digit() {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                toks.push(Tok {
                    text: chars[start..i].iter().collect(),
                    line: lineno,
                    kind: TokKind::Num,
                });
                continue;
            }
            if c == '"' {
                let start = i;
                i += 1;
                while i < chars.len() && chars[i] != '"' {
                    i += 1;
                }
                i = (i + 1).min(chars.len());
                toks.push(Tok {
                    text: chars[start..i].iter().collect(),
                    line: lineno,
                    kind: TokKind::Str,
                });
                continue;
            }
            if c == '\'' {
                // Blanked char literal ('_' / '__') vs lifetime ('a).
                if is_char_literal(&chars, i) {
                    let start = i;
                    i += 1;
                    while i < chars.len() && chars[i] != '\'' {
                        i += 1;
                    }
                    i = (i + 1).min(chars.len());
                    toks.push(Tok {
                        text: chars[start..i].iter().collect(),
                        line: lineno,
                        kind: TokKind::Char,
                    });
                } else {
                    let start = i;
                    i += 1;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                    toks.push(Tok {
                        text: chars[start..i].iter().collect(),
                        line: lineno,
                        kind: TokKind::Lifetime,
                    });
                }
                continue;
            }
            if matches!(c, '{' | '(' | '[') {
                toks.push(Tok {
                    text: c.to_string(),
                    line: lineno,
                    kind: TokKind::Open,
                });
                i += 1;
                continue;
            }
            if matches!(c, '}' | ')' | ']') {
                toks.push(Tok {
                    text: c.to_string(),
                    line: lineno,
                    kind: TokKind::Close,
                });
                i += 1;
                continue;
            }
            let rest: String = chars[i..chars.len().min(i + 3)].iter().collect();
            let mut matched = 1;
            for op in MULTI_OPS {
                if rest.starts_with(op) {
                    matched = op.len();
                    break;
                }
            }
            toks.push(Tok {
                text: chars[i..i + matched].iter().collect(),
                line: lineno,
                kind: TokKind::Op,
            });
            i += matched;
        }
    }
    toks
}

/// Splits source into parallel code and comment streams of identical
/// line structure. Literal contents are blanked in the code stream.
fn split_code_comments(src: &str) -> (String, String) {
    let mut code = String::with_capacity(src.len());
    let mut comment = String::with_capacity(src.len() / 4);
    let mut state = State::Normal;
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '\n' {
            // Newlines go to both streams to keep line numbers aligned.
            code.push('\n');
            comment.push('\n');
            if state == State::LineComment {
                state = State::Normal;
            }
            i += 1;
            continue;
        }
        match state {
            State::Normal => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    comment.push(' ');
                    i += 1;
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    code.push(' ');
                    code.push(' ');
                    i += 2;
                    continue;
                }
                '"' => {
                    // Raw string? Look back for r / r# prefixes already
                    // emitted; simpler: handled at the 'r' below.
                    state = State::Str;
                    code.push('"');
                    i += 1;
                    continue;
                }
                'r' if next == Some('"') || next == Some('#') => {
                    // Possible raw string r"..." or r#"..."#.
                    let mut j = i + 1;
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        for _ in i..=j {
                            code.push('_');
                        }
                        state = State::RawStr(hashes);
                        i = j + 1;
                        continue;
                    }
                    code.push(c);
                    i += 1;
                    continue;
                }
                '\'' => {
                    // Char literal vs lifetime: a lifetime is 'ident not
                    // followed by a closing quote; a char literal closes
                    // within a few chars (escapes included).
                    if is_char_literal(&chars, i) {
                        state = State::Char;
                    }
                    code.push('\'');
                    i += 1;
                    continue;
                }
                _ => {
                    code.push(c);
                    i += 1;
                    continue;
                }
            },
            State::LineComment => {
                comment.push(c);
                code.push(' ');
                i += 1;
                continue;
            }
            State::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    let d = depth - 1;
                    if d == 0 {
                        state = State::Normal;
                    } else {
                        state = State::BlockComment(d);
                    }
                    comment.push(' ');
                    code.push(' ');
                    code.push(' ');
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    comment.push(' ');
                    code.push(' ');
                    code.push(' ');
                    i += 2;
                    continue;
                }
                comment.push(c);
                code.push(' ');
                i += 1;
                continue;
            }
            State::Str => {
                if c == '\\' {
                    code.push('_');
                    if next.is_some() && next != Some('\n') {
                        code.push('_');
                        i += 2;
                        continue;
                    }
                    i += 1;
                    continue;
                }
                if c == '"' {
                    state = State::Normal;
                    code.push('"');
                } else {
                    code.push('_');
                }
                i += 1;
                continue;
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes as usize {
                        if chars.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        for _ in 0..=hashes as usize {
                            code.push('_');
                        }
                        state = State::Normal;
                        i += 1 + hashes as usize;
                        continue;
                    }
                }
                code.push('_');
                i += 1;
                continue;
            }
            State::Char => {
                if c == '\\' && next.is_some() && next != Some('\n') {
                    code.push('_');
                    code.push('_');
                    i += 2;
                    continue;
                }
                if c == '\'' {
                    state = State::Normal;
                    code.push('\'');
                } else {
                    code.push('_');
                }
                i += 1;
                continue;
            }
        }
        // Keep the comment stream line-aligned: pad nothing here; the
        // comment stream only receives characters in comment states and
        // newlines above.
        let _ = &comment;
    }
    (code, comment)
}

/// Distinguishes `'a'` / `'\n'` (char literal) from `'a` (lifetime) at
/// position `i` of a `'`.
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(_) => chars.get(i + 2) == Some(&'\''),
        None => false,
    }
}

/// Marks lines inside `#[cfg(test)]` regions or `#[test]` functions by
/// brace counting over the comment-stripped code stream.
fn mark_test_regions(code_lines: &[&str]) -> Vec<bool> {
    let mut marks = vec![false; code_lines.len()];
    let mut depth: i64 = 0;
    // Depths at which a test region's opening brace sits.
    let mut test_depths: Vec<i64> = Vec::new();
    // A test attribute was seen; the next `{` opens its region.
    let mut pending = false;
    for (idx, line) in code_lines.iter().enumerate() {
        let has_attr = line.contains("#[cfg(test)]") || line.contains("#[test]");
        if has_attr {
            pending = true;
        }
        marks[idx] = !test_depths.is_empty() || pending;
        for c in line.chars() {
            match c {
                '{' => {
                    if pending {
                        test_depths.push(depth);
                        pending = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if test_depths.last() == Some(&depth) {
                        test_depths.pop();
                    }
                }
                _ => {}
            }
        }
    }
    marks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_are_split_out_of_code() {
        let f = lex("let x = 1; // trailing words\n/* block */ let y = 2;\n");
        assert!(f.lines[0].code.contains("let x = 1;"));
        assert!(!f.lines[0].code.contains("trailing"));
        assert!(f.lines[0].comment.contains("trailing words"));
        assert!(f.lines[1].code.contains("let y = 2;"));
        assert!(f.lines[1].comment.contains("block"));
    }

    #[test]
    fn string_contents_are_blanked() {
        let f = lex("let s = \"HashMap::new() // not a comment\";\n");
        assert!(!f.lines[0].code.contains("HashMap"));
        assert!(f.lines[0].comment.is_empty());
        assert!(f.lines[0].code.contains('"'), "quotes survive");
    }

    #[test]
    fn raw_strings_and_escapes_are_blanked() {
        let f = lex("let s = r#\"x \" y\"#; let t = \"a\\\"b\"; let u = 'c';\n");
        let code = &f.lines[0].code;
        assert!(!code.contains("x \" y"));
        assert!(code.contains("let t"));
        assert!(code.contains("let u"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let f = lex("fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = 'z';\n");
        assert!(f.lines[0].code.contains("&'a str"));
        assert!(!f.lines[1].code.contains('z'));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn after() {}\n";
        let f = lex(src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test, "attribute line itself");
        assert!(f.lines[2].in_test);
        assert!(f.lines[3].in_test);
        assert!(f.lines[4].in_test);
        assert!(!f.lines[5].in_test, "region closed");
    }

    #[test]
    fn nested_block_comments_terminate() {
        let f = lex("/* a /* b */ c */ let x = 1;\n");
        assert!(f.lines[0].code.contains("let x = 1;"));
        assert!(!f.lines[0].code.contains('a'));
    }

    #[test]
    fn multiline_block_comment_spans_lines() {
        let f = lex("/* one\ntwo */ let k = 3;\n");
        assert!(f.lines[0].code.trim().is_empty());
        assert!(f.lines[1].code.contains("let k = 3;"));
        assert!(f.lines[0].comment.contains("one"));
    }

    #[test]
    fn depth_ignores_braces_in_literals_and_comments() {
        let src = "fn f() {\n    let s = \"{{{\"; // }}}\n    let c = '{';\n}\nfn g() {}\n";
        let f = lex(src);
        let depths: Vec<i32> = f.lines.iter().map(|l| l.depth_start).collect();
        assert_eq!(depths, [0, 1, 1, 1, 0, 0]);
    }

    #[test]
    fn tokenize_classifies_and_munches_operators() {
        let f = lex("let ns = t0.elapsed().as_nanos() as u64;\nif a == b && c != d { x += 1 }\n");
        let toks = tokenize(&f);
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert!(texts.contains(&"elapsed"));
        assert!(texts.contains(&"=="));
        assert!(texts.contains(&"&&"));
        assert!(texts.contains(&"!="));
        assert!(texts.contains(&"+="));
        // `==` must not be split into two `=` tokens.
        assert_eq!(toks.iter().filter(|t| t.is_op("=")).count(), 1);
        // Line tags are 1-based source lines.
        let eq = toks.iter().find(|t| t.is_op("==")).unwrap();
        assert_eq!(eq.line, 2);
    }

    #[test]
    fn tokenize_keeps_lifetimes_apart_from_chars() {
        let f = lex("fn f<'a>(x: &'a str) -> char { 'z' }\n");
        let toks = tokenize(&f);
        assert!(toks.iter().any(|t| t.kind == TokKind::Lifetime));
        assert!(toks.iter().any(|t| t.kind == TokKind::Char));
        // The generic's `<`/`>` arrive as plain ops; `(` and `{` as Open.
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Open).count(), 2);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Close).count(), 2);
    }

    #[test]
    fn tokenize_blanks_string_contents() {
        let f = lex("let s = \"HashMap { }\";\n");
        let toks = tokenize(&f);
        let s = toks.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert!(!s.text.contains("HashMap"));
        assert!(!toks.iter().any(|t| t.kind == TokKind::Open));
    }
}
