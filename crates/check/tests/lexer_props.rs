//! Property test: the lexer's line view agrees with ground truth on
//! arbitrary token streams.
//!
//! The generator composes random programs from snippets whose true
//! brace delta is known by construction — including strings, char
//! literals, raw strings, line comments and *nested multi-line block
//! comments* that all contain decoy braces and decoy test attributes —
//! and opens `#[cfg(test)] mod` and `#[test] fn` regions at random
//! depths. While generating, it records every emitted line's brace
//! delta and whether it sits in test code. The lexer must reproduce
//! both exactly: the `{`/`}` balance of [`hopp_check::lexer::Line::code`]
//! (so no literal or comment brace survives blanking) and
//! [`hopp_check::lexer::Line::in_test`]. No external proptest crate
//! (the build container is offline): a SplitMix64 generator with fixed
//! seeds keeps the runs deterministic and the failures replayable by
//! seed.

use hopp_check::lexer;

/// SplitMix64: tiny, well-distributed, and deterministic per seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One generator snippet: lines plus each line's true brace delta.
type Snippet = &'static [(&'static str, i32)];

/// Snippets whose decoy braces and attributes (in literals and
/// comments) must not move the depth or open a test region; a few open
/// or close real scopes.
const SNIPPETS: &[Snippet] = &[
    &[("let x = 1;", 0)],
    &[("fn f() {", 1)],
    &[("if a == b { let y = 2; }", 0)],
    &[("let s = \"brace { in } string\";", 0)],
    &[("let open = '{'; let close = '}';", 0)],
    &[("// line comment { with } stray braces", 0)],
    &[("let r = r#\"raw { \" } string\"#;", 0)],
    &[("struct S { a: u64 }", 0)],
    &[("let esc = \"escaped \\\" quote { \";", 0)],
    &[("let attr = \"#[cfg(test)] mod decoy {\";", 0)],
    &[("// #[test] fn decoy() {", 0)],
    &[
        ("/* block { comment", 0),
        ("still /* nested { */ #[test] junk", 0),
        ("end } */ let z = 3;", 0),
    ],
    &[("match v {", 1), ("    _ => {}", 0), ("}", -1)],
    &[
        ("impl S {", 1),
        ("    fn m(&self) -> u64 { self.a }", 0),
        ("}", -1),
    ],
];

/// Snippets that open a test region: every line is test code, and the
/// scope their last line opens stays test code until it closes.
const TEST_OPENERS: &[Snippet] = &[
    &[("#[cfg(test)]", 0), ("mod tests {", 1)],
    &[("#[cfg(test)] mod inline_tests {", 1)],
    &[("#[test]", 0), ("fn case() {", 1)],
];

/// The close-a-scope snippet, only legal while a scope is open.
const CLOSE: Snippet = &[("}", -1)];

/// Ground truth for one emitted line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Truth {
    /// `{` count minus `}` count among the line's real braces.
    delta: i32,
    /// True inside a `#[cfg(test)]` / `#[test]` region, its attribute
    /// and closing lines included.
    in_test: bool,
}

/// Generates one program and its ground truth, one entry per line.
fn generate(seed: u64, len: usize) -> (String, Vec<Truth>) {
    let mut rng = Rng(seed);
    let mut src = String::new();
    let mut truth = Vec::new();
    // One entry per open scope: true when it opens a test region.
    let mut scopes: Vec<bool> = Vec::new();
    for _ in 0..len {
        let roll = rng.below(8);
        let (snippet, opens_test) = if !scopes.is_empty() && roll < 2 {
            (CLOSE, false)
        } else if roll == 2 {
            (TEST_OPENERS[rng.below(TEST_OPENERS.len())], true)
        } else {
            (SNIPPETS[rng.below(SNIPPETS.len())], false)
        };
        for (line, delta) in snippet {
            truth.push(Truth {
                delta: *delta,
                in_test: opens_test || scopes.contains(&true),
            });
            src.push_str(line);
            src.push('\n');
            match delta {
                1 => scopes.push(opens_test),
                -1 => {
                    scopes.pop();
                }
                _ => {}
            }
        }
    }
    while !scopes.is_empty() {
        truth.push(Truth {
            delta: -1,
            in_test: scopes.contains(&true),
        });
        src.push_str("}\n");
        scopes.pop();
    }
    // The trailing newline yields one final empty line at module level.
    truth.push(Truth {
        delta: 0,
        in_test: false,
    });
    (src, truth)
}

fn brace_delta(code: &str) -> i32 {
    code.chars()
        .map(|c| match c {
            '{' => 1,
            '}' => -1,
            _ => 0,
        })
        .sum()
}

#[test]
fn code_braces_match_ground_truth_across_random_programs() {
    for seed in 0..250u64 {
        let (src, truth) = generate(seed, 40);
        let lexed = lexer::lex(&src);
        let got: Vec<i32> = lexed.lines.iter().map(|l| brace_delta(&l.code)).collect();
        let want: Vec<i32> = truth.iter().map(|t| t.delta).collect();
        assert_eq!(
            got, want,
            "seed {seed}: a literal or comment brace survived in Line::code\n{src}"
        );
    }
}

#[test]
fn test_regions_match_ground_truth_across_random_programs() {
    let mut test_lines = 0;
    for seed in 0..250u64 {
        let (src, truth) = generate(seed, 40);
        let lexed = lexer::lex(&src);
        let got: Vec<bool> = lexed.lines.iter().map(|l| l.in_test).collect();
        let want: Vec<bool> = truth.iter().map(|t| t.in_test).collect();
        assert_eq!(
            got, want,
            "seed {seed}: Line::in_test diverged from generator truth\n{src}"
        );
        test_lines += want.iter().filter(|&&t| t).count();
    }
    assert!(test_lines > 1000, "the generator opens test regions");
}
