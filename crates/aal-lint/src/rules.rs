//! The invariant rule catalog and the token-pattern matcher.
//!
//! Each rule is a set of significant-token patterns (identifier / single-
//! character punctuation sequences). Matching on tokens rather than text
//! means strings, raw strings, and comments can never fire a rule, and
//! `unwrap_or_else` can never be mistaken for `unwrap`.
//!
//! The catalog (see DESIGN.md §14 for the full rationale):
//!
//! | rule                | category     | fires on                                   |
//! |---------------------|--------------|--------------------------------------------|
//! | `wall-clock`        | determinism  | `SystemTime::now(` / `Instant::now(`       |
//! | `ambient-rng`       | determinism  | `thread_rng` / `from_entropy` / `OsRng` /  |
//! |                     |              | `from_os_rng` / `rand::random(`            |
//! | `unordered-serde`   | determinism  | `HashMap`/`HashSet` inside an item that    |
//! |                     |              | derives `Serialize`                        |
//! | `raw-artifact-write`| crash-safety | `File::create(` / `fs::write(` in crates   |
//! |                     |              | holding durable artifacts                  |
//! | `thread-spawn`      | concurrency  | `thread::spawn(` / `thread::Builder::new`  |
//! | `lock-unwrap`       | concurrency  | `.lock()/.read()/.write()` chained into    |
//! |                     |              | `.unwrap()`/`.expect(`                     |
//! | `panic`             | panic-policy | `panic!` / `todo!` / `unimplemented!`      |
//! | `unwrap`            | panic-policy | `.unwrap()` / `.expect(`                   |
//!
//! Deliberate scope limits: `assert!`/`debug_assert!` are *not* flagged
//! (asserting an invariant is the policy-blessed way to panic), and
//! `unreachable!` is allowed (it documents provably dead branches).

use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;

/// A single element of a token pattern.
#[derive(Debug, Clone, Copy)]
pub enum M {
    /// An identifier with exactly this text.
    Id(&'static str),
    /// A punctuation token with exactly this text.
    P(&'static str),
}

/// One lint rule: stable name, category, patterns, and catalog prose.
pub struct Rule {
    pub name: &'static str,
    pub category: &'static str,
    /// One-line description for `aal-lint rules` and reports.
    pub desc: &'static str,
    /// What to do instead — rendered in the finding message.
    pub instead: &'static str,
    patterns: &'static [&'static [M]],
}

/// The full catalog, in reporting order.
pub static RULES: &[Rule] = &[
    Rule {
        name: "wall-clock",
        category: "determinism",
        desc: "reads the wall clock (SystemTime::now / Instant::now)",
        instead: "route timing through telemetry spans, or waive explicitly \
                  timed code",
        patterns: &[
            &[M::Id("SystemTime"), M::P(":"), M::P(":"), M::Id("now"), M::P("(")],
            &[M::Id("Instant"), M::P(":"), M::P(":"), M::Id("now"), M::P("(")],
        ],
    },
    Rule {
        name: "ambient-rng",
        category: "determinism",
        desc: "draws entropy from an ambient RNG (thread_rng / OsRng / \
               from_entropy / rand::random)",
        instead: "thread a seeded rand_chacha RNG from the run seed",
        patterns: &[
            &[M::Id("thread_rng"), M::P("(")],
            &[M::Id("from_entropy"), M::P("(")],
            &[M::Id("from_os_rng"), M::P("(")],
            &[M::Id("OsRng")],
            &[M::Id("rand"), M::P(":"), M::P(":"), M::Id("random"), M::P("(")],
        ],
    },
    Rule {
        name: "unordered-serde",
        category: "determinism",
        desc: "HashMap/HashSet inside a #[derive(Serialize)] item makes \
               serialized key order nondeterministic",
        instead: "use BTreeMap/BTreeSet so artifacts are byte-stable",
        patterns: &[], // special-cased: needs derive-span analysis
    },
    Rule {
        name: "raw-artifact-write",
        category: "crash-safety",
        desc: "writes an artifact with raw File::create / fs::write, \
               bypassing the append-before-apply discipline",
        instead: "go through telemetry::durable (replace or open_append)",
        patterns: &[
            &[M::Id("File"), M::P(":"), M::P(":"), M::Id("create"), M::P("(")],
            &[M::Id("fs"), M::P(":"), M::P(":"), M::Id("write"), M::P("(")],
        ],
    },
    Rule {
        name: "thread-spawn",
        category: "concurrency",
        desc: "spawns a thread outside the executor crate",
        instead: "run work through executor's pipeline/scheduler so \
                  ordering and shutdown stay centralized",
        patterns: &[
            &[M::Id("thread"), M::P(":"), M::P(":"), M::Id("spawn"), M::P("(")],
            &[
                M::Id("thread"),
                M::P(":"),
                M::P(":"),
                M::Id("Builder"),
                M::P(":"),
                M::P(":"),
                M::Id("new"),
            ],
        ],
    },
    Rule {
        name: "lock-unwrap",
        category: "concurrency",
        desc: "unwraps a poisoned-lock result at the call site",
        instead: "use telemetry::sync::{lock_or_recover, read_or_recover, \
                  write_or_recover} — the single documented poisoning policy",
        patterns: &[
            &[
                M::P("."),
                M::Id("lock"),
                M::P("("),
                M::P(")"),
                M::P("."),
                M::Id("unwrap"),
                M::P("("),
                M::P(")"),
            ],
            &[
                M::P("."),
                M::Id("lock"),
                M::P("("),
                M::P(")"),
                M::P("."),
                M::Id("expect"),
                M::P("("),
            ],
            &[
                M::P("."),
                M::Id("read"),
                M::P("("),
                M::P(")"),
                M::P("."),
                M::Id("unwrap"),
                M::P("("),
                M::P(")"),
            ],
            &[
                M::P("."),
                M::Id("read"),
                M::P("("),
                M::P(")"),
                M::P("."),
                M::Id("expect"),
                M::P("("),
            ],
            &[
                M::P("."),
                M::Id("write"),
                M::P("("),
                M::P(")"),
                M::P("."),
                M::Id("unwrap"),
                M::P("("),
                M::P(")"),
            ],
            &[
                M::P("."),
                M::Id("write"),
                M::P("("),
                M::P(")"),
                M::P("."),
                M::Id("expect"),
                M::P("("),
            ],
        ],
    },
    Rule {
        name: "panic",
        category: "panic-policy",
        desc: "panics unconditionally (panic! / todo! / unimplemented!)",
        instead: "return a typed error; assert!/debug_assert! remain the \
                  blessed way to check invariants",
        patterns: &[
            &[M::Id("panic"), M::P("!")],
            &[M::Id("todo"), M::P("!")],
            &[M::Id("unimplemented"), M::P("!")],
        ],
    },
    Rule {
        name: "unwrap",
        category: "panic-policy",
        desc: ".unwrap()/.expect() in non-test library code",
        instead: "propagate a typed error with context, or waive with the \
                  reason the value is statically infallible",
        patterns: &[
            &[M::P("."), M::Id("unwrap"), M::P("("), M::P(")")],
            &[M::P("."), M::Id("expect"), M::P("(")],
        ],
    },
];

/// Looks up a rule by name.
#[must_use]
pub fn rule_by_name(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.name == name)
}

/// A raw pattern match: rule plus the significant-token span it covers.
pub struct RawMatch {
    pub rule: &'static Rule,
    pub start: usize,
    pub end: usize,
    pub line: u32,
    /// The token text that anchors the message (e.g. `unwrap`).
    pub what: String,
}

fn tok_matches(t: &Tok<'_>, m: M) -> bool {
    match m {
        M::Id(s) => t.kind == TokKind::Ident && t.text == s,
        M::P(s) => t.kind == TokKind::Punct && t.text == s,
    }
}

/// Runs every pattern of `rule` over the significant tokens of `file`,
/// skipping test regions.
pub fn pattern_matches(file: &SourceFile<'_>, rule: &'static Rule) -> Vec<RawMatch> {
    let sig = &file.sig;
    let mut out = Vec::new();
    for i in 0..sig.len() {
        for pat in rule.patterns {
            if i + pat.len() > sig.len() {
                continue;
            }
            if !pat.iter().enumerate().all(|(j, &m)| tok_matches(&sig[i + j], m)) {
                continue;
            }
            if file.is_test(i) {
                continue;
            }
            let what = pat
                .iter()
                .zip(&sig[i..])
                .filter(|(m, _)| matches!(m, M::Id(_)))
                .map(|(_, t)| t.text)
                .collect::<Vec<_>>()
                .join("::");
            out.push(RawMatch { rule, start: i, end: i + pat.len() - 1, line: sig[i].line, what });
            break; // one match per rule per start index
        }
    }
    out
}

/// `unordered-serde`: find `#[derive(.. Serialize ..)]` attributes, then
/// flag `HashMap`/`HashSet` tokens inside the derived item's span.
pub fn unordered_serde_matches(file: &SourceFile<'_>, rule: &'static Rule) -> Vec<RawMatch> {
    let sig = &file.sig;
    let mut out = Vec::new();
    let mut i = 0;
    while i < sig.len() {
        let Some((attr_end, derives_serialize)) = derive_serialize_at(sig, i) else {
            i += 1;
            continue;
        };
        if !derives_serialize {
            i = attr_end + 1;
            continue;
        }
        // Skip trailing attributes, then span the item.
        let mut j = attr_end + 1;
        while sig.get(j).map(|t| t.text) == Some("#") {
            j = skip_attr(sig, j);
        }
        let item_end = crate::source::item_end(sig, j);
        let last = item_end.min(sig.len().saturating_sub(1));
        for (k, t) in sig.iter().enumerate().take(last + 1).skip(j) {
            if t.kind == TokKind::Ident
                && (t.text == "HashMap" || t.text == "HashSet")
                && !file.is_test(k)
            {
                out.push(RawMatch {
                    rule,
                    start: k,
                    end: k,
                    line: t.line,
                    what: t.text.to_string(),
                });
            }
        }
        i = item_end + 1;
    }
    out
}

/// If `i` starts an attribute, returns `(index of closing ], attribute is a
/// derive containing Serialize)`.
fn derive_serialize_at(sig: &[Tok<'_>], i: usize) -> Option<(usize, bool)> {
    if sig[i].text != "#" || sig.get(i + 1).map(|t| t.text) != Some("[") {
        return None;
    }
    let mut depth = 0usize;
    let mut k = i + 1;
    let mut is_derive = false;
    let mut has_serialize = false;
    while k < sig.len() {
        match sig[k].text {
            "[" | "(" => depth += 1,
            "]" | ")" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    break;
                }
            }
            "derive" if k == i + 2 => is_derive = true,
            "Serialize" => has_serialize = true,
            _ => {}
        }
        k += 1;
    }
    Some((k.min(sig.len().saturating_sub(1)), is_derive && has_serialize))
}

/// Steps over an attribute starting at `i` (`#` token), returning the index
/// after its closing `]`.
fn skip_attr(sig: &[Tok<'_>], i: usize) -> usize {
    let mut depth = 0usize;
    let mut k = i + 1;
    while k < sig.len() {
        match sig[k].text {
            "[" | "(" => depth += 1,
            "]" | ")" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return k + 1;
                }
            }
            _ => {}
        }
        k += 1;
    }
    sig.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matches(src: &str, rule: &str) -> Vec<u32> {
        let file = SourceFile::parse("crates/x/src/lib.rs", src);
        let r = rule_by_name(rule).unwrap();
        let ms = if rule == "unordered-serde" {
            unordered_serde_matches(&file, r)
        } else {
            pattern_matches(&file, r)
        };
        ms.into_iter().map(|m| m.line).collect()
    }

    #[test]
    fn wall_clock_fires_on_calls_not_strings() {
        assert_eq!(matches("fn f() { let t = Instant::now(); }", "wall-clock"), vec![1]);
        assert!(matches("fn f() { let t = \"Instant::now()\"; }", "wall-clock").is_empty());
        assert!(matches("// Instant::now()\nfn f() {}", "wall-clock").is_empty());
    }

    #[test]
    fn unwrap_ignores_unwrap_or_else() {
        assert!(
            matches("fn f(x: Option<u8>) -> u8 { x.unwrap_or_else(|| 0) }", "unwrap").is_empty()
        );
        assert_eq!(matches("fn f(x: Option<u8>) -> u8 { x.unwrap() }", "unwrap"), vec![1]);
        assert_eq!(matches("fn f(x: Option<u8>) -> u8 { x.expect(\"set\") }", "unwrap"), vec![1]);
    }

    #[test]
    fn lock_unwrap_spans_lines() {
        assert_eq!(
            matches(
                "fn f(m: &std::sync::Mutex<u8>) { *m.lock()\n    .unwrap() += 1; }",
                "lock-unwrap"
            ),
            vec![1]
        );
        // io::Write::write takes an argument: never matched.
        assert!(matches("fn f() { w.write(buf).unwrap(); }", "lock-unwrap").is_empty());
    }

    #[test]
    fn unordered_serde_scopes_to_derived_items() {
        let src = "#[derive(Clone, Serialize)]\nstruct A { m: HashMap<String, u8> }\nstruct B { m: HashMap<String, u8> }\n";
        assert_eq!(matches(src, "unordered-serde"), vec![2]);
        let tuple = "#[derive(Serialize)]\npub struct T(pub HashSet<u8>);\n";
        assert_eq!(matches(tuple, "unordered-serde"), vec![2]);
        let derive_only_de = "#[derive(Deserialize)]\nstruct C { m: HashMap<String, u8> }\n";
        assert!(matches(derive_only_de, "unordered-serde").is_empty());
    }

    #[test]
    fn thread_spawn_catches_builder_form() {
        assert_eq!(
            matches("fn f() { std::thread::Builder::new().name(\"x\".into()); }", "thread-spawn"),
            vec![1]
        );
        assert_eq!(matches("fn f() { thread::spawn(|| {}); }", "thread-spawn"), vec![1]);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { x.unwrap(); panic!(); }\n}\n";
        assert!(matches(src, "unwrap").is_empty());
        assert!(matches(src, "panic").is_empty());
    }
}
