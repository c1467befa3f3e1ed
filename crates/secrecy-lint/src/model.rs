//! Shared model layer for both analysis passes.
//!
//! The secret-independence pass ([`taint`](crate::taint)) and the
//! concurrency-soundness pass ([`conc`](crate::conc)) drive the same
//! lexer → token-tree front end and report through the same types:
//! [`Rule`], [`Violation`], [`AllowSite`], [`Report`]. Each pass owns one
//! directive *namespace* (`// secrecy: …` vs `// sync: …`); the shared
//! [`parse_directives`] / [`apply_allows`] helpers implement the common
//! allow grammar — `allow(rule, "reason")` with a mandatory reason, a
//! five-line suppression window, and hard errors for malformed or unused
//! annotations — so suppressions cannot rot in either pass.

use crate::lexer::{Directive, Ns};

/// How many lines after an allow annotation it covers (inclusive).
pub const ALLOW_WINDOW: u32 = 5;

/// Lint rules across both passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `if`/`while`/`match`/short-circuit condition derived from a secret.
    SecretBranch,
    /// Array/slice index or range bound derived from a secret.
    SecretIndex,
    /// Allocation size (`with_capacity`, `reserve`, `vec![_; n]`) derived
    /// from a secret.
    SecretAlloc,
    /// Secret reaches a `format!`-family / logging / `Debug` sink.
    SecretSink,
    /// Raw `==`/`<`/`.cmp()` on secrets instead of `aq2pnn_ring::ct`.
    SecretCompare,
    /// Two lock classes acquired in inconsistent order somewhere in the
    /// workspace call graph (potential deadlock cycle).
    LockOrderCycle,
    /// A blocking operation (channel send/recv, foreign `Condvar::wait`,
    /// thread park/sleep/join, TCP I/O) performed while a lock guard is
    /// held.
    BlockingWhileLocked,
    /// `Condvar::wait` outside a predicate loop, or a notify with no
    /// associated waiter anywhere in the workspace.
    CondvarMisuse,
    /// A lock guard escaping its acquiring function (returned or stashed).
    GuardEscape,
    /// An allow annotation (either namespace) that suppressed nothing.
    UnusedAllow,
    /// A control comment the lint could not parse.
    MalformedAllow,
}

impl Rule {
    /// The rule's kebab-case name as used in allow annotations.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::SecretBranch => "secret-branch",
            Rule::SecretIndex => "secret-index",
            Rule::SecretAlloc => "secret-alloc",
            Rule::SecretSink => "secret-sink",
            Rule::SecretCompare => "secret-compare",
            Rule::LockOrderCycle => "lock-order-cycle",
            Rule::BlockingWhileLocked => "blocking-while-locked",
            Rule::CondvarMisuse => "condvar-misuse",
            Rule::GuardEscape => "guard-escape",
            Rule::UnusedAllow => "unused-allow",
            Rule::MalformedAllow => "malformed-allow",
        }
    }

    /// Parses a rule name *within a namespace*: a `// sync:` comment can
    /// only allow sync rules and vice versa, so a typo'd namespace is a
    /// malformed-allow rather than a silently ignored annotation.
    #[must_use]
    pub fn parse_in(ns: Ns, s: &str) -> Option<Rule> {
        let rule = match s {
            "secret-branch" => Rule::SecretBranch,
            "secret-index" => Rule::SecretIndex,
            "secret-alloc" => Rule::SecretAlloc,
            "secret-sink" => Rule::SecretSink,
            "secret-compare" => Rule::SecretCompare,
            "lock-order-cycle" => Rule::LockOrderCycle,
            "blocking-while-locked" => Rule::BlockingWhileLocked,
            "condvar-misuse" => Rule::CondvarMisuse,
            "guard-escape" => Rule::GuardEscape,
            _ => return None,
        };
        let sync = matches!(
            rule,
            Rule::LockOrderCycle
                | Rule::BlockingWhileLocked
                | Rule::CondvarMisuse
                | Rule::GuardEscape
        );
        match ns {
            Ns::Secrecy if !sync => Some(rule),
            Ns::Sync if sync => Some(rule),
            _ => None,
        }
    }

    /// Parses a secrecy-namespace rule name (back-compat shorthand).
    #[must_use]
    pub fn parse(s: &str) -> Option<Rule> {
        Rule::parse_in(Ns::Secrecy, s)
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// File the violation is in (as registered with the linter).
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

/// A parsed `allow(rule, "reason")` site (either namespace).
#[derive(Debug, Clone)]
pub struct AllowSite {
    /// File the annotation is in.
    pub file: String,
    /// 1-based line of the annotation.
    pub line: u32,
    /// Rule it suppresses.
    pub rule: Rule,
    /// The mandatory justification.
    pub reason: String,
    /// Whether it suppressed at least one violation.
    pub used: bool,
}

/// Result of a lint run (either pass).
#[derive(Debug, Clone)]
pub struct Report {
    /// Surviving violations, sorted by file and line.
    pub violations: Vec<Violation>,
    /// Allow annotations found (with use marks).
    pub allows: Vec<AllowSite>,
    /// Number of files analyzed.
    pub files: usize,
    /// Number of functions analyzed.
    pub functions: usize,
}

impl Report {
    /// Whether the run is clean (no violations survive).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Serializes the report as JSON (hand-rolled — the workspace has no
    /// serialization dependency).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"files\": {},\n", self.files));
        s.push_str(&format!("  \"functions\": {},\n", self.functions));
        s.push_str(&format!(
            "  \"allows_total\": {},\n  \"allows_used\": {},\n",
            self.allows.len(),
            self.allows.iter().filter(|a| a.used).count()
        ));
        s.push_str("  \"violations\": [\n");
        for (i, v) in self.violations.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}{}\n",
                json_escape(&v.file),
                v.line,
                v.rule.name(),
                json_escape(&v.message),
                if i + 1 == self.violations.len() { "" } else { "," }
            ));
        }
        s.push_str("  ],\n  \"allows\": [\n");
        for (i, a) in self.allows.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"used\": {}, \
                 \"reason\": \"{}\"}}{}\n",
                json_escape(&a.file),
                a.line,
                a.rule.name(),
                a.used,
                json_escape(&a.reason),
                if i + 1 == self.allows.len() { "" } else { "," }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// JSON string escaping for the hand-rolled report writer.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Everything a pass needs from one file's control comments.
#[derive(Debug, Default)]
pub struct ParsedDirectives {
    /// Lines carrying a `declassify` directive (secrecy namespace only).
    pub declassify_lines: Vec<u32>,
    /// Well-formed allow annotations.
    pub allows: Vec<AllowSite>,
    /// Malformed-directive violations.
    pub malformed: Vec<Violation>,
}

/// Parses the directives of one namespace out of a file's comment set.
///
/// Directives in the *other* namespace are ignored (the other pass owns
/// them). `declassify` is only meaningful to the secrecy pass; in the
/// sync namespace it is malformed.
#[must_use]
pub fn parse_directives(file: &str, ns: Ns, directives: &[Directive]) -> ParsedDirectives {
    let mut out = ParsedDirectives::default();
    for d in directives {
        if d.ns != ns {
            continue;
        }
        let body = d.body.trim();
        let malformed = |msg: String| Violation {
            file: file.to_string(),
            line: d.line,
            rule: Rule::MalformedAllow,
            message: msg,
        };
        if body == "declassify" || body.starts_with("declassify ") {
            if ns == Ns::Secrecy {
                out.declassify_lines.push(d.line);
            } else {
                out.malformed.push(malformed(
                    "`declassify` is a secrecy-namespace directive; `// sync:` only accepts \
                     `allow(rule, \"reason\")`"
                        .to_string(),
                ));
            }
            continue;
        }
        let pfx = ns.prefix();
        if let Some(rest) = body.strip_prefix("allow") {
            let rest = rest.trim_start();
            let Some(inner) = rest.strip_prefix('(').and_then(|r| r.rfind(')').map(|p| &r[..p]))
            else {
                out.malformed
                    .push(malformed(format!("{pfx} allow: expected `allow(rule, \"reason\")`")));
                continue;
            };
            let Some((rule_s, reason_s)) = inner.split_once(',') else {
                out.malformed.push(malformed(format!(
                    "{pfx} allow: missing mandatory reason — `allow(rule, \"reason\")`"
                )));
                continue;
            };
            let Some(rule) = Rule::parse_in(ns, rule_s.trim()) else {
                out.malformed.push(malformed(format!(
                    "{pfx} allow: unknown rule `{}` for the `{pfx}` namespace",
                    rule_s.trim()
                )));
                continue;
            };
            let reason = reason_s.trim().trim_matches('"').trim();
            if reason.is_empty() {
                out.malformed
                    .push(malformed(format!("{pfx} allow: reason string must be non-empty")));
                continue;
            }
            out.allows.push(AllowSite {
                file: file.to_string(),
                line: d.line,
                rule,
                reason: reason.to_string(),
                used: false,
            });
        } else {
            out.malformed.push(malformed(format!(
                "unrecognized `// {pfx}:` directive `{body}` (expected `allow(rule, \
                 \"reason\")`{})",
                if ns == Ns::Secrecy { " or `declassify`" } else { "" }
            )));
        }
    }
    out
}

/// Applies allow annotations to a violation set, in place.
///
/// A violation within `[allow.line, allow.line + ALLOW_WINDOW]` of a
/// same-file, same-rule annotation is suppressed and the annotation
/// marked used; every unused annotation becomes an `unused-allow`
/// violation. Finally sorts by `(file, line)`.
pub fn apply_allows(violations: &mut Vec<Violation>, allows: &mut [AllowSite]) {
    violations.retain(|v| {
        for a in allows.iter_mut() {
            if a.rule == v.rule
                && a.file == v.file
                && v.line >= a.line
                && v.line <= a.line + ALLOW_WINDOW
            {
                a.used = true;
                return false;
            }
        }
        true
    });
    for a in allows.iter() {
        if !a.used {
            violations.push(Violation {
                file: a.file.clone(),
                line: a.line,
                rule: Rule::UnusedAllow,
                message: format!(
                    "allow({}) suppresses nothing within {ALLOW_WINDOW} lines — remove it",
                    a.rule.name()
                ),
            });
        }
    }
    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    #[test]
    fn namespaces_gate_rule_parsing() {
        assert!(Rule::parse_in(Ns::Secrecy, "secret-index").is_some());
        assert!(Rule::parse_in(Ns::Secrecy, "guard-escape").is_none());
        assert!(Rule::parse_in(Ns::Sync, "guard-escape").is_some());
        assert!(Rule::parse_in(Ns::Sync, "secret-index").is_none());
        assert!(Rule::parse_in(Ns::Sync, "unused-allow").is_none());
    }

    #[test]
    fn sync_declassify_is_malformed() {
        let (_, ds) = lexer::lex("// sync: declassify\nfn f() {}\n");
        let parsed = parse_directives("t.rs", Ns::Sync, &ds);
        assert_eq!(parsed.malformed.len(), 1);
        assert!(parsed.declassify_lines.is_empty());
    }

    #[test]
    fn passes_ignore_foreign_namespace() {
        let (_, ds) = lexer::lex(
            "// secrecy: allow(secret-index, \"a\")\n// sync: allow(guard-escape, \"b\")\n",
        );
        let sec = parse_directives("t.rs", Ns::Secrecy, &ds);
        let syn = parse_directives("t.rs", Ns::Sync, &ds);
        assert_eq!(sec.allows.len(), 1);
        assert_eq!(sec.allows[0].rule, Rule::SecretIndex);
        assert_eq!(syn.allows.len(), 1);
        assert_eq!(syn.allows[0].rule, Rule::GuardEscape);
        assert!(sec.malformed.is_empty() && syn.malformed.is_empty());
    }

    #[test]
    fn apply_allows_window_and_unused() {
        let mut violations = vec![Violation {
            file: "t.rs".into(),
            line: 12,
            rule: Rule::GuardEscape,
            message: "x".into(),
        }];
        let mut allows = vec![
            AllowSite {
                file: "t.rs".into(),
                line: 10,
                rule: Rule::GuardEscape,
                reason: "r".into(),
                used: false,
            },
            AllowSite {
                file: "t.rs".into(),
                line: 40,
                rule: Rule::CondvarMisuse,
                reason: "r".into(),
                used: false,
            },
        ];
        apply_allows(&mut violations, &mut allows);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, Rule::UnusedAllow);
        assert!(allows[0].used && !allows[1].used);
    }
}
