//! Function extraction and the taint analysis itself.
//!
//! The pass is deliberately *flow-insensitive* and *over-approximating*:
//! a variable once tainted stays tainted for the whole function, and any
//! operation mixing a tainted value taints its result unless a declared
//! sanitizer intervenes. False positives are expected and are resolved
//! in-tree with `// secrecy: allow(rule, "reason")` annotations, which the
//! driver verifies are (a) well-formed and (b) actually used.

use crate::lexer::TokKind;
use crate::model::{Rule, Violation};
use crate::tree::Tree;
use std::collections::{HashMap, HashSet};

/// What the analysis treats as secret, public, and neutralizing.
#[derive(Debug, Clone)]
pub struct Config {
    /// Type-name substrings: a parameter (or `self` of an impl) whose type
    /// string contains one of these is a taint source.
    pub secret_types: Vec<String>,
    /// Field / method names whose *access* yields a secret even on an
    /// otherwise-public carrier (e.g. `OtChoice::choice`).
    pub secret_fields: Vec<String>,
    /// Free functions / methods whose return value is always secret.
    pub secret_fns: Vec<String>,
    /// Extra per-function parameter seeds, for share-bearing plain-typed
    /// parameters (`&[u64]`, `RingTensor`, `u64` exponents) the type system
    /// cannot mark: `(fn_name, [param, …])`.
    pub secret_fn_params: Vec<(String, Vec<String>)>,
    /// Methods whose result is public metadata even on a secret receiver
    /// (`len`, `ring`, `shape`, …).
    pub sanitizers: Vec<String>,
    /// Methods whose result is public because it came off the wire: by the
    /// 2PC model, everything received is part of the peer-visible
    /// transcript and is already masked.
    pub publicizers: Vec<String>,
    /// Container methods that write their arguments into the receiver
    /// (`push`, `extend`, …) — a tainted argument taints the receiver.
    pub mutators: Vec<String>,
    /// Allocation-sizing calls checked by [`Rule::SecretAlloc`].
    pub alloc_fns: Vec<String>,
}

impl Config {
    /// The AQ2PNN workspace configuration.
    #[must_use]
    pub fn aq2pnn() -> Self {
        let s = |xs: &[&str]| xs.iter().map(|x| (*x).to_string()).collect::<Vec<_>>();
        Config {
            secret_types: s(&[
                "AShare",
                "BShare",
                "DaBitShare",
                "TripleShare",
                "LaneTriple",
                "BitGroup",
                "SignFlags",
                "Garbled",
                "InputLabels",
                "LabelTable",
            ]),
            secret_fields: s(&["choice"]),
            secret_fns: s(&[
                "next_matmul_triple",
                "next_expanded_triple",
                "next_elementwise_triple",
                "e2l",
            ]),
            secret_fn_params: vec![
                ("ring_matmul".into(), vec!["a".into(), "b".into()]),
                ("ring_matmul_reference".into(), vec!["a".into(), "b".into()]),
                ("pow".into(), vec!["b".into(), "e".into()]),
                ("pow_g".into(), vec!["e".into()]),
                ("mod_pow".into(), vec!["b".into(), "e".into()]),
                ("unpack_bits_at".into(), vec!["index".into()]),
                ("split_groups".into(), vec!["x".into()]),
                ("split_groups_into".into(), vec!["x".into()]),
                ("sign_flag".into(), vec!["sign_cmp".into(), "code1".into(), "tail".into()]),
                ("sign_from_codes".into(), vec!["codes".into()]),
            ],
            sanitizers: s(&[
                "len",
                "is_empty",
                "ring",
                "shape",
                "bits",
                "mask",
                "order",
                "element_bits",
                "capacity",
                "count",
                "table_bytes",
                "width",
            ]),
            publicizers: s(&["recv", "recv_bits"]),
            mutators: s(&[
                "push",
                "extend",
                "extend_from_slice",
                "insert",
                "push_back",
                "copy_from_slice",
                "fill",
                "clone_from_slice",
            ]),
            alloc_fns: s(&["with_capacity", "reserve", "reserve_exact"]),
        }
    }

    fn is_secret_type(&self, ty: &str) -> bool {
        self.secret_types.iter().any(|s| ty.contains(s.as_str()))
    }

    fn extra_params(&self, fn_name: &str) -> Option<&[String]> {
        self.secret_fn_params.iter().find(|(n, _)| n == fn_name).map(|(_, ps)| ps.as_slice())
    }
}

/// A function extracted for analysis.
#[derive(Debug, Clone)]
pub(crate) struct FnIr {
    pub name: String,
    pub file: usize,
    /// `(binding idents, type string)` per parameter.
    pub params: Vec<(Vec<String>, String)>,
    pub body: Vec<Tree>,
    /// Whether the enclosing `impl` type is a secret carrier.
    pub self_secret: bool,
    /// `// secrecy: declassify` applies — skip analysis entirely.
    pub declassified: bool,
}

/// Extracts functions and derive-level violations from a file's trees.
pub(crate) fn extract(
    trees: &[Tree],
    file: usize,
    file_name: &str,
    cfg: &Config,
    declassify_lines: &[u32],
    fns: &mut Vec<FnIr>,
    viols: &mut Vec<Violation>,
) {
    extract_in(trees, file, file_name, cfg, declassify_lines, None, fns, viols);
}

#[allow(clippy::too_many_arguments)]
fn extract_in(
    trees: &[Tree],
    file: usize,
    file_name: &str,
    cfg: &Config,
    declassify_lines: &[u32],
    self_ty: Option<&str>,
    fns: &mut Vec<FnIr>,
    viols: &mut Vec<Violation>,
) {
    let mut i = 0usize;
    let mut attrs: Vec<(String, u32)> = Vec::new();
    while i < trees.len() {
        let t = &trees[i];
        if t.is_op("#") {
            match trees.get(i + 1) {
                Some(g) if g.group('[').is_some() => {
                    attrs.push((g.text(), g.line()));
                    i += 2;
                    continue;
                }
                Some(bang) if bang.is_op("!") => {
                    i += 3; // inner attribute `#![…]` — ignore
                    continue;
                }
                _ => {}
            }
        }
        match t.ident() {
            Some("mod") => {
                let is_test = attrs.iter().any(|(a, _)| a.contains("cfg") && a.contains("test"));
                attrs.clear();
                // `mod name { … }` or `mod name;`
                let mut j = i + 1;
                while j < trees.len() && trees[j].group('{').is_none() && !trees[j].is_op(";") {
                    j += 1;
                }
                if let Some(items) = trees.get(j).and_then(|g| g.group('{')) {
                    if !is_test {
                        extract_in(items, file, file_name, cfg, declassify_lines, None, fns, viols);
                    }
                }
                i = j + 1;
            }
            Some("impl") | Some("trait") => {
                let is_test = attrs.iter().any(|(a, _)| a.contains("cfg") && a.contains("test"));
                attrs.clear();
                let mut j = i + 1;
                let mut after_for: Option<String> = None;
                let mut first: Option<String> = None;
                let mut saw_for = false;
                while j < trees.len() && trees[j].group('{').is_none() && !trees[j].is_op(";") {
                    if let Some(id) = trees[j].ident() {
                        if id == "for" {
                            saw_for = true;
                        } else if id == "where" {
                            break;
                        } else if saw_for && after_for.is_none() {
                            after_for = Some(id.to_string());
                        } else if first.is_none() && !saw_for {
                            first = Some(id.to_string());
                        }
                    }
                    j += 1;
                }
                while j < trees.len() && trees[j].group('{').is_none() {
                    j += 1;
                }
                let ty = after_for.or(first);
                if let Some(items) = trees.get(j).and_then(|g| g.group('{')) {
                    if !is_test {
                        extract_in(
                            items,
                            file,
                            file_name,
                            cfg,
                            declassify_lines,
                            ty.as_deref(),
                            fns,
                            viols,
                        );
                    }
                }
                i = j + 1;
            }
            Some("struct") | Some("enum") => {
                // derive(Debug) on a secret-carrying type is a sink.
                if let Some(name) = trees.get(i + 1).and_then(Tree::ident) {
                    if cfg.secret_types.iter().any(|s| s == name) {
                        for (a, line) in &attrs {
                            if a.contains("derive") && a.contains("Debug") {
                                viols.push(Violation {
                                    file: file_name.to_string(),
                                    line: *line,
                                    rule: Rule::SecretSink,
                                    message: format!(
                                        "#[derive(Debug)] on secret-carrying type `{name}`; \
                                         implement a redacting Debug and an explicit \
                                         fmt_revealed() instead"
                                    ),
                                });
                            }
                        }
                    }
                }
                attrs.clear();
                // Skip to `;` or past the first brace group.
                let mut j = i + 1;
                while j < trees.len() && trees[j].group('{').is_none() && !trees[j].is_op(";") {
                    j += 1;
                }
                i = j + 1;
            }
            Some("fn") => {
                let is_test = attrs
                    .iter()
                    .any(|(a, _)| a.contains("test") || (a.contains("cfg") && a.contains("test")));
                let sig_line = t.line();
                attrs.clear();
                let name = trees.get(i + 1).and_then(Tree::ident).unwrap_or("<anon>").to_string();
                // Parameters: first `(…)` group after the name (generics
                // contain no paren groups at this token level except in
                // `Fn(…)` bounds — skip `<…>` first to be safe).
                let mut j = i + 2;
                if trees.get(j).is_some_and(|x| x.is_op("<")) {
                    j = skip_angle(trees, j);
                }
                while j < trees.len() && trees[j].group('(').is_none() {
                    j += 1;
                }
                let params =
                    trees.get(j).and_then(|g| g.group('(')).map(parse_params).unwrap_or_default();
                // Body: first `{…}` group after the params; `;` means a
                // trait declaration with no body.
                let mut k = j + 1;
                while k < trees.len() && trees[k].group('{').is_none() && !trees[k].is_op(";") {
                    k += 1;
                }
                if let Some(body) = trees.get(k).and_then(|g| g.group('{')) {
                    let body_line = trees[k].line();
                    if !is_test {
                        let declassified = declassify_lines
                            .iter()
                            .any(|l| *l + 3 >= sig_line && *l <= body_line + 1);
                        fns.push(FnIr {
                            name,
                            file,
                            params,
                            body: body.to_vec(),
                            self_secret: self_ty.is_some_and(|ty| cfg.is_secret_type(ty)),
                            declassified,
                        });
                    }
                    i = k + 1;
                } else {
                    i = k + 1;
                }
            }
            _ => {
                // Visibility and qualifier tokens sit between attributes
                // and the item keyword — keep pending attrs across them.
                let transparent = matches!(
                    t.ident(),
                    Some("pub" | "crate" | "unsafe" | "async" | "const" | "extern" | "default")
                ) || t.group('(').is_some()
                    || matches!(t, Tree::Leaf(tok) if matches!(tok.kind, TokKind::Str(_)));
                if !transparent && !t.is_op("#") {
                    attrs.clear();
                }
                i += 1;
            }
        }
    }
}

/// Skips a `<…>` run starting at the `<`, counting `>>` as two closers.
fn skip_angle(trees: &[Tree], lt: usize) -> usize {
    let mut depth = 0i32;
    let mut j = lt;
    while j < trees.len() {
        if trees[j].is_op("<") || trees[j].is_op("<<") {
            depth += if trees[j].is_op("<<") { 2 } else { 1 };
        } else if trees[j].is_op(">") || trees[j].is_op(">>") {
            depth -= if trees[j].is_op(">>") { 2 } else { 1 };
            if depth <= 0 {
                return j + 1;
            }
        } else if trees[j].is_op(";") {
            return j; // malformed — bail out
        }
        j += 1;
    }
    j
}

/// Splits a parameter group into `(binding idents, type string)` pairs.
fn parse_params(items: &[Tree]) -> Vec<(Vec<String>, String)> {
    let mut out = Vec::new();
    for param in split_top(items, ",") {
        if param.is_empty() {
            continue;
        }
        // Find the top-level `:` separating pattern from type. `self`
        // params have none.
        let colon = param.iter().position(|t| t.is_op(":"));
        let (pat, ty) = match colon {
            Some(c) => (&param[..c], &param[c + 1..]),
            None => (param, &param[0..0]),
        };
        let mut names = Vec::new();
        pattern_idents(pat, &mut names);
        let ty_s = ty.iter().map(Tree::text).collect::<Vec<_>>().join(" ");
        out.push((names, ty_s));
    }
    out
}

/// Splits a tree run on a top-level operator.
fn split_top<'a>(items: &'a [Tree], op: &str) -> Vec<&'a [Tree]> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for (i, t) in items.iter().enumerate() {
        if t.is_op(op) {
            out.push(&items[start..i]);
            start = i + 1;
        }
    }
    out.push(&items[start..]);
    out
}

const KEYWORDS: &[&str] = &[
    "mut", "ref", "box", "if", "in", "as", "dyn", "impl", "self", "Self", "move", "let", "else",
    "true", "false",
];

/// Collects binding identifiers from a pattern: lowercase/underscore-led
/// idents, recursing into groups. Type and variant names (CamelCase) are
/// skipped so `ReluMode::Lazy => …` does not shadow-taint.
pub(crate) fn pattern_idents(items: &[Tree], out: &mut Vec<String>) {
    for t in items {
        match t {
            Tree::Leaf(tok) => {
                if let TokKind::Ident(s) = &tok.kind {
                    let lead = s.chars().next().unwrap_or('_');
                    if (lead.is_ascii_lowercase() || lead == '_') && !KEYWORDS.contains(&s.as_str())
                    {
                        out.push(s.clone());
                    }
                }
            }
            Tree::Group { items, .. } => pattern_idents(items, out),
        }
    }
}

/// Cross-function summary: does the return value carry taint?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Summary {
    /// Return is tainted when any argument is.
    ret_if_arg: bool,
    /// Return is tainted regardless of arguments (internal secret source).
    ret_always: bool,
}

/// The workspace-level analysis driver.
pub(crate) struct Analyzer<'c> {
    cfg: &'c Config,
    summaries: HashMap<String, Summary>,
    /// Per-file summaries, preferred over the bare-name merge at call
    /// sites in the same file: a plaintext `forward` in the reference
    /// crate must not inherit taint from the 2PC engine's `forward`.
    file_summaries: HashMap<(usize, String), Summary>,
}

impl<'c> Analyzer<'c> {
    pub fn new(cfg: &'c Config) -> Self {
        let mut summaries = HashMap::new();
        for f in &cfg.secret_fns {
            summaries.insert(f.clone(), Summary { ret_if_arg: true, ret_always: true });
        }
        Analyzer { cfg, summaries, file_summaries: HashMap::new() }
    }

    /// Runs the global fixpoint over `fns`, then a recording pass that
    /// returns all violations.
    pub fn run(&mut self, fns: &[FnIr], file_names: &[String]) -> Vec<Violation> {
        // Pre-register every definition so same-file resolution never
        // falls back to the bare-name merge mid-fixpoint: without this, a
        // function summarized before its same-file callee would pick up
        // another file's identically-named (and possibly secret) impl, and
        // the monotone merge would bake that over-approximation in.
        for f in fns {
            self.file_summaries.entry((f.file, f.name.clone())).or_default();
        }
        // Fixpoint on summaries (cap the iteration count; monotone, so it
        // converges quickly — secret sources only ever spread).
        for _ in 0..6 {
            let mut changed = false;
            for f in fns {
                let s = self.summarize(f);
                let prev = self.summaries.get(&f.name).copied().unwrap_or_default();
                let merged = Summary {
                    ret_if_arg: prev.ret_if_arg || s.ret_if_arg,
                    ret_always: prev.ret_always || s.ret_always,
                };
                if merged != prev {
                    self.summaries.insert(f.name.clone(), merged);
                    changed = true;
                }
                let fkey = (f.file, f.name.clone());
                let fprev = self.file_summaries.get(&fkey).copied().unwrap_or_default();
                let fmerged = Summary {
                    ret_if_arg: fprev.ret_if_arg || s.ret_if_arg,
                    ret_always: fprev.ret_always || s.ret_always,
                };
                if fmerged != fprev {
                    self.file_summaries.insert(fkey, fmerged);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let mut viols = Vec::new();
        for f in fns {
            if f.declassified {
                continue;
            }
            let mut pass = FnPass::new(self, &file_names[f.file], f.file, true);
            pass.seed(f, false, true);
            pass.stabilize(&f.body);
            // Dedup within the function: the same construct may be walked
            // more than once when control-flow nests.
            let mut seen = HashSet::new();
            for v in pass.viols {
                if seen.insert((v.line, v.rule, v.message.clone())) {
                    viols.push(v);
                }
            }
        }
        viols.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        viols
    }

    /// Names whose summary says "returns secret regardless of arguments"
    /// — a debugging hook for diagnosing taint cascades.
    pub fn ret_always_names(&self) -> Vec<String> {
        let mut v: Vec<String> =
            self.summaries.iter().filter(|(_, s)| s.ret_always).map(|(n, _)| n.clone()).collect();
        v.sort();
        v
    }

    fn summarize(&self, f: &FnIr) -> Summary {
        if f.declassified {
            return Summary::default();
        }
        // ret_always: analyze with only the type-declared secret seeds.
        let mut pass = FnPass::new(self, "", f.file, false);
        pass.seed(f, false, false);
        let ret_always = pass.stabilize(&f.body);
        // ret_if_arg: analyze with every parameter tainted.
        let mut pass = FnPass::new(self, "", f.file, false);
        pass.seed(f, true, false);
        let ret_if_arg = pass.stabilize(&f.body);
        Summary { ret_if_arg, ret_always }
    }

    fn result_taint(&self, file: usize, callee: &str, args_tainted: bool) -> bool {
        if self.cfg.secret_fns.iter().any(|f| f == callee) {
            return true;
        }
        // Same-file definitions shadow the workspace-wide bare-name merge.
        if let Some(s) = self.file_summaries.get(&(file, callee.to_string())) {
            return s.ret_always || (s.ret_if_arg && args_tainted);
        }
        match self.summaries.get(callee) {
            Some(s) => s.ret_always || (s.ret_if_arg && args_tainted),
            // Unknown (std / shim) functions conservatively propagate.
            None => args_tainted,
        }
    }

    /// [`Self::result_taint`] for a call qualified by a known non-secret
    /// type (`Ring::new`). Bare-name summaries merge every impl of the
    /// method name, so `ret_always` from some *secret* type's impl must
    /// not apply here; only explicit secret-fn listing, a same-file
    /// definition, and argument propagation do.
    fn result_taint_qualified(&self, file: usize, callee: &str, args_tainted: bool) -> bool {
        if self.cfg.secret_fns.iter().any(|f| f == callee) {
            return true;
        }
        if let Some(s) = self.file_summaries.get(&(file, callee.to_string())) {
            return s.ret_always || (s.ret_if_arg && args_tainted);
        }
        match self.summaries.get(callee) {
            Some(s) => s.ret_if_arg && args_tainted,
            None => args_tainted,
        }
    }
}

/// Expression-evaluation context.
#[derive(Debug, Clone, Copy, Default)]
struct Ctx {
    /// Inside an `if`/`while`/`match` head — a tainted result is reported
    /// as `secret-branch` by the caller, so `secret-compare` stays quiet.
    in_condition: bool,
    /// Inside an `assert!` condition — comparisons abort rather than
    /// branch, so both compare and branch rules stay quiet (the *message*
    /// arguments are still sink-checked).
    in_assert: bool,
}

/// Per-function analysis state.
struct FnPass<'a, 'c> {
    an: &'a Analyzer<'c>,
    file: &'a str,
    /// Index of the file the analyzed fn lives in — call resolution
    /// prefers same-file definitions over the bare-name merge.
    file_idx: usize,
    record: bool,
    taint: HashSet<String>,
    ret_tainted: bool,
    viols: Vec<Violation>,
}

impl<'a, 'c> FnPass<'a, 'c> {
    fn new(an: &'a Analyzer<'c>, file: &'a str, file_idx: usize, record: bool) -> Self {
        FnPass {
            an,
            file,
            file_idx,
            record,
            taint: HashSet::new(),
            ret_tainted: false,
            viols: Vec::new(),
        }
    }

    /// Seeds parameter taint. `include_extra` applies the per-function
    /// `secret_fn_params` seeds — used for the recording pass only: those
    /// parameters are secret *in context*, so they must not poison the
    /// function's cross-call summary (a `pow()` over public exponents
    /// would otherwise return "secret" everywhere).
    fn seed(&mut self, f: &FnIr, all_params: bool, include_extra: bool) {
        for (names, ty) in &f.params {
            let secret = all_params || self.an.cfg.is_secret_type(ty);
            let extra = if include_extra { self.an.cfg.extra_params(&f.name) } else { None };
            for n in names {
                if secret || extra.is_some_and(|ps| ps.iter().any(|p| p == n)) {
                    self.taint.insert(n.clone());
                }
            }
        }
        if f.self_secret || (all_params && f.params.iter().any(|(ns, _)| ns.is_empty())) {
            self.taint.insert("self".to_string());
        }
    }

    /// Walks the body until the taint set stops growing, recording
    /// violations only on the final walk. Returns the return-value taint.
    fn stabilize(&mut self, body: &[Tree]) -> bool {
        let record = self.record;
        self.record = false;
        for _ in 0..6 {
            let before = self.taint.len();
            self.ret_tainted = false;
            let trailing = self.walk_stmts(body);
            self.ret_tainted |= trailing;
            if self.taint.len() == before {
                break;
            }
        }
        if record {
            self.record = true;
            self.viols.clear();
            let trailing = self.walk_stmts(body);
            self.ret_tainted |= trailing;
        }
        self.ret_tainted
    }

    fn emit(&mut self, rule: Rule, line: u32, message: String) {
        if self.record {
            self.viols.push(Violation { file: self.file.to_string(), line, rule, message });
        }
    }

    /// Walks a statement list; returns the trailing-expression taint.
    fn walk_stmts(&mut self, items: &[Tree]) -> bool {
        let mut i = 0usize;
        let mut trailing = false;
        while i < items.len() {
            let t = &items[i];
            if t.is_op(";") {
                trailing = false;
                i += 1;
                continue;
            }
            if t.is_op("#") {
                // Statement attribute — skip `#[…]`.
                if items.get(i + 1).is_some_and(|g| g.group('[').is_some()) {
                    i += 2;
                } else {
                    i += 1;
                }
                continue;
            }
            match t.ident() {
                Some("let") => {
                    let end = find_top_semi(items, i).unwrap_or(items.len());
                    self.process_let(&items[i + 1..end]);
                    trailing = false;
                    i = end + 1;
                }
                Some("return") | Some("break") => {
                    let is_ret = t.ident() == Some("return");
                    let end = find_top_semi(items, i).unwrap_or(items.len());
                    let tv = self.eval_run(&items[i + 1..end], Ctx::default());
                    if is_ret {
                        self.ret_tainted |= tv;
                    }
                    trailing = false;
                    i = end + 1;
                }
                Some("continue") => {
                    let end = find_top_semi(items, i).unwrap_or(items.len());
                    trailing = false;
                    i = end + 1;
                }
                Some("if") | Some("while") | Some("for") | Some("loop") | Some("match")
                | Some("unsafe") => {
                    let (ni, tv) = self.consume_control(items, i);
                    trailing = tv;
                    i = ni;
                }
                Some("fn") | Some("struct") | Some("enum") | Some("impl") | Some("trait")
                | Some("use") | Some("mod") | Some("type") | Some("const") | Some("static") => {
                    // Nested items: the extractor only visits module level,
                    // so skip to the end of the item here.
                    let mut j = i + 1;
                    while j < items.len() && items[j].group('{').is_none() && !items[j].is_op(";") {
                        j += 1;
                    }
                    trailing = false;
                    i = j + 1;
                }
                _ => {
                    if let Some(g) = t.group('{') {
                        trailing = self.walk_stmts(g);
                        i += 1;
                    } else {
                        let end = find_top_semi(items, i).unwrap_or(items.len());
                        let tv = self.process_expr_stmt(&items[i..end]);
                        trailing = if end == items.len() { tv } else { false };
                        i = end + 1;
                    }
                }
            }
        }
        trailing
    }

    fn process_let(&mut self, stmt: &[Tree]) {
        let Some(eq) = stmt.iter().position(|t| t.is_op("=")) else { return };
        let mut pat = &stmt[..eq];
        if let Some(c) = pat.iter().position(|t| t.is_op(":")) {
            pat = &pat[..c];
        }
        let tv = self.eval_run(&stmt[eq + 1..], Ctx::default());
        if tv {
            let mut names = Vec::new();
            pattern_idents(pat, &mut names);
            for n in names {
                self.taint.insert(n);
            }
        }
    }

    fn process_expr_stmt(&mut self, run: &[Tree]) -> bool {
        const ASSIGN: &[&str] =
            &["=", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<=", ">>="];
        let assign = run.iter().position(|t| ASSIGN.iter().any(|op| t.is_op(op)));
        if let Some(a) = assign {
            let rt = self.eval_run(&run[a + 1..], Ctx::default());
            let lt = self.eval_run(&run[..a], Ctx::default());
            if rt {
                // Taint the assignment target's base identifier.
                for t in &run[..a] {
                    if let Some(id) = t.ident() {
                        if !KEYWORDS.contains(&id) {
                            self.taint.insert(id.to_string());
                            break;
                        }
                    }
                }
            }
            rt || lt
        } else {
            self.eval_run(run, Ctx::default())
        }
    }

    /// Handles a control-flow construct starting at `items[i]`. Returns
    /// `(index after the construct, value taint)`.
    fn consume_control(&mut self, items: &[Tree], i: usize) -> (usize, bool) {
        let line = items[i].line();
        match items[i].ident() {
            Some("if") | Some("while") => {
                let kind = items[i].ident().unwrap_or("if");
                let Some(j) = find_top_brace(items, i + 1) else { return (items.len(), false) };
                let cond = &items[i + 1..j];
                let cond_taint = self.eval_condition(cond);
                if cond_taint {
                    self.emit(
                        Rule::SecretBranch,
                        line,
                        format!("`{kind}` condition depends on secret-derived data"),
                    );
                }
                let mut value = self.block(&items[j]);
                let mut k = j + 1;
                while items.get(k).and_then(Tree::ident) == Some("else") {
                    match items.get(k + 1) {
                        Some(n) if n.ident() == Some("if") => {
                            let (nk, v) = self.consume_control(items, k + 1);
                            value |= v;
                            k = nk;
                        }
                        Some(n) if n.group('{').is_some() => {
                            value |= self.block(n);
                            k += 2;
                            break;
                        }
                        _ => break,
                    }
                }
                (k, value | cond_taint)
            }
            Some("for") => {
                let Some(j) = find_top_brace(items, i + 1) else { return (items.len(), false) };
                let head = &items[i + 1..j];
                let in_pos = head.iter().position(|t| t.ident() == Some("in"));
                if let Some(p) = in_pos {
                    let tv = self.eval_run(&head[p + 1..], Ctx::default());
                    if tv {
                        let mut names = Vec::new();
                        pattern_idents(&head[..p], &mut names);
                        for n in names {
                            self.taint.insert(n);
                        }
                    }
                }
                self.block(&items[j]);
                (j + 1, false)
            }
            Some("loop") | Some("unsafe") => {
                let Some(j) = find_top_brace(items, i + 1) else { return (items.len(), false) };
                let v = self.block(&items[j]);
                (j + 1, v)
            }
            Some("match") => {
                let Some(j) = find_top_brace(items, i + 1) else { return (items.len(), false) };
                let t =
                    self.eval_run(&items[i + 1..j], Ctx { in_condition: true, in_assert: false });
                if t {
                    self.emit(
                        Rule::SecretBranch,
                        line,
                        "`match` scrutinee depends on secret-derived data".to_string(),
                    );
                }
                let mut value = t;
                if let Some(arms) = items[j].group('{') {
                    value |= self.walk_match_arms(arms, t);
                }
                (j + 1, value)
            }
            _ => (i + 1, false),
        }
    }

    /// Evaluates an `if`/`while` head, handling `let`-pattern forms.
    fn eval_condition(&mut self, cond: &[Tree]) -> bool {
        let ctx = Ctx { in_condition: true, in_assert: false };
        if cond.first().and_then(Tree::ident) == Some("let") {
            if let Some(eq) = cond.iter().position(|t| t.is_op("=")) {
                let tv = self.eval_run(&cond[eq + 1..], ctx);
                if tv {
                    let mut names = Vec::new();
                    pattern_idents(&cond[1..eq], &mut names);
                    for n in names {
                        self.taint.insert(n);
                    }
                }
                return tv;
            }
        }
        self.eval_run(cond, ctx)
    }

    fn block(&mut self, g: &Tree) -> bool {
        match g.group('{') {
            Some(items) => self.walk_stmts(items),
            None => false,
        }
    }

    fn walk_match_arms(&mut self, arms: &[Tree], scrut_tainted: bool) -> bool {
        let mut i = 0usize;
        let mut value = false;
        while i < arms.len() {
            let Some(arrow) = find_top_op(arms, i, "=>") else { break };
            if scrut_tainted {
                let mut names = Vec::new();
                pattern_idents(&arms[i..arrow], &mut names);
                for n in names {
                    self.taint.insert(n);
                }
            }
            match arms.get(arrow + 1) {
                Some(g) if g.group('{').is_some() => {
                    value |= self.block(g);
                    i = arrow + 2;
                    if arms.get(i).is_some_and(|t| t.is_op(",")) {
                        i += 1;
                    }
                }
                Some(_) => {
                    let end = find_top_op(arms, arrow + 1, ",").unwrap_or(arms.len());
                    value |= self.eval_run(&arms[arrow + 1..end], Ctx::default());
                    i = end + 1;
                }
                None => break,
            }
        }
        value
    }

    /// Evaluates an expression run; returns its taint and fires rules.
    fn eval_run(&mut self, run: &[Tree], ctx: Ctx) -> bool {
        let mut tainted = false;
        let mut cmp_line: Option<u32> = None;
        let mut sc_line: Option<u32> = None;
        let mut i = 0usize;
        while i < run.len() {
            let t = &run[i];
            if let Some(id) = t.ident() {
                match id {
                    "if" | "while" | "for" | "loop" | "match" | "unsafe" => {
                        let (ni, v) = self.consume_control(run, i);
                        tainted |= v;
                        i = ni;
                    }
                    "else" => {
                        if let Some(g) = run.get(i + 1) {
                            if g.group('{').is_some() {
                                tainted |= self.block(g);
                                i += 2;
                                continue;
                            }
                        }
                        i += 1;
                    }
                    "as" => {
                        // Skip the cast target type.
                        i += 1;
                        while i < run.len() && (run[i].ident().is_some() || run[i].is_op("::")) {
                            i += 1;
                        }
                    }
                    "return" => {
                        // `return expr` inside an expression position.
                        let tv = self.eval_run(&run[i + 1..], Ctx::default());
                        self.ret_tainted |= tv;
                        i = run.len();
                    }
                    "move" | "mut" | "ref" | "dyn" | "impl" | "let" | "in" | "true" | "false" => {
                        i += 1;
                    }
                    _ => {
                        let (ni, v) = self.eval_atom(run, i, ctx);
                        tainted |= v;
                        i = ni;
                    }
                }
            } else if let Tree::Leaf(tok) = t {
                match &tok.kind {
                    TokKind::Op(op) => match *op {
                        "==" | "!=" | "<" | ">" | "<=" | ">=" => {
                            cmp_line.get_or_insert(tok.line);
                            i += 1;
                        }
                        "&&" | "||" => {
                            // `||` at operand position is an empty-param
                            // closure; as an infix operator it is a
                            // short-circuit branch.
                            if *op == "||" && closure_pos(run, i) {
                                i = skip_closure_ret(run, i + 1); // empty closure params
                            } else {
                                sc_line.get_or_insert(tok.line);
                                i += 1;
                            }
                        }
                        "|" => {
                            // Closure params if at operand position, else
                            // bit-or.
                            if closure_pos(run, i) {
                                let close = find_top_op(run, i + 1, "|").unwrap_or(run.len());
                                i = skip_closure_ret(run, close.saturating_add(1).min(run.len()));
                            } else {
                                i += 1;
                            }
                        }
                        _ => i += 1,
                    },
                    _ => i += 1,
                }
            } else {
                // Group at expression position — give it atom treatment so
                // chained calls/indexing after it are handled.
                let (ni, v) = self.eval_atom(run, i, ctx);
                tainted |= v;
                i = ni;
            }
        }
        if tainted {
            if let Some(l) = cmp_line {
                if !ctx.in_condition && !ctx.in_assert {
                    self.emit(
                        Rule::SecretCompare,
                        l,
                        "raw comparison on secret-derived values; use aq2pnn_ring::ct helpers"
                            .to_string(),
                    );
                }
            }
            if let Some(l) = sc_line {
                if !ctx.in_condition && !ctx.in_assert {
                    self.emit(
                        Rule::SecretBranch,
                        l,
                        "short-circuit boolean over secret-derived values".to_string(),
                    );
                }
            }
        }
        tainted
    }

    /// Evaluates one atom (path / literal / group) and its postfix chain.
    fn eval_atom(&mut self, run: &[Tree], i: usize, ctx: Ctx) -> (usize, bool) {
        let mut cur = false;
        let mut base_ident: Option<String> = None;
        let mut j = i + 1;
        match &run[i] {
            Tree::Leaf(tok) => {
                // Non-identifier leaves are literals: never tainted.
                if let TokKind::Ident(name) = &tok.kind {
                    let mut segs: Vec<String> = vec![name.clone()];
                    while run.get(j).is_some_and(|t| t.is_op("::")) {
                        match run.get(j + 1) {
                            Some(t) if t.is_op("<") => {
                                j = skip_angle(run, j + 1);
                            }
                            Some(t) if t.ident().is_some() => {
                                segs.push(t.ident().unwrap_or_default().to_string());
                                j += 2;
                            }
                            _ => break,
                        }
                    }
                    let last = segs.last().cloned().unwrap_or_default();
                    let next_is_macro = run.get(j).is_some_and(|t| t.is_op("!"))
                        && run.get(j + 1).is_some_and(|t| matches!(t, Tree::Group { .. }));
                    if next_is_macro {
                        if let Some(Tree::Group { items, open_line, .. }) = run.get(j + 1) {
                            cur = self.handle_macro(&last, items, *open_line, ctx);
                        }
                        j += 2;
                    } else if let Some(Tree::Group { delim: '(', items, open_line }) = run.get(j) {
                        let argt = self.eval_call_args(items, false, ctx);
                        if argt && self.an.cfg.alloc_fns.contains(&last) {
                            self.emit(
                                Rule::SecretAlloc,
                                *open_line,
                                format!("allocation size passed to `{last}` is secret-derived"),
                            );
                        }
                        // Cross-call summaries merge impls by bare method
                        // name, so a type-qualified call resolves by the
                        // named type instead: `AShare::new(..)` is secret
                        // because `AShare` is, while `Ring::new(..)` stays
                        // public even though secret types also define `new`.
                        let type_qualifier = (segs.len() >= 2)
                            .then(|| segs[segs.len() - 2].as_str())
                            .filter(|q| q.chars().next().is_some_and(char::is_uppercase));
                        cur = match type_qualifier {
                            Some(q) if self.an.cfg.is_secret_type(q) => true,
                            Some("Self") => {
                                self.taint.contains("self")
                                    || (self.an.result_taint(self.file_idx, &last, argt))
                            }
                            Some(_) => self.an.result_taint_qualified(self.file_idx, &last, argt),
                            None => self.an.result_taint(self.file_idx, &last, argt),
                        };
                        j += 1;
                    } else if segs.len() == 1 {
                        cur = self.taint.contains(name);
                        base_ident = Some(name.clone());
                    }
                }
            }
            Tree::Group { delim, items, open_line } => {
                match delim {
                    '(' => cur = self.eval_run(items, Ctx { in_condition: false, ..ctx }),
                    '[' => {
                        // Array literal `[v; n]` — n is an allocation size.
                        if let Some(semi) = items.iter().position(|t| t.is_op(";")) {
                            cur = self.eval_run(&items[..semi], Ctx::default());
                            let nt = self.eval_run(&items[semi + 1..], Ctx::default());
                            if nt {
                                self.emit(
                                    Rule::SecretAlloc,
                                    *open_line,
                                    "array length is secret-derived".to_string(),
                                );
                            }
                        } else {
                            cur = self.eval_run(items, Ctx::default());
                        }
                    }
                    _ => cur = self.walk_stmts(items),
                }
            }
        }
        // Postfix chain: `.method(…)`, `.field`, `[index]`, `(args)`, `?`.
        loop {
            match run.get(j) {
                Some(t) if t.is_op(".") => {
                    match run.get(j + 1) {
                        Some(Tree::Leaf(tok)) => match &tok.kind {
                            TokKind::Num(_) => j += 2,
                            TokKind::Ident(m) => {
                                let m = m.clone();
                                // Skip a turbofish: `.collect::<Vec<_>>()`.
                                let mut call_at = j + 2;
                                if run.get(call_at).is_some_and(|t| t.is_op("::"))
                                    && run.get(call_at + 1).is_some_and(|t| t.is_op("<"))
                                {
                                    call_at = skip_angle(run, call_at + 1);
                                }
                                let group = run.get(call_at).and_then(|t| match t {
                                    Tree::Group { delim: '(', items, open_line } => {
                                        Some((items.as_slice(), *open_line))
                                    }
                                    _ => None,
                                });
                                let cfgr = self.an.cfg;
                                if cfgr.sanitizers.contains(&m) || cfgr.publicizers.contains(&m) {
                                    if let Some((items, _)) = group {
                                        self.eval_call_args(items, false, ctx);
                                    }
                                    cur = false;
                                } else if cfgr.secret_fields.contains(&m)
                                    || cfgr.secret_fns.contains(&m)
                                {
                                    if let Some((items, _)) = group {
                                        self.eval_call_args(items, false, ctx);
                                    }
                                    cur = true;
                                } else if let Some((items, open_line)) = group {
                                    let argt = self.eval_call_args(items, cur, ctx);
                                    if argt && cfgr.alloc_fns.contains(&m) {
                                        self.emit(
                                            Rule::SecretAlloc,
                                            open_line,
                                            format!(
                                                "allocation size passed to `.{m}()` is \
                                                 secret-derived"
                                            ),
                                        );
                                    }
                                    if (cur || argt)
                                        && !ctx.in_condition
                                        && !ctx.in_assert
                                        && matches!(
                                            m.as_str(),
                                            "cmp"
                                                | "partial_cmp"
                                                | "eq"
                                                | "ne"
                                                | "lt"
                                                | "gt"
                                                | "le"
                                                | "ge"
                                                | "min"
                                                | "max"
                                        )
                                    {
                                        self.emit(
                                            Rule::SecretCompare,
                                            open_line,
                                            format!(
                                                "`.{m}()` on secret-derived values; use \
                                                 aq2pnn_ring::ct helpers"
                                            ),
                                        );
                                    }
                                    if argt && cfgr.mutators.contains(&m) {
                                        if let Some(b) = &base_ident {
                                            self.taint.insert(b.clone());
                                        }
                                    }
                                    // Closure-terminator adapters: the
                                    // result is the closure's output, so a
                                    // sanitized closure body (`.any(|l|
                                    // l.len() > 1)`) yields a public bool
                                    // even on a secret collection.
                                    if matches!(
                                        m.as_str(),
                                        "any" | "all" | "position" | "rposition"
                                    ) {
                                        cur = argt;
                                    } else {
                                        // Qualified resolution: the receiver
                                        // type is unknown, so a merged
                                        // `ret_always` from some *other*
                                        // type's identically-named method
                                        // (`AShare::neg` vs `Ring::neg`) must
                                        // not apply. Same-file definitions
                                        // and declared secret fns still do.
                                        cur = self.an.result_taint_qualified(
                                            self.file_idx,
                                            &m,
                                            cur || argt,
                                        );
                                    }
                                } else {
                                    // Plain field access keeps taint.
                                }
                                j = if group.is_some() { call_at + 1 } else { j + 2 };
                            }
                            _ => break,
                        },
                        _ => break,
                    }
                }
                Some(Tree::Group { delim: '[', items, open_line }) => {
                    let it = self.eval_run(items, Ctx { in_condition: false, ..ctx });
                    if it {
                        self.emit(
                            Rule::SecretIndex,
                            *open_line,
                            "index or slice bound derived from secret data".to_string(),
                        );
                    }
                    cur |= it;
                    j += 1;
                }
                Some(Tree::Group { delim: '(', items, .. }) => {
                    let argt = self.eval_call_args(items, cur, ctx);
                    cur |= argt;
                    j += 1;
                }
                Some(t) if t.is_op("?") => j += 1,
                _ => break,
            }
        }
        (j.max(i + 1), cur)
    }

    /// Evaluates call arguments; returns the OR of their taints. Closure
    /// parameters are pre-tainted when the receiver is tainted (so
    /// `shares.iter().map(|v| …)` taints `v`). When any argument is
    /// tainted, every `&mut ident` argument is tainted too: an
    /// out-parameter (`split_groups_into(ring, &neg, .., &mut u_flat)`)
    /// carries the call's result just like a return value does.
    fn eval_call_args(&mut self, items: &[Tree], base_tainted: bool, ctx: Ctx) -> bool {
        let mut tainted = false;
        let arg_ctx = Ctx { in_condition: false, ..ctx };
        // Drop `-> Type` closure return annotations before splitting on
        // commas: the type's generics may contain top-level commas and
        // angle brackets that are neither argument separators nor
        // comparisons (`move || -> Result<A, B> { … }`).
        let mut filtered: Vec<Tree> = Vec::with_capacity(items.len());
        let mut it = items.iter().peekable();
        while let Some(t) = it.next() {
            if t.is_op("->") {
                while it.peek().is_some_and(|n| !matches!(n, Tree::Group { delim: '{', .. })) {
                    it.next();
                }
            } else {
                filtered.push(t.clone());
            }
        }
        let items = filtered.as_slice();
        for arg in split_top(items, ",") {
            if arg.is_empty() {
                continue;
            }
            let mut k = 0usize;
            if arg[k].ident() == Some("move") {
                k += 1;
            }
            if arg.get(k).is_some_and(|t| t.is_op("||")) {
                // Zero-parameter closure.
                tainted |= self.eval_run(&arg[k + 1..], arg_ctx);
            } else if arg.get(k).is_some_and(|t| t.is_op("|")) {
                let close = find_top_op(arg, k + 1, "|").unwrap_or(arg.len());
                if base_tainted {
                    let mut names = Vec::new();
                    pattern_idents(&arg[k + 1..close.min(arg.len())], &mut names);
                    for n in names {
                        self.taint.insert(n);
                    }
                }
                let body = if close < arg.len() { &arg[close + 1..] } else { &arg[0..0] };
                tainted |= self.eval_run(body, arg_ctx);
            } else {
                tainted |= self.eval_run(arg, arg_ctx);
            }
        }
        if tainted {
            for arg in split_top(items, ",") {
                if let [amp, mutkw, out] = arg {
                    if amp.is_op("&") && mutkw.ident() == Some("mut") {
                        if let Some(name) = out.ident() {
                            self.taint.insert(name.to_string());
                        }
                    }
                }
            }
        }
        tainted
    }

    /// Macro handling: sinks, asserts, `vec!` sizing, `matches!`.
    fn handle_macro(&mut self, name: &str, items: &[Tree], line: u32, ctx: Ctx) -> bool {
        const SINKS: &[&str] = &[
            "format",
            "format_args",
            "println",
            "print",
            "eprintln",
            "eprint",
            "panic",
            "write",
            "writeln",
            "dbg",
            "todo",
            "unreachable",
            "unimplemented",
            "trace",
            "debug",
            "info",
            "warn",
            "error",
        ];
        match name {
            "vec" => {
                if let Some(semi) = items.iter().position(|t| t.is_op(";")) {
                    let vt = self.eval_run(&items[..semi], Ctx::default());
                    let nt = self.eval_run(&items[semi + 1..], Ctx::default());
                    if nt {
                        self.emit(
                            Rule::SecretAlloc,
                            line,
                            "`vec![_; n]` length is secret-derived".to_string(),
                        );
                    }
                    vt
                } else {
                    self.eval_call_args(items, false, ctx)
                }
            }
            "matches" => {
                let args = split_top(items, ",");
                let t = args.first().is_some_and(|a| {
                    self.eval_run(a, Ctx { in_condition: true, in_assert: ctx.in_assert })
                });
                if t && !ctx.in_condition && !ctx.in_assert {
                    self.emit(
                        Rule::SecretCompare,
                        line,
                        "`matches!` tests a secret-derived value".to_string(),
                    );
                }
                t
            }
            "assert" | "debug_assert" | "assert_eq" | "assert_ne" | "debug_assert_eq"
            | "debug_assert_ne" => {
                let exempt = if name.ends_with("_eq") || name.ends_with("_ne") { 2 } else { 1 };
                let actx = Ctx { in_condition: true, in_assert: true };
                for (idx, arg) in split_top(items, ",").into_iter().enumerate() {
                    if idx < exempt {
                        self.eval_run(arg, actx);
                    } else {
                        self.sink_check_arg(arg, name, line);
                    }
                }
                false
            }
            _ if SINKS.contains(&name) => {
                let mut tainted = false;
                for arg in split_top(items, ",") {
                    tainted |= self.sink_check_arg(arg, name, line);
                }
                tainted
            }
            _ => self.eval_call_args(items, false, ctx),
        }
    }

    /// Checks one sink-macro argument; also resolves `{ident}` inline
    /// captures inside string literals.
    fn sink_check_arg(&mut self, arg: &[Tree], macro_name: &str, line: u32) -> bool {
        if arg.is_empty() {
            return false;
        }
        if let [Tree::Leaf(tok)] = arg {
            if let TokKind::Str(s) = &tok.kind {
                for cap in format_captures(s) {
                    if self.taint.contains(&cap) {
                        self.emit(
                            Rule::SecretSink,
                            tok.line,
                            format!(
                                "format string in `{macro_name}!` captures secret-derived \
                                 `{{{cap}}}`"
                            ),
                        );
                    }
                }
                return false;
            }
        }
        let t = self.eval_run(arg, Ctx::default());
        if t {
            self.emit(
                Rule::SecretSink,
                line,
                format!("secret-derived value passed to `{macro_name}!`"),
            );
        }
        t
    }
}

/// `{ident}` / `{ident:spec}` captures in a format string.
fn format_captures(s: &str) -> Vec<String> {
    let b = s.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        if b[i] == b'{' {
            if i + 1 < b.len() && b[i + 1] == b'{' {
                i += 2;
                continue;
            }
            let start = i + 1;
            let mut j = start;
            while j < b.len() && b[j] != b'}' && b[j] != b':' {
                j += 1;
            }
            let name = &s[start..j];
            if !name.is_empty()
                && name.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
                && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            {
                out.push(name.to_string());
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// First top-level `;` at or after `i`.
fn find_top_semi(items: &[Tree], i: usize) -> Option<usize> {
    items[i..].iter().position(|t| t.is_op(";")).map(|p| i + p)
}

/// First top-level occurrence of `op` at or after `i`.
fn find_top_op(items: &[Tree], i: usize, op: &str) -> Option<usize> {
    items[i..].iter().position(|t| t.is_op(op)).map(|p| i + p)
}

/// Is the `|`/`||` at `run[i]` in closure-introducer position? True at the
/// start of a run, after another operator, or after the `move` keyword.
fn closure_pos(run: &[Tree], i: usize) -> bool {
    i == 0
        || matches!(&run[i - 1], Tree::Leaf(l) if matches!(l.kind, TokKind::Op(_)))
        || run[i - 1].ident() == Some("move")
}

/// Skips a `-> Type` closure return annotation: the type's `<`/`>` are not
/// comparisons. Rust requires a block body after an annotated closure, so
/// advance to the `{…}` group.
fn skip_closure_ret(run: &[Tree], mut i: usize) -> usize {
    if run.get(i).is_some_and(|t| t.is_op("->")) {
        while i < run.len() && !matches!(&run[i], Tree::Group { delim: '{', .. }) {
            i += 1;
        }
    }
    i
}

/// First top-level `{…}` group at or after `i`.
fn find_top_brace(items: &[Tree], i: usize) -> Option<usize> {
    items[i..].iter().position(|t| t.group('{').is_some()).map(|p| i + p)
}
