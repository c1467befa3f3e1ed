//! Concurrency-soundness pass.
//!
//! Shares the lexer → token-tree front end with the taint pass and
//! analyzes the whole workspace for four classes of synchronization bugs
//! in the hand-rolled sync layer:
//!
//! - `lock-order-cycle` — two lock *classes* (a `Mutex`/`RwLock` struct
//!   field, named `crate:file.field`) acquired in inconsistent order
//!   somewhere in the workspace call graph;
//! - `blocking-while-locked` — a guard held across a blocking operation
//!   (channel send/recv, TCP I/O, `thread::sleep`/`park`/`join`, or a
//!   `Condvar::wait` on a *different* lock);
//! - `condvar-misuse` — a `Condvar::wait` outside a predicate loop, or a
//!   notify on a condvar class with no waiter anywhere in the workspace;
//! - `guard-escape` — a function returning a lock guard, widening the
//!   critical section beyond the acquiring function.
//!
//! The analysis is intraprocedural with call summaries: each function is
//! summarized as "may acquire these classes / may block / returns a
//! guard", and summaries propagate to call sites in a fixpoint before a
//! final reporting pass. Guard lifetimes follow Rust's temporary-scope
//! rules closely enough for this codebase: statement temporaries die at
//! `;`, plain `if`/`while` condition temporaries die at `{`,
//! `match`/`if let`/`for` scrutinee temporaries extend through the
//! construct, and `let`-bound guards live to the end of the enclosing
//! block (or until an explicit `drop(guard)`).
//!
//! Accepted exceptions are annotated in-tree with
//! `// sync: allow(rule, "reason")` — same grammar, window and
//! unused-allow policy as the secrecy pass (see [`crate::model`]).
//! Closures passed to known thread-spawn entry points (`spawn`,
//! `spawn_named`, `submit`) are analyzed with an *empty* lock context
//! and their effects are not merged into the spawning function.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::lexer::{self, Ns};
use crate::model::{self, AllowSite, Report, Rule, Violation};
use crate::tree::{self, Tree};

/// Method/function names treated as blocking operations.
const BLOCKING: &[&str] = &[
    "send",
    "recv",
    "recv_deadline",
    "recv_timeout",
    "write_all",
    "read_exact",
    "read_to_end",
    "flush",
    "accept",
    "connect",
    "connect_timeout",
    "sleep",
    "park",
    "join",
];

/// Postfix calls that keep a just-acquired guard flowing to its binding
/// (`let g = m.lock().unwrap();`).
const PRESERVE: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

/// Call sites whose closure arguments run on another thread: walked with
/// an empty lock context, effects not merged into the caller.
const DEFERRED: &[&str] = &["spawn", "spawn_named", "submit"];

/// Names too ambiguous for cross-file call resolution: a call to one of
/// these only resolves if the *same file* defines it.
const AMBIENT: &[&str] = &[
    "lock", "read", "write", "take", "pop", "push", "next", "len", "clear", "get", "insert",
    "send", "recv", "wait", "drop", "clone", "new", "default", "flush", "add", "observe", "call",
    "run", "info", "begin", "end", "fmt", "from", "into", "shutdown", "join", "spawn", "submit",
    "expect", "unwrap", "is_empty", "iter",
];

/// One function extracted for analysis.
struct ConcFn {
    name: String,
    line: u32,
    /// Return-type text (tokens between `->` and the body), or empty.
    ret: String,
    body: Vec<Tree>,
}

/// Per-file IR: lock/condvar field registries plus extracted functions.
struct FileIr {
    name: String,
    prefix: String,
    /// Struct field name → lock class (`crate:file.field`).
    lock_fields: HashMap<String, String>,
    /// Struct field name → condvar class.
    cv_fields: HashMap<String, String>,
    fns: Vec<ConcFn>,
}

/// The concurrency linter: add files, then [`ConcLinter::run`].
pub struct ConcLinter {
    files: Vec<FileIr>,
    allows: Vec<AllowSite>,
    pre_violations: Vec<Violation>,
}

impl Default for ConcLinter {
    fn default() -> Self {
        Self::new()
    }
}

/// Derives the lock-class prefix `crate:stem` from a registered path
/// (the component after `crates` plus the file stem).
fn class_prefix(name: &str) -> String {
    let parts: Vec<&str> = name.split(['/', '\\']).collect();
    let stem = parts.last().map_or("", |p| p.trim_end_matches(".rs"));
    if let Some(pos) = parts.iter().position(|p| *p == "crates") {
        if let Some(krate) = parts.get(pos + 1) {
            return format!("{krate}:{stem}");
        }
    }
    stem.to_string()
}

impl ConcLinter {
    /// Creates an empty concurrency linter.
    #[must_use]
    pub fn new() -> Self {
        ConcLinter { files: Vec::new(), allows: Vec::new(), pre_violations: Vec::new() }
    }

    /// Parses and registers one source file.
    pub fn add_file(&mut self, name: &str, src: &str) {
        let (toks, comments) = lexer::lex(src);
        let trees = tree::build(toks);
        let parsed = model::parse_directives(name, Ns::Sync, &comments);
        self.pre_violations.extend(parsed.malformed);
        self.allows.extend(parsed.allows);
        let mut ir = FileIr {
            name: name.to_string(),
            prefix: class_prefix(name),
            lock_fields: HashMap::new(),
            cv_fields: HashMap::new(),
            fns: Vec::new(),
        };
        scan_items(&trees, &mut ir);
        self.files.push(ir);
    }
}

/// Walks a tree sequence extracting struct field registries and
/// functions, recursing into `mod`/`impl`/`trait` bodies and skipping
/// anything under a `test`-flavoured attribute (`#[cfg(test)]`,
/// `#[cfg(all(loom, test))]`, `#[test]`).
fn scan_items(trees: &[Tree], ir: &mut FileIr) {
    let mut attrs = String::new();
    let mut i = 0usize;
    while i < trees.len() {
        // Attribute: `#` `[...]` (or `#![...]`).
        if trees[i].is_op("#") {
            let mut j = i + 1;
            if j < trees.len() && trees[j].is_op("!") {
                j += 1;
            }
            if j < trees.len() && trees[j].group('[').is_some() {
                attrs.push_str(&trees[j].text());
                i = j + 1;
                continue;
            }
        }
        let skip = attrs.contains("test");
        match trees[i].ident() {
            Some("struct") if !skip => {
                i = scan_struct(trees, i + 1, ir);
            }
            Some("mod" | "impl" | "trait") => {
                // Recurse into the body group unless cfg(test)-like.
                let mut j = i + 1;
                while j < trees.len() && trees[j].group('{').is_none() && !trees[j].is_op(";") {
                    j += 1;
                }
                if !skip {
                    if let Some(items) = trees.get(j).and_then(|t| t.group('{')) {
                        scan_items(items, ir);
                    }
                }
                i = j + 1;
            }
            Some("fn") if !skip => {
                i = scan_fn(trees, i, ir);
            }
            _ => i += 1,
        }
        attrs.clear();
    }
}

/// Registers named-struct lock/condvar fields; returns the next cursor.
/// Tuple structs register nothing (their fields have no names to key a
/// lock class on — the sync facade's newtypes rely on this).
fn scan_struct(trees: &[Tree], mut i: usize, ir: &mut FileIr) -> usize {
    while i < trees.len() {
        if trees[i].is_op(";") || trees[i].group('(').is_some() {
            return i + 1; // tuple struct or unit struct
        }
        if let Some(items) = trees[i].group('{') {
            register_fields(items, ir);
            return i + 1;
        }
        i += 1;
    }
    i
}

/// Splits a named-struct body on top-level commas (tracking `<`/`>`
/// angle depth, since generics are not delimiter groups) and registers
/// each `name: Mutex<…>` / `RwLock<…>` / `Condvar` field.
fn register_fields(items: &[Tree], ir: &mut FileIr) {
    let mut depth = 0i32;
    let mut start = 0usize;
    let mut chunks: Vec<&[Tree]> = Vec::new();
    for (i, t) in items.iter().enumerate() {
        if t.is_op("<") {
            depth += 1;
        } else if t.is_op("<<") {
            depth += 2;
        } else if t.is_op(">") {
            depth -= 1;
        } else if t.is_op(">>") {
            depth -= 2;
        } else if t.is_op(",") && depth == 0 {
            chunks.push(&items[start..i]);
            start = i + 1;
        }
    }
    chunks.push(&items[start..]);
    for chunk in chunks {
        let Some(colon) = chunk.iter().position(|t| t.is_op(":")) else { continue };
        let Some(fname) = chunk[..colon].iter().rev().find_map(Tree::ident) else { continue };
        let ty = &chunk[colon + 1..];
        let class = format!("{}.{}", ir.prefix, fname);
        for (k, t) in ty.iter().enumerate() {
            match t.ident() {
                Some("Mutex" | "RwLock") if ty.get(k + 1).is_some_and(|n| n.is_op("<")) => {
                    ir.lock_fields.insert(fname.to_string(), class.clone());
                }
                Some("Condvar") => {
                    ir.cv_fields.insert(fname.to_string(), class.clone());
                }
                _ => {}
            }
        }
    }
}

/// Extracts one `fn` starting at the `fn` keyword; returns the cursor
/// past its body. Handles generic parameter lists (angle depth) so a
/// `Fn(…)` bound is not mistaken for the parameter list.
fn scan_fn(trees: &[Tree], i: usize, ir: &mut FileIr) -> usize {
    let line = trees[i].line();
    let Some(name) = trees.get(i + 1).and_then(Tree::ident) else { return i + 1 };
    let mut j = i + 2;
    let mut depth = 0i32;
    // Find the parameter list at angle depth 0.
    while j < trees.len() {
        let t = &trees[j];
        if t.is_op("<") {
            depth += 1;
        } else if t.is_op("<<") {
            depth += 2;
        } else if t.is_op(">") {
            depth -= 1;
        } else if t.is_op(">>") {
            depth -= 2;
        } else if depth == 0 && t.group('(').is_some() {
            break;
        } else if t.is_op(";") || t.group('{').is_some() {
            return j + 1; // malformed / macro — bail
        }
        j += 1;
    }
    // Collect return-type text up to the body (or `;` for trait sigs).
    let mut ret = String::new();
    let mut saw_arrow = false;
    j += 1;
    while j < trees.len() {
        let t = &trees[j];
        if let Some(body) = t.group('{') {
            ir.fns.push(ConcFn { name: name.to_string(), line, ret, body: body.to_vec() });
            return j + 1;
        }
        if t.is_op(";") {
            return j + 1; // trait method signature without body
        }
        if saw_arrow {
            ret.push_str(&t.text());
            ret.push(' ');
        }
        if t.is_op("->") {
            saw_arrow = true;
        }
        j += 1;
    }
    j
}

/// A function's cross-call summary.
#[derive(Clone, Default, PartialEq)]
struct Summary {
    /// Lock classes the function (transitively) may acquire.
    acquires: BTreeSet<String>,
    /// First blocking operation (op name, line), if any.
    blocks: Option<(String, u32)>,
    /// Class of the guard the function returns, if it returns one.
    returns_guard: Option<String>,
    /// Whether the declared return type names a guard.
    has_guard_ret: bool,
    /// First class acquired in the body (guard-escape class inference).
    first_acq: Option<String>,
}

impl Summary {
    fn merge(&mut self, other: Summary) {
        self.acquires.extend(other.acquires);
        if self.blocks.is_none() {
            self.blocks = other.blocks;
        }
        if self.returns_guard.is_none() {
            self.returns_guard = other.returns_guard;
        }
        self.has_guard_ret |= other.has_guard_ret;
        if self.first_acq.is_none() {
            self.first_acq = other.first_acq;
        }
    }
}

/// A lock-order edge: `from` held while `to` acquired, at (file, line).
#[derive(Clone)]
struct Edge {
    from: String,
    to: String,
    file: String,
    line: u32,
}

/// Everything the final emit pass collects.
#[derive(Default)]
struct Sink {
    edges: Vec<Edge>,
    violations: Vec<Violation>,
    /// Condvar classes with at least one wait.
    cv_waits: BTreeSet<String>,
    /// (class, file, line) of each notify on a resolved condvar class.
    cv_notifies: Vec<(String, String, u32)>,
}

impl ConcLinter {
    /// Runs the analysis and applies `// sync: allow` annotations.
    #[must_use]
    pub fn run(mut self) -> Report {
        // Cross-file resolution map: fn name → its unique defining file.
        let mut by_name: HashMap<&str, BTreeSet<usize>> = HashMap::new();
        for (fi, file) in self.files.iter().enumerate() {
            for f in &file.fns {
                by_name.entry(&f.name).or_default().insert(fi);
            }
        }
        let global: HashMap<String, usize> = by_name
            .iter()
            .filter(|(name, files)| files.len() == 1 && !AMBIENT.contains(name))
            .map(|(name, files)| ((*name).to_string(), *files.iter().next().unwrap()))
            .collect();

        // Fixpoint over call summaries.
        let mut summaries: HashMap<(usize, String), Summary> = HashMap::new();
        for _ in 0..10 {
            let mut next: HashMap<(usize, String), Summary> = HashMap::new();
            for (fi, file) in self.files.iter().enumerate() {
                for f in &file.fns {
                    let mut sink = Sink::default();
                    let s =
                        walk_fn(file, fi, f, &self.files, &summaries, &global, false, &mut sink);
                    next.entry((fi, f.name.clone())).or_default().merge(s);
                }
            }
            let stable = next == summaries;
            summaries = next;
            if stable {
                break;
            }
        }

        if std::env::var("CONC_DEBUG").is_ok() {
            for ((fi, name), sum) in &summaries {
                if !sum.acquires.is_empty() {
                    eprintln!(
                        "DBG {}::{name} acquires {:?} blocks {:?}",
                        self.files[*fi].name, sum.acquires, sum.blocks
                    );
                }
            }
        }
        // Final emit pass.
        let mut sink = Sink::default();
        let mut functions = 0usize;
        for (fi, file) in self.files.iter().enumerate() {
            for f in &file.fns {
                functions += 1;
                let _ = walk_fn(file, fi, f, &self.files, &summaries, &global, true, &mut sink);
            }
        }

        // Notify-without-waiter: a condvar class someone notifies but
        // nobody anywhere waits on.
        let mut seen_notify: BTreeSet<String> = BTreeSet::new();
        for (class, file, line) in &sink.cv_notifies {
            if !sink.cv_waits.contains(class) && seen_notify.insert(class.clone()) {
                sink.violations.push(Violation {
                    file: file.clone(),
                    line: *line,
                    rule: Rule::CondvarMisuse,
                    message: format!(
                        "notify on condvar `{class}` but no `.wait()` on it anywhere in the \
                         analyzed set"
                    ),
                });
            }
        }

        // Lock-order-cycle allows sanction individual edges: remove the
        // edge and mark the allow used *before* cycle detection.
        let mut edges = sink.edges;
        edges.retain(|e| {
            for a in &mut self.allows {
                if a.rule == Rule::LockOrderCycle
                    && a.file == e.file
                    && e.line >= a.line
                    && e.line <= a.line + model::ALLOW_WINDOW
                {
                    a.used = true;
                    return false;
                }
            }
            true
        });
        // Dedup edges by (from, to), keeping the first site seen.
        let mut first: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
        for e in &edges {
            first.entry((e.from.clone(), e.to.clone())).or_insert_with(|| (e.file.clone(), e.line));
        }
        sink.violations.extend(detect_cycles(&first));

        let mut violations = sink.violations;
        violations.extend(self.pre_violations);
        model::apply_allows(&mut violations, &mut self.allows);
        Report { violations, allows: self.allows, files: self.files.len(), functions }
    }
}

/// Strongly-connected-component cycle detection (Kosaraju's two-pass
/// DFS). Every SCC with more than one class — or a single class with a
/// self-edge (re-entrant acquisition) — is a potential deadlock and
/// yields one violation listing its member classes and every
/// participating edge with the site that introduced it. Unlike a
/// zero-in-degree peel, an SCC never drags in acyclic downstream nodes.
fn detect_cycles(edges: &BTreeMap<(String, String), (String, u32)>) -> Vec<Violation> {
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    let mut fwd: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut rev: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        nodes.insert(from);
        nodes.insert(to);
        fwd.entry(from).or_default().push(to);
        rev.entry(to).or_default().push(from);
    }
    // Pass 1: forward-graph DFS recording post-order finish times.
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut order: Vec<&str> = Vec::new();
    for &root in &nodes {
        if seen.contains(root) {
            continue;
        }
        seen.insert(root);
        let mut stack = vec![(root, 0usize)];
        while let Some((node, idx)) = stack.pop() {
            let succs = fwd.get(node).map_or(&[][..], Vec::as_slice);
            if let Some(&next) = succs.get(idx) {
                stack.push((node, idx + 1));
                if seen.insert(next) {
                    stack.push((next, 0));
                }
            } else {
                order.push(node);
            }
        }
    }
    // Pass 2: reverse-graph DFS in reverse finish order labels SCCs.
    let mut comp: BTreeMap<&str, usize> = BTreeMap::new();
    let mut n_comp = 0usize;
    for &root in order.iter().rev() {
        if comp.contains_key(root) {
            continue;
        }
        comp.insert(root, n_comp);
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            for &p in rev.get(node).map_or(&[][..], Vec::as_slice) {
                if !comp.contains_key(p) {
                    comp.insert(p, n_comp);
                    stack.push(p);
                }
            }
        }
        n_comp += 1;
    }
    let mut out = Vec::new();
    for c in 0..n_comp {
        let members: Vec<&str> = nodes.iter().filter(|n| comp[*n] == c).copied().collect();
        let self_loop = members.len() == 1
            && edges.contains_key(&(members[0].to_string(), members[0].to_string()));
        if members.len() < 2 && !self_loop {
            continue;
        }
        let mut site: Option<(String, u32)> = None;
        let mut detail: Vec<String> = Vec::new();
        for ((f, t), (ef, el)) in edges {
            // Within an SCC every node reaches every other, so each
            // member-to-member edge lies on some cycle.
            if members.contains(&f.as_str()) && members.contains(&t.as_str()) {
                let here = (ef.clone(), *el);
                if site.as_ref().is_none_or(|s| here < *s) {
                    site = Some(here);
                }
                detail.push(format!("{f} -> {t} ({ef}:{el})"));
            }
        }
        let (file, line) = site.unwrap_or_default();
        out.push(Violation {
            file,
            line,
            rule: Rule::LockOrderCycle,
            message: format!(
                "inconsistent lock acquisition order creates a potential deadlock cycle among \
                 {}; edges: {}",
                members.join(", "),
                detail.join(", ")
            ),
        });
    }
    out
}

/// A lock guard currently in scope during the walk.
#[derive(Clone)]
struct Held {
    class: String,
    /// `let`-binding name, if the guard is bound (releasable by `drop`).
    binding: Option<String>,
    /// Statement temporary: dies at the next `;`.
    temp: bool,
    /// Extended scrutinee temporary (`match`/`if let`/`for`): dies at the
    /// end of the enclosing statement, not at inner `;`s.
    ext: bool,
    /// Acquisition line (where blocking-while-locked is reported).
    line: u32,
}

/// RHS binding context for a `let` statement: the first acquisition in
/// the RHS chain binds to `name` unless the chain copies out of the
/// guard (`*` prefix) or applies a non-guard-preserving postfix.
struct Bind {
    name: String,
    copy: bool,
}

struct Walker<'a> {
    file: &'a FileIr,
    fi: usize,
    summaries: &'a HashMap<(usize, String), Summary>,
    global: &'a HashMap<String, usize>,
    emit: bool,
    /// Inside a closure handed to a thread-spawn entry point: effects do
    /// not merge into the spawning function's summary.
    deferred: bool,
    sum: Summary,
    /// Per-function dedup for blocking-while-locked (one per class).
    blocked_classes: BTreeSet<String>,
}

/// Whether the postfix chain starting at `j` keeps the guard flowing to
/// the binding (only `?` and `.unwrap()`-family calls, through the end
/// of the RHS slice).
fn chain_preserves(trees: &[Tree], mut j: usize) -> bool {
    while j < trees.len() {
        if trees[j].is_op("?") {
            j += 1;
            continue;
        }
        if trees[j].is_op(".")
            && trees.get(j + 1).and_then(Tree::ident).is_some_and(|m| PRESERVE.contains(&m))
            && trees.get(j + 2).is_some_and(|g| g.group('(').is_some())
        {
            j += 3;
            continue;
        }
        return false;
    }
    true
}

/// Removes statement temporaries at positions `from..` (lets outer-scope
/// temporaries survive a nested block).
fn purge_temps(held: &mut Vec<Held>, from: usize, also_ext: bool) {
    let mut i = from.min(held.len());
    while i < held.len() {
        if held[i].temp || (also_ext && held[i].ext) {
            held.remove(i);
        } else {
            i += 1;
        }
    }
}

/// The first argument of a call: its trailing identifier (the guard name
/// for `cv.wait(st)`) and whether it is passed by reference.
fn first_arg_info(args: &[Tree]) -> (Option<String>, bool) {
    let end = args.iter().position(|t| t.is_op(",")).unwrap_or(args.len());
    let chunk = &args[..end];
    let by_ref = chunk.iter().any(|t| t.is_op("&"));
    let name =
        chunk.iter().rev().find_map(Tree::ident).filter(|n| *n != "mut").map(ToString::to_string);
    (name, by_ref)
}

impl Walker<'_> {
    /// Resolves a callee summary. Same-file definitions win, but only for
    /// calls that plausibly target this file's own impl — `self.f()`,
    /// `Self::f()`, or a bare `f()`. A method on a *foreign* receiver
    /// (`conn.stream.shutdown()`, `self.link.recv()`) must not
    /// resolve to a same-named method on the enclosing type; those fall
    /// through to cross-file resolution, which requires the name to be
    /// workspace-unique and non-ambient.
    fn resolve(&self, name: &str, local: bool) -> Option<Summary> {
        if local {
            if let Some(s) = self.summaries.get(&(self.fi, name.to_string())) {
                return Some(s.clone());
            }
        }
        let fi = *self.global.get(name)?;
        self.summaries.get(&(fi, name.to_string())).cloned()
    }

    fn note_block(&mut self, op: &str, line: u32) {
        if !self.deferred && self.sum.blocks.is_none() {
            self.sum.blocks = Some((op.to_string(), line));
        }
    }

    /// Records a blocking operation: marks the summary and, in the emit
    /// pass, reports every held guard at its acquisition site.
    fn block_violation(&mut self, sink: &mut Sink, held: &[Held], op: &str, line: u32) {
        self.note_block(op, line);
        if !self.emit {
            return;
        }
        for h in held {
            if self.blocked_classes.insert(h.class.clone()) {
                sink.violations.push(Violation {
                    file: self.file.name.clone(),
                    line: h.line,
                    rule: Rule::BlockingWhileLocked,
                    message: format!(
                        "guard for `{}` (acquired here) is held across blocking `{op}` at line \
                         {line}",
                        h.class
                    ),
                });
            }
        }
    }

    /// Records an acquisition: lock-order edges against everything held,
    /// summary update, and the new `Held` entry.
    fn acquire(
        &mut self,
        sink: &mut Sink,
        held: &mut Vec<Held>,
        class: &str,
        line: u32,
        binding: Option<String>,
    ) {
        if self.emit {
            let mut seen: BTreeSet<&str> = BTreeSet::new();
            for h in held.iter() {
                if seen.insert(&h.class) {
                    sink.edges.push(Edge {
                        from: h.class.clone(),
                        to: class.to_string(),
                        file: self.file.name.clone(),
                        line,
                    });
                }
            }
        }
        if !self.deferred {
            self.sum.acquires.insert(class.to_string());
            if self.sum.first_acq.is_none() {
                self.sum.first_acq = Some(class.to_string());
            }
        }
        let temp = binding.is_none();
        held.push(Held { class: class.to_string(), binding, temp, ext: false, line });
    }

    /// Walks a `{}` body: statements split at top-level `;`, statement
    /// temporaries dying at each boundary, block-scoped guards at exit.
    fn walk_block(&mut self, sink: &mut Sink, items: &[Tree], held: &mut Vec<Held>, depth: u32) {
        let base = held.len();
        let mut start = 0usize;
        for i in 0..=items.len() {
            if i == items.len() || items[i].is_op(";") {
                if i > start {
                    self.walk_stmt(sink, &items[start..i], held, depth);
                }
                purge_temps(held, base, false);
                start = i + 1;
            }
        }
        while held.len() > base {
            held.pop();
        }
    }

    fn walk_stmt(&mut self, sink: &mut Sink, st: &[Tree], held: &mut Vec<Held>, depth: u32) {
        let hbase = held.len();
        // Skip leading attributes.
        let mut s = 0usize;
        while s + 1 < st.len() && st[s].is_op("#") && st[s + 1].group('[').is_some() {
            s += 2;
        }
        let st = &st[s..];
        if st.is_empty() {
            return;
        }
        if st[0].ident() == Some("let") {
            self.walk_let(sink, st, held, depth);
        } else {
            let mut bind = None;
            self.walk_exprs(sink, st, held, depth, &mut bind);
        }
        // Extended scrutinee temporaries die with the statement.
        purge_temps(held, hbase, true);
    }

    /// `let [mut] name [: ty] = rhs` — binds the first guard acquired in
    /// the RHS chain to `name` when the chain preserves the guard.
    fn walk_let(&mut self, sink: &mut Sink, st: &[Tree], held: &mut Vec<Held>, depth: u32) {
        let mut i = 1usize;
        while st.get(i).and_then(Tree::ident) == Some("mut") {
            i += 1;
        }
        let name = st.get(i).and_then(Tree::ident).map(ToString::to_string);
        // Find the top-level `=` (outside generic angle brackets).
        let mut depth_angle = 0i32;
        let mut eq = None;
        for (k, t) in st.iter().enumerate().skip(i) {
            if t.is_op("<") {
                depth_angle += 1;
            } else if t.is_op(">") {
                depth_angle -= 1;
            } else if t.is_op("=") && depth_angle == 0 {
                eq = Some(k);
                break;
            }
        }
        let Some(eq) = eq else {
            // `let x;` — nothing to walk.
            return;
        };
        let rhs = &st[eq + 1..];
        if rhs.first().is_some_and(|t| t.group('{').is_some()) {
            // Block-expression RHS: an ordinary scope, binding not a guard.
            if let Some(items) = rhs[0].group('{') {
                self.walk_block(sink, items, held, depth);
            }
            let mut bind = None;
            self.walk_exprs(sink, &rhs[1..], held, depth, &mut bind);
            return;
        }
        let copy = rhs.first().is_some_and(|t| t.is_op("*"));
        let mut bind = name.map(|name| Bind { name, copy });
        self.walk_exprs(sink, rhs, held, depth, &mut bind);
    }
}

impl Walker<'_> {
    /// Linear expression walk: keyword-aware (conditions, loops, match
    /// scrutinees), with calls dispatched through [`Walker::handle_call`].
    fn walk_exprs(
        &mut self,
        sink: &mut Sink,
        trees: &[Tree],
        held: &mut Vec<Held>,
        depth: u32,
        bind: &mut Option<Bind>,
    ) {
        // (keyword, held base at keyword, scrutinee-extends-into-body)
        let mut cond: Option<(&'static str, usize, bool)> = None;
        let mut pending_loop = false;
        let mut i = 0usize;
        while i < trees.len() {
            let t = &trees[i];
            if let Some(id) = t.ident() {
                // A call or acquisition: `id(…)` or `recv.id(…)`.
                if trees.get(i + 1).is_some_and(|g| g.group('(').is_some()) {
                    let consumed = self.handle_call(sink, trees, i, held, depth, bind);
                    i += consumed;
                    continue;
                }
                match id {
                    "if" => cond = Some(("if", held.len(), false)),
                    "while" => cond = Some(("while", held.len(), false)),
                    "for" => cond = Some(("for", held.len(), true)),
                    "match" => cond = Some(("match", held.len(), true)),
                    "loop" => pending_loop = true,
                    "let" => {
                        if let Some(c) = cond.as_mut() {
                            c.2 = true; // `if let` / `while let`
                        }
                    }
                    _ => {}
                }
                i += 1;
                continue;
            }
            if let Some(items) = t.group('{') {
                let looped = pending_loop || matches!(cond, Some(("while" | "for", _, _)));
                let d = depth + u32::from(looped);
                if let Some((kw, base, extends)) = cond.take() {
                    if extends {
                        // Scrutinee temporaries live through the construct.
                        for h in held.iter_mut().skip(base) {
                            if h.temp {
                                h.temp = false;
                                h.ext = true;
                            }
                        }
                    } else {
                        // Plain `if`/`while` condition temporaries die at `{`.
                        purge_temps(held, base, false);
                    }
                    if kw == "match" {
                        // Arms are comma-separated expressions, not statements.
                        let mut none = None;
                        self.walk_exprs(sink, items, held, depth, &mut none);
                    } else {
                        self.walk_block(sink, items, held, d);
                    }
                } else {
                    self.walk_block(sink, items, held, d);
                }
                pending_loop = false;
                i += 1;
                continue;
            }
            if let Some(items) = t.group('(').or_else(|| t.group('[')) {
                let mut none = None;
                self.walk_exprs(sink, items, held, depth, &mut none);
            }
            i += 1;
        }
    }

    /// Handles `id(…)` / `recv.id(…)` at `trees[i]`; returns how many
    /// top-level trees were consumed (identifier + argument group).
    #[allow(clippy::too_many_lines)]
    fn handle_call(
        &mut self,
        sink: &mut Sink,
        trees: &[Tree],
        i: usize,
        held: &mut Vec<Held>,
        depth: u32,
        bind: &mut Option<Bind>,
    ) -> usize {
        let id = trees[i].ident().unwrap_or_default().to_string();
        let id = id.as_str();
        let args = trees[i + 1].group('(').unwrap_or(&[]);
        let line = trees[i + 1].line();
        let is_method = i >= 1 && trees[i - 1].is_op(".");
        let recv = if is_method && i >= 2 { trees[i - 2].ident() } else { None };

        // 1. Lock acquisition on a registered lock field.
        if matches!(id, "lock" | "read" | "write") && is_method {
            if let Some(class) = recv.and_then(|r| self.file.lock_fields.get(r)).cloned() {
                if args.is_empty() {
                    let binding = bind
                        .take()
                        .and_then(|b| (!b.copy && chain_preserves(trees, i + 2)).then_some(b.name));
                    self.acquire(sink, held, &class, line, binding);
                    return 2;
                }
                if id == "read" {
                    // `.read(buf)` on something that shadows a lock field
                    // is I/O, not an acquisition.
                    self.block_violation(sink, held, "read", line);
                    return 2;
                }
                return 2;
            }
        }

        // 2. Condvar wait: removes the waited guard from the effective
        // held set, flags foreign guards and non-loop waits.
        if matches!(id, "wait" | "wait_timeout") && is_method {
            let cv_class = recv.and_then(|r| self.file.cv_fields.get(r)).cloned();
            let (guard, by_ref) = first_arg_info(args);
            let idx = guard
                .as_deref()
                .and_then(|g| held.iter().position(|h| h.binding.as_deref() == Some(g)));
            if cv_class.is_some() || idx.is_some() {
                self.note_block("Condvar::wait", line);
                let removed = idx.map(|k| held.remove(k));
                if !held.is_empty() {
                    self.block_violation(sink, held, "Condvar::wait", line);
                }
                if depth == 0 && self.emit {
                    sink.violations.push(Violation {
                        file: self.file.name.clone(),
                        line,
                        rule: Rule::CondvarMisuse,
                        message: "`Condvar::wait` outside a predicate loop — spurious wakeups \
                                  make the awaited condition unreliable"
                            .to_string(),
                    });
                }
                if let Some(c) = cv_class {
                    sink.cv_waits.insert(c);
                }
                if let Some(mut e) = removed {
                    // By-value waits rebind the returned guard; by-ref
                    // waits leave it in place under its old name.
                    if !by_ref {
                        if let Some(b) = bind.take() {
                            e.binding = Some(b.name);
                        }
                    }
                    held.push(e);
                }
                return 2;
            }
            // An unresolved `wait` (e.g. `Child::wait`) still blocks.
            self.block_violation(sink, held, id, line);
            return 2;
        }

        // 3. Condvar notify bookkeeping.
        if matches!(id, "notify_one" | "notify_all") && is_method {
            if let Some(class) = recv.and_then(|r| self.file.cv_fields.get(r)).cloned() {
                sink.cv_notifies.push((class, self.file.name.clone(), line));
            }
            return 2;
        }

        // 4. Known blocking operations. `join` only blocks with no
        // arguments (a thread handle) — `slice::join(sep)` is formatting.
        if BLOCKING.contains(&id) && (id != "join" || args.is_empty()) {
            self.block_violation(sink, held, id, line);
            let mut none = None;
            self.walk_exprs(sink, args, held, depth, &mut none);
            return 2;
        }

        // 5. `drop(guard)` releases a bound guard.
        if id == "drop" && !is_method {
            if let Some(name) = (args.len() == 1).then(|| args[0].ident()).flatten() {
                held.retain(|h| h.binding.as_deref() != Some(name));
                return 2;
            }
        }

        // 6. Thread-spawn entry points: the closure runs elsewhere, with
        // no inherited lock context; effects stay out of this summary.
        if DEFERRED.contains(&id) {
            let saved = self.deferred;
            self.deferred = true;
            let mut empty = Vec::new();
            let mut none = None;
            self.walk_exprs(sink, args, &mut empty, 0, &mut none);
            self.deferred = saved;
            return 2;
        }

        // 7. Resolved call: propagate the callee summary; closure args
        // are walked as if running under the callee's locks.
        let local = !is_method || recv == Some("self");
        if let Some(s) = self.resolve(id, local) {
            if self.emit && !held.is_empty() {
                let mut seen: BTreeSet<&str> = BTreeSet::new();
                for h in held.iter() {
                    if !seen.insert(&h.class) {
                        continue;
                    }
                    for a in &s.acquires {
                        sink.edges.push(Edge {
                            from: h.class.clone(),
                            to: a.clone(),
                            file: self.file.name.clone(),
                            line,
                        });
                    }
                }
                if let Some((op, _)) = &s.blocks {
                    let op = format!("{op} (via `{id}`)");
                    self.block_violation(sink, held, &op, line);
                }
            }
            if !self.deferred {
                self.sum.acquires.extend(s.acquires.iter().cloned());
                if self.sum.blocks.is_none() {
                    self.sum.blocks.clone_from(&s.blocks);
                }
            }
            if let Some(class) = &s.returns_guard {
                let binding = bind
                    .take()
                    .and_then(|b| (!b.copy && chain_preserves(trees, i + 2)).then_some(b.name));
                self.acquire(sink, held, &class.clone(), line, binding);
            }
            // Closure arguments may run while the callee holds its locks.
            let base = held.len();
            for a in &s.acquires {
                held.push(Held { class: a.clone(), binding: None, temp: true, ext: false, line });
            }
            let mut none = None;
            self.walk_exprs(sink, args, held, depth, &mut none);
            held.truncate(base);
            return 2;
        }

        // 8. Unresolved call: just walk the arguments.
        let mut none = None;
        self.walk_exprs(sink, args, held, depth, &mut none);
        2
    }
}

/// Analyzes one function, emitting into `sink` when `emit` is set, and
/// returns its summary.
#[allow(clippy::too_many_arguments)]
fn walk_fn(
    file: &FileIr,
    fi: usize,
    f: &ConcFn,
    _files: &[FileIr],
    summaries: &HashMap<(usize, String), Summary>,
    global: &HashMap<String, usize>,
    emit: bool,
    sink: &mut Sink,
) -> Summary {
    let mut w = Walker {
        file,
        fi,
        summaries,
        global,
        emit,
        deferred: false,
        sum: Summary::default(),
        blocked_classes: BTreeSet::new(),
    };
    if ["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"].iter().any(|g| f.ret.contains(g)) {
        w.sum.has_guard_ret = true;
        if emit {
            sink.violations.push(Violation {
                file: file.name.clone(),
                line: f.line,
                rule: Rule::GuardEscape,
                message: format!(
                    "`{}` returns a lock guard — the critical section escapes its acquiring \
                     function",
                    f.name
                ),
            });
        }
    }
    let mut held = Vec::new();
    w.walk_block(sink, &f.body, &mut held, 0);
    if w.sum.has_guard_ret && w.sum.returns_guard.is_none() {
        w.sum.returns_guard.clone_from(&w.sum.first_acq);
    }
    w.sum
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Report {
        let mut l = ConcLinter::new();
        l.add_file("t.rs", src);
        l.run()
    }

    fn rules(r: &Report) -> Vec<&'static str> {
        r.violations.iter().map(|v| v.rule.name()).collect()
    }

    const PAIR: &str = "struct S { a: Mutex<u64>, b: Mutex<u64> }\n";

    #[test]
    fn consistent_order_is_clean() {
        let src = format!(
            "{PAIR}impl S {{\n fn f(&self) {{ let x = self.a.lock(); let y = self.b.lock(); }}\n \
             fn g(&self) {{ let x = self.a.lock(); let y = self.b.lock(); }}\n}}"
        );
        let r = lint(&src);
        assert!(r.is_clean(), "{:?}", r.violations);
    }

    #[test]
    fn inverted_order_is_a_cycle() {
        let src = format!(
            "{PAIR}impl S {{\n fn f(&self) {{ let x = self.a.lock(); let y = self.b.lock(); }}\n \
             fn g(&self) {{ let y = self.b.lock(); let x = self.a.lock(); }}\n}}"
        );
        let r = lint(&src);
        assert_eq!(rules(&r), vec!["lock-order-cycle"], "{:?}", r.violations);
        assert!(r.violations[0].message.contains("t.a"));
    }

    #[test]
    fn cycle_through_call_summary() {
        // f holds a and calls h (which locks b); g inverts directly.
        let src = format!(
            "{PAIR}impl S {{\n fn f(&self) {{ let x = self.a.lock(); self.h(); }}\n \
             fn h(&self) {{ let y = self.b.lock(); }}\n \
             fn g(&self) {{ let y = self.b.lock(); let x = self.a.lock(); }}\n}}"
        );
        let r = lint(&src);
        assert_eq!(rules(&r), vec!["lock-order-cycle"], "{:?}", r.violations);
    }

    #[test]
    fn drop_releases_before_blocking() {
        let src = format!(
            "{PAIR}impl S {{\n fn f(&self, ep: &E) {{ let g = self.a.lock(); drop(g); \
             ep.send(1); }}\n}}"
        );
        let r = lint(&src);
        assert!(r.is_clean(), "{:?}", r.violations);
    }

    #[test]
    fn blocking_propagates_through_callee() {
        let src = format!(
            "{PAIR}impl S {{\n fn slow(&self) {{ std::thread::sleep(d); }}\n \
             fn f(&self) {{ let g = self.a.lock(); self.slow(); }}\n}}"
        );
        let r = lint(&src);
        assert_eq!(rules(&r), vec!["blocking-while-locked"], "{:?}", r.violations);
    }

    #[test]
    fn spawned_closures_run_without_inherited_locks() {
        // The guard is held at the spawn call, but the closure runs on
        // another thread: no blocking-while-locked, and the closure's
        // lock does not leak into the caller's summary.
        let src = format!(
            "{PAIR}impl S {{\n fn f(&self, w: &W) {{ let g = self.a.lock(); \
             w.spawn(move || {{ std::thread::sleep(d); let y = self.b.lock(); }}); }}\n}}"
        );
        let r = lint(&src);
        assert!(r.is_clean(), "{:?}", r.violations);
    }

    #[test]
    fn statement_temp_does_not_pin_the_lock() {
        let src = format!(
            "{PAIR}impl S {{\n fn f(&self, ep: &E) {{ let n = *self.a.lock(); ep.send(n); }}\n}}"
        );
        let r = lint(&src);
        assert!(r.is_clean(), "{:?}", r.violations);
    }

    #[test]
    fn guard_escape_and_caller_tracking() {
        // `lock()` escapes a guard; `f` uses it and blocks while held.
        let src = format!(
            "{PAIR}impl S {{\n fn lock(&self) -> MutexGuard<u64> {{ self.a.lock() }}\n \
             fn f(&self, ep: &E) {{ let g = self.lock(); ep.send(1); }}\n}}"
        );
        let r = lint(&src);
        let rs = rules(&r);
        assert!(rs.contains(&"guard-escape"), "{:?}", r.violations);
        assert!(rs.contains(&"blocking-while-locked"), "{:?}", r.violations);
    }

    #[test]
    fn test_modules_are_skipped() {
        let src = format!(
            "{PAIR}#[cfg(test)]\nmod tests {{\n fn f(s: &S, ep: &E) {{ let g = s.a.lock(); \
             ep.send(1); }}\n}}"
        );
        let r = lint(&src);
        assert!(r.is_clean(), "{:?}", r.violations);
    }

    #[test]
    fn allow_suppresses_and_unused_allow_fires() {
        let src = format!(
            "{PAIR}impl S {{\n fn f(&self, ep: &E) {{\n \
             // sync: allow(blocking-while-locked, \"handoff by design\")\n \
             let g = self.a.lock(); ep.send(1); }}\n \
             // sync: allow(guard-escape, \"nothing here\")\n fn g(&self) {{}}\n}}"
        );
        let r = lint(&src);
        assert_eq!(rules(&r), vec!["unused-allow"], "{:?}", r.violations);
        assert!(r.allows.iter().any(|a| a.used));
    }
}
