//! The invariant lints and the token-pattern machinery they share.
//!
//! Each lint guards a contract the test suites can only probe pointwise:
//!
//! * [`Lint::CostSheet`] — every `CostSheet`/`mpi_ns` field mutation goes
//!   through the charge helpers, so cost-only execution cannot drift from
//!   functional runs (PR 7's bit-identical guarantee).
//! * [`Lint::PeChokePoint`] — no raw `slice_mut` writes to PE MRAM
//!   outside `pe.rs`, so the fault layer's single-hook claim (PR 6) stays
//!   sound.
//! * [`Lint::WallClock`] / [`Lint::MapIteration`] — no wall-clock reads
//!   or hash-order iteration in modeled-time code, so `CommReport` times
//!   stay bit-identical at any thread count.
//! * [`Lint::HotAlloc`] — no allocation inside the marked per-PE kernel
//!   regions (PR 4's allocation-free contract).
//! * [`Lint::UnsafeAudit`] — every `unsafe` carries a `// SAFETY:`
//!   comment and appears in the committed allowlist.
//!
//! Suppression is only possible through an explicit, reasoned
//! `// simlint: allow(<lint>, reason = "...")` directive on the offending
//! line or the line above; the tool counts and reports every directive so
//! escape hatches stay visible debt rather than silent holes.

use crate::lexer::{lex, Comment, Lexed, Tok, TokKind};

/// The lint identifiers. `Directive` covers problems with `// simlint:`
/// comments themselves (unknown lint names, missing reasons, unbalanced
/// hot markers) and is not suppressible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lint {
    CostSheet,
    PeChokePoint,
    WallClock,
    MapIteration,
    HotAlloc,
    UnsafeAudit,
    Directive,
}

impl Lint {
    pub const ALL: [Lint; 6] = [
        Lint::CostSheet,
        Lint::PeChokePoint,
        Lint::WallClock,
        Lint::MapIteration,
        Lint::HotAlloc,
        Lint::UnsafeAudit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Lint::CostSheet => "cost-sheet",
            Lint::PeChokePoint => "pe-choke-point",
            Lint::WallClock => "wall-clock",
            Lint::MapIteration => "map-iteration",
            Lint::HotAlloc => "hot-alloc",
            Lint::UnsafeAudit => "unsafe-audit",
            Lint::Directive => "directive",
        }
    }

    pub fn from_name(s: &str) -> Option<Lint> {
        Lint::ALL.iter().copied().find(|l| l.name() == s)
    }

    /// The `--explain` text: the contract, where it came from, and the
    /// escape-hatch policy.
    pub fn explain(self) -> &'static str {
        match self {
            Lint::CostSheet => {
                "\
cost-sheet: CostSheet and mpi_ns fields may only be mutated inside
crates/core/src/engine/{sheet.rs,streaming.rs,baseline.rs} — the charge
helpers both the functional and the cost-only execution paths share.

Contract (PR 7): `CollectivePlan::execute_cost_only` replays the exact
integer tallies a functional run produces, so modeled times are
bit-identical by construction. A field bump anywhere else is invisible to
the cost-only path and silently splits the two.

Any other charge site (the verified-execution recovery counters, the
multi-host per-step charges) must carry
`// simlint: allow(cost-sheet, reason = \"...\")` explaining why the
cost-only path cannot miss it."
            }
            Lint::PeChokePoint => {
                "\
pe-choke-point: `slice_mut` — the raw mutable window into PE MRAM — may
only be called inside crates/sim/src/pe.rs. All transport writes must
land through `Pe::write`/`write_checked` or the typed-view encoders.

Contract (PR 6): the fault layer injects and verifies at the single
`Pe::write` choke point. A raw `slice_mut` write elsewhere is invisible
to injection and read-after-write verification, quietly shrinking the
chaos suite's coverage.

PE-local compute that fills freshly-staged scratch (not transport) may
opt out with `// simlint: allow(pe-choke-point, reason = \"...\")`."
            }
            Lint::WallClock => {
                "\
wall-clock: `Instant::now`, `SystemTime` and `thread::current` are
forbidden in modeled-time code (crates/{core,sim,apps}/src).

Contract (PR 1): modeled `CommReport` times are a pure function of the
configuration — bit-identical at any thread count, on any machine. One
wall-clock read in an engine path destroys reproducibility in a way the
determinism suites only catch for the configurations they enumerate.
Benchmark harnesses (crates/bench) time walls legitimately and are out
of scope."
            }
            Lint::MapIteration => {
                "\
map-iteration: iterating a HashMap/HashSet (`iter`, `keys`, `values`,
`drain`, `retain`, `into_iter`, or a `for` loop) is forbidden in
crates/{core,sim}/src — hash iteration order is randomized across
processes, so any schedule, plan or report built from it diverges
between runs. Keyed lookup (`get`, `entry`, indexing) is fine.

Fix: iterate a sorted key list, or use BTreeMap/BTreeSet. A provably
order-independent iteration (e.g. a min over unique keys) may carry
`// simlint: allow(map-iteration, reason = \"...\")`."
            }
            Lint::HotAlloc => {
                "\
hot-alloc: `Vec::new`, `vec![]`, `.collect()`, `Box::new` and
`.to_vec()` are forbidden between `// simlint: hot(begin)` and
`// simlint: hot(end)` markers — the per-PE kernel regions of
crates/sim/src/kernels.rs and the apps' `par_pes` closures.

Contract (PR 4): the per-element kernels and the apps' per-PE loops are
allocation-free in steady state; per-worker scratch comes from
`par_pes_with` init closures (which sit *outside* the markers).
An allocation inside the marked region runs once per PE per iteration:
a staging `Vec` per PE per layer, where a reused buffer costs nothing."
            }
            Lint::UnsafeAudit => {
                "\
unsafe-audit: every `unsafe` must (a) carry a `// SAFETY:` comment on
the same line or within the five lines above, and (b) appear in the
committed allowlist crates/lint/unsafe_allowlist.txt (`<path-suffix>
<max-count>` per line).

The workspace currently has zero unsafe blocks and
`#![forbid(unsafe_code)]` in every crate but pim_sim; pim_sim is the
designated home for any future unsafe lane-decode fast path, and this
lint makes each one a reviewed, documented, counted event — the audit
trail the nightly Miri/TSan lane builds on."
            }
            Lint::Directive => {
                "\
directive: `// simlint:` comments must parse. Supported forms:
  // simlint: allow(<lint>, reason = \"...\")   (reason is mandatory)
  // simlint: hot(begin[, <label>])
  // simlint: hot(end)
An allow suppresses matching diagnostics on its own line and the next
line only. Unknown lint names, missing reasons and unbalanced hot
markers are errors; an allow that suppresses nothing is a warning."
            }
        }
    }
}

/// One diagnostic. `Error` fails the run; `Warning` is reported only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diag {
    pub lint: Lint,
    pub severity: Severity,
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub msg: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warning,
}

impl std::fmt::Display for Diag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        writeln!(f, "{sev}[simlint::{}]: {}", self.lint.name(), self.msg)?;
        write!(f, "  --> {}:{}:{}", self.path, self.line, self.col)
    }
}

/// One `// simlint: allow(...)` directive that was actually exercised.
#[derive(Debug, Clone)]
pub struct AllowUse {
    pub lint: Lint,
    pub path: String,
    pub line: u32,
    pub reason: String,
    /// How many diagnostics it suppressed.
    pub suppressed: u32,
}

/// The unsafe allowlist: `(path suffix, max unsafe occurrences)` rows.
#[derive(Debug, Clone, Default)]
pub struct UnsafeAllowlist {
    pub entries: Vec<(String, usize)>,
}

impl UnsafeAllowlist {
    /// Parses the committed allowlist format: one `<path-suffix> <count>`
    /// per line, `#` comments and blank lines ignored.
    pub fn parse(text: &str) -> Self {
        let mut entries = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.split_whitespace();
            if let (Some(p), Some(n)) = (it.next(), it.next()) {
                if let Ok(n) = n.parse::<usize>() {
                    entries.push((p.to_string(), n));
                }
            }
        }
        Self { entries }
    }

    fn budget_for(&self, path: &str) -> Option<usize> {
        self.entries
            .iter()
            .find(|(suffix, _)| path.ends_with(suffix.as_str()))
            .map(|&(_, n)| n)
    }
}

/// The outcome of linting one file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    pub diags: Vec<Diag>,
    pub allows: Vec<AllowUse>,
}

// ---- directives -----------------------------------------------------------

#[derive(Debug)]
enum DirectiveKind {
    Allow { lint: Lint, reason: String },
    HotBegin,
    HotEnd,
}

#[derive(Debug)]
struct Directive {
    kind: DirectiveKind,
    line: u32,
    col: u32,
}

/// Parses `// simlint:` directives out of the comment table. Malformed
/// directives become `Directive` error diagnostics — a typo'd suppression
/// must fail loudly, not silently stop suppressing.
fn parse_directives(comments: &[Comment], path: &str, diags: &mut Vec<Diag>) -> Vec<Directive> {
    let mut out = Vec::new();
    for c in comments {
        let text = c.text.trim();
        let Some(rest) = text.strip_prefix("simlint:") else {
            continue;
        };
        let rest = rest.trim();
        let mut bad = |msg: String| {
            diags.push(Diag {
                lint: Lint::Directive,
                severity: Severity::Error,
                path: path.to_string(),
                line: c.line,
                col: c.col,
                msg,
            });
        };
        if let Some(args) = rest
            .strip_prefix("allow(")
            .and_then(|r| r.strip_suffix(')'))
        {
            let (name, tail) = match args.split_once(',') {
                Some((n, t)) => (n.trim(), t.trim()),
                None => (args.trim(), ""),
            };
            let Some(lint) = Lint::from_name(name) else {
                bad(format!(
                    "unknown lint {name:?} in allow directive (known: {})",
                    Lint::ALL.map(|l| l.name()).join(", ")
                ));
                continue;
            };
            let reason = tail
                .strip_prefix("reason")
                .map(|r| r.trim_start())
                .and_then(|r| r.strip_prefix('='))
                .map(|r| r.trim().trim_matches('"').to_string())
                .filter(|r| !r.is_empty());
            let Some(reason) = reason else {
                bad(format!(
                    "allow({name}) needs a reason: `// simlint: allow({name}, reason = \"...\")`"
                ));
                continue;
            };
            out.push(Directive {
                kind: DirectiveKind::Allow { lint, reason },
                line: c.line,
                col: c.col,
            });
        } else if let Some(args) = rest.strip_prefix("hot(").and_then(|r| r.strip_suffix(')')) {
            let head = args.split(',').next().unwrap_or("").trim();
            match head {
                "begin" => out.push(Directive {
                    kind: DirectiveKind::HotBegin,
                    line: c.line,
                    col: c.col,
                }),
                "end" => out.push(Directive {
                    kind: DirectiveKind::HotEnd,
                    line: c.line,
                    col: c.col,
                }),
                other => bad(format!(
                    "hot({other}) — expected hot(begin[, label]) or hot(end)"
                )),
            }
        } else {
            bad(format!(
                "unrecognized simlint directive {rest:?} (expected allow(...) or hot(...))"
            ));
        }
    }
    out
}

// ---- token pattern helpers ------------------------------------------------

fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(toks: &[Tok], i: usize, c: char) -> bool {
    matches!(toks.get(i).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c)
}

/// Whether `toks[i..]` starts with `::` (two adjacent colons).
fn path_sep_at(toks: &[Tok], i: usize) -> bool {
    punct_at(toks, i, ':') && punct_at(toks, i + 1, ':')
}

/// Skips a balanced bracket run starting at `toks[i]` (which must be the
/// opening bracket); returns the index just past the closing bracket.
fn skip_balanced(toks: &[Tok], i: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while let Some(t) = toks.get(j) {
        match t.kind {
            TokKind::Punct(c) if c == open => depth += 1,
            TokKind::Punct(c) if c == close => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Token index ranges covered by `#[cfg(test)] mod <name> { ... }` blocks:
/// in-file unit tests exercise invariants deliberately (constructing raw
/// sheets, poking fields) and run under the normal test suite, so the
/// source lints skip them. The unsafe audit does not (see `run_lints`).
fn cfg_test_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let is_cfg_test = punct_at(toks, i, '#')
            && punct_at(toks, i + 1, '[')
            && ident_at(toks, i + 2) == Some("cfg")
            && punct_at(toks, i + 3, '(')
            && ident_at(toks, i + 4) == Some("test")
            && punct_at(toks, i + 5, ')')
            && punct_at(toks, i + 6, ']');
        if is_cfg_test && ident_at(toks, i + 7) == Some("mod") {
            // Find the module's opening brace, then skip to its close.
            let mut j = i + 8;
            while j < toks.len() && !punct_at(toks, j, '{') {
                j += 1;
            }
            let end = skip_balanced(toks, j, '{', '}');
            out.push((i, end));
            i = end;
        } else {
            i += 1;
        }
    }
    out
}

// ---- per-file policy ------------------------------------------------------

/// Where each lint applies, decided from the workspace-relative path (or,
/// for fixtures, any path whose *suffix* mirrors a workspace path).
struct Policy {
    cost_sheet: bool,
    pe_choke_point: bool,
    wall_clock: bool,
    map_iteration: bool,
}

fn policy_for(path: &str) -> Policy {
    let ends = |s: &str| path.ends_with(s);
    let contains = |s: &str| path.contains(s);
    Policy {
        // The three charge-helper homes are the only places CostSheet
        // fields may move without a reasoned allow.
        cost_sheet: !(ends("crates/core/src/engine/sheet.rs")
            || ends("crates/core/src/engine/streaming.rs")
            || ends("crates/core/src/engine/baseline.rs")),
        pe_choke_point: !ends("crates/sim/src/pe.rs"),
        wall_clock: contains("crates/core/src")
            || contains("crates/sim/src")
            || contains("crates/apps/src"),
        map_iteration: contains("crates/core/src") || contains("crates/sim/src"),
    }
}

/// `CostSheet` tally fields plus the multi-host `mpi_ns` charge — the
/// full set of counters whose mutation sites the cost-only replay must
/// mirror exactly.
const SHEET_FIELDS: [&str; 14] = [
    "bulk_bytes",
    "streamed_bytes",
    "dt_blocks",
    "shuffle_blocks",
    "reduce_blocks",
    "stream_bytes",
    "scatter_bytes",
    "reduce_mem_bytes",
    "transfer_phases",
    "recovery_retries",
    "recovery_bytes",
    "recovery_checkpoint_bytes",
    "recovery_backoff",
    "mpi_ns",
];

const MAP_ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

// ---- the lint passes ------------------------------------------------------

/// Lints one file. `path` is used both for diagnostics and for policy
/// (matched by suffix/substring, so fixture trees that mirror workspace
/// paths get workspace policy).
pub fn lint_file(path: &str, src: &str, allowlist: &UnsafeAllowlist) -> FileOutcome {
    let lexed = lex(src);
    let mut diags = Vec::new();
    let directives = parse_directives(&lexed.comments, path, &mut diags);
    let hot_regions = hot_regions(&directives, path, &mut diags);
    run_lints(path, &lexed, &hot_regions, allowlist, &mut diags);
    apply_allows(path, &directives, diags)
}

/// Resolves hot(begin)/hot(end) pairs into line ranges, flagging
/// imbalance.
fn hot_regions(directives: &[Directive], path: &str, diags: &mut Vec<Diag>) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut open: Option<u32> = None;
    for d in directives {
        match d.kind {
            DirectiveKind::HotBegin => {
                if let Some(begin) = open {
                    diags.push(Diag {
                        lint: Lint::Directive,
                        severity: Severity::Error,
                        path: path.to_string(),
                        line: d.line,
                        col: d.col,
                        msg: format!("hot(begin) while the region from line {begin} is still open"),
                    });
                }
                open = Some(d.line);
            }
            DirectiveKind::HotEnd => match open.take() {
                Some(begin) => out.push((begin, d.line)),
                None => diags.push(Diag {
                    lint: Lint::Directive,
                    severity: Severity::Error,
                    path: path.to_string(),
                    line: d.line,
                    col: d.col,
                    msg: "hot(end) without a matching hot(begin)".to_string(),
                }),
            },
            DirectiveKind::Allow { .. } => {}
        }
    }
    if let Some(begin) = open {
        diags.push(Diag {
            lint: Lint::Directive,
            severity: Severity::Error,
            path: path.to_string(),
            line: begin,
            col: 1,
            msg: "hot(begin) never closed by hot(end)".to_string(),
        });
    }
    out
}

fn run_lints(
    path: &str,
    lexed: &Lexed,
    hot_regions: &[(u32, u32)],
    allowlist: &UnsafeAllowlist,
    diags: &mut Vec<Diag>,
) {
    let toks = &lexed.toks;
    let policy = policy_for(path);
    let test_ranges = cfg_test_ranges(toks);
    let in_tests = |i: usize| test_ranges.iter().any(|&(a, b)| i >= a && i < b);
    let in_hot = |line: u32| hot_regions.iter().any(|&(a, b)| line > a && line < b);
    let mut push = |lint: Lint, t: &Tok, msg: String| {
        diags.push(Diag {
            lint,
            severity: Severity::Error,
            path: path.to_string(),
            line: t.line,
            col: t.col,
            msg,
        });
    };

    // Pass 0 (map-iteration): collect identifiers bound to HashMap/HashSet
    // in this file — field declarations (`name: HashMap<..>`) and let
    // bindings (`let mut name = HashMap::new()`), optionally path-prefixed.
    let mut map_names: Vec<String> = Vec::new();
    if policy.map_iteration {
        for i in 0..toks.len() {
            let Some(name) = ident_at(toks, i) else {
                continue;
            };
            if name == "HashMap" || name == "HashSet" {
                // Walk back over a path prefix (`std :: collections ::`).
                let mut j = i;
                while j >= 2 && path_sep_at(toks, j - 2) {
                    j = j.saturating_sub(3);
                    while j > 0 && !matches!(toks[j].kind, TokKind::Ident(_)) {
                        j -= 1;
                    }
                }
                // `bound : [path] HashMap` (field/param/ascription)...
                if j >= 2 && punct_at(toks, j - 1, ':') && !punct_at(toks, j - 2, ':') {
                    if let Some(bound) = ident_at(toks, j - 2) {
                        map_names.push(bound.to_string());
                    }
                }
                // ...or `let [mut] bound = [path] HashMap`.
                if j >= 2 && punct_at(toks, j - 1, '=') {
                    if let Some(bound) = ident_at(toks, j - 2) {
                        if bound != "=" {
                            map_names.push(bound.to_string());
                        }
                    }
                }
            }
        }
        map_names.sort();
        map_names.dedup();
    }

    let mut unsafe_count = 0usize;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        let skip_tests_here = in_tests(i);

        // L5 unsafe-audit: applies everywhere, tests included — Miri and
        // TSan audit test code too, and a SAFETY comment costs nothing.
        if ident_at(toks, i) == Some("unsafe") {
            unsafe_count += 1;
            let documented = lexed
                .comments
                .iter()
                .any(|c| c.text.contains("SAFETY:") && c.line <= t.line && t.line - c.line <= 5);
            if !documented {
                push(
                    Lint::UnsafeAudit,
                    t,
                    "`unsafe` without a `// SAFETY:` comment on the same line or the 5 lines above"
                        .to_string(),
                );
            }
            match allowlist.budget_for(path) {
                None => push(
                    Lint::UnsafeAudit,
                    t,
                    "file not in crates/lint/unsafe_allowlist.txt; add `<path> <count>` there \
                     to register this unsafe block for audit"
                        .to_string(),
                ),
                Some(budget) if unsafe_count > budget => push(
                    Lint::UnsafeAudit,
                    t,
                    format!(
                        "unsafe occurrence #{unsafe_count} exceeds the allowlisted budget of \
                         {budget} for this file; raise the budget deliberately in \
                         crates/lint/unsafe_allowlist.txt"
                    ),
                ),
                Some(_) => {}
            }
        }

        if skip_tests_here {
            i += 1;
            continue;
        }

        // L1 cost-sheet: `.field` followed by an assignment operator.
        if policy.cost_sheet && punct_at(toks, i, '.') {
            if let Some(field) = ident_at(toks, i + 1) {
                if SHEET_FIELDS.contains(&field) {
                    let mut j = i + 2;
                    if punct_at(toks, j, '[') {
                        j = skip_balanced(toks, j, '[', ']');
                    }
                    if is_assignment_op(toks, j) {
                        push(
                            Lint::CostSheet,
                            &toks[i + 1],
                            format!(
                                "direct mutation of cost field `{field}` outside the engine \
                                 charge helpers (sheet.rs/streaming.rs/baseline.rs); route the \
                                 charge through a helper the cost-only path replays"
                            ),
                        );
                    }
                }
            }
        }

        // L2 pe-choke-point: any `slice_mut(` call outside pe.rs.
        if policy.pe_choke_point
            && ident_at(toks, i) == Some("slice_mut")
            && punct_at(toks, i + 1, '(')
        {
            push(
                Lint::PeChokePoint,
                t,
                "raw `slice_mut` write outside crates/sim/src/pe.rs bypasses the Pe::write \
                 fault/verification choke point"
                    .to_string(),
            );
        }

        // L3a wall-clock.
        if policy.wall_clock {
            if ident_at(toks, i) == Some("Instant")
                && path_sep_at(toks, i + 1)
                && ident_at(toks, i + 3) == Some("now")
            {
                push(
                    Lint::WallClock,
                    t,
                    "Instant::now() in modeled-time code; modeled results must be a pure \
                     function of the configuration"
                        .to_string(),
                );
            }
            if ident_at(toks, i) == Some("SystemTime") {
                push(
                    Lint::WallClock,
                    t,
                    "SystemTime in modeled-time code; modeled results must be a pure function \
                     of the configuration"
                        .to_string(),
                );
            }
            if ident_at(toks, i) == Some("thread")
                && path_sep_at(toks, i + 1)
                && ident_at(toks, i + 3) == Some("current")
            {
                push(
                    Lint::WallClock,
                    t,
                    "thread::current() in modeled-time code; results must not depend on which \
                     thread runs them"
                        .to_string(),
                );
            }
        }

        // L3b map-iteration: `name.iter()`-family calls and `for .. in`
        // loops over a known map binding.
        if policy.map_iteration {
            if let Some(name) = ident_at(toks, i) {
                if map_names.iter().any(|m| m == name)
                    && punct_at(toks, i + 1, '.')
                    && ident_at(toks, i + 2).is_some_and(|m| MAP_ITER_METHODS.contains(&m))
                    && punct_at(toks, i + 3, '(')
                {
                    push(
                        Lint::MapIteration,
                        t,
                        format!(
                            "iteration over hash-ordered `{name}` ({}); hash order is \
                             randomized — sort the keys or use a BTreeMap",
                            ident_at(toks, i + 2).unwrap_or(""),
                        ),
                    );
                }
                if name == "in" {
                    // `for pat in [&]([mut] [self.])name {`
                    let mut j = i + 1;
                    while punct_at(toks, j, '&') || punct_at(toks, j, '(') {
                        j += 1;
                    }
                    if ident_at(toks, j) == Some("mut") {
                        j += 1;
                    }
                    if ident_at(toks, j) == Some("self") && punct_at(toks, j + 1, '.') {
                        j += 2;
                    }
                    if let Some(target) = ident_at(toks, j) {
                        let mut k = j + 1;
                        while punct_at(toks, k, ')') {
                            k += 1;
                        }
                        if map_names.iter().any(|m| m == target) && punct_at(toks, k, '{') {
                            push(
                                Lint::MapIteration,
                                &toks[j],
                                format!(
                                    "`for` loop over hash-ordered `{target}`; hash order is \
                                     randomized — sort the keys or use a BTreeMap"
                                ),
                            );
                        }
                    }
                }
            }
        }

        // L4 hot-alloc: allocation tokens inside a marked hot region.
        if in_hot(t.line) {
            let alloc: Option<&str> = if ident_at(toks, i) == Some("Vec")
                && path_sep_at(toks, i + 1)
                && ident_at(toks, i + 3) == Some("new")
            {
                Some("Vec::new")
            } else if ident_at(toks, i) == Some("vec") && punct_at(toks, i + 1, '!') {
                Some("vec!")
            } else if ident_at(toks, i) == Some("Box")
                && path_sep_at(toks, i + 1)
                && ident_at(toks, i + 3) == Some("new")
            {
                Some("Box::new")
            } else if punct_at(toks, i, '.') && ident_at(toks, i + 1) == Some("collect") {
                Some(".collect()")
            } else if punct_at(toks, i, '.') && ident_at(toks, i + 1) == Some("to_vec") {
                Some(".to_vec()")
            } else {
                None
            };
            if let Some(what) = alloc {
                push(
                    Lint::HotAlloc,
                    t,
                    format!(
                        "{what} inside a `simlint: hot` region; per-PE kernel regions are \
                         allocation-free — stage through per-worker scratch (par_pes_with) \
                         instead"
                    ),
                );
            }
        }

        i += 1;
    }
}

/// Whether `toks[j..]` is an assignment operator: `=` (not `==`/`=>`),
/// a compound `op=`, or a shift-assign.
fn is_assignment_op(toks: &[Tok], j: usize) -> bool {
    if punct_at(toks, j, '=') {
        return !punct_at(toks, j + 1, '=') && !punct_at(toks, j + 1, '>');
    }
    let compound = ['+', '-', '*', '/', '%', '&', '|', '^'];
    if let Some(TokKind::Punct(c)) = toks.get(j).map(|t| &t.kind) {
        if compound.contains(c) && punct_at(toks, j + 1, '=') {
            return true;
        }
        // `<<=` / `>>=`
        if (*c == '<' || *c == '>') && punct_at(toks, j + 1, *c) && punct_at(toks, j + 2, '=') {
            return true;
        }
    }
    false
}

/// Applies allow directives: a matching allow on the diagnostic's line or
/// the line above suppresses it. Returns surviving diagnostics plus the
/// used-allow report; an allow that suppressed nothing becomes a warning.
fn apply_allows(path: &str, directives: &[Directive], diags: Vec<Diag>) -> FileOutcome {
    struct Slot<'d> {
        lint: Lint,
        line: u32,
        col: u32,
        reason: &'d str,
        suppressed: u32,
    }
    let mut slots: Vec<Slot> = directives
        .iter()
        .filter_map(|d| match &d.kind {
            DirectiveKind::Allow { lint, reason } => Some(Slot {
                lint: *lint,
                line: d.line,
                col: d.col,
                reason,
                suppressed: 0,
            }),
            _ => None,
        })
        .collect();

    let mut kept = Vec::new();
    for diag in diags {
        if diag.severity == Severity::Error && diag.lint != Lint::Directive {
            if let Some(slot) = slots
                .iter_mut()
                .find(|s| s.lint == diag.lint && (s.line == diag.line || s.line + 1 == diag.line))
            {
                slot.suppressed += 1;
                continue;
            }
        }
        kept.push(diag);
    }

    let mut out = FileOutcome {
        diags: kept,
        allows: Vec::new(),
    };
    for s in slots {
        if s.suppressed == 0 {
            out.diags.push(Diag {
                lint: Lint::Directive,
                severity: Severity::Warning,
                path: path.to_string(),
                line: s.line,
                col: s.col,
                msg: format!(
                    "allow({}) suppresses nothing; remove it or move it onto the offending line",
                    s.lint.name()
                ),
            });
        } else {
            out.allows.push(AllowUse {
                lint: s.lint,
                path: path.to_string(),
                line: s.line,
                reason: s.reason.to_string(),
                suppressed: s.suppressed,
            });
        }
    }
    out
}
