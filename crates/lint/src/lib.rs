//! `fedcross-lint` — static determinism-invariant checker for the FedCross
//! workspace.
//!
//! The reproduction's guarantees (bitwise trajectories, bitwise resume,
//! permutation-invariant robust rules) rest on conventions that used to be
//! enforced only by review: no unordered-map iteration in aggregation paths,
//! no wall-clock or ambient RNG in trajectory-affecting code, audited
//! `SeededRng::fork` call sites, fixed-order float reductions in kernels.
//! This crate codifies them as rules D001–D006 over a line-oriented scan of
//! `crates/*/src` (see `docs/LINTS.md` for the catalogue):
//!
//! * **D001** — no `HashMap`/`HashSet` iteration in `core`, `flsim`,
//!   `privacy`, `compress`.
//! * **D002** — no `Instant::now` / `SystemTime` / `thread_rng` /
//!   `rand::random` outside `bench`.
//! * **D003** — every `.fork(` call site carries a
//!   `// fork: construction-seed` audit marker.
//! * **D004** — no `mul_add`/FMA and no `par_iter().sum()`-style unordered
//!   float reductions in kernel files.
//! * **D005** — every `unsafe` block is preceded by a `// SAFETY:` comment.
//! * **D006** — one body per kernel: in a kernel file, a `fn X` beside a
//!   `pub fn X_into` must be a wrapper that calls `X_into`.
//!
//! Exceptions are explicit, counted waivers:
//! `// lint: allow(D00x) — reason`. A waiver with no reason does not
//! silence the finding.
//!
//! Deliberately zero dependencies and no `syn`: the scanner must build and
//! run before anything else in the workspace does. The price is that rules
//! are lexical, per-file approximations (e.g. D001 only tracks unordered-map
//! bindings declared in the same file) — good enough to catch the mistakes
//! that actually happen, cheap enough to run on every commit.

pub mod callgraph;
pub mod markers;
pub mod parser;
pub mod rules;
pub mod strip;

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use strip::Stripped;

/// The determinism rules checked by this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Unordered-map iteration in a determinism-critical crate.
    D001,
    /// Wall-clock or ambient RNG outside `bench`.
    D002,
    /// `SeededRng::fork` call site without a construction-seed audit marker.
    D003,
    /// FMA or unordered parallel float reduction in a kernel file.
    D004,
    /// `unsafe` block without a preceding `SAFETY:` comment.
    D005,
    /// A `fn X` beside a `pub fn X_into` kernel with its own body.
    D006,
    /// Allocation construct reachable from a hot-path root without a
    /// reasoned `alloc:` marker.
    A001,
    /// `unwrap`/`expect`/`panic!` in a library crate without a reason.
    P001,
    /// Stale `lint: allow` waiver — nothing in its window triggers the
    /// waived rule anymore.
    W001,
    /// Stale `alloc:`/`panic:` marker — no matching construct in its window.
    W002,
}

impl RuleId {
    /// All rules, in report order.
    pub const ALL: [RuleId; 10] = [
        RuleId::D001,
        RuleId::D002,
        RuleId::D003,
        RuleId::D004,
        RuleId::D005,
        RuleId::D006,
        RuleId::A001,
        RuleId::P001,
        RuleId::W001,
        RuleId::W002,
    ];

    /// The rule's code as it appears in waivers, e.g. `"D001"`.
    pub fn code(self) -> &'static str {
        match self {
            RuleId::D001 => "D001",
            RuleId::D002 => "D002",
            RuleId::D003 => "D003",
            RuleId::D004 => "D004",
            RuleId::D005 => "D005",
            RuleId::D006 => "D006",
            RuleId::A001 => "A001",
            RuleId::P001 => "P001",
            RuleId::W001 => "W001",
            RuleId::W002 => "W002",
        }
    }

    /// Parses a rule code (`"D001"`, `"A001"`, …). `None` for anything that
    /// is not a known rule — prose like `allow(D00x)` never resolves.
    pub fn parse(code: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.code() == code)
    }

    /// One-line description of what the rule forbids.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::D001 => "HashMap/HashSet iteration in a determinism-critical crate",
            RuleId::D002 => "wall-clock or ambient RNG outside bench",
            RuleId::D003 => "SeededRng::fork call without `fork: construction-seed` marker",
            RuleId::D004 => "FMA or unordered parallel float reduction in a kernel file",
            RuleId::D005 => "unsafe block without a preceding SAFETY: comment",
            RuleId::D006 => "fn X beside a pub X_into kernel that does not call it",
            RuleId::A001 => "allocation reachable from a hot-path root without a reasoned alloc: marker",
            RuleId::P001 => "unwrap/expect/panic! in a library crate without a reason",
            RuleId::W001 => "stale waiver: nothing in its window triggers the waived rule",
            RuleId::W002 => "stale alloc:/panic: marker: no matching construct in its window",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One rule violation (possibly waived) at a specific source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Display path of the offending file (relative to the workspace root
    /// when produced by [`lint_tree`]).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
    /// The waiver reason, if the site carries a valid
    /// `lint: allow(D00x) — reason` annotation.
    pub waiver: Option<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}:{} {}", self.rule, self.file, self.line, self.message)?;
        if let Some(reason) = &self.waiver {
            write!(f, " [waived: {reason}]")?;
        }
        Ok(())
    }
}

/// The outcome of linting a tree: all findings plus scan statistics.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, waived or not, in (file, line) order.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings that are *not* waived — these fail `--deny-all`.
    pub fn violations(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.waiver.is_none()).collect()
    }

    /// Findings silenced by an explicit waiver (still reported, still
    /// counted — exceptions are visible, not invisible).
    pub fn waived(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.waiver.is_some()).collect()
    }

    /// Per-rule waiver counts, in [`RuleId::ALL`] order, zero rows included —
    /// the summary and the `--deny-waivers` budget check both read this.
    pub fn waiver_counts(&self) -> Vec<(RuleId, usize)> {
        RuleId::ALL
            .iter()
            .map(|&rule| {
                let n = self
                    .findings
                    .iter()
                    .filter(|f| f.rule == rule && f.waiver.is_some())
                    .count();
                (rule, n)
            })
            .collect()
    }
}

/// Crates whose aggregation/trajectory paths must not iterate unordered
/// maps (rule D001).
pub const D001_CRATES: [&str; 4] = ["core", "flsim", "privacy", "compress"];

/// The one crate allowed to read wall clocks and ambient RNG (rule D002).
pub const TIMING_CRATE: &str = "bench";

/// Kernel files subject to the float-reduction rule D004 and the
/// one-body-per-kernel rule D006, beyond the whole `tensor` crate.
/// Fast-math/SIMD PRs must add their new kernel files here (see ROADMAP
/// "Open items").
pub const KERNEL_FILES: [&str; 3] = ["aggregation.rs", "robust.rs", "buffered.rs"];

/// Every file in this crate is a kernel file for D004/D006.
pub const KERNEL_CRATE: &str = "tensor";

/// How many comment lines above a site are searched for waivers and
/// audit markers — shared with the marker lookup in [`markers`].
const LOOKBACK_LINES: usize = markers::LOOKBACK_LINES;

/// Whether a file is a kernel file: the whole [`KERNEL_CRATE`] plus
/// [`KERNEL_FILES`]. D004, D006 and the A001 kernel root set all read this
/// one scope.
pub(crate) fn is_kernel_file(crate_name: &str, file_name: &str) -> bool {
    crate_name == KERNEL_CRATE || KERNEL_FILES.contains(&file_name)
}

pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `line[pos..pos+len]` is bounded by non-identifier characters.
fn word_bounded(line: &str, pos: usize, len: usize) -> bool {
    let before_ok = pos == 0
        || !line[..pos]
            .chars()
            .next_back()
            .is_some_and(is_ident_char);
    let after_ok = !line[pos + len..].chars().next().is_some_and(is_ident_char);
    before_ok && after_ok
}

/// First word-bounded occurrence of `word` in `line`.
fn find_word(line: &str, word: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(p) = line[from..].find(word) {
        let abs = from + p;
        if word_bounded(line, abs, word.len()) {
            return Some(abs);
        }
        from = abs + word.len().max(1);
    }
    None
}

fn contains_word(line: &str, word: &str) -> bool {
    find_word(line, word).is_some()
}

enum WaiverStatus {
    None,
    Waived(String),
    MissingReason,
}

/// Looks for `lint: allow(<code>)` in the comment channel on the finding's
/// line or up to [`LOOKBACK_LINES`] lines above it.
fn waiver_for(stripped: &Stripped, line_idx: usize, code: &str) -> WaiverStatus {
    let lo = line_idx.saturating_sub(LOOKBACK_LINES);
    for idx in (lo..=line_idx).rev() {
        let comment = &stripped.comments[idx];
        let mut from = 0;
        while let Some(p) = comment[from..].find("lint: allow(") {
            let rest = &comment[from + p + "lint: allow(".len()..];
            from += p + "lint: allow(".len();
            let Some(close) = rest.find(')') else { break };
            if &rest[..close] != code {
                continue;
            }
            let reason = rest[close + 1..]
                .trim_start_matches([' ', '\t', '\u{2014}', '\u{2013}', '-', ':'])
                .trim();
            return if reason.is_empty() {
                WaiverStatus::MissingReason
            } else {
                WaiverStatus::Waived(reason.to_string())
            };
        }
    }
    WaiverStatus::None
}

/// Whether the comment channel carries `marker` on the line or up to
/// [`LOOKBACK_LINES`] lines above it.
fn has_marker(stripped: &Stripped, line_idx: usize, marker: &str) -> bool {
    let lo = line_idx.saturating_sub(LOOKBACK_LINES);
    stripped.comments[lo..=line_idx]
        .iter()
        .any(|c| c.contains(marker))
}

/// Identifiers bound to `HashMap`/`HashSet` somewhere in this file: let
/// bindings, struct fields and fn parameters with an unordered-map type
/// ascription, plus `= HashMap::new()`-style initialisations. Per-file by
/// design — see the module docs for the trade-off.
fn collect_unordered_bindings(code: &[String]) -> BTreeSet<String> {
    let mut suspects = BTreeSet::new();
    for line in code {
        let trimmed = line.trim_start();
        if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
            continue;
        }
        for ty in ["HashMap", "HashSet"] {
            let mut from = 0;
            while let Some(p) = line[from..].find(ty) {
                let abs = from + p;
                from = abs + ty.len();
                if !word_bounded(line, abs, ty.len()) {
                    continue;
                }
                if let Some(name) = binding_name_before(line, abs) {
                    suspects.insert(name);
                }
            }
        }
    }
    suspects
}

/// Walks left from a `HashMap`/`HashSet` type use to the identifier it is
/// bound to: handles `name: HashMap<..>`, `name: &HashMap<..>`,
/// `name = HashMap::new()` and path-qualified `std::collections::HashMap`.
fn binding_name_before(line: &str, ty_pos: usize) -> Option<String> {
    let mut t = line[..ty_pos].trim_end();
    // Strip path qualifiers (`std::collections::`) so we keep walking left.
    while t.ends_with("::") {
        t = t[..t.len() - 2].trim_end();
        let cut = t
            .rfind(|c: char| !is_ident_char(c))
            .map(|p| p + 1)
            .unwrap_or(0);
        t = t[..cut].trim_end();
    }
    // Strip reference sigils: `&`, `&mut`, `&'a mut`.
    loop {
        let stripped = t
            .strip_suffix("mut")
            .map(str::trim_end)
            .unwrap_or(t);
        let stripped = stripped.strip_suffix('&').map(str::trim_end).unwrap_or(stripped);
        if stripped.len() == t.len() {
            break;
        }
        t = stripped;
    }
    let sep = t.chars().next_back()?;
    if sep != ':' && sep != '=' {
        return None;
    }
    let t = t[..t.len() - 1].trim_end();
    if t.ends_with(':') || t.ends_with('=') || t.ends_with('<') || t.ends_with('>') {
        // `::HashMap` with no path head, `==`, generic position — not a binding.
        return None;
    }
    let start = t
        .rfind(|c: char| !is_ident_char(c))
        .map(|p| p + 1)
        .unwrap_or(0);
    let name = &t[start..];
    if name.is_empty()
        || name.chars().next().is_some_and(|c| c.is_ascii_digit())
        || name == "mut"
        || name == "let"
    {
        return None;
    }
    Some(name.to_string())
}

/// D001: iteration over unordered maps in determinism-critical crates.
fn rule_d001(crate_name: &str, file: &str, s: &Stripped, findings: &mut Vec<Finding>) {
    if !D001_CRATES.contains(&crate_name) {
        return;
    }
    let suspects = collect_unordered_bindings(&s.code);
    if suspects.is_empty() {
        return;
    }
    const METHODS: [&str; 7] = [
        ".iter()",
        ".iter_mut()",
        ".into_iter()",
        ".keys()",
        ".values()",
        ".values_mut()",
        ".drain(",
    ];
    for (idx, line) in s.code.iter().enumerate() {
        for name in &suspects {
            // Method-call iteration: `map.iter()`, `self.map.values()`, ...
            let mut from = 0;
            while let Some(p) = line[from..].find(name.as_str()) {
                let abs = from + p;
                from = abs + name.len();
                if !word_bounded(line, abs, name.len()) {
                    continue;
                }
                // The iteration method may be chained on the same line or —
                // rustfmt style — at the start of the next one.
                let after = &line[abs + name.len()..];
                let next_line_head = if after.trim().is_empty() {
                    s.code.get(idx + 1).map(|l| l.trim_start()).unwrap_or("")
                } else {
                    ""
                };
                if let Some(m) = METHODS
                    .iter()
                    .find(|m| after.starts_with(**m) || next_line_head.starts_with(**m))
                {
                    findings.push(Finding {
                        rule: RuleId::D001,
                        file: file.to_string(),
                        line: idx + 1,
                        message: format!(
                            "iteration `{name}{m}` over an unordered map; use BTreeMap or sort first"
                        ),
                        waiver: None,
                    });
                }
            }
            // `for … in map {` / `for … in &map {`
            if let Some(in_pos) = line.find(" in ") {
                if contains_word(&line[..in_pos], "for") {
                    let mut rest = line[in_pos + 4..].trim_start();
                    rest = rest.strip_prefix("&mut ").unwrap_or(rest);
                    rest = rest.strip_prefix('&').unwrap_or(rest).trim_start();
                    // Consume a dotted path (`self.seen`, `ctx.state.map`)
                    // and compare its final segment.
                    let end = rest
                        .find(|c: char| !is_ident_char(c) && c != '.')
                        .unwrap_or(rest.len());
                    let head = rest[..end].rsplit('.').next().unwrap_or("");
                    let tail = rest[end..].trim_start();
                    // A trailing `.method()` is handled above; flag direct
                    // consumption of the map itself.
                    if head == name.as_str() && (tail.starts_with('{') || tail.is_empty()) {
                        findings.push(Finding {
                            rule: RuleId::D001,
                            file: file.to_string(),
                            line: idx + 1,
                            message: format!(
                                "`for … in {name}` iterates an unordered map; use BTreeMap or sort first"
                            ),
                            waiver: None,
                        });
                    }
                }
            }
        }
    }
}

/// D002: wall clocks and ambient RNG outside `bench`.
fn rule_d002(crate_name: &str, file: &str, s: &Stripped, findings: &mut Vec<Finding>) {
    if crate_name == TIMING_CRATE {
        return;
    }
    const PATTERNS: [&str; 4] = ["Instant::now", "SystemTime", "thread_rng", "rand::random"];
    for (idx, line) in s.code.iter().enumerate() {
        for pat in PATTERNS {
            if contains_word(line, pat) {
                findings.push(Finding {
                    rule: RuleId::D002,
                    file: file.to_string(),
                    line: idx + 1,
                    message: format!(
                        "`{pat}` is nondeterministic; derive randomness/timing from RoundStreams or move to bench"
                    ),
                    waiver: None,
                });
            }
        }
    }
}

/// D003: `.fork(` call sites must carry the construction-seed audit marker.
fn rule_d003(file: &str, s: &Stripped, findings: &mut Vec<Finding>) {
    for (idx, line) in s.code.iter().enumerate() {
        if !line.contains(".fork(") {
            continue;
        }
        if has_marker(s, idx, "fork: construction-seed") {
            continue;
        }
        findings.push(Finding {
            rule: RuleId::D003,
            file: file.to_string(),
            line: idx + 1,
            message: "`.fork(` call without a `// fork: construction-seed` audit marker"
                .to_string(),
        waiver: None,
        });
    }
}

/// D004: FMA and unordered parallel float reductions in kernel files.
fn rule_d004(crate_name: &str, file_name: &str, file: &str, s: &Stripped, findings: &mut Vec<Finding>) {
    if !is_kernel_file(crate_name, file_name) {
        return;
    }
    const PAR_SOURCES: [&str; 4] = ["par_iter", "into_par_iter", "par_chunks", "par_bridge"];
    const REDUCERS: [&str; 2] = [".sum()", ".reduce("];
    for (idx, line) in s.code.iter().enumerate() {
        if contains_word(line, "mul_add") {
            findings.push(Finding {
                rule: RuleId::D004,
                file: file.to_string(),
                line: idx + 1,
                message: "`mul_add` (FMA) changes rounding vs mul-then-add; not allowed on default kernel paths"
                    .to_string(),
                waiver: None,
            });
        }
        if PAR_SOURCES.iter().any(|p| line.contains(p)) {
            // Unordered reduction: a `.sum()`/`.reduce(` on the parallel
            // chain, scanned on this line and the next two (forward only —
            // a sequential `.sum()` above the par line is fine).
            let window_end = (idx + 2).min(s.code.len() - 1);
            if s.code[idx..=window_end]
                .iter()
                .any(|l| REDUCERS.iter().any(|r| l.contains(r)))
            {
                findings.push(Finding {
                    rule: RuleId::D004,
                    file: file.to_string(),
                    line: idx + 1,
                    message: "parallel iterator followed by `.sum()`/`.reduce(` — reduction order is schedule-dependent; reduce into indexed slots instead"
                        .to_string(),
                    waiver: None,
                });
            }
        }
    }
}

/// D005: `unsafe` blocks must be preceded by a `SAFETY:` comment.
fn rule_d005(file: &str, s: &Stripped, findings: &mut Vec<Finding>) {
    for (idx, line) in s.code.iter().enumerate() {
        if !contains_word(line, "unsafe") {
            continue;
        }
        if has_marker(s, idx, "SAFETY:") {
            continue;
        }
        findings.push(Finding {
            rule: RuleId::D005,
            file: file.to_string(),
            line: idx + 1,
            message: "`unsafe` without a preceding `// SAFETY:` comment".to_string(),
            waiver: None,
        });
    }
}

/// D006: one body per kernel. In a kernel file, a non-test `fn X` beside a
/// non-test `pub fn X_into` must call `X_into`: a wrapper that allocates the
/// output is fine, a second body is not.
fn rule_d006(file: &callgraph::IndexedFile, findings: &mut Vec<Finding>) {
    if !is_kernel_file(&file.crate_name, &file.file_name) {
        return;
    }
    let fns = &file.parsed.fns;
    let kernels: BTreeSet<&str> = fns
        .iter()
        .filter(|f| f.is_pub && !f.in_test)
        .filter_map(|f| f.name.strip_suffix("_into"))
        .collect();
    for (idx, twin) in fns.iter().enumerate() {
        if twin.in_test || twin.body.is_none() || !kernels.contains(twin.name.as_str()) {
            continue;
        }
        let kernel = format!("{}_into", twin.name);
        if parser::callees(&file.stripped, &file.parsed, idx).contains(&kernel) {
            continue;
        }
        findings.push(Finding {
            rule: RuleId::D006,
            file: file.display_path.clone(),
            line: twin.decl_line + 1,
            message: format!(
                "`fn {}` has its own body beside `pub fn {kernel}`; make it a wrapper that calls `{kernel}`",
                twin.name
            ),
            waiver: None,
        });
    }
}

/// Resolves waivers for `findings`, skipping any finding `filter` rejects.
fn apply_waivers(s: &Stripped, findings: &mut [Finding], filter: impl Fn(&Finding) -> bool) {
    for f in findings.iter_mut() {
        if !filter(f) {
            continue;
        }
        match waiver_for(s, f.line - 1, f.rule.code()) {
            WaiverStatus::Waived(reason) => f.waiver = Some(reason),
            WaiverStatus::MissingReason => {
                f.message.push_str(" [waiver present but missing a reason]");
            }
            WaiverStatus::None => {}
        }
    }
}

/// Lints a set of files as one workspace: the per-file D rules run first,
/// then the call-graph rules A001/P001 (which need every file at once to
/// resolve cross-crate reachability), then — after waivers are resolved, so
/// staleness is judged against the final finding set — the hygiene rules
/// W001/W002.
///
/// Each entry is `(crate_name, file_name, display_path, source)`.
pub fn lint_files(files: &[(String, String, String, String)]) -> Report {
    let indexed = callgraph::CallGraph::index_files(files);
    let graph = callgraph::CallGraph::build(&indexed);
    let mut per_file: Vec<Vec<Finding>> = (0..indexed.len()).map(|_| Vec::new()).collect();
    for (fi, file) in indexed.iter().enumerate() {
        let s = &file.stripped;
        let f = &mut per_file[fi];
        rule_d001(&file.crate_name, &file.display_path, s, f);
        rule_d002(&file.crate_name, &file.display_path, s, f);
        rule_d003(&file.display_path, s, f);
        rule_d004(&file.crate_name, &file.file_name, &file.display_path, s, f);
        rule_d005(&file.display_path, s, f);
        rule_d006(file, f);
    }
    rules::rule_a001(&indexed, &graph, &mut per_file);
    rules::rule_p001(&indexed, &mut per_file);
    for (fi, file) in indexed.iter().enumerate() {
        apply_waivers(&file.stripped, &mut per_file[fi], |_| true);
    }
    rules::rule_w(&indexed, &mut per_file);
    for (fi, file) in indexed.iter().enumerate() {
        // Only the W findings just added are unprocessed; re-running the
        // others would double-append the missing-reason note.
        apply_waivers(&file.stripped, &mut per_file[fi], |f| {
            matches!(f.rule, RuleId::W001 | RuleId::W002)
        });
    }
    let mut report = Report {
        findings: Vec::new(),
        files_scanned: indexed.len(),
    };
    for mut findings in per_file {
        findings.sort_by_key(|a| (a.line, a.rule));
        report.findings.extend(findings);
    }
    report
}

/// Lints one file's source text (a one-file workspace — cross-file
/// reachability obviously cannot fire here; `lint_tree` covers that).
///
/// * `crate_name` — the workspace crate the file belongs to (`"core"`,
///   `"tensor"`, ...), which scopes D001/D002/D004/D006 and the A/P rules;
/// * `file_name` — the bare file name (`"aggregation.rs"`), which scopes the
///   kernel-file rules;
/// * `display_path` — the path reported in findings.
pub fn lint_source(
    crate_name: &str,
    file_name: &str,
    display_path: &str,
    source: &str,
) -> Vec<Finding> {
    lint_files(&[(
        crate_name.to_string(),
        file_name.to_string(),
        display_path.to_string(),
        source.to_string(),
    )])
    .findings
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Reads `<root>/crates/*/src` into `(crate, file, display, source)` tuples,
/// in sorted order (the linter's own output is deterministic, naturally).
pub fn read_tree(root: &Path) -> io::Result<Vec<(String, String, String, String)>> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    let mut out = Vec::new();
    for dir in crate_dirs {
        let crate_name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files)?;
        files.sort();
        for path in files {
            let source = fs::read_to_string(&path)?;
            let file_name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            let display = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .display()
                .to_string();
            out.push((crate_name.clone(), file_name, display, source));
        }
    }
    Ok(out)
}

/// Walks `<root>/crates/*/src` and lints every `.rs` file as one workspace.
pub fn lint_tree(root: &Path) -> io::Result<Report> {
    Ok(lint_files(&read_tree(root)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(crate_name: &str, file_name: &str, src: &str) -> Vec<Finding> {
        lint_source(crate_name, file_name, file_name, src)
    }

    #[test]
    fn d001_fires_on_hashmap_iter_in_core() {
        let src = "let mut m: HashMap<usize, f32> = HashMap::new();\nfor (k, v) in m.iter() { total += v; }\n";
        let f = lint("core", "x.rs", src);
        assert!(f.iter().any(|f| f.rule == RuleId::D001), "{f:?}");
    }

    #[test]
    fn d001_fires_on_for_in_over_a_set_field() {
        let src = "pub struct S { seen: HashSet<usize> }\nimpl S { fn f(&self) { for x in &self.seen { use_it(x); } } }\n";
        let f = lint("flsim", "x.rs", src);
        assert!(f.iter().any(|f| f.rule == RuleId::D001), "{f:?}");
    }

    #[test]
    fn d001_silent_outside_restricted_crates_and_without_iteration() {
        // Same source in a non-restricted crate: fine.
        let src = "let mut m: HashMap<usize, f32> = HashMap::new();\nfor (k, v) in m.iter() {}\n";
        assert!(lint("bench", "x.rs", src).is_empty());
        // Insert/lookup without iteration: fine even in core.
        let src = "let mut m: HashMap<usize, f32> = HashMap::new();\nm.insert(1, 2.0); let v = m.get(&1);\n";
        assert!(lint("core", "x.rs", src).is_empty());
        // Building an unordered map FROM a vec iteration: the iterated
        // collection is ordered, fine.
        let src = "let m: HashMap<usize, f32> = pairs.iter().copied().collect();\nm.len();\n";
        assert!(lint("core", "x.rs", src).is_empty());
    }

    #[test]
    fn d002_fires_everywhere_but_bench() {
        let src = "let t0 = Instant::now();\n";
        assert!(lint("core", "x.rs", src).iter().any(|f| f.rule == RuleId::D002));
        assert!(lint("bench", "x.rs", src).is_empty());
    }

    #[test]
    fn d003_requires_the_audit_marker() {
        let bad = "let child = rng.fork(7);\n";
        assert!(lint("core", "x.rs", bad).iter().any(|f| f.rule == RuleId::D003));
        let good = "// fork: construction-seed\nlet child = rng.fork(7);\n";
        assert!(lint("core", "x.rs", good).is_empty());
        let inline = "let child = rng.fork(7); // fork: construction-seed\n";
        assert!(lint("core", "x.rs", inline).is_empty());
    }

    #[test]
    fn d004_scopes_to_kernel_files() {
        let fma = "let y = a.mul_add(b, c);\n";
        assert!(lint("tensor", "ops.rs", fma).iter().any(|f| f.rule == RuleId::D004));
        assert!(lint("core", "aggregation.rs", fma).iter().any(|f| f.rule == RuleId::D004));
        assert!(lint("core", "selection.rs", fma).is_empty());
        let par_sum = "let s: f32 = xs.par_iter()\n    .map(|x| x * x)\n    .sum();\n";
        assert!(lint("core", "robust.rs", par_sum).iter().any(|f| f.rule == RuleId::D004));
        // Sequential sum before the parallel line is fine (window is
        // forward-only).
        let seq_then_par = "let s: f32 = xs.iter().sum();\nys.par_iter_mut().for_each(|y| *y += s);\nlet t = 1;\nlet u = 2;\n";
        assert!(lint("core", "buffered.rs", seq_then_par).is_empty());
    }

    #[test]
    fn d005_requires_safety_comment() {
        let bad = "let p = unsafe { *ptr };\n";
        assert!(lint("core", "x.rs", bad).iter().any(|f| f.rule == RuleId::D005));
        let good = "// SAFETY: ptr is valid for reads, checked above.\nlet p = unsafe { *ptr };\n";
        assert!(lint("core", "x.rs", good).is_empty());
        // `#![forbid(unsafe_code)]` is not an unsafe block.
        assert!(lint("core", "x.rs", "#![forbid(unsafe_code)]\n").is_empty());
    }

    #[test]
    fn d006_requires_twins_to_call_their_into_kernel() {
        let kernel = "pub fn scale_into(dst: &mut [f32], k: f32) {\n    for d in dst.iter_mut() { *d *= k; }\n}\n";
        let twin = "pub fn scale(src: &[f32], k: f32) -> Vec<f32> {\n    src.iter().map(|x| x * k).collect()\n}\n";
        let bad = format!("{kernel}{twin}");
        let f = lint("tensor", "ops.rs", &bad);
        let d006: Vec<_> = f.iter().filter(|f| f.rule == RuleId::D006).collect();
        assert_eq!(d006.len(), 1, "{f:?}");
        assert_eq!(d006[0].line, 4, "reported at the twin's `fn` line");
        // A wrapper over the kernel is fine (the fixture covers the orphan
        // kernel and the private `*_into` helper).
        let wrapper = "pub fn scale(src: &[f32], k: f32) -> Vec<f32> {\n    let mut out = src.to_vec();\n    scale_into(&mut out, k);\n    out\n}\n";
        assert!(lint("tensor", "ops.rs", &format!("{kernel}{wrapper}")).is_empty());
        // Non-kernel files are exempt.
        assert!(lint("core", "selection.rs", &bad).is_empty());
    }

    #[test]
    fn waivers_silence_with_reason_and_not_without() {
        let with_reason =
            "// lint: allow(D002) — bench-only diagnostic behind a feature gate\nlet t0 = Instant::now();\n";
        let f = lint("core", "x.rs", with_reason);
        assert_eq!(f.len(), 1);
        assert!(f[0].waiver.is_some());
        let without_reason = "// lint: allow(D002)\nlet t0 = Instant::now();\n";
        let f = lint("core", "x.rs", without_reason);
        assert_eq!(f.len(), 1);
        assert!(f[0].waiver.is_none(), "{f:?}");
        assert!(f[0].message.contains("missing a reason"));
        // A waiver for a different rule does not apply — and since nothing
        // in its window triggers that rule, it is also stale (W001).
        let wrong_rule = "// lint: allow(D001) — unrelated\nlet t0 = Instant::now();\n";
        let f = lint("core", "x.rs", wrong_rule);
        let d002: Vec<_> = f.iter().filter(|f| f.rule == RuleId::D002).collect();
        assert_eq!(d002.len(), 1);
        assert!(d002[0].waiver.is_none());
        assert!(
            f.iter().any(|f| f.rule == RuleId::W001 && f.line == 1),
            "{f:?}"
        );
    }

    #[test]
    fn a001_requires_reasoned_marker_on_reachable_allocations() {
        let src = concat!(
            "pub fn axpy_into(d: &mut [f32]) {\n",
            "    helper(d);\n",
            "}\n",
            "pub fn axpy(d: &[f32]) -> Vec<f32> { vec![0f32; d.len()] }\n",
            "fn helper(d: &mut [f32]) {\n",
            "    let scratch = vec![0f32; d.len()];\n",
            "}\n",
        );
        let f = lint("tensor", "ops.rs", src);
        let a: Vec<_> = f.iter().filter(|f| f.rule == RuleId::A001).collect();
        // Only the reachable `helper` allocation fires; the allocating twin
        // `axpy` is not a root and nothing hot calls it.
        assert_eq!(a.len(), 1, "{f:?}");
        assert_eq!(a[0].line, 6);
        assert!(a[0].message.contains("axpy_into -> helper"), "{}", a[0].message);
        // A reasoned marker silences it.
        let marked = src.replace(
            "    let scratch = vec![0f32; d.len()];",
            "    // alloc: pooled — arena miss, first round only\n    let scratch = vec![0f32; d.len()];",
        );
        let f = lint("tensor", "ops.rs", &marked);
        assert!(f.iter().all(|f| f.rule != RuleId::A001), "{f:?}");
        // A marker with a bad kind or no reason does not.
        let bad_kind = src.replace(
            "    let scratch = vec![0f32; d.len()];",
            "    // alloc: whatever — reason\n    let scratch = vec![0f32; d.len()];",
        );
        let f = lint("tensor", "ops.rs", &bad_kind);
        assert!(f
            .iter()
            .any(|f| f.rule == RuleId::A001 && f.message.contains("pooled|cold|bounded")));
    }

    #[test]
    fn p001_requires_reason_for_panic_sites() {
        let src = "pub fn pick(v: &[u32]) -> u32 {\n    *v.last().unwrap()\n}\n";
        let f = lint("core", "x.rs", src);
        assert!(f.iter().any(|f| f.rule == RuleId::P001), "{f:?}");
        // Reasoned expect is self-documenting.
        let good = "pub fn pick(v: &[u32]) -> u32 {\n    *v.last().expect(\"cohort is never empty\")\n}\n";
        assert!(lint("core", "x.rs", good).is_empty());
        // A panic: marker works too.
        let marked = "pub fn pick(v: &[u32]) -> u32 {\n    // panic: length checked by the builder\n    *v.last().unwrap()\n}\n";
        assert!(lint("core", "x.rs", marked).is_empty());
        // bench is exempt; test code is exempt.
        assert!(lint("bench", "x.rs", src).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        assert!(lint("core", "x.rs", in_test).is_empty());
    }

    #[test]
    fn w002_flags_stale_markers() {
        let stale = "// alloc: cold — leftover after a refactor\nlet x = 1;\nlet y = 2;\nlet z = 3;\nlet w = 4;\n";
        let f = lint("core", "x.rs", stale);
        assert!(f.iter().any(|f| f.rule == RuleId::W002), "{f:?}");
        let live = "// alloc: cold — setup buffer\nlet v: Vec<f32> = Vec::new();\n";
        assert!(lint("core", "x.rs", live).iter().all(|f| f.rule != RuleId::W002));
        let stale_panic = "// panic: nothing here panics anymore\nlet x = 1;\nlet y = 2;\nlet z = 3;\nlet w = 4;\n";
        assert!(lint("core", "x.rs", stale_panic)
            .iter()
            .any(|f| f.rule == RuleId::W002));
    }

    #[test]
    fn patterns_inside_strings_and_comments_do_not_fire() {
        let src = concat!(
            "// this mentions Instant::now and thread_rng in prose\n",
            "let doc = \"HashMap.iter() thread_rng() mul_add unsafe\";\n",
            "let raw = r#\"Instant::now() SystemTime\"#;\n",
            "/* block comment: rand::random() .fork( */\n",
        );
        assert!(lint("core", "aggregation.rs", src).is_empty());
    }

    #[test]
    fn binding_extraction_handles_paths_refs_and_fields() {
        let code: Vec<String> = [
            "let a: std::collections::HashMap<u32, u32> = Default::default();",
            "pub residuals: HashMap<usize, Vec<f32>>,",
            "fn f(controls: &HashMap<usize, Vec<f32>>) {}",
            "let b = HashSet::new();",
            "use std::collections::HashMap;",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let names = collect_unordered_bindings(&code);
        for expect in ["a", "residuals", "controls", "b"] {
            assert!(names.contains(expect), "{names:?}");
        }
        assert!(!names.contains("collections"));
    }
}
