//! The call-graph rule series: **A** (allocation discipline), **P** (panic
//! hygiene) and **W** (waiver/marker hygiene).
//!
//! * **A001** — an allocation construct (`Vec::new`, `vec!`, `.to_vec()`,
//!   `.collect()`, `.clone()`, `Box::new`, `format!`, `String::from`, …)
//!   inside a function *reachable from a hot-path root* (see
//!   `callgraph.rs`) must carry a reasoned
//!   `alloc: pooled|cold|bounded — reason` marker. `pooled` = arena
//!   cache-miss fallback, `cold` = off the steady-state path (warm-up,
//!   setup, error paths), `bounded` = small fixed-size bookkeeping that the
//!   runtime pins already budget for.
//! * **P001** — `.unwrap()`, `.expect(…)` without a non-empty literal
//!   message, and `panic!(…)` in library crates (everything except `bench`)
//!   must carry a reasoned `panic: reason` marker. An `.expect("…")` with a
//!   non-empty message is self-reasoning and needs no marker.
//! * **W001** — a `lint: allow(RULE)` waiver whose window (its line plus
//!   the lookback below it) contains no finding of that rule is stale.
//! * **W002** — an `alloc:`/`panic:` marker whose window contains no
//!   matching allocation/panic construct is stale.
//!
//! Rules A and P scan non-test code only; rule W scans everything (a stale
//! waiver in a test module is just as misleading).

use crate::callgraph::{CallGraph, IndexedFile};
use crate::markers::{
    alloc_marker_for, alloc_markers, panic_marker_for, panic_markers, ALLOC_KINDS,
};
use crate::{is_ident_char, Finding, RuleId};

/// Path- and macro-shaped allocation constructs (word-bounded prefix match).
const ALLOC_PATHS: [&str; 8] = [
    "Vec::new(",
    "Vec::with_capacity(",
    "vec!",
    "Box::new(",
    "Arc::new(",
    "String::from(",
    "String::new(",
    "format!",
];

/// Method-shaped allocation constructs (`.name(` or `.name::<`).
const ALLOC_METHODS: [&str; 10] = [
    "to_vec",
    "to_owned",
    "to_string",
    "collect",
    "clone",
    "cloned",
    "clone_model",
    "clone_layer",
    "boxed",
    "params_flat",
];

/// All allocation-construct sites in a line, as display labels.
fn alloc_sites_in_line(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    for pat in ALLOC_PATHS {
        let mut from = 0;
        while let Some(p) = line[from..].find(pat) {
            let abs = from + p;
            from = abs + pat.len();
            let before_ok = abs == 0
                || !line[..abs].chars().next_back().is_some_and(is_ident_char);
            if before_ok {
                out.push(pat.trim_end_matches('(').to_string());
            }
        }
    }
    for name in ALLOC_METHODS {
        let needle = format!(".{name}");
        let mut from = 0;
        while let Some(p) = line[from..].find(&needle) {
            let abs = from + p;
            from = abs + needle.len();
            let after = &line[abs + needle.len()..];
            if after.starts_with('(') || after.starts_with("::<") {
                out.push(format!(".{name}()"));
            }
        }
    }
    out
}

/// One panic-construct site.
struct PanicSite {
    label: &'static str,
    /// An `.expect("non-empty literal")` documents itself.
    self_reasoned: bool,
}

/// All panic-construct sites in a line (`next_line` resolves rustfmt-split
/// `.expect(\n    "msg"` messages).
fn panic_sites_in_line(line: &str, next_line: Option<&str>) -> Vec<PanicSite> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = line[from..].find(".unwrap") {
        let abs = from + p;
        from = abs + ".unwrap".len();
        if line[abs + ".unwrap".len()..].starts_with('(') {
            out.push(PanicSite { label: ".unwrap()", self_reasoned: false });
        }
    }
    let mut from = 0;
    while let Some(p) = line[from..].find(".expect") {
        let abs = from + p;
        from = abs + ".expect".len();
        let after = &line[abs + ".expect".len()..];
        if !after.starts_with('(') {
            continue;
        }
        // A non-empty string literal argument is a reasoned expect. The
        // tokenizer blanks literal contents but keeps the quotes, so a
        // non-empty message shows up as `"␣…␣"`.
        let arg = after[1..].trim_start();
        let arg = if arg.is_empty() {
            next_line.map(str::trim_start).unwrap_or("")
        } else {
            arg
        };
        let self_reasoned = arg.starts_with('"')
            && arg[1..].find('"').is_some_and(|close| close > 0);
        out.push(PanicSite { label: ".expect(...)", self_reasoned });
    }
    let mut from = 0;
    while let Some(p) = line[from..].find("panic!") {
        let abs = from + p;
        from = abs + "panic!".len();
        let before_ok = abs == 0
            || !line[..abs].chars().next_back().is_some_and(is_ident_char);
        if before_ok {
            out.push(PanicSite { label: "panic!", self_reasoned: false });
        }
    }
    out
}

/// Rule A001 over every hot-path-reachable function in the workspace.
pub fn rule_a001(files: &[IndexedFile], graph: &CallGraph, findings: &mut [Vec<Finding>]) {
    for (node, &reachable) in graph.reachable.iter().enumerate() {
        if !reachable {
            continue;
        }
        let fref = graph.nodes[node];
        let file = &files[fref.file];
        // `bench` is measurement tooling and `lint` is the checker itself —
        // neither sits on a trajectory path; their fns can still appear in
        // the graph via name aliasing.
        if file.crate_name == "bench" || file.crate_name == "lint" {
            continue;
        }
        let item = &file.parsed.fns[fref.item];
        let Some((lo, hi)) = item.body else { continue };
        let markers = alloc_markers(&file.stripped);
        for line_idx in lo..=hi.min(file.stripped.code.len() - 1) {
            if file.parsed.owner[line_idx] != Some(fref.item) {
                continue;
            }
            for label in alloc_sites_in_line(&file.stripped.code[line_idx]) {
                let suffix = match alloc_marker_for(&markers, line_idx) {
                    Some(m) if ALLOC_KINDS.contains(&m.kind.as_str()) => {
                        if m.reason.is_some() {
                            continue; // properly classified and reasoned
                        }
                        " [marker present but missing a reason]"
                    }
                    Some(_) => " [marker kind must be pooled|cold|bounded]",
                    None => "",
                };
                findings[fref.file].push(Finding {
                    rule: RuleId::A001,
                    file: file.display_path.clone(),
                    line: line_idx + 1,
                    message: format!(
                        "`{label}` in `fn {}` is reachable from a hot-path root ({}); \
                         classify it with `alloc: pooled|cold|bounded - reason` or move it off the round path{suffix}",
                        item.name,
                        graph.chain_label(files, node),
                    ),
                    waiver: None,
                });
            }
        }
    }
}

/// Rule P001 over every non-test line of every library crate.
pub fn rule_p001(files: &[IndexedFile], findings: &mut [Vec<Finding>]) {
    for (fi, file) in files.iter().enumerate() {
        if file.crate_name == "bench" {
            continue;
        }
        let markers = panic_markers(&file.stripped);
        for (line_idx, line) in file.stripped.code.iter().enumerate() {
            if file.parsed.line_in_test(line_idx) {
                continue;
            }
            let next = file.stripped.code.get(line_idx + 1).map(String::as_str);
            for site in panic_sites_in_line(line, next) {
                if site.self_reasoned {
                    continue;
                }
                let suffix = match panic_marker_for(&markers, line_idx) {
                    Some(m) if m.reason.is_some() => continue,
                    Some(_) => " [marker present but missing a reason]",
                    None => "",
                };
                findings[fi].push(Finding {
                    rule: RuleId::P001,
                    file: file.display_path.clone(),
                    line: line_idx + 1,
                    message: format!(
                        "`{}` in a library crate; convert to a typed error, a reasoned \
                         `.expect(\"...\")`, or mark `panic: reason`{suffix}",
                        site.label
                    ),
                    waiver: None,
                });
            }
        }
    }
}

/// Rules W001/W002: stale waivers and stale markers.
///
/// Runs after every other rule (including waiver resolution) so "does this
/// waiver still silence anything?" is answered against the final finding
/// set. A waiver at line L covers findings on lines `[L, L+lookback]`; the
/// staleness window mirrors that exactly.
pub fn rule_w(files: &[IndexedFile], findings: &mut [Vec<Finding>]) {
    use crate::markers::LOOKBACK_LINES;
    for (fi, file) in files.iter().enumerate() {
        let mut stale = Vec::new();
        // W001 — waivers with no finding of the waived rule in the window.
        for (line_idx, comment) in file.stripped.comments.iter().enumerate() {
            let mut from = 0;
            while let Some(p) = comment[from..].find("lint: allow(") {
                let rest = &comment[from + p + "lint: allow(".len()..];
                from += p + "lint: allow(".len();
                let Some(close) = rest.find(')') else { break };
                let Some(rule) = RuleId::parse(&rest[..close]) else { continue };
                let hi = line_idx + LOOKBACK_LINES;
                let used = findings[fi]
                    .iter()
                    .any(|f| f.rule == rule && f.line > line_idx && f.line <= hi + 1);
                if !used {
                    stale.push(Finding {
                        rule: RuleId::W001,
                        file: file.display_path.clone(),
                        line: line_idx + 1,
                        message: format!(
                            "stale waiver: no {} finding within its window; remove it",
                            rule.code()
                        ),
                        waiver: None,
                    });
                }
            }
        }
        // W002 — markers with no matching construct in the window.
        let code = &file.stripped.code;
        let construct_in_window = |line: usize, alloc: bool| -> bool {
            let hi = (line + LOOKBACK_LINES).min(code.len().saturating_sub(1));
            (line..=hi).any(|idx| {
                if alloc {
                    !alloc_sites_in_line(&code[idx]).is_empty()
                } else {
                    let next = code.get(idx + 1).map(String::as_str);
                    !panic_sites_in_line(&code[idx], next).is_empty()
                }
            })
        };
        for m in alloc_markers(&file.stripped) {
            if !construct_in_window(m.line, true) {
                stale.push(Finding {
                    rule: RuleId::W002,
                    file: file.display_path.clone(),
                    line: m.line + 1,
                    message: "stale `alloc:` marker: no allocation construct within its window; remove it"
                        .to_string(),
                    waiver: None,
                });
            }
        }
        for m in panic_markers(&file.stripped) {
            if !construct_in_window(m.line, false) {
                stale.push(Finding {
                    rule: RuleId::W002,
                    file: file.display_path.clone(),
                    line: m.line + 1,
                    message: "stale `panic:` marker: no panic construct within its window; remove it"
                        .to_string(),
                    waiver: None,
                });
            }
        }
        findings[fi].extend(stale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_site_detection_is_word_bounded() {
        assert_eq!(alloc_sites_in_line("let v = Vec::new();"), vec!["Vec::new"]);
        assert_eq!(alloc_sites_in_line("let v = vec![0f32; n];"), vec!["vec!"]);
        assert!(alloc_sites_in_line("let v = MyVec::new();").is_empty());
        assert_eq!(
            alloc_sites_in_line("let s: Vec<_> = xs.iter().collect::<Vec<_>>();"),
            vec![".collect()"]
        );
        assert_eq!(alloc_sites_in_line("let c = block.clone();"), vec![".clone()"]);
        assert!(alloc_sites_in_line("let c = self.cloned_count;").is_empty());
        assert!(alloc_sites_in_line("let m = template.clone_model();").iter().any(|s| s == ".clone_model()"));
    }

    #[test]
    fn panic_site_detection_distinguishes_reasoned_expects() {
        let sites = panic_sites_in_line("let x = v.pop().unwrap();", None);
        assert_eq!(sites.len(), 1);
        assert!(!sites[0].self_reasoned);
        // unwrap_or family is not a panic site.
        assert!(panic_sites_in_line("let x = v.pop().unwrap_or(0);", None).is_empty());
        let sites = panic_sites_in_line("let x = v.pop().expect(\"ring is non-empty\");", None);
        assert_eq!(sites.len(), 1);
        assert!(sites[0].self_reasoned);
        let sites = panic_sites_in_line("let x = v.pop().expect(\"\");", None);
        assert!(!sites[0].self_reasoned, "{}", sites.len());
        let sites = panic_sites_in_line("let x = v.pop().expect(msg);", None);
        assert!(!sites[0].self_reasoned);
        // rustfmt-split message on the next line.
        let sites = panic_sites_in_line("let x = v.pop().expect(", Some("    \"buffer warmed above\","));
        assert!(sites[0].self_reasoned);
        let sites = panic_sites_in_line("panic!(\"corrupt state\");", None);
        assert_eq!(sites.len(), 1);
        assert!(!sites[0].self_reasoned, "panic! always needs a marker");
    }
}
