//! Fixture-driven integration tests for the determinism linter.
//!
//! Each `fixtures/d00x_bad.rs` file must demonstrably trip its rule; the
//! tricky fixture (patterns hidden in strings/comments/raw strings) must
//! produce zero findings; and the live workspace tree must pass clean under
//! `--deny-all` semantics.

use std::path::{Path, PathBuf};

use fedcross_lint::{lint_source, lint_tree, Finding, RuleId};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()))
}

fn lint_fixture(crate_name: &str, file_name: &str, fixture_name: &str) -> Vec<Finding> {
    lint_source(crate_name, file_name, fixture_name, &fixture(fixture_name))
}

fn count(findings: &[Finding], rule: RuleId) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn d001_fixture_trips_on_all_three_iteration_shapes() {
    let findings = lint_fixture("core", "tracker.rs", "d001_bad.rs");
    // Same-line `.iter()`, multi-line `.values()`, and `for … in &set`.
    assert_eq!(count(&findings, RuleId::D001), 3, "{findings:#?}");
    assert!(findings.iter().all(|f| f.waiver.is_none()));
    // The same file linted as a non-restricted crate is clean.
    assert!(lint_fixture("bench", "tracker.rs", "d001_bad.rs").is_empty());
}

#[test]
fn d002_fixture_trips_on_clock_and_ambient_rng() {
    let findings = lint_fixture("flsim", "timing.rs", "d002_bad.rs");
    // Instant::now, thread_rng, rand::random, SystemTime (the `use
    // std::time::Instant` line itself is not a call site and `Instant` alone
    // is not a pattern, but `SystemTime::now` lines match `SystemTime`).
    assert!(count(&findings, RuleId::D002) >= 4, "{findings:#?}");
    assert!(lint_fixture("bench", "timing.rs", "d002_bad.rs").is_empty());
}

#[test]
fn d003_fixture_trips_only_on_unmarked_forks() {
    let findings = lint_fixture("core", "rng_use.rs", "d003_bad.rs");
    // Two unmarked call sites; the audited one is silent.
    assert_eq!(count(&findings, RuleId::D003), 2, "{findings:#?}");
}

#[test]
fn d004_fixture_trips_on_fma_and_parallel_sum() {
    let findings = lint_fixture("core", "aggregation.rs", "d004_bad.rs");
    assert_eq!(count(&findings, RuleId::D004), 2, "{findings:#?}");
    // Outside kernel scope the same source is clean.
    assert!(lint_fixture("core", "selection.rs", "d004_bad.rs").is_empty());
}

#[test]
fn d005_fixture_trips_on_uncommented_unsafe_only() {
    let findings = lint_fixture("tensor", "raw.rs", "d005_bad.rs");
    assert_eq!(count(&findings, RuleId::D005), 1, "{findings:#?}");
}

#[test]
fn d006_fixture_trips_only_on_a_twin_with_its_own_body() {
    // The twin with its own body fires; the wrapper, the orphan kernel and
    // the private `*_into` helper stay clean.
    let findings = lint_fixture("tensor", "ops.rs", "d006_bad.rs");
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, RuleId::D006, "{findings:#?}");
    assert!(findings[0].message.contains("`fn axpy`"), "{findings:#?}");
    assert_eq!(findings[0].line, 11, "{findings:#?}");
    // Outside the kernel files the same source is clean.
    assert!(lint_fixture("core", "selection.rs", "d006_bad.rs").is_empty());
}

#[test]
fn tricky_fixture_is_clean_under_the_strictest_scope() {
    // Crate "core" + file "aggregation.rs" arms D001, D002, D003, D004,
    // D005 and D006 simultaneously.
    let findings = lint_fixture("core", "aggregation.rs", "clean_tricky.rs");
    assert!(findings.is_empty(), "false positives: {findings:#?}");
}

#[test]
fn waiver_with_reason_silences_and_without_reason_does_not() {
    let findings = lint_fixture("core", "gated.rs", "waived.rs");
    assert_eq!(findings.len(), 2, "{findings:#?}");
    let waived: Vec<_> = findings.iter().filter(|f| f.waiver.is_some()).collect();
    let open: Vec<_> = findings.iter().filter(|f| f.waiver.is_none()).collect();
    assert_eq!(waived.len(), 1, "{findings:#?}");
    assert!(waived[0].waiver.as_deref().unwrap().contains("feature gate"));
    assert_eq!(open.len(), 1, "{findings:#?}");
    assert!(open[0].message.contains("missing a reason"));
}

#[test]
fn a001_fixture_trips_through_multiple_call_hops() {
    // "tensor" + "aggregation.rs" makes `pub fn weighted_sum_into` a
    // hot-path root; the fixture allocates one and two hops below it.
    let findings = lint_fixture("tensor", "aggregation.rs", "a_bad.rs");
    let a001: Vec<_> = findings.iter().filter(|f| f.rule == RuleId::A001).collect();
    assert_eq!(a001.len(), 2, "{findings:#?}");
    assert!(
        a001.iter()
            .any(|f| f.message.contains("weighted_sum_into -> accumulate")),
        "one-hop chain missing: {a001:#?}"
    );
    assert!(
        a001.iter()
            .any(|f| f.message.contains("weighted_sum_into -> accumulate -> finalize")),
        "two-hop chain missing: {a001:#?}"
    );
    // The reasoned `alloc: bounded` site and the non-reachable allocating
    // twin contribute nothing; no other rule fires either.
    assert_eq!(findings.len(), 2, "{findings:#?}");
}

#[test]
fn a001_reports_the_allocating_twin_behind_a_pooled_form() {
    // `forward_into` calling its allocating twin `forward` puts the twin on
    // the hot path: the call graph has no fallback-twin cut.
    let findings = lint_fixture("nn", "layer.rs", "a_fallback_twin.rs");
    let a001: Vec<_> = findings.iter().filter(|f| f.rule == RuleId::A001).collect();
    assert_eq!(a001.len(), 1, "{findings:#?}");
    assert!(
        a001[0].message.contains("forward_into -> forward"),
        "twin chain missing: {a001:#?}"
    );
    assert_eq!(findings.len(), 1, "{findings:#?}");
}

#[test]
fn p001_fixture_trips_on_bare_panics_only() {
    let findings = lint_fixture("core", "state.rs", "p_bad.rs");
    // Bare `.unwrap()`, `.expect("")` and `panic!` are flagged; the
    // marker-covered unwrap and the reasoned expect are not.
    assert_eq!(count(&findings, RuleId::P001), 3, "{findings:#?}");
    assert_eq!(findings.len(), 3, "{findings:#?}");
}

#[test]
fn w_fixture_trips_on_stale_waiver_and_stale_marker() {
    let findings = lint_fixture("core", "cache.rs", "w_stale.rs");
    assert_eq!(count(&findings, RuleId::W001), 1, "{findings:#?}");
    assert_eq!(count(&findings, RuleId::W002), 1, "{findings:#?}");
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(findings
        .iter()
        .any(|f| f.rule == RuleId::W001 && f.message.contains("D002")));
}

#[test]
fn live_tree_passes_deny_all() {
    // crates/lint/ -> crates/ -> workspace root.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf();
    let report = lint_tree(&root).expect("lint walk");
    assert!(report.files_scanned > 50, "suspiciously few files scanned");
    let violations = report.violations();
    assert!(
        violations.is_empty(),
        "un-waived determinism violations in the tree:\n{}",
        violations
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
