//! Golden tests: each rule family against known-bad, known-good, and
//! escape-hatch fixtures. The fixtures live under `tests/fixtures/` as real
//! source files (never compiled — cargo only builds top-level `tests/*.rs`),
//! and are linted under *logical* workspace paths, because several rules
//! scope themselves by path (audited modules, tier-module placement, the
//! serve/online panic surface).

use ham_analysis::rules::{atomics, comparator, crate_attrs, hotpath, panics, reader, unsafe_audit};
use ham_analysis::scan::SourceFile;
use ham_analysis::{lint_source, lint_workspace_files, Finding};

fn rules_hit(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

// --- rule family 1: unsafe-audit ------------------------------------------

#[test]
fn unsafe_without_safety_comment_is_flagged() {
    let findings = lint_source("crates/tensor/src/pool/scope.rs", include_str!("fixtures/unsafe_bad.rs"));
    assert_eq!(rules_hit(&findings), vec![unsafe_audit::RULE]);
    assert_eq!(findings[0].line, 2, "the finding points at the unsafe block");
}

#[test]
fn safety_comments_and_doc_safety_sections_satisfy_the_audit() {
    let findings = lint_source("crates/tensor/src/pool/scope.rs", include_str!("fixtures/unsafe_good.rs"));
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn target_feature_fn_must_live_in_its_tier_module() {
    let src = include_str!("fixtures/target_feature_avx2.rs");
    let misplaced = lint_source("crates/tensor/src/kernels/portable.rs", src);
    assert_eq!(rules_hit(&misplaced), vec![unsafe_audit::RULE]);
    assert!(misplaced[0].message.contains("avx2.rs"), "names the owning module: {misplaced:?}");
    let in_place = lint_source("crates/tensor/src/kernels/avx2.rs", src);
    assert!(in_place.is_empty(), "unexpected: {in_place:?}");
}

#[test]
fn target_feature_fn_must_not_be_crate_public() {
    let findings =
        lint_source("crates/tensor/src/kernels/avx512.rs", include_str!("fixtures/target_feature_public.rs"));
    assert_eq!(rules_hit(&findings), vec![unsafe_audit::RULE]);
    assert!(findings[0].message.contains("dispatcher"), "explains the reachability rule: {findings:?}");
}

#[test]
fn template_target_feature_attribute_is_legal_only_in_the_template_file() {
    let src = include_str!("fixtures/template_attr_misplaced.rs");
    let misplaced = lint_source("crates/tensor/src/kernels/avx2.rs", src);
    assert_eq!(rules_hit(&misplaced), vec![unsafe_audit::RULE]);
    assert_eq!(misplaced[0].line, 4, "the finding points at the attribute");
    assert!(misplaced[0].message.contains("kernels/simd.rs"), "names the template file: {misplaced:?}");
    let in_place = lint_source("crates/tensor/src/kernels/simd.rs", src);
    assert!(in_place.is_empty(), "unexpected: {in_place:?}");
}

#[test]
fn a_templated_kernel_must_not_be_crate_public_either() {
    let findings = lint_source("crates/tensor/src/kernels/simd.rs", include_str!("fixtures/template_pub_kernel.rs"));
    assert_eq!(rules_hit(&findings), vec![unsafe_audit::RULE]);
    assert_eq!(findings[0].line, 5, "the finding points at the fn");
    assert!(findings[0].message.contains("dispatcher"), "explains the reachability rule: {findings:?}");
}

#[test]
fn the_template_is_stamped_only_from_a_tier_module_with_that_modules_tier() {
    let from_dispatcher =
        lint_source("crates/tensor/src/kernels/mod.rs", include_str!("fixtures/template_invoked_from_dispatcher.rs"));
    assert_eq!(rules_hit(&from_dispatcher), vec![unsafe_audit::RULE]);
    assert_eq!(from_dispatcher[0].line, 4);
    assert!(from_dispatcher[0].message.contains("tier module"), "explains who may stamp: {from_dispatcher:?}");

    let src = include_str!("fixtures/template_wrong_tier.rs");
    let wrong_tier = lint_source("crates/tensor/src/kernels/avx2.rs", src);
    assert_eq!(rules_hit(&wrong_tier), vec![unsafe_audit::RULE]);
    assert!(wrong_tier[0].message.contains("own tier"), "an avx512f literal inside avx2.rs: {wrong_tier:?}");
    // Not AVX-512's either: each tier module has one literal, and this one
    // drops the `avx512bw` its int8 kernels need.
    let partial = lint_source("crates/tensor/src/kernels/avx512.rs", src);
    assert_eq!(rules_hit(&partial), vec![unsafe_audit::RULE]);
    assert!(partial[0].message.contains("avx512f,avx512bw"), "names the expected literal: {partial:?}");
}

#[test]
fn the_template_macro_must_stay_private_to_the_kernel_module() {
    let findings = lint_source("crates/tensor/src/kernels/simd.rs", include_str!("fixtures/template_exported.rs"));
    assert_eq!(rules_hit(&findings), vec![unsafe_audit::RULE, unsafe_audit::RULE]);
    assert_eq!((findings[0].line, findings[1].line), (2, 6), "#[macro_export] and the pub re-export are both flagged");
}

#[test]
fn tier_modules_must_stay_private_and_unreexported() {
    let findings = lint_source("crates/tensor/src/kernels/mod.rs", include_str!("fixtures/tier_reexport.rs"));
    assert_eq!(rules_hit(&findings), vec![unsafe_audit::RULE, unsafe_audit::RULE]);
    assert_eq!((findings[0].line, findings[1].line), (1, 5), "pub mod and pub use are both flagged");
}

// --- rule family 2: atomic-ordering ---------------------------------------

#[test]
fn bare_ordering_in_an_audited_module_is_flagged() {
    let src = include_str!("fixtures/atomic_bare.rs");
    let findings = lint_source("crates/serve/src/server.rs", src);
    assert_eq!(rules_hit(&findings), vec![atomics::RULE]);
    assert_eq!(findings[0].line, 4, "only the runtime SeqCst store — cmp::Ordering and test code are exempt");
}

#[test]
fn the_model_registry_is_audited() {
    let findings = lint_source("crates/serve/src/registry.rs", include_str!("fixtures/atomic_bare.rs"));
    assert_eq!(rules_hit(&findings), vec![atomics::RULE]);
}

#[test]
fn unaudited_modules_are_out_of_scope_for_the_ordering_rule() {
    let findings = lint_source("crates/core/src/lib.rs", include_str!("fixtures/atomic_bare.rs"));
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn ordering_comments_satisfy_the_rule_trailing_or_above() {
    let findings = lint_source("crates/serve/src/server.rs", include_str!("fixtures/atomic_justified.rs"));
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn the_policy_table_covers_blessed_orderings_only() {
    let findings = lint_source("crates/telemetry/src/metrics.rs", include_str!("fixtures/atomic_policy.rs"));
    assert_eq!(rules_hit(&findings), vec![atomics::RULE]);
    assert_eq!(findings[0].line, 8, "Relaxed is policy-blessed in telemetry; the SeqCst swap is not");
}

// --- rule family 3: hot-path-alloc ----------------------------------------

#[test]
fn marked_hot_path_functions_must_not_allocate() {
    let findings = lint_source("crates/serve/src/shard.rs", include_str!("fixtures/hotpath_alloc.rs"));
    assert_eq!(rules_hit(&findings), vec![hotpath::RULE]);
    assert!(findings[0].message.contains("Vec::new"), "names the allocating call: {findings:?}");
}

#[test]
fn unmarked_functions_may_allocate_and_clean_marked_ones_pass() {
    let findings = lint_source("crates/serve/src/shard.rs", include_str!("fixtures/hotpath_clean.rs"));
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn a_marked_tile_loop_may_not_allocate_but_its_set_up_may() {
    let findings = lint_source("crates/serve/src/shard.rs", include_str!("fixtures/hotpath_tile_loop.rs"));
    assert_eq!(rules_hit(&findings), vec![hotpath::RULE]);
    assert_eq!(findings[0].line, 10, "only the allocation inside the loop — the buffers built above it are set-up");
    assert!(findings[0].message.contains(".to_vec"), "names the allocating call: {findings:?}");
}

#[test]
fn allow_alloc_escapes_a_deliberate_allocation() {
    let findings = lint_source("crates/serve/src/shard.rs", include_str!("fixtures/hotpath_allowed.rs"));
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

// --- rule family 4: panic-surface -----------------------------------------

#[test]
fn unwrap_and_expect_in_serve_runtime_code_are_flagged() {
    let src = include_str!("fixtures/panic_bad.rs");
    let findings = lint_source("crates/serve/src/registry.rs", src);
    assert_eq!(rules_hit(&findings), vec![panics::RULE, panics::RULE]);
    assert_eq!((findings[0].line, findings[1].line), (4, 8));
}

#[test]
fn panic_rule_scopes_to_serve_and_online_only() {
    let findings = lint_source("crates/data/src/loader.rs", include_str!("fixtures/panic_bad.rs"));
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn poison_recovery_allow_panic_and_tests_all_pass() {
    let findings = lint_source("crates/online/src/lib.rs", include_str!("fixtures/panic_allowed.rs"));
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

// --- rule family 5: crate-attrs (workspace-level) -------------------------

#[test]
fn unsafe_free_crates_must_forbid_unsafe_code() {
    let missing = SourceFile::parse("crates/serve/src/lib.rs", "//! Serving.\npub mod server;\n");
    let findings = lint_workspace_files(&[missing], &[]);
    assert_eq!(rules_hit(&findings), vec![crate_attrs::RULE]);

    let present = SourceFile::parse("crates/serve/src/lib.rs", "//! Serving.\n#![forbid(unsafe_code)]\n");
    assert!(lint_workspace_files(&[present], &[]).is_empty());
}

#[test]
fn ham_tensor_must_deny_unsafe_op_in_unsafe_fn() {
    let missing = SourceFile::parse("crates/tensor/src/lib.rs", "//! Tensors.\n");
    let findings = lint_workspace_files(&[missing], &[]);
    assert_eq!(rules_hit(&findings), vec![crate_attrs::RULE]);
    assert!(findings[0].message.contains("unsafe_op_in_unsafe_fn"));

    let present = SourceFile::parse("crates/tensor/src/lib.rs", "#![deny(unsafe_op_in_unsafe_fn)]\n");
    assert!(lint_workspace_files(&[present], &[]).is_empty());
}

#[test]
fn non_lib_files_are_exempt_from_crate_attrs() {
    let module = SourceFile::parse("crates/serve/src/server.rs", "fn run() {}\n");
    assert!(lint_workspace_files(&[module], &[]).is_empty());
}

// --- rule family 6: comparator --------------------------------------------

#[test]
fn a_partial_cmp_unwrap_or_comparator_is_flagged_even_across_lines() {
    let findings = lint_source("crates/tensor/src/stats.rs", include_str!("fixtures/comparator_bad.rs"));
    assert_eq!(rules_hit(&findings), vec![comparator::RULE; 3]);
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, [2, 7, 14], "each finding points at the partial_cmp call");
    assert!(findings[0].message.contains("total_cmp"), "names the fix: {findings:?}");
}

/// The rule has no escape: the annotation it once honoured (assembled here,
/// so that no source file carries one) leaves the finding standing.
#[test]
fn an_allow_comparator_annotation_is_flagged_all_the_same() {
    let reason = "// shortlists never hold a NaN score";
    let annotation = format!("// ham-lint: {}(comparator, \"shortlists never hold a NaN score\")", "allow");
    let annotated = include_str!("fixtures/comparator_bad.rs").replace(reason, &annotation);
    assert!(annotated.contains(&annotation));
    let findings = lint_source("crates/tensor/src/stats.rs", &annotated);
    assert_eq!(findings.iter().map(|f| f.line).collect::<Vec<_>>(), [2, 7, 14], "{findings:?}");
}

#[test]
fn total_cmp_expect_impls_and_tests_all_pass() {
    for path in ["crates/tensor/src/ops.rs", "crates/experiments/src/tuning.rs"] {
        let findings = lint_source(path, include_str!("fixtures/comparator_ok.rs"));
        assert!(findings.is_empty(), "unexpected: {findings:?}");
    }
}

// --- rule family 7: reader (workspace-level) ------------------------------

const LIB: &str = "crates/eval/src/ranking.rs";

/// Lints `lib` as `crates/eval/src/ranking.rs` beside reader-only files;
/// returns the lines flagged by the reader rule.
fn reader_lines(lib: &str, readers: &[(&str, &str)]) -> Vec<usize> {
    let linted = [SourceFile::parse(LIB, lib)];
    let readers: Vec<SourceFile> = readers.iter().map(|(path, src)| SourceFile::parse(path, src)).collect();
    let findings = lint_workspace_files(&linted, &readers);
    assert!(findings.iter().all(|f| f.rule == reader::RULE), "only the reader rule: {findings:?}");
    findings.iter().map(|f| f.line).collect()
}

#[test]
fn a_pub_fn_named_only_in_its_own_file_is_flagged() {
    let lib = "pub fn hit_rate() -> f64 {\n    0.0\n}\n\npub fn report() -> f64 {\n    hit_rate()\n}\n";
    let findings = lint_workspace_files(&[SourceFile::parse(LIB, lib)], &[]);
    assert_eq!(rules_hit(&findings), vec![reader::RULE, reader::RULE]);
    assert!(findings[0].message.contains("`pub fn hit_rate`"), "names the function: {findings:?}");
    assert!(findings[0].message.contains("pub(crate)"), "names the fix: {findings:?}");
}

#[test]
fn a_pub_fn_named_only_by_its_own_unit_tests_is_flagged() {
    let lib =
        "pub fn hit_rate() -> f64 {\n    0.0\n}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
               super::hit_rate();\n    }\n}\n";
    assert_eq!(reader_lines(lib, &[]), [1]);
}

#[test]
fn comments_strings_and_pub_use_lines_are_not_readers() {
    let other = "// hit_rate is documented here\nconst NAME: &str = \"hit_rate\";\npub use ranking::hit_rate;\n\
                 pub use ranking::{\n    hit_rate,\n};\n";
    assert_eq!(reader_lines("pub fn hit_rate() {}\n", &[("crates/eval/src/lib.rs", other)]), [1]);
}

#[test]
fn an_empty_api_annotation_is_flagged() {
    for annotation in ["// ham-lint: api()", "// ham-lint: api(\"\")", "// ham-lint: api( \" \" )"] {
        let lib = format!("/// Hit rate.\n{annotation}\npub fn hit_rate() {{}}\n");
        let findings = lint_workspace_files(&[SourceFile::parse(LIB, &lib)], &[]);
        assert_eq!(rules_hit(&findings), vec![reader::RULE], "{annotation}");
        assert!(findings[0].message.contains("empty api()"), "{findings:?}");
    }
}

#[test]
fn a_reader_in_another_crates_tests_passes() {
    let test = "use ham_eval::ranking::hit_rate;\n#[test]\nfn t() {\n    assert_eq!(hit_rate(), 0.0);\n}\n";
    assert!(reader_lines("pub fn hit_rate() -> f64 {\n    0.0\n}\n", &[("crates/serve/tests/t.rs", test)]).is_empty());
}

#[test]
fn an_api_annotation_naming_its_reader_passes() {
    let lib = "/// Hit rate.\n// ham-lint: api(\"README § Telemetry\")\n#[inline]\npub fn hit_rate() {}\n";
    assert!(reader_lines(lib, &[]).is_empty());
}

#[test]
fn crate_visible_test_only_and_bin_functions_are_out_of_scope() {
    assert!(reader_lines("pub(crate) fn hit_rate() {}\nfn private() {}\n", &[]).is_empty());
    assert!(reader_lines("#[cfg(test)]\npub fn hit_rate() {\n}\n", &[]).is_empty());
    for bin in ["crates/bench/src/bin/report.rs", "crates/analysis/src/main.rs"] {
        let findings = lint_workspace_files(&[SourceFile::parse(bin, "pub fn helper() {}\n")], &[]);
        assert!(findings.is_empty(), "{bin}: {findings:?}");
    }
}
