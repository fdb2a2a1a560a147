//! Rule family 2: the atomic-ordering policy.
//!
//! In the audited concurrency-critical modules, every use of an atomic
//! `Ordering::*` variant must either carry an `// ordering:` justification
//! comment at the use site or be covered by an entry in the checked-in
//! [`policy table`](crate::policy). PR 7 shipped a real ordering race in
//! span delivery; this rule makes "why is this ordering sufficient?" a
//! question every future diff in these files has to answer in writing.
//!
//! Only the five atomic variants are matched — `std::cmp::Ordering`'s
//! `Less`/`Equal`/`Greater` (ubiquitous in the kernels and stats code) are
//! not atomics and are ignored. `#[cfg(test)]` items are exempt.

use super::{push, Finding};
use crate::policy;
use crate::scan::{has_marker, justification, SourceFile};

pub const RULE: &str = "atomic-ordering";

/// Path fragments selecting the audited modules: the pool workers, the
/// kernel dispatch counters, all of telemetry, the serve dispatcher, degrade
/// path and model registry, and the fault-injection registry.
const AUDITED: &[&str] = &[
    "crates/tensor/src/pool/workers.rs",
    "crates/tensor/src/kernels/counters.rs",
    "crates/telemetry/src/",
    "crates/serve/src/server.rs",
    "crates/serve/src/degrade.rs",
    "crates/serve/src/registry.rs",
    "crates/faults/src/",
];

const ATOMIC_VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn audited(path: &str) -> bool {
    AUDITED.iter().any(|fragment| path.contains(fragment))
}

pub fn check(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !audited(&file.path) {
        return;
    }
    for idx in 0..file.lines.len() {
        if file.test_mask[idx] {
            continue;
        }
        let code = file.lines[idx].code.as_str();
        let mut from = 0;
        while let Some(pos) = code[from..].find("Ordering::") {
            let at = from + pos + "Ordering::".len();
            from = at;
            let rest = &code[at..];
            let Some(variant) = ATOMIC_VARIANTS.iter().find(|v| {
                rest.starts_with(**v) && !rest[v.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
            }) else {
                continue; // cmp::Ordering or a qualified path — not an atomic
            };
            if policy::lookup(&file.path, variant).is_some() {
                continue;
            }
            if has_marker(&justification(&file.lines, idx), "ordering:") {
                continue;
            }
            push(
                findings,
                file,
                idx,
                RULE,
                format!(
                    "`Ordering::{variant}` in an audited module without an `// ordering:` comment or a policy-table \
                     entry"
                ),
            );
        }
    }
}
