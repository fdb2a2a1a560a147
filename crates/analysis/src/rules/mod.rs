//! The rule families. Each rule takes a parsed [`SourceFile`] and appends
//! [`Finding`]s; [`crate::lint_workspace_files`] runs them all.
//! Workspace-level checks (crate attributes, public-function readers) live
//! in [`crate_attrs`] and [`reader`] and run over the whole file set at
//! once.

pub mod atomics;
pub mod comparator;
pub mod crate_attrs;
pub mod hotpath;
pub mod panics;
pub mod reader;
pub mod unsafe_audit;

use crate::scan::SourceFile;

/// One lint finding, addressed to a human: where, which rule, and what the
/// accepted justifications would have been.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

pub(crate) fn push(findings: &mut Vec<Finding>, file: &SourceFile, idx: usize, rule: &'static str, message: String) {
    findings.push(Finding { path: file.path.clone(), line: idx + 1, rule, message });
}
