//! Loading interaction logs.
//!
//! Real benchmark data (if available to a downstream user) can be loaded from
//! a simple tab/comma-separated text format of `user, item, timestamp,
//! rating` records and pushed through [`crate::preprocess::preprocess`].

use crate::interaction::Interaction;
use std::fmt;
use std::fs;
use std::path::Path;

/// Errors produced when loading interactions.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line in a text interaction file.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::Parse { line, message } => write!(f, "parse error on line {line}: {message}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Parses interactions from text where each non-empty, non-`#` line holds
/// `user<sep>item<sep>timestamp[<sep>rating]`, with `sep` either a tab or a
/// comma. A missing rating defaults to 5.0 (implicit feedback).
pub fn parse_interactions(text: &str) -> Result<Vec<Interaction>, LoadError> {
    let mut out = Vec::new();
    for (idx, raw_line) in text.lines().enumerate() {
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(['\t', ',']).map(str::trim).collect();
        if fields.len() < 3 {
            return Err(LoadError::Parse {
                line: idx + 1,
                message: format!("expected at least 3 fields, found {}", fields.len()),
            });
        }
        let parse = |s: &str, what: &str| -> Result<u64, LoadError> {
            s.parse::<u64>().map_err(|_| LoadError::Parse { line: idx + 1, message: format!("invalid {what}: {s:?}") })
        };
        let user = parse(fields[0], "user id")?;
        let item = parse(fields[1], "item id")?;
        let timestamp = parse(fields[2], "timestamp")?;
        let rating = if fields.len() > 3 {
            fields[3]
                .parse::<f32>()
                .map_err(|_| LoadError::Parse { line: idx + 1, message: format!("invalid rating: {:?}", fields[3]) })?
        } else {
            5.0
        };
        out.push(Interaction::new(user, item, timestamp, rating));
    }
    Ok(out)
}

/// Reads interactions from a file (see [`parse_interactions`] for the format).
pub fn load_interactions(path: impl AsRef<Path>) -> Result<Vec<Interaction>, LoadError> {
    let text = fs::read_to_string(path)?;
    parse_interactions(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tab_and_comma_separated_lines() {
        let text = "# comment\n1\t10\t100\t4.5\n2,20,200\n\n3\t30\t300\t2.0\n";
        let parsed = parse_interactions(text).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].rating, 4.5);
        assert_eq!(parsed[1].rating, 5.0); // default implicit rating
        assert_eq!(parsed[2].user, 3);
    }

    #[test]
    fn reports_line_numbers_for_bad_input() {
        let err = parse_interactions("1\t2\t3\nbad line here").unwrap_err();
        match err {
            LoadError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn rejects_non_numeric_ids() {
        let err = parse_interactions("a\t2\t3").unwrap_err();
        assert!(err.to_string().contains("user id"));
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = load_interactions("/definitely/not/a/real/path.tsv").unwrap_err();
        assert!(matches!(err, LoadError::Io(_)));
    }
}
