//! A small dependency-free command-line argument parser.
//!
//! Supports `--flag value`, `--flag=value` and boolean `--flag` forms, with
//! typed accessors and an unknown-flag check so typos fail loudly.

use std::collections::BTreeMap;

/// Parsed arguments: positional words plus `--key value` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positional: Vec<String>,
    options: BTreeMap<String, String>,
}

/// Parse failure, with a message suitable for direct printing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw arguments (excluding the program name).
    ///
    /// A flag followed by another flag (or nothing) is treated as boolean
    /// `"true"`.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Args {
        let mut positional = Vec::new();
        let mut options = BTreeMap::new();
        let mut iter = raw.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(stripped) = tok.strip_prefix("--") {
                if let Some((k, v)) = stripped.split_once('=') {
                    options.insert(k.to_owned(), v.to_owned());
                } else if iter.peek().is_some_and(|n| !n.starts_with("--")) {
                    let v = iter.next().expect("peeked");
                    options.insert(stripped.to_owned(), v);
                } else {
                    options.insert(stripped.to_owned(), "true".to_owned());
                }
            } else {
                positional.push(tok);
            }
        }
        Args {
            positional,
            options,
        }
    }

    /// The positional arguments in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A string option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// A required string option.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key)
            .ok_or_else(|| ArgError(format!("missing required option --{key}")))
    }

    /// A parsed numeric/typed option with a default.
    pub fn get_parsed_or<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("option --{key} has invalid value {v:?}"))),
        }
    }

    /// A parsed option with a default that must lie in `valid`, which
    /// `what` names in the error ("at least 1", "between 0 and 1"): an
    /// out-of-range value is refused, never clamped.
    pub fn get_checked_or<T: std::str::FromStr + PartialOrd>(
        &self,
        key: &str,
        default: T,
        valid: impl std::ops::RangeBounds<T>,
        what: &str,
    ) -> Result<T, ArgError> {
        let value = self.get_parsed_or(key, default)?;
        let got = self.get(key).unwrap_or_default();
        let refused = || ArgError(format!("option --{key} must be {what}, got {got:?}"));
        valid.contains(&value).then_some(value).ok_or_else(refused)
    }

    /// True when the boolean flag is present.
    pub fn flag(&self, key: &str) -> bool {
        self.get(key).is_some_and(|v| v != "false")
    }

    /// Errors when any option outside `allowed` was passed.
    pub fn reject_unknown(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for k in self.options.keys() {
            if !allowed.contains(&k.as_str()) {
                return Err(ArgError(format!(
                    "unknown option --{k} (expected one of: {})",
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Args {
        Args::parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn positional_and_options() {
        let a = parse(&["query", "--db", "file.gdb", "--threads", "4"]);
        assert_eq!(a.positional(), &["query".to_string()]);
        assert_eq!(a.get("db"), Some("file.gdb"));
        assert_eq!(a.get_parsed_or("threads", 1usize).unwrap(), 4);
        assert_eq!(a.get_parsed_or("missing", 7usize).unwrap(), 7);
    }

    #[test]
    fn equals_form_and_boolean() {
        let a = parse(&["--k=3", "--verbose", "--out", "x.dot"]);
        assert_eq!(a.get("k"), Some("3"));
        assert!(a.flag("verbose"));
        assert!(!a.flag("quiet"));
        assert_eq!(a.get("out"), Some("x.dot"));
    }

    #[test]
    fn flag_followed_by_flag_is_boolean() {
        let a = parse(&["--exact", "--db", "f"]);
        assert!(a.flag("exact"));
        assert_eq!(a.get("db"), Some("f"));
    }

    #[test]
    fn require_and_reject_unknown() {
        let a = parse(&["--db", "f"]);
        assert!(a.require("db").is_ok());
        assert!(a.require("query").is_err());
        assert!(a.reject_unknown(&["db"]).is_ok());
        let err = a.reject_unknown(&["other"]).unwrap_err();
        assert!(err.to_string().contains("--db"));
    }

    #[test]
    fn bad_numeric_value() {
        let a = parse(&["--threads", "four"]);
        assert!(a.get_parsed_or("threads", 1usize).is_err());
    }
}
